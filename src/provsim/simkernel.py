"""Deterministic virtual-time discrete-event engine.

A run replays one consolidated scenario: batch-job arrivals, web-service
demand changes, and the regime's periodic timers, all ordered by
(time, kind priority, insertion sequence). After every event the regime's
reaction rules fire, then the regime admits queued jobs. The regime's rules
live in one ``policies.Regime`` subclass. The heap holds only pending
events: the arrival, demand-sample and timer streams each keep one entry in
it and are fed as they drain. The kernel tallies completions and integrates
consumption as it goes, so the per-event log is built only when a run asks
for it.
Virtual time is integer seconds; identical inputs produce byte-identical
event logs.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import IO, Any, Iterable, Iterator, Optional, Sequence

from . import policies
from .errors import KernelError, ScenarioError
from .metrics import MetricsReport, finalize
from .policies import PolicyParams
from .state import (
    KIND_JOB_ARRIVAL,
    KIND_JOB_COMPLETION,
    KIND_LEASE_TICK,
    KIND_PBJ_MANAGE_TICK,
    KIND_PRIORITY,
    KIND_WS_DEMAND_CHANGE,
    AdjustmentLog,
    ClusterState,
    Event,
    RunningJob,
)
from .trace import DemandTrace, Job, JobTrace

__all__ = [
    "SimResult",
    "run",
    "advance",
    "write_event_log",
    "ClusterState",
    "AdjustmentLog",
    "Event",
]


@dataclass
class SimResult:
    metrics: MetricsReport
    adjustments: AdjustmentLog
    columns: dict[str, Any]  # the report's identification columns, from the regime
    events: Optional[list[dict[str, Any]]] = None  # None unless recorded


def advance(state: ClusterState, event: Event) -> ClusterState:
    """Apply an event's primitive effect (no policy reaction).

    Arrivals enqueue and completions free the job's nodes into the batch RE's
    idle set; demand changes and timers have no primitive effect. Policy
    reactions are dispatched by `run`.
    """
    if event.time < state.clock:
        raise KernelError(f"time regression: event at {event.time} before clock {state.clock}")
    state.clock = event.time
    if event.kind == KIND_JOB_ARRIVAL:
        state.queue.append(event.payload)
    elif event.kind == KIND_JOB_COMPLETION:
        job, _attempt = event.payload
        record = state.running.pop(job.id)
        state.running_alloc -= record.alloc
        state.pbj_idle += record.alloc
    return state


def _stream(kind: str, base: int, entries: Iterable[tuple[int, Any]]) -> Iterator[Event]:
    """Events of one kind from (time, payload) pairs, numbered from seq ``base``."""
    for seq, (time, payload) in enumerate(entries, base):
        yield Event(time, kind, seq, payload)


class _Kernel:
    """One simulation run; single-threaded and fully deterministic.

    The regime object makes every regime decision. It starts jobs and
    schedules its own timers through ``start_job`` and ``push``.
    """

    def __init__(self, job_trace: JobTrace, demand_trace: DemandTrace, regime: policies.Regime,
                 record_events: bool):
        self.regime = regime
        self.duration = job_trace.window[1]
        self.job_trace = job_trace
        self.demand_trace = demand_trace
        self.state = regime.initial_state()
        self.log = AdjustmentLog()
        self.events: Optional[list[dict[str, Any]]] = [] if record_events else None
        self._heap: list[tuple[int, int, int, Event]] = []
        self._streams: dict[str, Iterator[Event]] = {}
        self._seeded = self._open_streams()  # seqs below this belong to the seeded streams
        self._seq = itertools.count(self._seeded)

    # -- event plumbing ----------------------------------------------------

    def push(self, time: int, kind: str, payload: Any = None) -> None:
        seq = next(self._seq)
        event = Event(time, kind, seq, payload)
        heapq.heappush(self._heap, (time, KIND_PRIORITY[kind], seq, event))

    def _feed(self, kind: str) -> None:
        """Push the next event of the seeded stream of ``kind``, if any."""
        event = next(self._streams[kind], None)
        if event is not None:
            heapq.heappush(self._heap, (event.time, KIND_PRIORITY[kind], event.seq, event))

    def _open_streams(self) -> int:
        """Open the arrival, demand-sample and timer streams and return the
        number of events they hold.

        Each event takes the seq it would get if every arrival, then every
        demand sample up to the window end, then each timer kind's ticks
        were pushed up front: its stream's base plus its index. Dynamic
        events are numbered after all of them.
        """
        duration = self.duration
        jobs = sorted(self.job_trace.jobs, key=attrgetter("submit_time"))
        samples = sorted(self.demand_trace.samples, key=itemgetter(0))
        in_window = sum(1 for time, _ in samples if time <= duration)
        ticks = range(0, duration + 1, self.regime.params.L)
        streams = [
            (KIND_JOB_ARRIVAL, len(jobs), ((job.submit_time, job) for job in jobs)),
            (KIND_WS_DEMAND_CHANGE, in_window, itertools.islice(samples, in_window)),
        ]
        streams += [(kind, len(ticks), ((t, None) for t in ticks))
                    for kind in self.regime.timer_kinds]
        base = 0
        for kind, count, entries in streams:
            self._streams[kind] = _stream(kind, base, entries)
            self._feed(kind)
            base += count
        return base

    # -- per-event processing ----------------------------------------------

    def start_job(self, job: Job, now: int) -> None:
        attempt = self.state.attempts.pop(job.id, 0) + 1
        self.state.start_seq += 1
        self.state.running[job.id] = RunningJob(
            job=job, start_time=now, alloc=job.size, attempt=attempt,
            start_seq=self.state.start_seq,
        )
        self.state.running_alloc += job.size
        self.state.pbj_idle -= job.size
        self.push(now + job.runtime, KIND_JOB_COMPLETION, (job, attempt))

    def _record(self, event: Event, started: Sequence[int], killed: Sequence[int],
                adjustments_from: int, snapshot: dict[str, int]) -> None:
        payload: dict[str, Any]
        if event.kind == KIND_JOB_ARRIVAL:
            job = event.payload
            payload = {"job_id": job.id, "size": job.size, "runtime": job.runtime,
                       "submit": job.submit_time}
        elif event.kind == KIND_JOB_COMPLETION:
            job, attempt = event.payload
            payload = {"job_id": job.id, "size": job.size, "runtime": job.runtime,
                       "submit": job.submit_time, "attempt": attempt,
                       "turnaround": event.time - job.submit_time}
        elif event.kind == KIND_WS_DEMAND_CHANGE:
            payload = {"demand": event.payload}
        elif event.kind == KIND_LEASE_TICK and isinstance(event.payload, dict):
            payload = dict(event.payload)
        else:
            payload = {}
        record: dict[str, Any] = {"time": event.time, "kind": event.kind, "payload": payload}
        if started:
            record["started"] = started
        if killed:
            record["killed"] = killed
        new_adjustments = self.log.entries[adjustments_from:]
        if new_adjustments:
            record["adjustments"] = [[a, d] for _, a, d in new_adjustments]
        record["state"] = snapshot
        self.events.append(record)

    def execute(self) -> SimResult:
        """Process every event up to the window end.

        Each non-stale completion adds to the completed count and the runtime
        and turnaround sums. The consumption level after each event is
        integrated into node-seconds as time moves on. A later level at the
        same time replaces the earlier one, so a level enters the peak only
        once time moves past it or the window ends. Event records are built
        only when asked for.
        """
        regime, state, log, heap = self.regime, self.state, self.log, self._heap
        heappop, seeded, duration = heapq.heappop, self._seeded, self.duration
        record = self.events is not None
        completed = runtime_sum = turnaround_sum = 0
        level, since, peak, total = regime.consumption(state), 0, 0, 0
        while heap:
            _, _, seq, event = heappop(heap)
            time, kind = event.time, event.kind
            if time > duration:
                break
            if seq < seeded:
                self._feed(kind)
            if kind == KIND_JOB_COMPLETION:
                job, attempt = event.payload
                running = state.running.get(job.id)
                if running is None or running.attempt != attempt:
                    continue  # a killed attempt's completion
                completed += 1
                runtime_sum += job.runtime
                turnaround_sum += time - job.submit_time
            adjustments_from = log.count
            advance(state, event)
            killed: Sequence[int] = ()
            if kind == KIND_WS_DEMAND_CHANGE:
                killed = regime.on_demand(state, event.payload, log)
            elif kind == KIND_LEASE_TICK or kind == KIND_PBJ_MANAGE_TICK:
                regime.on_tick(state, event, log)
            started = regime.admit(self)
            # Taken also when not recorded: perfbench/tracer.py derives its
            # queue-length figures from one snapshot call per processed event.
            snapshot = state.snapshot()
            if record:
                self._record(event, started, killed, adjustments_from, snapshot)
            new_level = regime.consumption(state)
            if new_level != level:
                if time != since:
                    if level > peak:
                        peak = level
                    total += level * (time - since)
                    since = time
                level = new_level
        if level > peak:
            peak = level
        if since < duration:
            total += level * (duration - since)
        report = finalize(
            peak=peak,
            total=total,
            completed=completed,
            runtime_sum=runtime_sum,
            turnaround_sum=turnaround_sum,
            duration=duration,
            regime=regime.name,
            total_jobs=len(self.job_trace.jobs),
            adjustment_count=log.count,
        )
        return SimResult(metrics=report, adjustments=log, columns=regime.report_columns(),
                         events=self.events)


def run(
    job_trace: JobTrace,
    demand_trace: DemandTrace,
    regime: str,
    params: PolicyParams,
    config_size: Optional[int] = None,
    pbj_floor: Optional[int] = None,
    record_events: bool = False,
) -> SimResult:
    """Simulate one scenario and return its metrics, adjustment log, report
    identification columns and event log.

    The event log is built only with ``record_events``; otherwise
    ``SimResult.events`` is None. An empty job trace is accepted (the
    degenerate nothing-ever-runs case); the demand trace must carry at least
    one sample.
    """
    if not demand_trace.samples:
        raise ScenarioError("demand trace is empty")
    rules = policies.regime_class(regime)(
        params, job_trace.peak_demand, demand_trace.peak_demand, config_size, pbj_floor
    )
    return _Kernel(job_trace, demand_trace, rules, record_events).execute()


_EVENT_ENCODER = json.JSONEncoder(separators=(",", ":"))


def write_event_log(events: list[dict[str, Any]], stream: IO[str]) -> None:
    """Emit the event log as line-delimited JSON records {time, kind, payload, ...}."""
    encode = _EVENT_ENCODER.encode
    for record in events:
        stream.write(encode(record) + "\n")
