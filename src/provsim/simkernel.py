"""Deterministic virtual-time discrete-event engine.

A run replays one consolidated scenario: batch-job arrivals, web-service
demand changes, and the regime's periodic timers. Kinds are numbered in
their tie order, so events order as plain tuples by (time, kind, seq), and
the heap holds the events themselves. After every event the regime's
reaction rules fire, then the regime admits queued jobs. The regime's rules
live in one ``policies.Regime`` subclass. The heap holds only pending
events: each seeded stream (arrivals, demand samples, each timer kind)
keeps one event in it and feeds the next when that one pops. The kernel
tallies completions and integrates consumption as it goes, so the
per-event log is built only when a run asks for it.
Virtual time is integer seconds; identical inputs produce byte-identical
event logs.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import IO, Any, Iterator, Optional, Sequence

from . import policies
from .errors import KernelError, ScenarioError
from .metrics import MetricsReport, finalize
from .policies import PolicyParams
from .state import (
    KIND_JOB_ARRIVAL,
    KIND_JOB_COMPLETION,
    KIND_LEASE_TICK,
    KIND_NAMES,
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
        self.state = regime.initial_state()
        self.log = AdjustmentLog()
        self.events: Optional[list[dict[str, Any]]] = [] if record_events else None
        self._heap: list[Event] = []
        self._seq = itertools.count()
        # Each kind's seeded stream of (time, payload) pairs; None for the
        # kinds that only ``push`` schedules. Samples past the window end
        # pop after every event inside it, and the run stops there.
        jobs = sorted(job_trace.jobs, key=attrgetter("submit_time"))
        ticks = range(0, self.duration + 1, regime.params.L)
        streams = {KIND_JOB_ARRIVAL: ((job.submit_time, job) for job in jobs),
                   KIND_WS_DEMAND_CHANGE: iter(sorted(demand_trace.samples, key=itemgetter(0))),
                   **{kind: ((t, None) for t in ticks) for kind in regime.timer_kinds}}
        self._streams: list[Optional[Iterator[tuple[int, Any]]]] = [
            streams.get(kind) for kind in range(len(KIND_NAMES))]
        for kind in streams:
            self._feed(kind)

    # -- event plumbing ----------------------------------------------------

    def push(self, time: int, kind: int, payload: Any = None) -> None:
        heapq.heappush(self._heap, Event(time, kind, next(self._seq), payload))

    def _feed(self, kind: int) -> None:
        """Push the next event of the seeded stream of ``kind``, if any."""
        entry = next(self._streams[kind], None)
        if entry is not None:
            self.push(entry[0], kind, entry[1])

    # -- per-event processing ----------------------------------------------

    def start_job(self, job: Job, now: int) -> None:
        attempt = self.state.attempts.pop(job.id, 0) + 1
        self.state.running[job.id] = RunningJob(job=job, start_time=now, attempt=attempt)
        self.state.running_alloc += job.size
        self.push(now + job.runtime, KIND_JOB_COMPLETION, (job, attempt))

    def _record(self, event: Event, started: list[Job], killed: Sequence[int],
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
        record: dict[str, Any] = {"time": event.time, "kind": KIND_NAMES[event.kind],
                                  "payload": payload}
        if started:
            record["started"] = [job.id for job in started]
        if killed:
            record["killed"] = killed
        new_adjustments = self.log.entries[adjustments_from:]
        if new_adjustments:
            record["adjustments"] = [[a, d] for _, a, d in new_adjustments]
        record["state"] = snapshot
        self.events.append(record)

    def execute(self) -> SimResult:
        """Process every event up to the window end, dispatching each on its
        kind once: a completion frees its nodes, a demand change or timer
        goes to the regime, and an arrival joins the queue.

        Each non-stale completion adds to the completed count and the runtime
        and turnaround sums. The consumption level after each event is
        integrated into node-seconds as time moves on. A later level at the
        same time replaces the earlier one, so a level enters the peak only
        once time moves past it or the window ends. Event records are built
        only when asked for.
        """
        regime, state, log, heap = self.regime, self.state, self.log, self._heap
        heappop, streams, feed, duration = heapq.heappop, self._streams, self._feed, self.duration
        record = self.events is not None
        completed = runtime_sum = turnaround_sum = 0
        level, since, peak, total = regime.consumption(state), 0, 0, 0
        while heap:
            event = heappop(heap)
            time, kind, _, payload = event
            if time > duration:
                break
            if time < state.clock:
                raise KernelError(f"time regression: event at {time} before clock {state.clock}")
            state.clock = time
            if streams[kind] is not None:
                feed(kind)
            adjustments_from = log.count
            killed: Sequence[int] = ()
            if kind == KIND_JOB_COMPLETION:
                job, attempt = payload
                running = state.running.get(job.id)
                if running is None or running.attempt != attempt:
                    continue  # a killed attempt's completion
                del state.running[job.id]
                state.running_alloc -= job.size
                completed += 1
                runtime_sum += job.runtime
                turnaround_sum += time - job.submit_time
            elif kind == KIND_WS_DEMAND_CHANGE:
                killed = regime.on_demand(state, payload, log)
            elif kind == KIND_JOB_ARRIVAL:
                state.queue.append(payload)
            else:
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
