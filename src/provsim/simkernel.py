"""Deterministic virtual-time discrete-event engine.

A run replays one consolidated scenario: batch-job arrivals, web-service
demand changes, and the regime's periodic timers. An event is a plain
``(time, kind, seq, payload)`` tuple; kinds are numbered in their tie order
and seqs are distinct, so the heap orders events by (time, kind, seq) and
never compares payloads. Within one kind, seq keeps events in the order of
their trace or of their ``push`` calls. After every event the regime's
reaction rules fire, then the regime admits queued jobs. The regime's rules
live in one ``policies.Regime`` subclass. Arrivals, the last kind at any
time, are walked in submit order beside the heap, which holds only pending
events: each other seeded stream (demand samples, each timer kind) keeps
one event in it and feeds the next when that one pops. The kernel
tallies completions and integrates consumption as it goes. Only a run that
asks for its event log keeps one raw record per event, with the state as
``ClusterState.snapshot``'s tuple; ``write_event_log`` encodes each as a line
from its kind's template when the log is written. A metrics-only run still
takes the snapshot (``perfbench`` counts queue length at that call) but
does no other recording work.
Virtual time is integer seconds; identical inputs give byte-identical logs.
``run`` pauses the cyclic garbage collector while the kernel executes, and
restores its prior state even on error: a run builds no reference cycles, so
a pass over the records it keeps would find nothing and only cost time.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
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
    RunningJob,
)
from .trace import DemandTrace, Job, JobTrace

__all__ = [
    "SimResult",
    "run",
    "write_event_log",
    "ClusterState",
    "AdjustmentLog",
]


# A pending event: (time, kind, seq, payload).
Event = tuple[int, int, int, Any]
# One processed event: the event, the jobs it started, the ids it killed, the
# [from, to) slice of the adjustment log it added, and the state after it.
Record = tuple[Event, list[Job], Sequence[int], int, int, tuple[int, ...]]


@dataclass
class SimResult:
    metrics: MetricsReport
    adjustments: AdjustmentLog
    columns: dict[str, Any]  # the report's identification columns, from the regime
    records: Optional[list[Record]] = None  # None unless recorded

    @cached_property
    def events(self) -> Optional[list[dict[str, Any]]]:
        """The event log's lines decoded once, one dict per record; None unless recorded."""
        return None if self.records is None else json.loads("[%s]" % ",".join(_lines(self)))


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
        self.records: Optional[list[Record]] = [] if record_events else None
        # The stop event, one second past the window end, keeps the heap from
        # emptying; every later event comes after it and is never taken.
        self._heap: list[Event] = [(self.duration + 1, KIND_JOB_COMPLETION, -1, None)]
        self._seq = itertools.count()
        # Each seeded stream of (time, payload) pairs but arrivals; None for the
        # kinds that only ``push`` schedules.
        ticks = range(0, self.duration + 1, regime.params.L)
        streams = {KIND_WS_DEMAND_CHANGE: iter(sorted(demand_trace.samples, key=itemgetter(0))),
                   **{kind: zip(ticks, itertools.repeat(None)) for kind in regime.timer_kinds}}
        self._streams = [streams.get(kind) for kind in range(len(KIND_NAMES))]
        for kind, stream in streams.items():
            for time, payload in itertools.islice(stream, 1):
                self.push(time, kind, payload)

    def push(self, time: int, kind: int, payload: Any = None) -> None:
        heapq.heappush(self._heap, (time, kind, next(self._seq), payload))

    # -- per-event processing ----------------------------------------------

    def start_job(self, job: Job, now: int) -> None:
        attempt = self.state.attempts.pop(job.id, 0) + 1
        self.state.running[job.id] = RunningJob(job, now, attempt)
        self.state.running_alloc += job.size
        heapq.heappush(self._heap, (now + job.runtime, KIND_JOB_COMPLETION, next(self._seq),
                                    (job, attempt)))

    def execute(self) -> SimResult:
        """Process every event up to the window end, dispatching each on its
        kind once: a completion frees its nodes, a demand change or timer
        goes to the regime, and an arrival joins the queue.

        Each non-stale completion adds to the completed count and the runtime
        and turnaround sums. The consumption level after each event is
        integrated into node-seconds as time moves on. A later level at the
        same time replaces the earlier one, so a level enters the peak only
        once time moves past it or the window ends. Raw records are kept
        only when asked for.
        """
        regime, state, log, heap = self.regime, self.state, self.log, self._heap
        heappop, heappush, seq, streams = heapq.heappop, heapq.heappush, self._seq, self._streams
        consumption, admit, duration = regime.consumption, regime.admit, self.duration
        entries, records = log.entries, self.records
        varying = regime.config_size is None  # a bounded regime always consumes its size
        # Arrivals in submit order; the last submit time is the stop event's.
        jobs = sorted(self.job_trace.jobs, key=attrgetter("submit_time"))
        submits = [job.submit_time for job in jobs] + [duration + 1]
        index = completed = runtime_sum = turnaround_sum = 0
        level, since, peak, total = consumption(state), 0, 0, 0
        while True:
            # A heap event at the next arrival's time goes first: arrivals are
            # the last kind at any time.
            if heap[0][0] <= submits[index]:
                event = heappop(heap)
            else:
                event = (submits[index], KIND_JOB_ARRIVAL, index, jobs[index])
                index += 1
            time, kind, _, payload = event
            if time > duration:
                break
            if time < state.clock:
                raise KernelError(f"time regression: event at {time} before clock {state.clock}")
            state.clock = time
            stream = streams[kind]
            if stream is not None:
                entry = next(stream, None)
                if entry is not None:
                    heappush(heap, (entry[0], kind, next(seq), entry[1]))
            if records is not None:
                first = len(entries)
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
                regime.on_tick(state, kind, payload, log)
            started = admit(self)
            # Taken also when not recorded: perfbench/tracer.py derives its
            # queue-length figures from one snapshot call per processed event.
            snapshot = state.snapshot()
            if records is not None:
                records.append((event, started, killed, first, len(entries), snapshot))
            if varying:
                new_level = consumption(state)
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
            adjustment_count=len(entries),
        )
        return SimResult(metrics=report, adjustments=log, columns=regime.report_columns(),
                         records=self.records)


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

    Raw event records are kept only with ``record_events``; otherwise
    ``SimResult.records`` is None. An empty job trace is accepted (the
    degenerate nothing-ever-runs case); the demand trace must carry at least
    one sample.

    The cyclic garbage collector is paused while the kernel executes and then
    left as it was found, even on error. A run builds no reference cycles, so
    the pause holds no extra memory.
    """
    if not demand_trace.samples:
        raise ScenarioError("demand trace is empty")
    rules = policies.regime_class(regime)(
        params, job_trace.peak_demand, demand_trace.peak_demand, config_size, pbj_floor
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _Kernel(job_trace, demand_trace, rules, record_events).execute()
    finally:
        if enabled:
            gc.enable()


_EVENT_ENCODER = json.JSONEncoder(separators=(",", ":"))
# A line is its kind's head (time, kind, payload), the lists present, then the
# state in ``ClusterState.snapshot``'s field order. Numbers print as in JSON.
_HEADS = ['{"time":%%s,"kind":"%s","payload":{}' % name for name in KIND_NAMES]
_ARRIVAL = '{"time":%s,"kind":"job_arrival","payload":{"job_id":%s,"size":%s,"runtime":%s,"submit":%s}'
_COMPLETION = ('{"time":%s,"kind":"job_completion","payload":{"job_id":%s,"size":%s,"runtime":%s,'
               '"submit":%s,"attempt":%s,"turnaround":%s}')
_DEMAND = '{"time":%s,"kind":"ws_demand_change","payload":{"demand":%s}'
_LEASE = '{"time":%s,"kind":"lease_tick","payload":{"job_id":%s,"nodes":%s}'
_STATE = (',"state":{"pbj_owned":%s,"pbj_idle":%s,"running_alloc":%s,"ws_held":%s,"free":%s,'
          '"pbj_pool":%s,"ws_pool":%s,"pbj_external":%s,"ws_external":%s,"queue_len":%s,'
          '"queued_demand":%s}}\n')


def _lines(result: SimResult) -> Iterator[str]:
    """The event log's lines, one compact JSON object per record."""
    entries, encode = result.adjustments.entries, _EVENT_ENCODER.encode
    for (time, kind, _, payload), started, killed, first, end, snapshot in result.records:
        if kind == KIND_JOB_ARRIVAL:
            job_id, submit, runtime, size = payload
            line = _ARRIVAL % (time, job_id, size, runtime, submit)
        elif kind == KIND_JOB_COMPLETION:
            (job_id, submit, runtime, size), attempt = payload
            line = _COMPLETION % (time, job_id, size, runtime, submit, attempt, time - submit)
        elif kind == KIND_WS_DEMAND_CHANGE:
            line = _DEMAND % (time, payload)
        elif kind == KIND_LEASE_TICK and payload is not None:
            line = _LEASE % (time, *payload)
        else:
            line = _HEADS[kind] % time
        if started:
            line += ',"started":[%s]' % ",".join([str(job.id) for job in started])
        if killed:
            line += ',"killed":[%s]' % ",".join(map(str, killed))
        if end > first:
            line += ',"adjustments":' + encode([[a, d] for _, a, d in entries[first:end]])
        yield line + _STATE % snapshot


def write_event_log(result: SimResult, stream: IO[str]) -> None:
    """Write a recorded run's event log, one JSON record {time, kind, payload, ...} a line."""
    stream.writelines(_lines(result))
