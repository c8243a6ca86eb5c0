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
calls the snapshot once per event (``perfbench`` counts queue length at that
call), but its state is not ``recording``, so the call returns None. Virtual
time is integer seconds; identical inputs give byte-identical logs. ``run``
pauses the cyclic garbage collector (``collector_paused``): a run builds no
cycles, so a pass over the records it keeps would only cost time.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
from bisect import bisect_left
from functools import cached_property
from operator import itemgetter
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
)
from .trace import _SUBMIT, DemandTrace, Job, JobTrace

__all__ = [
    "SimResult",
    "run",
    "write_event_log",
    "ClusterState",
    "AdjustmentLog",
]


# A pending event: (time, kind, seq, payload).
Event = tuple[int, int, int, Any]
# One processed event: time, kind, payload, the jobs it started, the ids it killed,
# its [from, to) adjustment-log slice (from is the previous record's to), the state after.
Record = tuple[int, int, Any, Sequence[Job], Sequence[int], int, int, tuple[int, ...]]


class SimResult:
    def __init__(self, metrics: MetricsReport, adjustments: AdjustmentLog,
                 columns: dict[str, Any], records: Optional[list[Record]] = None):
        self.metrics, self.adjustments = metrics, adjustments
        self.columns = columns  # the report's identification columns, from the regime
        self.records = records  # None unless recorded

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
        self.state.recording = record_events
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
        job_id, _, runtime, size = job
        state = self.state
        attempt = state.attempts.pop(job_id, 0) + 1
        state.running[job_id] = (job, now, attempt)
        state.running_alloc += size
        heapq.heappush(self._heap, (now + runtime, KIND_JOB_COMPLETION, next(self._seq),
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
        entries, records, running_jobs = log.entries, self.records, state.running
        varying = regime.config_size is None  # a bounded regime always consumes its size
        # Arrivals before the window end in submit order (sorted only if need be), then
        # a stop job at the stop event.
        jobs = self.job_trace.jobs
        if sorted(map(_SUBMIT, jobs)) != list(map(_SUBMIT, jobs)):
            jobs = sorted(jobs, key=_SUBMIT)
        in_window = itertools.islice(jobs, bisect_left(jobs, duration, key=_SUBMIT))
        arrivals = itertools.chain(in_window, [(None, duration + 1, 0, 0)])
        arrival = next(arrivals)
        end = completed = runtime_sum = turnaround_sum = 0
        level, since, peak, total = consumption(state), 0, 0, 0
        while True:
            # A heap event at the next arrival's time goes first: arrivals are
            # the last kind at any time.
            if heap[0][0] <= arrival[1]:
                time, kind, _, payload = heappop(heap)
            else:
                time, kind, payload = arrival[1], KIND_JOB_ARRIVAL, arrival
                arrival = next(arrivals)
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
            killed: Sequence[int] = ()
            if kind == KIND_JOB_COMPLETION:
                (job_id, submit, runtime, size), attempt = payload
                running = running_jobs.get(job_id)
                if running is None or running[2] != attempt:
                    continue  # a killed attempt's completion
                del running_jobs[job_id]
                state.running_alloc -= size
                completed += 1
                runtime_sum += runtime
                turnaround_sum += time - submit
            elif kind == KIND_WS_DEMAND_CHANGE:
                killed = regime.on_demand(state, payload, log)
            elif kind == KIND_JOB_ARRIVAL:
                state.queue.append(payload)
            else:
                regime.on_tick(state, kind, payload, log)
            started = admit(self)
            # Called also when not recorded, and then None: perfbench/tracer.py
            # derives its queue-length figures from one call per processed event.
            snapshot = state.snapshot()
            if records is not None:
                first, end = end, len(entries)
                records.append((time, kind, payload, started, killed, first, end, snapshot))
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
    ``SimResult.records`` is None. Jobs arrive in ``[0, duration)``, as
    ``trace.window`` keeps them; one submitted later only counts as incomplete.
    An empty job trace is accepted (the degenerate nothing-ever-runs case); the
    demand trace must carry at least one sample. The cyclic garbage collector
    is paused while the kernel executes.
    """
    if not demand_trace.samples:
        raise ScenarioError("demand trace is empty")
    rules = policies.regime_class(regime)(
        params, job_trace.peak_demand, demand_trace.peak_demand, config_size, pbj_floor
    )
    with collector_paused():
        return _Kernel(job_trace, demand_trace, rules, record_events).execute()


class collector_paused:
    """Pause the cyclic garbage collector in the block; leave it as found, even on error.
    Not a generator, whose StopIteration would start a pass right as it resumes."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self.enabled:
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
    for time, kind, payload, started, killed, first, end, snapshot in result.records:
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
    """Write a recorded run's event log, one JSON record {time, kind, payload, ...} a line.

    A run made without ``record_events=True`` kept no log and raises ValueError."""
    if result.records is None:
        raise ValueError("the run was not recorded; run it with record_events=True")
    stream.writelines(_lines(result))
