"""Deterministic virtual-time discrete-event engine.

A run replays one consolidated scenario: batch-job arrivals, web-service
demand changes, and the regime's periodic timers. An event is a plain
``(time, kind, seq, payload)`` tuple; kinds are numbered in their tie order
and seqs are distinct, so the heap orders events by (time, kind, seq) and
never compares payloads. Within one kind, seq keeps events in the order of
their trace or of their ``push`` calls. After every event the regime's
reaction rules fire, then it picks the queued jobs to admit, which the
kernel starts. Its rules live in one ``policies.Regime`` subclass. Arrivals,
the last kind at any time, are walked in submit order beside the heap,
which holds only pending events: each other seeded stream (demand samples,
each timer kind) keeps one event in it and feeds the next when that one
pops. The kernel tallies completions and consumption. Only a run that
asks for its event log keeps one raw record per event, with the state as
``ClusterState.snapshot``'s tuple. ``write_event_log`` is their only reader:
it formats each as a bytes line from its kind's templates and writes a block
of lines at a time; a caller reads a field by decoding a line. A metrics-only
run still calls the snapshot once per event (``perfbench`` counts queue length
at that call), but its state is not ``recording``, so the call returns None.
Virtual time is integer seconds; identical inputs give byte-identical logs.
``run`` pauses the cyclic garbage collector (``collector_paused``): a run
builds no cycles, so a pass over the records it keeps would only cost time.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from bisect import bisect_left
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
        self.records = records  # None unless recorded; read through ``write_event_log``


def _execute(job_trace: JobTrace, demand_trace: DemandTrace, regime: policies.Regime,
             record_events: bool) -> SimResult:
    """One simulation run; single-threaded and fully deterministic.

    Process every event up to the window end, dispatching each on its kind
    once: a completion frees its nodes, a demand change or timer goes to the
    regime, and an arrival joins the queue. The jobs the regime then admits
    start at the event's time. Each non-stale completion adds to the
    completed count and the runtime and turnaround sums. The consumption
    level after each event is integrated into node-seconds as time moves on.
    A later level at the same time replaces the earlier one, so a level
    enters the peak only once time moves past it or the window ends. Raw
    records are kept only when asked for.
    """
    duration = job_trace.window[1]
    state = regime.initial_state()
    state.recording = record_events
    log = AdjustmentLog()
    records: Optional[list[Record]] = [] if record_events else None
    # The stop event, one second past the window end, keeps the heap from
    # emptying; every later event comes after it and is never taken.
    heap: list[Event] = [(duration + 1, KIND_JOB_COMPLETION, -1, None)]
    seq = itertools.count()
    heappop, heappush = heapq.heappop, heapq.heappush

    def push(time: int, kind: int, payload: Any = None) -> None:
        heappush(heap, (time, kind, next(seq), payload))

    # Each seeded stream of (time, payload) pairs but arrivals; None for the
    # kinds that only ``push`` schedules.
    ticks = range(0, duration + 1, regime.params.L)
    seeded = {KIND_WS_DEMAND_CHANGE: iter(sorted(demand_trace.samples, key=itemgetter(0))),
              **{kind: zip(ticks, itertools.repeat(None)) for kind in regime.timer_kinds}}
    for kind, stream in seeded.items():
        for time, payload in itertools.islice(stream, 1):
            push(time, kind, payload)
    streams = [seeded.get(kind) for kind in range(len(KIND_NAMES))]
    consumption, admit = regime.consumption, regime.admit
    entries, running_jobs, attempts = log.entries, state.running, state.attempts
    varying = regime.config_size is None  # a bounded regime always consumes its size
    # Arrivals before the window end in submit order (sorted only if need be), then
    # a stop job at the stop event.
    jobs = job_trace.jobs
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
        started = admit(state, log, push)
        for job in started:
            job_id, _, runtime, size = job
            attempt = attempts.pop(job_id, 0) + 1
            running_jobs[job_id] = (job, time, attempt)
            state.running_alloc += size
            heappush(heap, (time + runtime, KIND_JOB_COMPLETION, next(seq), (job, attempt)))
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
        total_jobs=len(job_trace.jobs),
        adjustment_count=len(entries),
    )
    return SimResult(metrics=report, adjustments=log, columns=regime.report_columns(),
                     records=records)


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
        return _execute(job_trace, demand_trace, rules, record_events)


class collector_paused:
    """Pause the cyclic garbage collector in the block; leave it as found, even on error.
    Not a generator, whose StopIteration would start a pass right as it resumes."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self.enabled:
            gc.enable()


# A line is its kind's head (time, kind, payload), the lists present, then the
# state in ``ClusterState.snapshot``'s field order. Numbers and the actor names
# (``state.ACTOR_*``, plain ASCII words) print as in JSON.
_HEADS = [b'{"time":%%d,"kind":"%s","payload":{}' % name.encode() for name in KIND_NAMES]
_ARRIVAL = b'{"time":%d,"kind":"job_arrival","payload":{"job_id":%d,"size":%d,"runtime":%d,"submit":%d}'
_COMPLETION = (b'{"time":%d,"kind":"job_completion","payload":{"job_id":%d,"size":%d,"runtime":%d,'
               b'"submit":%d,"attempt":%d,"turnaround":%d}')
_DEMAND = b'{"time":%d,"kind":"ws_demand_change","payload":{"demand":%d}'
_LEASE = b'{"time":%d,"kind":"lease_tick","payload":{"job_id":%d,"nodes":%d}'
_STATE = (b',"state":{"pbj_owned":%d,"pbj_idle":%d,"running_alloc":%d,"ws_held":%d,"free":%d,'
          b'"pbj_pool":%d,"ws_pool":%d,"pbj_external":%d,"ws_external":%d,"queue_len":%d,'
          b'"queued_demand":%d}}\n')
_BLOCK = 256  # lines a write: up to about 80 KB, held only while they are written


def _lines(result: SimResult) -> Iterator[bytes]:
    """The event log's lines, one compact JSON object per record."""
    entries = result.adjustments.entries
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
            line += b',"started":[%s]' % b",".join([b"%d" % job.id for job in started])
        if killed:
            line += b',"killed":[%s]' % b",".join([b"%d" % job_id for job_id in killed])
        if end > first:
            line += b',"adjustments":[%s]' % b",".join([b'["%s",%d]' % (actor.encode(), delta)
                                                        for _, actor, delta in entries[first:end]])
        yield line + _STATE % snapshot


def write_event_log(result: SimResult, stream: IO[bytes]) -> None:
    """Write a recorded run's event log, one JSON record {time, kind, payload, ...} a line,
    to a binary stream, ``_BLOCK`` lines a write. Every value is an int, as the parsers,
    ``scale_to_peak``, ``Job`` and ``DemandTrace`` give them: ``%d`` writes what ``%s`` did.

    A run made without ``record_events=True`` kept no log and raises ValueError."""
    if result.records is None:
        raise ValueError("the run was not recorded; run it with record_events=True")
    lines = _lines(result)
    while block := list(itertools.islice(lines, _BLOCK)):
        stream.write(b"".join(block))
