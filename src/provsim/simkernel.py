"""Deterministic virtual-time discrete-event engine.

A run replays one consolidated scenario: batch-job arrivals, web-service
demand changes, and the regime's periodic timers, all ordered by
(time, kind priority, insertion sequence). After every event the regime's
reaction rules fire, then the regime admits queued jobs. The regime's rules
live in one ``policies.Regime`` subclass. The kernel tallies completions and
builds the consumption curve as it goes, so the per-event log is built only
when a run asks for it.
Virtual time is integer seconds; identical inputs produce byte-identical
event logs.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from typing import IO, Any, Optional, Sequence

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
    events: Optional[list[dict[str, Any]]] = None  # None unless recorded


def advance(state: ClusterState, event: Event) -> ClusterState:
    """Apply an event's primitive effect (no policy reaction).

    Arrivals enqueue, completions free the job's nodes into the batch RE's
    idle set, demand changes record the new demand; timers have no primitive
    effect. Policy reactions are dispatched by `run`.
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
    elif event.kind == KIND_WS_DEMAND_CHANGE:
        state.ws_demand = event.payload
    return state


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
        self._seq = itertools.count()
        self._heap: list[tuple[int, int, int, Event]] = []

    # -- event plumbing ----------------------------------------------------

    def push(self, time: int, kind: str, payload: Any = None) -> None:
        event = Event(time=time, kind=kind, seq=next(self._seq), payload=payload)
        heapq.heappush(self._heap, (time, KIND_PRIORITY[kind], event.seq, event))

    def _seed_events(self) -> None:
        for job in self.job_trace.jobs:
            self.push(job.submit_time, KIND_JOB_ARRIVAL, job)
        for time, demand in self.demand_trace.samples:
            if time <= self.duration:
                self.push(time, KIND_WS_DEMAND_CHANGE, demand)
        for kind in self.regime.timer_kinds:
            for t in range(0, self.duration + 1, self.regime.params.L):
                self.push(t, kind)

    # -- per-event processing ----------------------------------------------

    def start_job(self, job: Job, now: int) -> None:
        attempt = self.state.attempts.get(job.id, 0) + 1
        self.state.attempts[job.id] = attempt
        self.state.start_seq += 1
        self.state.running[job.id] = RunningJob(
            job=job, start_time=now, alloc=job.size, attempt=attempt,
            start_seq=self.state.start_seq,
        )
        self.state.running_alloc += job.size
        self.state.pbj_idle -= job.size
        self.push(now + job.runtime, KIND_JOB_COMPLETION, (job, attempt))

    def _record(self, event: Event, started: Sequence[int], killed: Sequence[int],
                adjustments_from: int) -> None:
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
        record["state"] = self.state.snapshot()
        self.events.append(record)

    def execute(self) -> SimResult:
        """Process every event up to the window end.

        Each non-stale completion adds to the completed count and the runtime
        and turnaround sums. Each post-event consumption level goes onto a
        step curve of (time, nodes) points; a later level at the same time
        replaces the earlier one. Event records are built only when asked for.
        """
        self._seed_events()
        regime, state, log, heap = self.regime, self.state, self.log, self._heap
        record = self.events is not None
        completed = runtime_sum = turnaround_sum = 0
        level = regime.consumption(state)
        curve = [(0, level)]
        while heap:
            event = heapq.heappop(heap)[3]
            if event.time > self.duration:
                break
            kind = event.kind
            if kind == KIND_JOB_COMPLETION:
                job, attempt = event.payload
                running = state.running.get(job.id)
                if running is None or running.attempt != attempt:
                    continue  # a killed attempt's completion
                completed += 1
                runtime_sum += job.runtime
                turnaround_sum += event.time - job.submit_time
            adjustments_from = log.count
            advance(state, event)
            killed: Sequence[int] = ()
            if kind == KIND_WS_DEMAND_CHANGE:
                killed = regime.on_demand(state, event.payload, log)
            elif kind == KIND_LEASE_TICK or kind == KIND_PBJ_MANAGE_TICK:
                regime.on_tick(state, event, log)
            started = regime.admit(self)
            if record:
                self._record(event, started, killed, adjustments_from)
            else:
                # Dropped: perfbench/tracer.py derives its queue-length
                # figures from one snapshot call per processed event.
                state.snapshot()
            new_level = regime.consumption(state)
            if new_level != level:
                level = new_level
                if event.time == curve[-1][0]:
                    curve[-1] = (event.time, level)
                else:
                    curve.append((event.time, level))
        report = finalize(
            curve,
            completed=completed,
            runtime_sum=runtime_sum,
            turnaround_sum=turnaround_sum,
            duration=self.duration,
            regime=regime.name,
            total_jobs=len(self.job_trace.jobs),
            adjustment_count=log.count,
        )
        return SimResult(metrics=report, adjustments=log, events=self.events)


def run(
    job_trace: JobTrace,
    demand_trace: DemandTrace,
    regime: str,
    params: PolicyParams,
    config_size: Optional[int] = None,
    pbj_floor: Optional[int] = None,
    record_events: bool = False,
) -> SimResult:
    """Simulate one scenario and return (metrics, adjustment log, event log).

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
