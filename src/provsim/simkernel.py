"""Deterministic virtual-time discrete-event engine.

A run replays one consolidated scenario: batch-job arrivals, web-service
demand changes, and the regime's periodic timers, all ordered by
(time, kind priority, insertion sequence). After every event the regime's
reaction rules fire, then the first-fit scheduler runs to a fixed point.
Virtual time is integer seconds; identical inputs produce byte-identical
event logs.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field
from typing import IO, Any, Optional

from . import policies
from .errors import InfeasibleScenarioError, KernelError, ScenarioError
from .metrics import MetricsReport, consumption_curve, finalize
from .policies import PolicyParams
from .state import (
    ACTOR_PBJ,
    ACTOR_WS,
    KIND_JOB_ARRIVAL,
    KIND_JOB_COMPLETION,
    KIND_LEASE_TICK,
    KIND_PBJ_MANAGE_TICK,
    KIND_PRIORITY,
    KIND_WS_DEMAND_CHANGE,
    REGIME_DCS,
    REGIME_EC2RS,
    REGIME_FB,
    REGIME_FLB_NUB,
    REGIMES,
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
    events: list[dict[str, Any]] = field(default_factory=list)


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


def _completion_is_stale(state: ClusterState, event: Event) -> bool:
    job, attempt = event.payload
    record = state.running.get(job.id)
    return record is None or record.attempt != attempt


class _Kernel:
    """One simulation run; single-threaded and fully deterministic."""

    def __init__(
        self,
        job_trace: JobTrace,
        demand_trace: DemandTrace,
        regime: str,
        params: PolicyParams,
        config_size: Optional[int],
        pbj_floor: Optional[int],
    ):
        if regime not in REGIMES:
            raise ScenarioError(f"unknown regime {regime!r} (expected one of {REGIMES})")
        self.regime = regime
        self.params = params.validate()
        self.duration = job_trace.window[1]
        self.job_trace = job_trace
        self.demand_trace = demand_trace
        prc_pbj = job_trace.peak_demand
        prc_ws = demand_trace.peak_demand
        self.config_size = self._resolve_config(regime, config_size, prc_pbj, prc_ws)
        floor = 0
        if regime == REGIME_FLB_NUB:
            if pbj_floor is None:
                total_peak = prc_pbj + prc_ws
                floor = params.B * prc_pbj // total_peak if total_peak else 0
            else:
                floor = pbj_floor
            if not 0 <= floor <= params.B:
                raise ScenarioError(f"batch lower-bound share {floor} outside [0, B={params.B}]")
        self.state = ClusterState(
            regime=regime,
            config_size=self.config_size,
            pool_size=params.B if regime == REGIME_FLB_NUB else (self.config_size or 0),
            pbj_bound=prc_pbj if regime in (REGIME_DCS, REGIME_FB) else None,
            ws_bound=prc_ws if regime in (REGIME_DCS, REGIME_FB) else None,
            pbj_floor=floor,
        )
        self.log = AdjustmentLog()
        self.events: list[dict[str, Any]] = []
        self._seq = itertools.count()
        self._heap: list[tuple[int, int, int, Event]] = []

    @staticmethod
    def _resolve_config(
        regime: str, config_size: Optional[int], prc_pbj: int, prc_ws: int
    ) -> Optional[int]:
        if regime == REGIME_DCS:
            derived = prc_pbj + prc_ws
            if config_size is not None and config_size != derived:
                raise ScenarioError(
                    f"DCS configuration size must equal the demand-peak sum {derived}, "
                    f"got {config_size}"
                )
            return derived
        if regime == REGIME_FB:
            if config_size is None:
                raise ScenarioError("FB requires an explicit configuration size")
            if config_size < 1:
                raise ScenarioError(f"configuration size must be >= 1, got {config_size}")
            return config_size
        return None  # FLB_NUB and EC2RS draw from an unbounded provider

    # -- event plumbing ----------------------------------------------------

    def _push(self, time: int, kind: str, payload: Any = None) -> None:
        event = Event(time=time, kind=kind, seq=next(self._seq), payload=payload)
        heapq.heappush(self._heap, (time, KIND_PRIORITY[kind], event.seq, event))

    def _seed_events(self) -> None:
        for job in self.job_trace.jobs:
            self._push(job.submit_time, KIND_JOB_ARRIVAL, job)
        for time, demand in self.demand_trace.samples:
            if time <= self.duration:
                self._push(time, KIND_WS_DEMAND_CHANGE, demand)
        if self.regime in (REGIME_FB, REGIME_FLB_NUB):
            for t in range(0, self.duration + 1, self.params.L):
                self._push(t, KIND_LEASE_TICK)
        if self.regime == REGIME_FLB_NUB:
            for t in range(0, self.duration + 1, self.params.L):
                self._push(t, KIND_PBJ_MANAGE_TICK)

    def _init_state(self) -> None:
        state = self.state
        if self.regime == REGIME_DCS:
            policies.dcs_allocate(state)
            if self.demand_trace.peak_demand > (state.ws_bound or 0):
                raise InfeasibleScenarioError("WS demand exceeds the static partition")
        elif self.regime == REGIME_FB:
            if self.demand_trace.peak_demand > self.config_size:
                raise InfeasibleScenarioError(
                    f"WS peak demand {self.demand_trace.peak_demand} exceeds "
                    f"configuration size {self.config_size}"
                )
            state.free = self.config_size
        elif self.regime == REGIME_FLB_NUB:
            # Rigid lower-bound share allocated at startup; not a dynamic adjustment.
            state.pbj_owned = state.pbj_idle = state.pbj_pool = state.pbj_floor

    # -- per-event processing ----------------------------------------------

    def _start_job(self, job: Job, now: int) -> None:
        attempt = self.state.attempts.get(job.id, 0) + 1
        self.state.attempts[job.id] = attempt
        self.state.start_seq += 1
        self.state.running[job.id] = RunningJob(
            job=job, start_time=now, alloc=job.size, attempt=attempt,
            start_seq=self.state.start_seq,
        )
        self.state.running_alloc += job.size
        self.state.pbj_idle -= job.size
        self._push(now + job.runtime, KIND_JOB_COMPLETION, (job, attempt))

    def _schedule_fixed_point(self, now: int) -> list[int]:
        started = policies.first_fit_schedule(self.state.queue, self.state.pbj_idle)
        for job in started:
            self._start_job(job, now)
        return [job.id for job in started]

    def _react_ec2_arrival(self, now: int) -> list[int]:
        started_ids = []
        for job in self.state.queue.drain():
            start, release = policies.ec2_job_lifecycle(job, self.params)
            self.state.pbj_owned += job.size
            self.state.pbj_idle += job.size
            self._start_job(job, start)
            self._push(release, KIND_LEASE_TICK, {"job_id": job.id, "nodes": job.size})
            self.log.record(now, ACTOR_PBJ, job.size)
            started_ids.append(job.id)
        return started_ids

    def _react(self, event: Event) -> tuple[list[int], list[int]]:
        """Regime reaction; returns (started job ids, killed job ids)."""
        state, log, now = self.state, self.log, self.state.clock
        started: list[int] = []
        killed: list[int] = []
        if event.kind == KIND_WS_DEMAND_CHANGE:
            if self.regime == REGIME_DCS:
                policies.dcs_ws_demand(state, event.payload)
            elif self.regime == REGIME_FB:
                kills = policies.fb_ws_demand(state, event.payload, log)
                killed = [k.job_id for k in kills]
            elif self.regime == REGIME_FLB_NUB:
                policies.flb_ws_demand(state, event.payload, log)
            else:  # EC2RS: RightScale adjusts instances; consumption tracks demand
                delta = event.payload - state.ws_held
                state.ws_held = event.payload
                if delta != 0:
                    log.record(now, ACTOR_WS, delta)
        elif event.kind == KIND_LEASE_TICK:
            if self.regime == REGIME_FB:
                policies.fb_lease_tick(state, log)
            elif self.regime == REGIME_FLB_NUB:
                policies.flb_lease_tick(state, log)
            else:  # EC2RS per-job lease expiry
                nodes = event.payload["nodes"]
                state.pbj_owned -= nodes
                state.pbj_idle -= nodes
                log.record(now, ACTOR_PBJ, -nodes)
        elif event.kind == KIND_PBJ_MANAGE_TICK:
            policies.flb_manage_tick(state, self.params, log)
        elif event.kind == KIND_JOB_ARRIVAL and self.regime == REGIME_EC2RS:
            started = self._react_ec2_arrival(now)
        if self.regime != REGIME_EC2RS:
            started = self._schedule_fixed_point(now)
        return started, killed

    def _record(self, event: Event, started: list[int], killed: list[int],
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
        self._init_state()
        self._seed_events()
        while self._heap:
            _, _, _, event = heapq.heappop(self._heap)
            if event.time > self.duration:
                break
            if event.kind == KIND_JOB_COMPLETION and _completion_is_stale(self.state, event):
                continue
            adjustments_from = self.log.count
            advance(self.state, event)
            started, killed = self._react(event)
            self._record(event, started, killed, adjustments_from)
        curve = consumption_curve(
            self.events,
            self.regime,
            config_size=self.config_size,
            pool_size=self.params.B,
            duration=self.duration,
        )
        report = finalize(
            self.events,
            curve,
            duration=self.duration,
            regime=self.regime,
            total_jobs=len(self.job_trace.jobs),
            adjustment_count=self.log.count,
        )
        return SimResult(metrics=report, adjustments=self.log, events=self.events)


def run(
    job_trace: JobTrace,
    demand_trace: DemandTrace,
    regime: str,
    params: PolicyParams,
    config_size: Optional[int] = None,
    pbj_floor: Optional[int] = None,
) -> SimResult:
    """Simulate one scenario and return (metrics, adjustment log, event log).

    An empty job trace is accepted (the degenerate nothing-ever-runs case);
    the demand trace must carry at least one sample.
    """
    if not demand_trace.samples:
        raise ScenarioError("demand trace is empty")
    kernel = _Kernel(job_trace, demand_trace, regime, params, config_size, pbj_floor)
    return kernel.execute()


def write_event_log(events: list[dict[str, Any]], stream: IO[str]) -> None:
    """Emit the event log as line-delimited JSON records {time, kind, payload, ...}."""
    for record in events:
        stream.write(json.dumps(record, separators=(",", ":")) + "\n")
