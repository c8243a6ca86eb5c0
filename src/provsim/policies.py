"""Provisioning regimes, the first-fit scheduler, and the instance controller.

Four regimes share one cluster-state vocabulary:

* DCS      — static partitions, nothing ever moves.
* FB       — fixed equal bounds per RE inside one bounded cluster; web-service
             demand has absolute priority and may force the batch side to kill
             running jobs; a periodic lease timer pushes free nodes back to the
             batch RE up to its bound.
* FLB_NUB  — rigid lower bounds with no upper bound on an unbounded provider;
             the batch manager requests/releases against threshold ratios at
             every lease-unit tick.
* EC2RS    — no coordination: every job leases its own nodes immediately and
             pays in whole lease units.

All functions mutate the passed ClusterState in place and return it; they are
pure transitions otherwise (no I/O, no hidden state) and are only ever invoked
from the single-threaded kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InfeasibleScenarioError, KernelError, ScenarioError
from .state import ACTOR_PBJ, ACTOR_PROVISION, ACTOR_WS, AdjustmentLog, ClusterState, JobQueue
from .trace import Job


@dataclass(frozen=True)
class PolicyParams:
    """Tunables of the coordinated regimes.

    B: coordinated pool size (nodes); U/V: threshold ratios of requesting and
    releasing resources; G: elastic factor of releasing, in (0, 1); L: time
    unit of leasing resources, in seconds.
    """

    B: int = 25
    U: float = 1.2
    V: float = 0.2
    G: float = 0.5
    L: int = 3600

    def validate(self) -> "PolicyParams":
        if self.B < 0:
            raise ScenarioError(f"pool size B must be >= 0, got {self.B}")
        if self.U <= 0:
            raise ScenarioError(f"threshold ratio U must be > 0, got {self.U}")
        if self.V <= 0:
            raise ScenarioError(f"threshold ratio V must be > 0, got {self.V}")
        if self.V >= self.U:
            raise ScenarioError(f"release threshold V must be below U, got V={self.V} U={self.U}")
        if not 0 < self.G < 1:
            raise ScenarioError(f"elastic factor G must be in (0, 1), got {self.G}")
        if self.L <= 0:
            raise ScenarioError(f"lease unit L must be positive seconds, got {self.L}")
        return self


def parse_params(compact: str) -> PolicyParams:
    """Parse the compact "B25/U1.2/V0.2/G0.5/L60" notation (L in minutes)."""
    values: dict[str, float] = {}
    for part in compact.split("/"):
        part = part.strip()
        if not part:
            continue
        key, raw = part[0].upper(), part[1:]
        if key not in "BUVGL" or not raw:
            raise ScenarioError(f"bad policy-parameter token {part!r} in {compact!r}")
        try:
            values[key] = float(raw)
        except ValueError:
            raise ScenarioError(f"bad policy-parameter token {part!r} in {compact!r}") from None
    defaults = PolicyParams()
    return PolicyParams(
        B=int(values.get("B", defaults.B)),
        U=values.get("U", defaults.U),
        V=values.get("V", defaults.V),
        G=values.get("G", defaults.G),
        L=int(values["L"] * 60) if "L" in values else defaults.L,
    ).validate()


@dataclass(frozen=True)
class KillRecord:
    job_id: int
    kill_time: int
    nodes_released: int


def first_fit_schedule(queue: JobQueue, pbj_idle: int) -> list[Job]:
    """First-fit selection: start the first queued job that fits the idle
    nodes, deduct its size, and repeat from the front until nothing fits.

    Started jobs are removed from the queue and returned in start order.
    Idle capacity only falls during a pass, so a job passed over once never
    fits later: the rescan from the front equals one forward pass, and each
    step is the earliest-queued job among those that fit. ``JobQueue`` finds
    it among the heads of its per-size buckets, so the cost per call grows
    with the number of distinct queued sizes, not with the queue length.
    """
    return queue.first_fit(pbj_idle)


def _kill_order_key(record) -> tuple[int, int, int]:
    # Minimum size first; ties broken by latest start, then latest start order.
    return (record.alloc, -record.start_time, -record.start_seq)


def fb_force_release(
    state: ClusterState, needed: int, log: AdjustmentLog
) -> list[KillRecord]:
    """Surrender `needed` nodes from the batch RE to the provision service.

    Idle nodes go first; while short, the running job with the minimum size is
    killed (ties: latest start time first) and its whole allocation freed.
    Overshoot from the last kill stays with the batch RE as idle; victims are
    requeued at the head of the queue in original-arrival order.
    """
    if needed < 1:
        raise KernelError(f"force release needs a positive amount, got {needed}")
    if needed > state.pbj_owned:
        raise KernelError(
            f"force release of {needed} exceeds batch holdings {state.pbj_owned}"
        )
    surrendered = min(state.pbj_idle, needed)
    state.pbj_idle -= surrendered
    state.pbj_owned -= surrendered
    state.free += surrendered
    short = needed - surrendered
    kills: list[KillRecord] = []
    victims: list[Job] = []
    while short > 0:
        victim = min(state.running.values(), key=_kill_order_key)
        del state.running[victim.job.id]
        state.running_alloc -= victim.alloc
        victims.append(victim.job)
        kills.append(
            KillRecord(job_id=victim.job.id, kill_time=state.clock, nodes_released=victim.alloc)
        )
        if victim.alloc <= short:
            state.pbj_owned -= victim.alloc
            state.free += victim.alloc
            short -= victim.alloc
        else:
            state.pbj_owned -= short
            state.free += short
            state.pbj_idle += victim.alloc - short
            short = 0
    state.queue.push_front(sorted(victims, key=lambda j: (j.submit_time, j.id)))
    log.record(state.clock, ACTOR_PBJ, -needed)
    return kills


def fb_ws_demand(
    state: ClusterState, new_demand: int, log: AdjustmentLog
) -> list[KillRecord]:
    """Apply a web-service demand change under FB: WS demand is absolute.

    Demand drops release the surplus to the provision service's free set;
    rises take free nodes first and force the batch RE to release the rest.
    """
    if state.config_size is not None and new_demand > state.config_size:
        raise InfeasibleScenarioError(
            f"WS demand {new_demand} exceeds cluster size {state.config_size}"
        )
    kills: list[KillRecord] = []
    if new_demand < state.ws_held:
        surplus = state.ws_held - new_demand
        state.ws_held = new_demand
        state.free += surplus
        log.record(state.clock, ACTOR_WS, -surplus)
    elif new_demand > state.ws_held:
        need = new_demand - state.ws_held
        taken = min(state.free, need)
        state.free -= taken
        shortfall = need - taken
        if shortfall > 0:
            kills = fb_force_release(state, shortfall, log)
            state.free -= shortfall
        state.ws_held = new_demand
        log.record(state.clock, ACTOR_WS, need)
    state.ws_demand = new_demand
    return kills


def fb_lease_tick(state: ClusterState, log: AdjustmentLog) -> ClusterState:
    """Provision free nodes to the batch RE, up to its agreement bound."""
    grant = state.free
    if state.pbj_bound is not None:
        grant = min(grant, state.pbj_bound - state.pbj_owned)
    if grant > 0:
        state.free -= grant
        state.pbj_owned += grant
        state.pbj_idle += grant
        log.record(state.clock, ACTOR_PROVISION, grant)
    return state


def _flb_acquire_pbj(state: ClusterState, amount: int) -> None:
    room = state.pool_size - state.pbj_pool - state.ws_pool
    state.pbj_pool += min(amount, room)
    state.pbj_owned += amount
    state.pbj_idle += amount


def _flb_release_pbj(state: ClusterState, amount: int) -> None:
    external = min(amount, state.pbj_external)
    state.pbj_pool -= amount - external
    state.pbj_owned -= amount
    state.pbj_idle -= amount


def flb_ws_demand(state: ClusterState, new_demand: int, log: AdjustmentLog) -> ClusterState:
    """Track web-service demand exactly: the unbounded provider always grants."""
    delta = new_demand - state.ws_held
    if delta > 0:
        room = state.pool_size - state.pbj_pool - state.ws_pool
        state.ws_pool += min(delta, room)
        state.ws_held = new_demand
        log.record(state.clock, ACTOR_WS, delta)
    elif delta < 0:
        release = -delta
        external = min(release, state.ws_external)
        state.ws_pool -= release - external
        state.ws_held = new_demand
        log.record(state.clock, ACTOR_WS, delta)
    state.ws_demand = new_demand
    return state


def flb_lease_tick(state: ClusterState, log: AdjustmentLog) -> ClusterState:
    """Provision the coordinated pool's idle capacity to the batch RE."""
    idle_pool = state.pool_size - state.pbj_pool - state.ws_pool
    if idle_pool > 0:
        _flb_acquire_pbj(state, idle_pool)
        log.record(state.clock, ACTOR_PROVISION, idle_pool)
    return state


def flb_manage_tick(
    state: ClusterState, params: PolicyParams, log: AdjustmentLog
) -> ClusterState:
    """The batch manager's periodic adjustment decision.

    With R = (sum of queued sizes) / owned: request DR1 = queued - owned when
    R > U; otherwise request DR2 = biggest - idle when the biggest queued job
    exceeds current holdings; otherwise release floor(G * idle) when R < V,
    never dropping below the rigid lower-bound share.
    """
    queued = state.queue.demand
    owned = state.pbj_owned
    if queued > params.U * owned:  # R > U (covers owned == 0 with a nonempty queue)
        dr1 = queued - owned
        _flb_acquire_pbj(state, dr1)
        log.record(state.clock, ACTOR_PBJ, dr1)
        return state
    biggest = state.queue.biggest
    if biggest > owned:
        dr2 = biggest - state.pbj_idle
        _flb_acquire_pbj(state, dr2)
        log.record(state.clock, ACTOR_PBJ, dr2)
        return state
    if queued < params.V * owned:  # R < V
        rss = math.floor(params.G * state.pbj_idle)
        rss = min(rss, owned - state.pbj_floor)
        if rss > 0:
            _flb_release_pbj(state, rss)
            log.record(state.clock, ACTOR_PBJ, -rss)
    return state


def ec2_job_lifecycle(job: Job, params: PolicyParams) -> tuple[int, int]:
    """Start and lease-release times of a job under per-user leasing.

    Jobs run immediately; resources are only returned at the end of a whole
    lease unit, so the lease spans ceil(runtime / L) units from submission.
    """
    units = -(-job.runtime // params.L)
    return job.submit_time, job.submit_time + units * params.L


def dcs_allocate(state: ClusterState) -> ClusterState:
    """Statically split the dedicated cluster: each RE permanently owns its peak."""
    if state.pbj_bound is None or state.ws_bound is None:
        raise ScenarioError("DCS requires both workload peaks")
    if state.config_size != state.pbj_bound + state.ws_bound:
        raise ScenarioError(
            f"DCS configuration size must be {state.pbj_bound + state.ws_bound}, "
            f"got {state.config_size}"
        )
    state.pbj_owned = state.pbj_bound
    state.pbj_idle = state.pbj_bound
    state.free = 0
    return state


def dcs_ws_demand(state: ClusterState, new_demand: int) -> ClusterState:
    """Record demand against the static WS partition; nothing is adjusted."""
    if state.ws_bound is not None and new_demand > state.ws_bound:
        raise InfeasibleScenarioError(
            f"WS demand {new_demand} exceeds static partition {state.ws_bound}"
        )
    state.ws_held = new_demand
    state.ws_demand = new_demand
    return state


MIN_WS_INSTANCES = 2
ADD_THRESHOLD = 0.80


def ws_instance_controller(window: Sequence[float], n: int) -> int:
    """Web-service instance adjustment: +1/-1/0 from a window of utilizations.

    Adds one instance when the window mean exceeds 80%; removes one when the
    mean falls below 80% * (n-1)/n, never shrinking below the initial two
    instances. The dead band between the thresholds yields no change.
    """
    if n < 1:
        raise ValueError(f"instance count must be >= 1, got {n}")
    if not window:
        return 0
    mean = sum(window) / len(window)
    if mean > ADD_THRESHOLD:
        return 1
    if n > MIN_WS_INSTANCES and mean < ADD_THRESHOLD * (n - 1) / n:
        return -1
    return 0
