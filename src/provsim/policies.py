"""Provisioning regimes, the first-fit scheduler, and the instance controller.

The four regimes (DCS, FB, FLB_NUB, EC2RS) share one cluster-state
vocabulary. The module-level transition functions mutate the passed
ClusterState in place, adjustments included (``ClusterState.adjust``), and
are pure otherwise (no I/O, no hidden state). One ``Regime`` subclass per
regime holds all of that regime's rules and calls them; the kernel builds
one per run and never names a regime itself.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .errors import InfeasibleScenarioError, KernelError, ScenarioError
from .state import (
    ACTOR_PBJ,
    ACTOR_PROVISION,
    ACTOR_WS,
    KIND_LEASE_TICK,
    KIND_PBJ_MANAGE_TICK,
    REGIMES,
    ClusterState,
    JobQueue,
)
from .trace import INT_LIMIT, Job


class PolicyParams(NamedTuple):
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
        # Below 1, R > U fires while the queue fits the holdings, and DR1 <= 0.
        if not 1 <= self.U < math.inf:
            raise ScenarioError(f"threshold ratio U must be finite and >= 1, got {self.U}")
        if not 0 < self.V < math.inf:
            raise ScenarioError(f"threshold ratio V must be finite and > 0, got {self.V}")
        if self.V >= self.U:
            raise ScenarioError(f"release threshold V must be below U, got V={self.V} U={self.U}")
        if not 0 < self.G < 1:
            raise ScenarioError(f"elastic factor G must be in (0, 1), got {self.G}")
        if self.L <= 0:
            raise ScenarioError(f"lease unit L must be positive seconds, got {self.L}")
        return self


def real(value: Any) -> float:
    """``float(value)`` for a number or numeric string; a boolean raises
    TypeError instead of counting as 1 or 0."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def whole(value: Any) -> int:
    """An integer given as an int, a whole float or a numeric string with a
    whole value ("4.0", "1e3"); a fraction, nan or inf raises ValueError
    instead of being truncated, and so does a magnitude of 2**63 or more."""
    number = value
    if isinstance(value, str):
        try:  # exact, where a float would round above 2**53
            number = int(value)
        except ValueError:
            pass
    if not isinstance(number, int) or isinstance(number, bool):
        number = real(value)
        if not number.is_integer():
            raise ValueError(f"{value!r} is not a whole number")
        number = int(number)
    if abs(number) >= INT_LIMIT:
        raise ValueError(f"{value!r} is not below 2**63 in magnitude")
    return number


def lease_seconds(minutes: Any) -> int:
    """A lease unit given in minutes, in seconds; it must come to whole
    seconds (within the rounding of a decimal fraction such as 0.1)."""
    seconds = real(minutes) * 60
    nearest = round(seconds)  # nan and inf raise here
    if abs(seconds - nearest) > 1e-6:
        raise ValueError(f"{minutes} minutes is not a whole number of seconds")
    return nearest


# How an outside value of each parameter becomes its PolicyParams value, in
# every form that takes one (L in minutes).
PARAM_CONVERTERS: dict[str, Callable[[Any], Any]] = {
    "B": whole, "U": real, "V": real, "G": real, "L": lease_seconds,
}


def convert(value: Any, converter: Callable[[Any], Any], what: str) -> Any:
    """``converter(value)``; a value it rejects raises a ScenarioError naming
    ``what``."""
    try:
        return converter(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"bad {what}={value!r}: {exc}") from None


def parse_params(compact: str) -> PolicyParams:
    """Parse the compact "B25/U1.2/V0.2/G0.5/L60" notation (L in minutes)."""
    values = {}
    for part in compact.split("/"):
        part = part.strip()
        if not part:
            continue
        key, raw = part[0].upper(), part[1:]
        if key not in PARAM_CONVERTERS or not raw:
            raise ScenarioError(f"bad policy-parameter token {part!r} in {compact!r}")
        values[key] = convert(raw, PARAM_CONVERTERS[key], f"policy parameter {key}")
    return PolicyParams(**values)


# First fit over the batch queue, ``first_fit_schedule(queue, pbj_idle)``. The
# regimes call it by this module-level name, which the benchmark's tracer wraps.
first_fit_schedule = JobQueue.first_fit


def fb_force_release(state: ClusterState, needed: int) -> list[int]:
    """Surrender `needed` nodes from the batch RE to the provision service,
    returning the ids of the jobs killed, in kill order.

    Idle nodes go first; while short, the running job of minimum size is
    killed (ties: the latest start time, then the job started last, as
    ``state.running`` is in start order) and its whole allocation freed.
    Overshoot from the last kill stays with the batch RE as idle; victims
    are requeued at the head of the queue in original-arrival order, and
    their attempt counts kept in ``state.attempts`` until they restart.
    """
    if needed < 1:
        raise KernelError(f"force release needs a positive amount, got {needed}")
    if needed > state.pbj_owned:
        raise KernelError(f"force release of {needed} exceeds batch holdings {state.pbj_owned}")
    short = needed - state.pbj_idle
    victims: list[Job] = []
    while short > 0:
        job, _, attempt = min(reversed(state.running.values()), key=lambda r: (r[0].size, -r[1]))
        del state.running[job.id]
        state.attempts[job.id] = attempt
        state.running_alloc -= job.size
        victims.append(job)
        short -= job.size
    state.pbj_owned -= needed
    state.queue.push_front(sorted(victims, key=lambda j: (j.submit_time, j.id)))
    state.adjust(ACTOR_PBJ, -needed)
    return [job.id for job in victims]


def fb_ws_demand(state: ClusterState, new_demand: int) -> list[int]:
    """Apply a web-service demand change under FB: WS demand is absolute.

    Demand drops release the surplus to the provision service's free set;
    rises take free nodes first and force the batch RE to release the rest.
    Returns the ids of the jobs killed, in kill order.
    """
    delta = new_demand - state.ws_held
    shortfall = delta - state.free
    kills = fb_force_release(state, shortfall) if shortfall > 0 else []
    state.ws_held = new_demand
    if delta:
        state.adjust(ACTOR_WS, delta)
    return kills


def fb_lease_tick(state: ClusterState) -> None:
    """Provision free nodes to the batch RE, up to its agreement bound."""
    grant = min(state.free, state.pbj_bound - state.pbj_owned)
    if grant > 0:
        state.pbj_owned += grant
        state.adjust(ACTOR_PROVISION, grant)


def _flb_acquire_pbj(state: ClusterState, amount: int, actor: str = ACTOR_PBJ) -> None:
    state.pbj_pool += min(amount, state.pool_room)
    state.pbj_owned += amount
    state.adjust(actor, amount)


def _flb_release_pbj(state: ClusterState, amount: int) -> None:
    external = min(amount, state.pbj_external)
    state.pbj_pool -= amount - external
    state.pbj_owned -= amount
    state.adjust(ACTOR_PBJ, -amount)


def flb_ws_demand(state: ClusterState, new_demand: int) -> None:
    """Track web-service demand exactly: the unbounded provider always grants.
    A rise is charged to the pool while it has room; a fall gives back
    external leases first."""
    delta = new_demand - state.ws_held
    if delta:
        if delta > 0:
            state.ws_pool += min(delta, state.pool_room)
        else:
            state.ws_pool += delta + min(-delta, state.ws_external)
        state.ws_held = new_demand
        state.adjust(ACTOR_WS, delta)


def flb_lease_tick(state: ClusterState) -> None:
    """Provision the coordinated pool's idle capacity to the batch RE."""
    idle_pool = state.pool_room
    if idle_pool > 0:
        _flb_acquire_pbj(state, idle_pool, ACTOR_PROVISION)


def flb_manage_tick(state: ClusterState, params: PolicyParams) -> None:
    """The batch manager's periodic adjustment decision.

    With R = (sum of queued sizes) / owned: request DR1 = queued - owned when
    R > U; otherwise request DR2 = biggest - idle when the biggest queued job
    exceeds current holdings; otherwise release floor(G * idle) when R < V,
    never dropping below the rigid lower-bound share.
    """
    queued = state.queue.demand
    owned = state.pbj_owned
    if queued > params.U * owned:  # R > U (covers owned == 0 with a nonempty queue)
        _flb_acquire_pbj(state, queued - owned)  # DR1
        return
    biggest = state.queue.biggest
    if biggest > owned:
        _flb_acquire_pbj(state, biggest - state.pbj_idle)  # DR2
        return
    if queued < params.V * owned:  # R < V
        rss = math.floor(params.G * state.pbj_idle)
        rss = min(rss, owned - state.pbj_floor)
        if rss > 0:
            _flb_release_pbj(state, rss)


def ec2_job_lifecycle(job: Job, params: PolicyParams) -> tuple[int, int]:
    """Start and lease-release times of a job under per-user leasing.

    Jobs run immediately; resources are only returned at the end of a whole
    lease unit, so the lease spans ceil(runtime / L) units from submission.
    """
    units = -(-job.runtime // params.L)
    return job.submit_time, job.submit_time + units * params.L


class Regime:
    """The rules of one provisioning regime for one run.

    ``simkernel.run`` builds one from the scenario's parameters and the two
    traces' peak demands; class names are the regime names of scenarios and
    reports. The constructor resolves ``config_size`` and ``pbj_floor`` and
    rejects what the regime cannot run; ``report_columns`` reads back what it
    resolved. The kernel owns the clock and the event queue; the
    regime gives the initial state, its ``timer_kinds`` (fired every
    ``params.L`` seconds from 0), its reactions to demand changes (returning
    the ids of killed jobs) and timers, and its consumption level in a state.
    After every event ``admit`` decides which queued jobs to start and returns
    them, and the kernel starts them; a regime schedules any other timer of
    its own through the kernel's ``push(time, kind, payload)``.
    """

    timer_kinds: tuple[str, ...] = ()
    # Whether the configuration size is the peak tuple's sum, so that a new
    # tuple makes the old size stale.
    config_from_peaks = False

    def __init__(self, params: PolicyParams, prc_pbj: int, prc_ws: int,
                 config_size: Optional[int] = None, pbj_floor: Optional[int] = None):
        self.name = type(self).__name__
        self.params = params.validate()
        self.prc_pbj = prc_pbj
        self.prc_ws = prc_ws
        self.config_size = self.resolve_config(config_size)
        self.pbj_floor = self.resolve_floor(pbj_floor)

    def resolve_config(self, config_size: Optional[int]) -> Optional[int]:
        """Unbounded regimes draw from a provider with no configuration size."""
        if config_size is not None:
            raise ScenarioError(f"{self.name} draws from an unbounded provider; omit config_size")
        return None

    def resolve_floor(self, pbj_floor: Optional[int]) -> Optional[int]:
        """Only FLB_NUB has a pool with a lower-bound share."""
        if pbj_floor is not None:
            raise ScenarioError(f"{self.name} has no pool lower-bound share; omit pbj_floor")
        return None

    def admit(self, state: ClusterState, push: Callable) -> Sequence[Job]:
        """First fit on the batch side's idle nodes; returns the jobs to start."""
        return first_fit_schedule(state.queue, state.pbj_owned - state.running_alloc)

    def consumption(self, state: ClusterState) -> int:
        """Bounded regimes consume their whole configuration at all times."""
        return self.config_size

    def report_columns(self) -> dict[str, Any]:
        """The report's identification columns: the values this run used. The
        pool parameters do not apply; the lease unit L does."""
        return {"config_size": self.config_size, "prc_pbj": self.prc_pbj, "prc_ws": self.prc_ws,
                "B": None, "U": None, "V": None, "G": None, "L_seconds": self.params.L}


class DCS(Regime):
    """A dedicated cluster statically split between the two workloads: each
    RE permanently owns its peak demand, and nothing ever moves."""

    config_from_peaks = True

    def resolve_config(self, config_size: Optional[int]) -> int:
        derived = self.prc_pbj + self.prc_ws
        if config_size is not None and config_size != derived:
            raise ScenarioError(f"DCS configuration size must equal the demand-peak sum "
                                f"{derived}, got {config_size}")
        return derived

    def initial_state(self) -> ClusterState:
        return ClusterState(pbj_owned=self.prc_pbj)

    def on_demand(self, state: ClusterState, demand: int) -> Sequence[int]:
        # The web-service partition is the demand trace's own peak: it always fits.
        state.ws_held = demand
        return ()

    def report_columns(self) -> dict[str, Any]:
        """No lease timer."""
        return {**super().report_columns(), "L_seconds": None}


class FB(Regime):
    """Fixed equal bounds per RE in one bounded cluster. Web-service demand is
    absolute and may force the batch side to kill running jobs; a periodic
    lease timer gives free nodes back to the batch RE up to its bound."""

    timer_kinds = (KIND_LEASE_TICK,)

    def resolve_config(self, config_size: Optional[int]) -> int:
        if config_size is None:
            raise ScenarioError("FB requires an explicit configuration size (config_size)")
        if config_size < 1:
            raise ScenarioError(f"configuration size (config_size) must be >= 1, got {config_size}")
        if self.prc_ws > config_size:
            raise InfeasibleScenarioError(f"WS peak demand {self.prc_ws} exceeds "
                                          f"configuration size {config_size}")
        return config_size

    def initial_state(self) -> ClusterState:
        return ClusterState(capacity=self.config_size, pbj_bound=self.prc_pbj)

    def on_demand(self, state: ClusterState, demand: int) -> Sequence[int]:
        return fb_ws_demand(state, demand)

    def on_tick(self, state: ClusterState, kind: int, payload: Any) -> None:
        fb_lease_tick(state)


class FLB_NUB(Regime):
    """Rigid lower-bound shares of a coordinated pool of B nodes, no upper
    bound, on an unbounded provider. The batch manager requests and releases
    against threshold ratios at every lease-unit tick."""

    timer_kinds = (KIND_LEASE_TICK, KIND_PBJ_MANAGE_TICK)

    def resolve_floor(self, pbj_floor: Optional[int]) -> int:
        """The batch side's lower-bound share: by default B split in proportion
        to the two peaks, rounded down."""
        B = self.params.B
        if pbj_floor is None:
            total_peak = self.prc_pbj + self.prc_ws
            pbj_floor = B * self.prc_pbj // total_peak if total_peak else 0
        if not 0 <= pbj_floor <= B:
            raise ScenarioError(f"lower-bound share pbj_floor={pbj_floor} outside [0, B={B}]")
        return pbj_floor

    def initial_state(self) -> ClusterState:
        # The lower-bound share is held from the start; not an adjustment.
        floor = self.pbj_floor
        return ClusterState(pool_size=self.params.B, pbj_floor=floor, pbj_owned=floor,
                            pbj_pool=floor)

    def on_demand(self, state: ClusterState, demand: int) -> Sequence[int]:
        flb_ws_demand(state, demand)
        return ()

    def on_tick(self, state: ClusterState, kind: int, payload: Any) -> None:
        if kind == KIND_LEASE_TICK:
            flb_lease_tick(state)
        else:
            flb_manage_tick(state, self.params)

    def consumption(self, state: ClusterState) -> int:
        """The whole pool plus both REs' external leases."""
        return (state.pool_size + (state.pbj_owned - state.pbj_pool)
                + (state.ws_held - state.ws_pool))

    def report_columns(self) -> dict[str, Any]:
        params = self.params
        return {**super().report_columns(),
                "B": params.B, "U": params.U, "V": params.V, "G": params.G}


class EC2RS(Regime):
    """The uncoordinated public-cloud baseline: every job leases its own nodes
    in whole lease units, and web-service capacity tracks demand."""

    def initial_state(self) -> ClusterState:
        return ClusterState()

    def on_demand(self, state: ClusterState, demand: int) -> Sequence[int]:
        delta = demand - state.ws_held
        state.ws_held = demand
        if delta != 0:
            state.adjust(ACTOR_WS, delta)
        return ()

    def on_tick(self, state: ClusterState, kind: int, payload: Any) -> None:
        """A job's lease expires and its nodes go back to the provider; the
        payload is (job id, nodes)."""
        nodes = payload[1]
        state.pbj_owned -= nodes
        state.adjust(ACTOR_PBJ, -nodes)

    def admit(self, state: ClusterState, push: Callable) -> Sequence[Job]:
        """Lease nodes for every queued job and schedule the lease's expiry;
        returns the jobs, which start at once (a shared empty tuple when the
        queue is empty). A job is admitted at its arrival, its submit time.

        First fit given the whole queued demand takes every job in queue
        order: the idle count left always equals the demand left.
        """
        if not state.queue.length:
            return ()
        started = state.queue.first_fit(state.queue.demand)
        for job in started:
            _, release = ec2_job_lifecycle(job, self.params)
            state.pbj_owned += job.size
            push(release, KIND_LEASE_TICK, (job.id, job.size))
            state.adjust(ACTOR_PBJ, job.size)
        return started

    def consumption(self, state: ClusterState) -> int:
        """Every active job lease plus the web-service demand."""
        return state.pbj_owned + state.ws_held


_REGIME_CLASSES = {cls.__name__: cls for cls in (DCS, FB, FLB_NUB, EC2RS)}


def regime_class(name: str) -> type[Regime]:
    """The class of the regime called ``name`` in scenarios and reports."""
    try:
        return _REGIME_CLASSES[name]
    except KeyError:
        raise ScenarioError(f"unknown regime {name!r} (expected one of {REGIMES})") from None


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
