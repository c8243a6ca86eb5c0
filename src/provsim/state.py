"""Shared state records for the simulation kernel and the provisioning policies."""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from .trace import Job

# Each regime's rules are the class of the same name in ``policies``.
REGIMES = ("DCS", "FB", "FLB_NUB", "EC2RS")

ACTOR_PBJ = "pbj_manager"
ACTOR_WS = "ws_manager"
ACTOR_PROVISION = "provision_service"

# Event kinds, numbered in their order at equal times: completions free
# resources before anything reacts, resource decisions see the freed state,
# arrivals come last. The event log names them by ``KIND_NAMES``.
KIND_JOB_COMPLETION = 0
KIND_WS_DEMAND_CHANGE = 1
KIND_LEASE_TICK = 2
KIND_PBJ_MANAGE_TICK = 3
KIND_JOB_ARRIVAL = 4
KIND_NAMES = ("job_completion", "ws_demand_change", "lease_tick", "pbj_manage_tick",
              "job_arrival")


class Event(NamedTuple):
    """A scheduled simulation event, ordered as a plain tuple by (time, kind,
    seq); seqs are distinct, so the payload is never compared.

    Within one kind, events come either from one seeded stream, numbered as
    it is fed in index order, or from ``push`` calls, numbered in push order.
    So seq keeps same-time events of one kind in their stream or push order.
    """

    time: int
    kind: int
    seq: int
    payload: Any = None


@dataclass
class RunningJob:
    job: Job  # holds job.size nodes while it runs
    start_time: int
    attempt: int


@dataclass
class AdjustmentLog:
    """Every dynamic request/release/provisioning of resources, in event order."""

    entries: list[tuple[int, str, int]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.entries)

    def record(self, time: int, actor: str, delta: int) -> None:
        if delta == 0:
            raise ValueError("adjustment entries must have nonzero delta")
        self.entries.append((time, actor, delta))


class JobQueue:
    """The batch queue in arrival order, indexed by job size for first fit.

    Jobs sit in one deque of ``(order key, job)`` pairs per distinct size,
    and ``_sizes`` lists the sizes present in ascending order. Tail appends
    take increasing keys and head requeues decreasing ones, so queue order
    is key order and every deque is sorted. The length, ``demand`` (the sum
    of queued sizes) and ``biggest`` are read without a scan.
    """

    __slots__ = ("_buckets", "_sizes", "_head", "_tail", "_len", "demand")

    def __init__(self, jobs: Iterable[Job] = ()):
        self._buckets: dict[int, deque[tuple[int, Job]]] = {}
        self._sizes: list[int] = []
        self._head = 0  # key of the current head requeue; the next one is lower
        self._tail = 0  # key of the next tail append
        self._len = 0
        self.demand = 0
        for job in jobs:
            self.append(job)

    def __len__(self) -> int:
        return self._len

    @property
    def biggest(self) -> int:
        """Size of the biggest queued job; 0 when the queue is empty."""
        return self._sizes[-1] if self._sizes else 0

    def _bucket(self, size: int) -> deque[tuple[int, Job]]:
        bucket = self._buckets.get(size)
        if bucket is None:
            bucket = self._buckets[size] = deque()
            insort(self._sizes, size)
        return bucket

    def append(self, job: Job) -> None:
        self._bucket(job.size).append((self._tail, job))
        self._tail += 1
        self._len += 1
        self.demand += job.size

    def push_front(self, jobs: Sequence[Job]) -> None:
        """Requeue jobs at the head of the queue, keeping their given order."""
        for job in reversed(jobs):
            self._head -= 1
            self._bucket(job.size).appendleft((self._head, job))
            self._len += 1
            self.demand += job.size

    def first_fit(self, idle: int) -> list[Job]:
        """Remove and return the jobs first fit starts with ``idle`` nodes.

        Each step takes the lowest-keyed head among the buckets whose size
        fits the remaining idle nodes, which is the job a scan from the
        front would find first; the cost grows with the number of distinct
        queued sizes, not with the queue length.
        """
        sizes = self._sizes
        if not sizes or sizes[0] > idle:
            return []
        buckets = self._buckets
        started: list[Job] = []
        while sizes and sizes[0] <= idle:
            best_size = sizes[0]
            best_key = buckets[best_size][0][0]
            for size in sizes[1:bisect_right(sizes, idle)]:
                key = buckets[size][0][0]
                if key < best_key:
                    best_size, best_key = size, key
            bucket = buckets[best_size]
            started.append(bucket.popleft()[1])
            if not bucket:
                del buckets[best_size]
                sizes.remove(best_size)
            idle -= best_size
            self._len -= 1
            self.demand -= best_size
        return started


@dataclass
class ClusterState:
    """Mutable resource-accounting state shared by the kernel and the policies.

    Only primary counts are stored; the rest are derived, so no transition
    can leave them out of step. ``pbj_idle`` is the batch RE's holdings
    ``pbj_owned`` less ``running_alloc``, the nodes its running jobs hold.
    ``capacity``, set only in FB, is the bounded cluster's size, and ``free``
    (the provision service's set) is what neither RE holds of it; it is 0
    when ``capacity`` is None. ``pbj_bound`` caps the batch RE's holdings in
    FB (its agreement bound, the scaled trace peak). ``pbj_pool``/``ws_pool``
    count how much of each RE's holdings is charged to the coordinated pool
    of ``pool_size`` nodes in FLB_NUB (first-come), and ``pool_room`` is the
    uncharged rest; holdings beyond the pool are externally leased.
    ``running`` is in start order (a killed job re-enters when it restarts),
    and ``attempts`` holds each killed job's attempt count until then.
    """

    pool_size: int = 0
    capacity: Optional[int] = None
    pbj_bound: Optional[int] = None
    pbj_floor: int = 0
    pbj_owned: int = 0
    ws_held: int = 0
    pbj_pool: int = 0
    ws_pool: int = 0
    clock: int = 0
    running: dict[int, RunningJob] = field(default_factory=dict)
    running_alloc: int = 0
    queue: JobQueue = field(default_factory=JobQueue)
    attempts: dict[int, int] = field(default_factory=dict)

    @property
    def pbj_idle(self) -> int:
        return self.pbj_owned - self.running_alloc

    @property
    def free(self) -> int:
        capacity = self.capacity
        return 0 if capacity is None else capacity - self.pbj_owned - self.ws_held

    @property
    def pool_room(self) -> int:
        return self.pool_size - self.pbj_pool - self.ws_pool

    @property
    def pbj_external(self) -> int:
        return self.pbj_owned - self.pbj_pool

    @property
    def ws_external(self) -> int:
        return self.ws_held - self.ws_pool

    def snapshot(self) -> dict[str, int]:
        """Post-event accounting snapshot embedded in the event log."""
        owned, running, ws = self.pbj_owned, self.running_alloc, self.ws_held
        pbj_pool, ws_pool, capacity, queue = self.pbj_pool, self.ws_pool, self.capacity, self.queue
        return {
            "pbj_owned": owned,
            "pbj_idle": owned - running,
            "running_alloc": running,
            "ws_held": ws,
            "free": 0 if capacity is None else capacity - owned - ws,
            "pbj_pool": pbj_pool,
            "ws_pool": ws_pool,
            "pbj_external": owned - pbj_pool,
            "ws_external": ws - ws_pool,
            "queue_len": len(queue),
            "queued_demand": queue.demand,
        }
