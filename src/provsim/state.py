"""Shared state records for the simulation kernel and the provisioning policies.

Events are plain ``(time, kind, seq, payload)`` tuples of the kernel, with
the kinds numbered below. A ``ClusterState`` counts its adjustments; only while
``recording`` does it keep them, and ``snapshot`` give a plain 11-tuple in the
event log's ``"state"`` key order (otherwise None).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import defaultdict, deque
from typing import Iterable, Optional, Sequence

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


class JobQueue:
    """The batch queue in arrival order, indexed by job size for first fit.

    Jobs sit in one deque of ``(order key, job)`` pairs per size, kept when
    it empties, and ``_sizes`` lists the sizes queued in ascending order.
    Tail appends take increasing keys and head requeues decreasing ones, so
    queue order is key order and every deque is sorted. A job appended to an
    empty queue waits in ``_lone``, outside the buckets, until the next
    append or requeue moves it to its bucket as a tail append. ``length``,
    ``demand`` (the sum of queued sizes) and ``biggest`` are read without a scan.
    """

    __slots__ = ("_buckets", "_sizes", "_lone", "_head", "_tail", "length", "demand")

    def __init__(self, jobs: Iterable[Job] = ()):
        self._buckets: defaultdict[int, deque[tuple[int, Job]]] = defaultdict(deque)
        self._sizes: list[int] = []
        self._lone: Optional[Job] = None
        self._head = 0  # key of the current head requeue; the next one is lower
        self._tail = 0  # key of the next tail append
        self.length = 0
        self.demand = 0
        for job in jobs:
            self.append(job)

    def __len__(self) -> int:
        return self.length

    @property
    def biggest(self) -> int:
        """Size of the biggest queued job; 0 when the queue is empty."""
        return self._sizes[-1] if self._sizes else self.demand  # the lone job's size, or 0

    def _settle(self) -> None:
        """Move the lone job into its bucket, which is then the only one."""
        job, self._lone = self._lone, None
        self._buckets[job.size].append((self._tail, job))
        self._sizes.append(job.size)
        self._tail += 1

    def append(self, job: Job) -> None:
        size = job.size
        if not self._sizes:  # the queue is empty or holds only the lone job
            if not self.length:
                self._lone = job
                self.length, self.demand = 1, size
                return
            self._settle()  # ahead of this job
        bucket = self._buckets[size]
        if not bucket:
            insort(self._sizes, size)
        bucket.append((self._tail, job))
        self._tail += 1
        self.length += 1
        self.demand += size

    def push_front(self, jobs: Sequence[Job]) -> None:
        """Requeue jobs at the head of the queue, keeping their given order."""
        if self._lone is not None:
            self._settle()
        for job in reversed(jobs):
            self._head -= 1
            size = job.size
            bucket = self._buckets[size]
            if not bucket:
                insort(self._sizes, size)
            bucket.appendleft((self._head, job))
            self.length += 1
            self.demand += size

    def first_fit(self, idle: int) -> Sequence[Job]:
        """Remove and return the jobs first fit starts with ``idle`` nodes (a
        shared empty tuple when none fits).

        Each step takes the lowest-keyed head among the buckets whose size
        fits the remaining idle nodes, which is the job a scan from the
        front would find first; the cost grows with the number of distinct
        queued sizes, not with the queue length.
        """
        sizes = self._sizes
        if not sizes:
            job = self._lone
            if job is None or job.size > idle:
                return ()
            self._lone = None
            self.length = self.demand = 0
            return [job]
        if sizes[0] > idle:
            return ()
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
                sizes.remove(best_size)
            idle -= best_size
            self.length -= 1
            self.demand -= best_size
        return started


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
    ``running`` maps each running job's id to its ``(job, start_time,
    attempt)`` entry, in start order (a killed job re-enters when it
    restarts), and ``attempts`` holds each killed job's attempt count until then.
    ``adjustment_count`` counts every dynamic request, release or provisioning of
    resources, and ``adjustments`` keeps them as ``(actor, delta)`` while ``recording``.
    """

    def __init__(self, pool_size: int = 0, capacity: Optional[int] = None,
                 pbj_bound: Optional[int] = None, pbj_floor: int = 0, pbj_owned: int = 0,
                 ws_held: int = 0, pbj_pool: int = 0, ws_pool: int = 0, clock: int = 0,
                 running_alloc: int = 0):
        self.pool_size, self.capacity, self.pbj_bound = pool_size, capacity, pbj_bound
        self.pbj_floor, self.pbj_owned, self.ws_held = pbj_floor, pbj_owned, ws_held
        self.pbj_pool, self.ws_pool, self.clock = pbj_pool, ws_pool, clock
        self.running: dict[int, tuple[Job, int, int]] = {}
        self.running_alloc = running_alloc
        self.queue = JobQueue()
        self.attempts: dict[int, int] = {}
        self.recording = True  # the kernel clears it for a metrics-only run
        self.adjustment_count, self.adjustments = 0, []  # (actor, delta) pairs

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

    def adjust(self, actor: str, delta: int) -> None:
        """Count an adjustment of ``delta`` nodes by ``actor``; keep it if ``recording``."""
        if delta == 0:
            raise ValueError("an adjustment must have a nonzero delta")
        self.adjustment_count += 1
        if self.recording:
            self.adjustments.append((actor, delta))

    def snapshot(self) -> Optional[tuple[int, ...]]:
        """Post-event accounting snapshot embedded in the event log, or None (and
        nothing built) unless ``recording``: pbj_owned, pbj_idle, running_alloc, ws_held,
        free, pbj_pool, ws_pool, pbj_external, ws_external, queue_len, queued_demand."""
        if not self.recording:
            return None
        owned, running, ws = self.pbj_owned, self.running_alloc, self.ws_held
        pbj_pool, ws_pool, capacity, queue = self.pbj_pool, self.ws_pool, self.capacity, self.queue
        return (owned, owned - running, running, ws,
                0 if capacity is None else capacity - owned - ws, pbj_pool, ws_pool,
                owned - pbj_pool, ws - ws_pool, queue.length, queue.demand)
