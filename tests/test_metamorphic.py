"""Metamorphic relations over whole runs (Chen et al., "Metamorphic Testing:
A New Approach for Generating Next Test Cases", 1998).

Each relation transforms a fuzzed scenario and states exactly how the event
log and the report must change. It needs neither a second simulator nor the
golden digests, so it checks the kernel's bookkeeping (running entries, the
job queue, arrival order, the cached trace peaks) independently of both.

- **Time scaling** (every regime): multiplying every submit time, runtime,
  demand-sample time, the window and the lease unit L by k multiplies every
  time in the log by k and leaves everything else as it was.
- **Node scaling** (DCS, FB, EC2RS): multiplying every job size, every
  demand, B and FB's configuration size by k multiplies every node count in
  the log and the report by k. FLB_NUB is excluded: its batch manager
  releases ``floor(G * idle)`` nodes and its default lower-bound share is
  ``B * prc_pbj // (prc_pbj + prc_ws)``, and neither floor commutes with
  multiplying by k.
- **A repeated demand** (every regime): adding a demand sample equal to the
  demand in force at its time leaves the report unchanged.
- **A job after the window** (every regime): adding a job submitted at or
  after the window end adds 1 to ``incomplete_jobs`` and changes nothing
  else in the report. The job is no bigger than the trace's largest, since
  the trace's peak sets each regime's scaling and bounds. Jobs arrive in
  ``[0, duration)``, as ``trace.window`` keeps them, so a job submitted
  exactly at the window end never arrives: EC2RS leases no node for it.
- **Relabeled jobs** (every regime): mapping every job id through an
  increasing function changes only the ids in the log (each payload's
  ``job_id`` and the ``started`` and ``killed`` lists) and leaves the report
  as it was. The map must be increasing because FB requeues the jobs it
  kills in (submit time, id) order.
"""

import random

import pytest

from provsim.simkernel import run
from provsim.state import REGIMES
from provsim.trace import DemandTrace, Job, JobTrace

from oracles import random_fuzz_setup

SEEDS = range(25)
FACTORS = (2, 3)
# Payload fields that hold a time or a node count.
TIME_FIELDS = ("submit", "runtime", "turnaround")
NODE_FIELDS = ("size", "demand", "nodes")


def scaled(event, k, fields, *, times, nodes):
    """``event`` with ``fields`` of its payload multiplied by ``k``, and its
    time (``times``) or its state's node counts and adjustment deltas
    (``nodes``) too."""
    payload = {key: value * k if key in fields else value
               for key, value in event["payload"].items()}
    expected = {**event, "payload": payload}
    if times:
        expected["time"] = event["time"] * k
    if nodes:
        expected["state"] = {key: value if key == "queue_len" else value * k
                             for key, value in event["state"].items()}
        if "adjustments" in event:
            expected["adjustments"] = [[actor, delta * k] for actor, delta in event["adjustments"]]
    return expected


def integer_sums(metrics):
    """The runtime and turnaround sums behind the averages (exact here:
    every sum is far below 2**53)."""
    n = metrics.completed_jobs
    if not n:
        return 0, 0
    return round(metrics.avg_execution_time * n), round(metrics.avg_turnaround_time * n)


@pytest.mark.parametrize("k", FACTORS)
@pytest.mark.parametrize("regime", REGIMES)
def test_time_scaling(regime, k):
    for seed in SEEDS:
        jobs, demand, params, kwargs = random_fuzz_setup(regime, seed)
        offset, duration = jobs.window
        slow_jobs = JobTrace(tuple(Job(i, t * k, r * k, z) for i, t, r, z in jobs.jobs),
                             (offset, duration * k))
        slow_demand = DemandTrace(tuple((t * k, d) for t, d in demand.samples))
        base = run(jobs, demand, regime, params, record_events=True, **kwargs)
        slow = run(slow_jobs, slow_demand, regime, params._replace(L=params.L * k),
                   record_events=True, **kwargs)
        assert slow.events == [scaled(e, k, TIME_FIELDS, times=True, nodes=False)
                               for e in base.events], seed
        a, b = base.metrics, slow.metrics
        assert (b.completed_jobs, b.incomplete_jobs, b.peak_consumption, b.adjustment_count) == (
            a.completed_jobs, a.incomplete_jobs, a.peak_consumption, a.adjustment_count), seed
        assert b.total_consumption_node_seconds == k * a.total_consumption_node_seconds, seed
        assert b.window_duration == k * a.window_duration, seed
        assert integer_sums(b) == tuple(k * s for s in integer_sums(a)), seed


@pytest.mark.parametrize("k", FACTORS)
@pytest.mark.parametrize("regime", ["DCS", "FB", "EC2RS"])
def test_node_scaling(regime, k):
    for seed in SEEDS:
        jobs, demand, params, kwargs = random_fuzz_setup(regime, seed)
        big_jobs = JobTrace(tuple(Job(i, t, r, z * k) for i, t, r, z in jobs.jobs), jobs.window)
        big_demand = DemandTrace(tuple((t, d * k) for t, d in demand.samples))
        big_kwargs = {name: value * k for name, value in kwargs.items()}
        base = run(jobs, demand, regime, params, record_events=True, **kwargs)
        big = run(big_jobs, big_demand, regime, params._replace(B=params.B * k),
                  record_events=True, **big_kwargs)
        assert big.events == [scaled(e, k, NODE_FIELDS, times=False, nodes=True)
                              for e in base.events], seed
        a, b = base.metrics, big.metrics
        assert b.peak_consumption == k * a.peak_consumption, seed
        assert b.total_consumption_node_seconds == k * a.total_consumption_node_seconds, seed
        assert b._replace(peak_consumption=a.peak_consumption,
                          total_consumption_node_seconds=a.total_consumption_node_seconds) == a, seed


@pytest.mark.parametrize("regime", REGIMES)
def test_repeated_demand_leaves_the_report_unchanged(regime):
    for seed in SEEDS:
        jobs, demand, params, kwargs = random_fuzz_setup(regime, seed)
        rng = random.Random(seed)
        samples = sorted(demand.samples, key=lambda sample: sample[0])
        time = rng.randint(samples[0][0], jobs.window[1])
        in_force = [d for t, d in samples if t <= time][-1]  # a later sample wins a tie
        repeated = DemandTrace(demand.samples + ((time, in_force),))
        base = run(jobs, demand, regime, params, **kwargs)
        more = run(jobs, repeated, regime, params, **kwargs)
        assert (more.metrics, more.columns) == (base.metrics, base.columns), (seed, time)


@pytest.mark.parametrize("when", ["after", "end"])
@pytest.mark.parametrize("regime", REGIMES)
def test_job_after_the_window_is_only_incomplete(regime, when):
    for seed in SEEDS:
        jobs, demand, params, kwargs = random_fuzz_setup(regime, seed)
        rng = random.Random(seed)
        end = jobs.window[1]
        submit = end if when == "end" else end + rng.randint(1, end)
        late = Job(max(job.id for job in jobs.jobs) + 1, submit, rng.randint(1, end),
                   rng.randint(1, jobs.peak_demand))
        base = run(jobs, demand, regime, params, **kwargs)
        more = run(jobs._replace(jobs=jobs.jobs + (late,)), demand, regime, params, **kwargs)
        expected = base.metrics._replace(incomplete_jobs=base.metrics.incomplete_jobs + 1)
        assert (more.metrics, more.columns) == (expected, base.columns), (seed, late)


@pytest.mark.parametrize("regime", REGIMES)
def test_relabeled_jobs_change_only_the_ids(regime):
    for seed in SEEDS:
        jobs, demand, params, kwargs = random_fuzz_setup(regime, seed)
        rng = random.Random(seed)
        ids = sorted(job.id for job in jobs.jobs)
        new_id = dict(zip(ids, sorted(rng.sample(range(1, 2**40), len(ids)))))
        relabeled = jobs._replace(jobs=tuple(job._replace(id=new_id[job.id])
                                             for job in jobs.jobs))
        base = run(jobs, demand, regime, params, record_events=True, **kwargs)
        more = run(relabeled, demand, regime, params, record_events=True, **kwargs)
        expected = []
        for event in base.events:
            event = dict(event)
            if "job_id" in event["payload"]:
                event["payload"] = {**event["payload"],
                                    "job_id": new_id[event["payload"]["job_id"]]}
            for key in ("started", "killed"):
                if key in event:
                    event[key] = [new_id[job_id] for job_id in event[key]]
            expected.append(event)
        assert more.events == expected, seed
        assert (more.metrics, more.columns) == (base.metrics, base.columns), seed
