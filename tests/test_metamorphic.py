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
"""

from dataclasses import replace

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
        slow = run(slow_jobs, slow_demand, regime, replace(params, L=params.L * k),
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
        big = run(big_jobs, big_demand, regime, replace(params, B=params.B * k),
                  record_events=True, **big_kwargs)
        assert big.events == [scaled(e, k, NODE_FIELDS, times=False, nodes=True)
                              for e in base.events], seed
        a, b = base.metrics, big.metrics
        assert b.peak_consumption == k * a.peak_consumption, seed
        assert b.total_consumption_node_seconds == k * a.total_consumption_node_seconds, seed
        assert replace(b, peak_consumption=a.peak_consumption,
                       total_consumption_node_seconds=a.total_consumption_node_seconds) == a, seed
