import cProfile
import gc
import io
import math
import pstats
import random
import sys
from pathlib import Path

import pytest

from provsim.errors import InfeasibleScenarioError, KernelError, ScenarioError
from provsim.metrics import IDENT_COLUMNS
from provsim.policies import PolicyParams
from provsim.scenario import load_scenario, load_traces, run_scenario_obj
from provsim.simkernel import run, write_event_log
from provsim.state import ACTOR_PBJ, KIND_JOB_ARRIVAL, REGIMES, ClusterState
from provsim.trace import DemandTrace, Job, JobTrace

from conftest import CountingStream, log_text, make_demand, make_jobs
from oracles import (
    check_conservation,
    event_dicts_reference,
    integrate,
    job_times,
    random_fuzz_setup,
    random_micro_scenario,
    replay_consumption,
)

ZERO_WS = DemandTrace(samples=((0, 0),))
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios" / "synthetic"


class TestEventOrder:
    def test_negative_submit_time_is_time_regression(self):
        jobs = JobTrace(jobs=(Job(1, -5, 10, 1),), window=(0, 100))
        with pytest.raises(KernelError, match="time regression"):
            run(jobs, ZERO_WS, "DCS", PolicyParams())

    def test_same_time_events_in_kind_order(self):
        # At t=10: job 1 completes, demand changes, both FLB_NUB timers tick,
        # and jobs 5 and 4 arrive, listed in that order in the trace.
        jobs = make_jobs([(1, 0, 10, 1), (5, 10, 5, 1), (4, 10, 5, 1)], duration=100)
        demand = make_demand([(0, 0), (10, 1)])
        result = run(jobs, demand, "FLB_NUB", PolicyParams(B=4, L=10), record_events=True)
        at_10 = [r for r in event_dicts_reference(result) if r["time"] == 10]
        assert [r["kind"] for r in at_10] == ["job_completion", "ws_demand_change", "lease_tick",
                                              "pbj_manage_tick", "job_arrival", "job_arrival"]
        assert [r["payload"]["job_id"] for r in at_10 if r["kind"] == "job_arrival"] == [5, 4]

    def test_arrival_after_same_second_completion_demand_change_and_lease_tick(self):
        # At t=10 job 1 completes, demand changes and FB's lease timer fires.
        # Job 2 arrives in the same second and comes after all three, so it
        # starts on the nodes job 1 freed.
        jobs = make_jobs([(1, 0, 10, 4), (2, 10, 5, 4)], duration=100)
        demand = make_demand([(0, 2), (10, 4)])
        result = run(jobs, demand, "FB", PolicyParams(L=10), config_size=8, record_events=True)
        at_10 = [r for r in event_dicts_reference(result) if r["time"] == 10]
        assert [r["kind"] for r in at_10] == ["job_completion", "ws_demand_change", "lease_tick",
                                              "job_arrival"]
        assert at_10[-1]["started"] == [2]

    def test_job_submitted_after_window_end_is_never_processed(self):
        jobs = make_jobs([(1, 0, 10, 1), (2, 101, 5, 1), (3, 100, 5, 1)], duration=100)
        result = run(jobs, ZERO_WS, "DCS", PolicyParams(), record_events=True)
        events = event_dicts_reference(result)
        arrivals = [(r["time"], r["payload"]["job_id"]) for r in events
                    if r["kind"] == "job_arrival"]
        # Jobs arrive in [0, duration): one submitted at the window end never does.
        assert arrivals == [(0, 1)]
        assert events[-1]["time"] == 10
        assert (result.metrics.completed_jobs, result.metrics.incomplete_jobs) == (1, 2)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_empty_job_trace_runs_to_window_end(self, regime):
        empty = JobTrace(jobs=(), window=(0, 100))
        demand = make_demand([(0, 1), (100, 3), (101, 5)])
        kwargs = {"config_size": 8} if regime == "FB" else {}
        result = run(empty, demand, regime, PolicyParams(B=2, L=50), record_events=True, **kwargs)
        events = event_dicts_reference(result)
        changes = [(r["time"], r["payload"]["demand"]) for r in events
                   if r["kind"] == "ws_demand_change"]
        assert changes == [(0, 1), (100, 3)]
        assert events[-1]["time"] == 100
        ticks = [r["time"] for r in events if r["kind"] == "lease_tick"]
        assert ticks == ([] if regime in ("DCS", "EC2RS") else [0, 50, 100])


class TestRunBasics:
    def test_empty_demand_trace_rejected(self):
        jobs = make_jobs([(1, 0, 100, 4)], duration=200)
        with pytest.raises(ScenarioError, match="demand trace is empty"):
            run(jobs, make_demand([]), "DCS", PolicyParams())

    def test_zero_adjustment_rejected(self):
        # A metrics-only run keeps no adjustments, but still refuses a zero one.
        for recording in (True, False):
            state = ClusterState()
            state.recording = recording
            with pytest.raises(ValueError, match="nonzero delta"):
                state.adjust(ACTOR_PBJ, 0)
            assert (state.adjustment_count, state.adjustments) == (0, []), recording

    def test_single_job_completes(self):
        jobs = make_jobs([(1, 0, 100, 4)], duration=200)
        result = run(jobs, ZERO_WS, "DCS", PolicyParams())
        m = result.metrics
        assert m.completed_jobs == 1
        assert m.avg_execution_time == 100.0
        assert m.avg_turnaround_time == 100.0
        assert m.incomplete_jobs == 0

    def test_no_workload_no_adjustments_any_regime(self):
        empty = JobTrace(jobs=(), window=(0, 1000))
        for regime in ("DCS", "FB", "FLB_NUB", "EC2RS"):
            kwargs = {"config_size": 4} if regime == "FB" else {}
            result = run(empty, ZERO_WS, regime, PolicyParams(B=0, L=100), **kwargs)
            assert result.metrics.completed_jobs == 0
            assert result.metrics.adjustment_count == 0

    def test_queued_job_waits_for_capacity(self):
        jobs = make_jobs([(1, 0, 50, 4), (2, 10, 20, 4)], duration=200)
        result = run(jobs, ZERO_WS, "DCS", PolicyParams(), record_events=True)
        starts, completions = job_times(event_dicts_reference(result))
        assert starts[1] == [0] and completions[1] == 50
        assert starts[2] == [50] and completions[2] == 70

    def test_completion_processed_before_same_time_arrival(self):
        jobs = make_jobs([(1, 0, 10, 4), (2, 10, 5, 4)], duration=100)
        result = run(jobs, ZERO_WS, "DCS", PolicyParams(), record_events=True)
        events = event_dicts_reference(result)
        starts, _ = job_times(events)
        assert starts[2] == [10]  # freed nodes visible to the arrival at t=10
        kinds = [(r["time"], r["kind"]) for r in events if r["time"] == 10]
        assert kinds == [(10, "job_completion"), (10, "job_arrival")]

    def test_job_never_starts_before_submit(self):
        jobs = make_jobs([(1, 30, 10, 1)], duration=100)
        result = run(jobs, ZERO_WS, "FLB_NUB", PolicyParams(B=4, L=10), record_events=True)
        starts, _ = job_times(event_dicts_reference(result))
        assert starts[1][0] >= 30

    def test_window_end_cuts_completions(self):
        jobs = make_jobs([(1, 0, 500, 1)], duration=200)
        result = run(jobs, ZERO_WS, "DCS", PolicyParams())
        assert result.metrics.completed_jobs == 0
        assert result.metrics.incomplete_jobs == 1
        assert result.metrics.avg_execution_time is None

    def test_ws_demand_above_config_is_infeasible(self):
        jobs = make_jobs([(1, 0, 10, 2)], duration=100)
        demand = make_demand([(0, 10)])
        with pytest.raises(InfeasibleScenarioError):
            run(jobs, demand, "FB", PolicyParams(L=50), config_size=8)

    def test_dcs_config_must_match_peaks(self):
        jobs = make_jobs([(1, 0, 10, 2)], duration=100)
        demand = make_demand([(0, 3)])
        with pytest.raises(ScenarioError):
            run(jobs, demand, "DCS", PolicyParams(), config_size=99)

    @pytest.mark.parametrize("regime", ["FLB_NUB", "EC2RS"])
    def test_unbounded_regimes_reject_config_size(self, regime):
        jobs = make_jobs([(1, 0, 10, 2)], duration=100)
        with pytest.raises(ScenarioError, match="config_size"):
            run(jobs, ZERO_WS, regime, PolicyParams(L=50), config_size=8)

    @pytest.mark.parametrize("regime, config_size", [("DCS", None), ("FB", 8), ("EC2RS", None)])
    def test_regimes_without_pool_reject_pbj_floor(self, regime, config_size):
        jobs = make_jobs([(1, 0, 10, 2)], duration=100)
        with pytest.raises(ScenarioError, match="pbj_floor"):
            run(jobs, ZERO_WS, regime, PolicyParams(L=50), config_size=config_size, pbj_floor=1)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_columns_are_the_values_that_ran(self, regime):
        jobs, demand, params, kwargs = random_fuzz_setup(regime, 3)
        columns = run(jobs, demand, regime, params, **kwargs).columns
        assert list(columns) == IDENT_COLUMNS
        assert (columns["prc_pbj"], columns["prc_ws"]) == (jobs.peak_demand, demand.peak_demand)
        pool = (params.B, params.U, params.V, params.G) if regime == "FLB_NUB" else (None,) * 4
        assert (columns["B"], columns["U"], columns["V"], columns["G"]) == pool

    def test_unknown_regime(self):
        jobs = make_jobs([(1, 0, 10, 2)], duration=100)
        with pytest.raises(ScenarioError, match="regime"):
            run(jobs, ZERO_WS, "SPOT", PolicyParams())


class TestFbScenarios:
    def test_ws_drop_returns_to_batch_only_at_next_tick(self):
        # Demand drops by 6 mid-interval; the batch side regains those nodes
        # only when the lease timer fires.
        jobs = make_jobs([(1, 0, 1000, 2)], duration=1200)
        demand = make_demand([(0, 8), (150, 2)])
        result = run(jobs, demand, "FB", PolicyParams(L=600), config_size=10, record_events=True)
        events = event_dicts_reference(result)
        owned = [(r["time"], r["state"]["pbj_owned"]) for r in events]
        assert (150, 2) in owned          # drop instant: batch still at bound 2
        by_time = dict(owned)
        assert by_time[150] == 2
        assert by_time[600] == 2          # bound is 2, nothing more to take
        free_at = {r["time"]: r["state"]["free"] for r in events}
        assert free_at[150] == 6

    def test_kill_restart_counts_once(self):
        # One 4-node job gets killed by a demand spike, restarts, completes.
        jobs = make_jobs([(1, 0, 100, 4)], duration=2000)
        demand = make_demand([(0, 0), (50, 8), (200, 0)])
        result = run(jobs, demand, "FB", PolicyParams(L=300), config_size=8, record_events=True)
        m = result.metrics
        assert m.completed_jobs == 1
        events = event_dicts_reference(result)
        starts, completions = job_times(events)
        assert starts[1] == [0, 300]      # killed at 50, restarted at the 300s tick
        assert completions[1] == 400
        assert m.avg_turnaround_time == 400.0
        assert m.avg_execution_time == 100.0  # trace runtime, not wall occupancy
        killed = [r for r in events if r.get("killed")]
        assert len(killed) == 1 and killed[0]["time"] == 50


class TestDeterminism:
    def test_byte_identical_event_logs(self):
        for seed in range(5):
            jobs, demand = random_micro_scenario(seed)
            a = run(jobs, demand, "FLB_NUB", PolicyParams(B=10, L=300), record_events=True)
            b = run(jobs, demand, "FLB_NUB", PolicyParams(B=10, L=300), record_events=True)
            assert log_text(a) == log_text(b)

    def test_identical_reports(self):
        jobs, demand = random_micro_scenario(99)
        a = run(jobs, demand, "EC2RS", PolicyParams(L=300))
        b = run(jobs, demand, "EC2RS", PolicyParams(L=300))
        assert a.metrics == b.metrics


class TestConservationAndOracle:
    @pytest.mark.parametrize("regime", ["DCS", "FB", "FLB_NUB", "EC2RS"])
    def test_invariants_and_integral_on_random_scenarios(self, regime):
        for seed in range(25):
            jobs, demand = random_micro_scenario(seed)
            params = PolicyParams(B=8, U=1.2, V=0.2, G=0.5, L=250)
            kwargs = {}
            if regime == "FB":
                kwargs["config_size"] = jobs.peak_demand + demand.peak_demand
            result = run(jobs, demand, regime, params, record_events=True, **kwargs)
            config = jobs.peak_demand + demand.peak_demand
            floor = params.B * jobs.peak_demand // config if config else 0
            if regime != "FLB_NUB":
                floor = 0
            events = event_dicts_reference(result)
            check_conservation(
                events, regime,
                config_size=config, pbj_floor=floor, pool_size=params.B,
                pbj_bound=jobs.peak_demand, ws_bound=demand.peak_demand,
            )
            duration = jobs.window[1]
            oracle_curve = replay_consumption(
                events, regime,
                config_size=config, pool_size=params.B,
                duration=duration, pbj_floor=floor,
            )
            oracle_total = integrate(oracle_curve, duration)
            assert oracle_total == result.metrics.total_consumption_node_seconds
            assert max(v for _, v in oracle_curve) == result.metrics.peak_consumption


class TestFbDcsEquivalence:
    def test_fb_at_peak_sum_equals_dcs(self):
        for seed in range(40):
            jobs, demand = random_micro_scenario(seed)
            config = jobs.peak_demand + demand.peak_demand
            params = PolicyParams(L=300)
            a = run(jobs, demand, "DCS", params, record_events=True)
            b = run(jobs, demand, "FB", params, config_size=config, record_events=True)
            assert job_times(event_dicts_reference(a)) == job_times(event_dicts_reference(b))
            ma, mb = a.metrics, b.metrics
            assert (ma.completed_jobs, ma.avg_execution_time, ma.avg_turnaround_time) == (
                mb.completed_jobs, mb.avg_execution_time, mb.avg_turnaround_time
            )
            assert ma.peak_consumption == mb.peak_consumption
            assert ma.total_consumption_node_seconds == mb.total_consumption_node_seconds


class TestTraceOrder:
    """The kernel feeds arrivals and demand samples in time order; traces out
    of order replay exactly as their stably sorted forms."""

    @pytest.mark.parametrize("regime", REGIMES)
    def test_unsorted_traces_replay_as_sorted(self, regime):
        for seed in range(150):
            jobs, demand, params, kwargs = random_fuzz_setup(regime, seed)
            rng = random.Random(seed)
            end = jobs.window[1]
            shuffled_jobs = list(jobs.jobs)
            rng.shuffle(shuffled_jobs)
            # A second sample at an existing time, and samples past the window end.
            samples = list(demand.samples) + [(rng.choice(demand.samples)[0],
                                               rng.choice(demand.samples)[1])]
            samples += [(end + rng.randint(1, 600), rng.randint(0, demand.peak_demand))
                        for _ in range(3)]
            rng.shuffle(samples)
            unsorted_jobs = jobs._replace(jobs=tuple(shuffled_jobs))
            unsorted_demand = demand._replace(samples=tuple(samples))
            sorted_jobs = jobs._replace(jobs=tuple(sorted(shuffled_jobs,
                                                          key=lambda j: j.submit_time)))
            sorted_demand = demand._replace(samples=tuple(sorted(samples, key=lambda s: s[0])))
            a = run(unsorted_jobs, unsorted_demand, regime, params, record_events=True, **kwargs)
            b = run(sorted_jobs, sorted_demand, regime, params, record_events=True, **kwargs)
            assert log_text(a) == log_text(b), seed
            assert a.metrics == b.metrics, seed

    @pytest.mark.parametrize("regime", REGIMES)
    def test_one_late_pair_out_of_order_is_sorted(self, regime):
        # Only the last two jobs are swapped, and equal submit times keep
        # their order.
        specs = [(1, 0, 500, 2), (2, 100, 300, 3), (3, 100, 200, 1), (4, 400, 100, 2),
                 (5, 900, 100, 4), (6, 700, 100, 1)]
        demand = make_demand([(0, 1), (300, 3), (800, 0)])
        params = PolicyParams(B=4, L=300)
        kwargs = {"config_size": 8} if regime == "FB" else {}
        swapped = run(make_jobs(specs, 1200), demand, regime, params, record_events=True, **kwargs)
        ordered = run(make_jobs(sorted(specs, key=lambda s: s[1]), 1200), demand, regime, params,
                      record_events=True, **kwargs)
        assert [e["payload"]["job_id"] for e in event_dicts_reference(swapped)
                if e["kind"] == "job_arrival"] == [1, 2, 3, 4, 6, 5]
        assert log_text(swapped) == log_text(ordered)


class TestCallBudget:
    """The kernel's fixed cost per event, as Python calls counted by cProfile:
    exact, so unlike a timing it does not vary between runs. Each ceiling is
    the count measured on two days of a shipped scenario (DCS 7.29, FB 8.39,
    FLB_NUB 10.30, EC2RS 8.51) plus a margin of 0.1: the kernel starts the
    jobs that admission returns, with no call per job, and a metrics-only run
    only counts an adjustment, with no call to keep it. Every one of these runs
    has at least 0.25 arrivals per event, and starts as many jobs as arrive,
    so a change that adds a call per event, per arrival or per job started
    fails here; the test checks that the margin stays below that rate."""

    MEASURED = {"synthetic_dcs_256": 7.29, "synthetic_fb_152": 8.39,
                "synthetic_flb_baseline": 10.30, "synthetic_ec2rs": 8.51}
    MARGIN = 0.1

    @pytest.mark.parametrize("stem", sorted(MEASURED))
    def test_calls_per_event_within_ceiling(self, stem):
        path = SCENARIOS / f"{stem}.json"
        scenario = load_scenario(path)._replace(window_duration=2 * 86400)
        traces = load_traces(scenario)
        records = run_scenario_obj(scenario, traces, record_events=True).records
        events = len(records)
        arrivals = sum(1 for record in records if record[1] == KIND_JOB_ARRIVAL)
        started = sum(len(record[3]) for record in records)
        assert self.MARGIN < min(arrivals, started) / events, (arrivals, started, events)
        profile = cProfile.Profile()
        profile.runcall(run_scenario_obj, scenario, traces)
        calls = pstats.Stats(profile).total_calls
        assert calls / events <= self.MEASURED[stem] + self.MARGIN, (calls, events)


class TestWriterBudget:
    """The event-log writer's cost per line, on the same two days of each
    shipped scenario. It writes a block of at most ``BLOCK`` lines a call, so
    the log takes at most ceil(lines / BLOCK) ``write`` calls. Its Python calls
    per line, counted by cProfile into an ``io.BytesIO``, stay within the
    measured value (DCS 1.70, FB 2.58, FLB_NUB 2.66, EC2RS 3.76) plus a margin
    of 0.1. At least a quarter of each log's lines carry a started list, so a
    change that adds a call per line, or per line with a list, fails here."""

    BLOCK = 256
    MEASURED = {"synthetic_dcs_256": 1.70, "synthetic_fb_152": 2.58,
                "synthetic_flb_baseline": 2.66, "synthetic_ec2rs": 3.76}
    MARGIN = 0.1

    @pytest.mark.parametrize("stem", sorted(MEASURED))
    def test_writes_and_calls_per_line_within_ceiling(self, stem):
        scenario = load_scenario(SCENARIOS / f"{stem}.json")._replace(window_duration=2 * 86400)
        result = run_scenario_obj(scenario, load_traces(scenario), record_events=True)
        lines = len(result.records)
        with_started = sum(1 for record in result.records if record[3])
        assert self.MARGIN < with_started / lines, (with_started, lines)
        stream = CountingStream()
        write_event_log(result, stream)
        assert stream.writes <= math.ceil(lines / self.BLOCK), (stream.writes, lines)
        profile = cProfile.Profile()
        profile.runcall(write_event_log, result, io.BytesIO())
        calls = pstats.Stats(profile).total_calls
        assert calls / lines <= self.MEASURED[stem] + self.MARGIN, (calls, lines)


class TestSetupCallBudget:
    """Trace setup's cost per entry, counted the same way: cProfile's calls in
    ``load_traces`` on synthetic_fb_152 over its jobs plus demand samples. The
    ceiling is the measured 0.96 plus 0.5, so a change that adds a call per
    parsed line, or rebuilds the jobs when scaling leaves their sizes as they
    are, fails here."""

    CEILING = 1.46

    def test_load_traces_calls_per_entry_within_ceiling(self):
        scenario = load_scenario(SCENARIOS / "synthetic_fb_152.json")
        jobs, demand = load_traces(scenario)
        profile = cProfile.Profile()
        profile.runcall(load_traces, scenario)
        calls = pstats.Stats(profile).total_calls
        entries = len(jobs.jobs) + len(demand.samples)
        assert calls / entries <= self.CEILING, (calls, entries)


class TestCollectorPause:
    """``run`` pauses the cyclic garbage collector and restores its prior
    state. The pause is safe only because a run builds no reference cycles,
    which the first test pins: with the collector off throughout, a
    collection after the results are dropped finds nothing."""

    SEEDS = range(100)

    @pytest.mark.parametrize("record", [True, False], ids=["recorded", "metrics-only"])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_run_builds_no_reference_cycles(self, regime, record, collector_state):
        setups = [random_fuzz_setup(regime, seed) for seed in self.SEEDS]
        kills = 0
        gc.disable()
        gc.collect()
        for jobs, demand, params, kwargs in setups:
            result = run(jobs, demand, regime, params, record_events=record, **kwargs)
            if record:
                kills += sum(len(killed) for _, _, _, _, killed, *_ in result.records)
            del result
        assert gc.collect() == 0
        if regime == "FB" and record:
            assert kills > 0  # the cases include FB kills and their requeues

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_run_restores_the_collector_state_even_on_error(self, enabled, collector_state):
        (gc.enable if enabled else gc.disable)()
        run(*random_micro_scenario(0), "DCS", PolicyParams())
        assert gc.isenabled() == enabled
        regressing = JobTrace(jobs=(Job(1, -5, 10, 1),), window=(0, 100))
        with pytest.raises(KernelError, match="time regression"):
            run(regressing, ZERO_WS, "DCS", PolicyParams())
        assert gc.isenabled() == enabled

    def test_resumed_collector_waits_until_run_returns(self, collector_state):
        # Nothing is allocated between the end of the pause and the return
        # (a generator's end would build a StopIteration there), so the
        # resumed collector's first pass comes at the caller's next
        # allocation, which may follow the caller dropping the records.
        if sys.gettrace() is not None:
            pytest.skip("a line tracer (scripts/reach.py) allocates as run returns")
        scenario = load_scenario(SCENARIOS / "synthetic_fb_152.json")._replace(
            window_duration=2 * 86400)
        jobs, demand = load_traces(scenario)
        passes = []

        def count(phase, info):
            passes.append(phase)

        gc.enable()
        gc.collect()
        gc.callbacks.append(count)
        try:
            result = run(jobs, demand, "FB", scenario.params, config_size=scenario.config_size,
                         record_events=True)
        finally:
            gc.callbacks.remove(count)
        assert len(result.records) > 1000  # enough to start a pass once the collector resumes
        assert passes == []

    def test_recorded_fb_152_run_makes_no_collector_pass(self, collector_state):
        # Two days of the shipped FB scenario, recorded: with the collector
        # running, its young generation fills several times over.
        scenario = load_scenario(SCENARIOS / "synthetic_fb_152.json")._replace(
            window_duration=2 * 86400)
        traces = load_traces(scenario)
        passes = []

        def count(phase, info):
            # Only a pass that starts inside the kernel counts: under a line
            # tracer (scripts/reach.py), the tracer's allocations as ``run``
            # returns may start the resumed collector's first pass.
            frame = sys._getframe(1)
            while phase == "start" and frame is not None:
                code = frame.f_code
                if code.co_filename == run.__code__.co_filename and code is not run.__code__:
                    passes.append(info["generation"])
                    break
                frame = frame.f_back

        gc.enable()
        gc.callbacks.append(count)
        try:
            result = run_scenario_obj(scenario, traces, record_events=True)
        finally:
            gc.callbacks.remove(count)
        assert len(result.records) > 1000
        assert passes == []
