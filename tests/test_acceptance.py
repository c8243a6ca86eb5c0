"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 3 (regression against the published archive traces) runs only when
the real traces are present under traces/; otherwise it is skipped and the
remaining criteria run on the repository's synthetic traces.
"""

import random
from pathlib import Path

import pytest

from provsim import PolicyParams, parse_demand_trace, parse_swf, run, scale_to_peak, window
from provsim.policies import fb_force_release, ws_instance_controller
from provsim.scenario import apply_axis, load_scenario, load_traces, run_scenario_obj
from provsim.state import ClusterState
from provsim.trace import Job

from conftest import log_text, traces_dir
from oracles import (
    check_conservation,
    event_dicts_reference,
    greedy_kill_reference,
    integrate,
    job_times,
    random_fuzz_setup,
    random_micro_scenario,
    replay_consumption,
    replay_queue_accounting,
)

BASELINE = PolicyParams(B=25, U=1.2, V=0.2, G=0.5, L=3600)
TWO_WEEKS = 1209600

REAL_IPSC = "NASA-iPSC-1993-3.1-cln.swf"
REAL_BLUE = "SDSC-BLUE-2000-4.2-cln.swf"
REAL_WORLDCUP = "worldcup_resource_trace.csv"


def real_trace(name):
    path = traces_dir() / name
    return path if path.exists() else None


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status}  {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


class TestCriterion1FbDcsOracleEquivalence:
    def test_fb_at_summed_config_equals_dcs(self, pbj_128, ws_128):
        dcs = run(pbj_128, ws_128, "DCS", BASELINE, record_events=True)
        fb = run(pbj_128, ws_128, "FB", BASELINE, config_size=256, record_events=True)
        same_jobs = job_times(event_dicts_reference(dcs)) == job_times(event_dicts_reference(fb))
        md, mf = dcs.metrics, fb.metrics
        same_metrics = (
            md.completed_jobs == mf.completed_jobs
            and md.avg_execution_time == mf.avg_execution_time
            and md.avg_turnaround_time == mf.avg_turnaround_time
            and md.peak_consumption == mf.peak_consumption
            and md.total_consumption_node_seconds == mf.total_consumption_node_seconds
        )
        report(
            1,
            same_jobs and same_metrics,
            f"per-job times identical={same_jobs}, metrics identical={same_metrics} "
            f"({md.completed_jobs} jobs, turnaround {md.avg_turnaround_time:.1f}s)",
        )


class TestCriterion2Ec2Identity:
    def test_turnaround_equals_runtime(self, pbj_128, ws_128):
        result = run(pbj_128, ws_128, "EC2RS", BASELINE, record_events=True)
        completions = [r for r in event_dicts_reference(result) if r["kind"] == "job_completion"]
        exact = all(r["payload"]["turnaround"] == r["payload"]["runtime"] for r in completions)
        m = result.metrics
        means_equal = m.avg_turnaround_time == m.avg_execution_time
        report(
            2,
            exact and means_equal and m.completed_jobs > 0,
            f"{len(completions)} completions, mean turnaround "
            f"{m.avg_turnaround_time:.1f}s == mean execution {m.avg_execution_time:.1f}s",
        )


def within(value, expected, tolerance):
    return abs(value - expected) <= tolerance * expected


# Regression targets for the archive-trace scenarios: (completed jobs,
# avg turnaround seconds) per (regime, configuration size) in the bounded
# private-cluster study, and (completed, turnaround, peak nodes, total
# node-hours) per regime in the unbounded public-cloud study.
IPSC_BOUNDED = {
    ("DCS", 256): (2603, 578),
    ("FB", 128): (2549, 839),
    ("FB", 152): (2603, 795),
    ("FB", 217): (2603, 579),
    ("FB", 256): (2603, 578),
}
BLUE_BOUNDED = {
    ("DCS", 272): (2649, 2667),
    ("FB", 144): (2591, 7976),
    ("FB", 163): (2648, 3438),
    ("FB", 190): (2652, 2523),
    ("FB", 272): (2657, 2051),
}
IPSC_UNBOUNDED = {"EC2RS": (2603, 573, 1319, 63336), "FLB_NUB": (2603, 826, 412, 45803)}
BLUE_UNBOUNDED = {"EC2RS": (2657, 1975, 834, 45056), "FLB_NUB": (2656, 2669, 468, 38623)}


class TestCriterion3ArchiveRegression:
    def test_archive_trace_regression(self):
        ipsc = real_trace(REAL_IPSC)
        blue = real_trace(REAL_BLUE)
        worldcup = real_trace(REAL_WORLDCUP)
        if not (ipsc and blue and worldcup):
            print(
                "[acceptance] criterion 3: SKIP  archive traces not present under "
                "traces/; synthetic substitution in effect, criteria 4-7 cover the trends"
            )
            pytest.skip("real workload traces not available")
        failures = []

        def check(label, value, expected, tolerance):
            if not within(value, expected, tolerance):
                failures.append(f"{label}: got {value}, expected {expected} ±{tolerance:.0%}")

        wc = parse_demand_trace(worldcup.read_text())
        ipsc_jobs = scale_to_peak(window(parse_swf(ipsc.read_text()), 0, TWO_WEEKS), 128)
        ws = scale_to_peak(wc, 128)
        for (regime, config), (completed, turnaround) in IPSC_BOUNDED.items():
            kwargs = {"config_size": config} if regime == "FB" else {}
            m = run(ipsc_jobs, ws, regime, BASELINE, **kwargs).metrics
            check(f"ipsc {regime}({config}) completed", m.completed_jobs, completed, 0.05)
            check(f"ipsc {regime}({config}) turnaround", m.avg_turnaround_time, turnaround, 0.15)
        for regime, (completed, turnaround, peak, total) in IPSC_UNBOUNDED.items():
            m = run(ipsc_jobs, ws, regime, BASELINE).metrics
            check(f"ipsc {regime} completed", m.completed_jobs, completed, 0.05)
            check(f"ipsc {regime} turnaround", m.avg_turnaround_time, turnaround, 0.15)
            check(f"ipsc {regime} peak", m.peak_consumption, peak, 0.05)
            check(f"ipsc {regime} total", m.total_consumption_node_hours, total, 0.05)

        from provsim import normalize_cpus

        blue_jobs = scale_to_peak(
            normalize_cpus(window(parse_swf(blue.read_text()), 0, TWO_WEEKS), 8), 144
        )
        blue_params = PolicyParams(B=27, U=1.2, V=0.2, G=0.5, L=3600)
        for (regime, config), (completed, turnaround) in BLUE_BOUNDED.items():
            kwargs = {"config_size": config} if regime == "FB" else {}
            m = run(blue_jobs, ws, regime, blue_params, **kwargs).metrics
            check(f"blue {regime}({config}) completed", m.completed_jobs, completed, 0.05)
            check(f"blue {regime}({config}) turnaround", m.avg_turnaround_time, turnaround, 0.15)
        for regime, (completed, turnaround, peak, total) in BLUE_UNBOUNDED.items():
            m = run(blue_jobs, ws, regime, blue_params).metrics
            check(f"blue {regime} completed", m.completed_jobs, completed, 0.05)
            check(f"blue {regime} turnaround", m.avg_turnaround_time, turnaround, 0.15)
            check(f"blue {regime} peak", m.peak_consumption, peak, 0.05)
            check(f"blue {regime} total", m.total_consumption_node_hours, total, 0.05)
        report(3, not failures, "; ".join(failures) or "all regression targets within tolerance")


class TestCriterion4PeakReduction:
    def test_flb_peak_at_most_35_percent_of_ec2(self, pbj_128, ws_128):
        ipsc = real_trace(REAL_IPSC)
        worldcup = real_trace(REAL_WORLDCUP)
        if ipsc and worldcup:
            jobs = scale_to_peak(window(parse_swf(ipsc.read_text()), 0, TWO_WEEKS), 128)
            ws = scale_to_peak(parse_demand_trace(worldcup.read_text()), 128)
        else:
            jobs, ws = pbj_128, ws_128
        ec2 = run(jobs, ws, "EC2RS", BASELINE).metrics
        flb = run(jobs, ws, "FLB_NUB", BASELINE).metrics
        ratio = flb.peak_consumption / ec2.peak_consumption
        report(
            4,
            ratio <= 0.35,
            f"FLB peak {flb.peak_consumption} / EC2 peak {ec2.peak_consumption} = {ratio:.1%}",
        )


class TestCriterion5MonotoneSweeps:
    def test_pool_size_and_lease_unit_sweeps(self):
        base = load_scenario(
            Path(__file__).resolve().parent.parent
            / "scenarios" / "synthetic" / "synthetic_flb_baseline.json"
        )
        traces = load_traces(base)  # neither axis changes the traces
        totals, turnarounds = [], []
        for b in (13, 25, 51, 102):
            m = run_scenario_obj(apply_axis(base, "B", b), traces).metrics
            totals.append(m.total_consumption_node_seconds)
            turnarounds.append(m.avg_turnaround_time)
        b_ok = all(a <= b for a, b in zip(totals, totals[1:])) and all(
            a >= b for a, b in zip(turnarounds, turnarounds[1:])
        )
        adjustments = []
        for minutes in (15, 30, 60, 120, 240):
            m = run_scenario_obj(apply_axis(base, "L", minutes), traces).metrics
            adjustments.append(m.adjustment_count)
        l_ok = all(a >= b for a, b in zip(adjustments, adjustments[1:]))
        report(
            5,
            b_ok and l_ok,
            f"B sweep totals {[t // 3600 for t in totals]} node-h, "
            f"turnarounds {[round(t, 1) for t in turnarounds]}; "
            f"L sweep adjustments {adjustments}",
        )


def random_force_release_instance(rng):
    """A micro FB state with <= 6 running jobs plus a feasible `needed`."""
    n_running = rng.randint(1, 6)
    running = []
    for job_id in range(1, n_running + 1):
        size = rng.randint(1, 8)
        start = rng.randint(0, 50)
        running.append((job_id, size, start))
    idle = rng.randint(0, 3)
    owned = idle + sum(size for _, size, _ in running)
    needed = rng.randint(1, owned)
    config = owned  # ws/free not involved in the release itself
    state = ClusterState(capacity=config, pbj_bound=config, pbj_owned=owned,
                         running_alloc=owned - idle)
    for job_id, size, start in running:
        state.running[job_id] = (Job(job_id, rng.randint(0, start), 100, size), start, 1)
    return state, running, idle, needed


class TestCriterion6KillOrderProperty:
    def test_victims_match_bruteforce_greedy(self):
        rng = random.Random(0xC6)
        checked = 0
        for _ in range(1000):
            state, running, idle, needed = random_force_release_instance(rng)
            kills = fb_force_release(state, needed)
            idle_used = min(idle, needed)
            shortfall = needed - idle_used
            if shortfall > 0:
                expected, released = greedy_kill_reference(
                    [(jid, size, start, i + 1) for i, (jid, size, start) in enumerate(running)],
                    shortfall,
                )
                assert kills == expected
                assert released >= shortfall
                assert state.pbj_idle == released - shortfall  # overshoot retained
            else:
                assert kills == []
                assert state.pbj_idle == idle - needed
            assert state.free == needed  # exactly `needed` surrendered
            checked += 1
        report(6, checked == 1000, f"{checked} randomized release instances matched")


class TestCriterion7InvariantFuzz:
    @pytest.mark.parametrize("regime", ["DCS", "FB", "FLB_NUB", "EC2RS"])
    def test_invariants_hold_on_randomized_scenarios(self, regime):
        checked = 0
        for seed in range(1000):
            jobs, demand, params, kwargs = random_fuzz_setup(regime, seed)
            first = run(jobs, demand, regime, params, record_events=True, **kwargs)
            second = run(jobs, demand, regime, params, record_events=True, **kwargs)
            assert log_text(first) == log_text(second), f"nondeterministic log: {regime} {seed}"
            total_peak = jobs.peak_demand + demand.peak_demand
            floor = params.B * jobs.peak_demand // total_peak if total_peak else 0
            if regime != "FLB_NUB":
                floor = 0
            config = kwargs.get("config_size", total_peak)
            events = event_dicts_reference(first)
            check_conservation(
                events, regime,
                config_size=config, pbj_floor=floor, pool_size=params.B,
                pbj_bound=jobs.peak_demand, ws_bound=demand.peak_demand,
            )
            curve = replay_consumption(
                events, regime,
                config_size=config, pool_size=params.B,
                duration=jobs.window[1], pbj_floor=floor,
            )
            oracle_total = integrate(curve, jobs.window[1])
            assert abs(oracle_total - first.metrics.total_consumption_node_seconds) <= 1
            snapshots = [{key: r["state"][key] for key in
                          ("queue_len", "queued_demand", "running_alloc")}
                         for r in events]
            assert replay_queue_accounting(events) == snapshots, seed
            checked += 1
        report(7, checked == 1000, f"{regime}: {checked} fuzzed scenarios clean")


class TestCriterion8ControllerProperty:
    def test_dead_band_and_hysteresis(self):
        rng = random.Random(0xC8)
        checked = 0
        for _ in range(10000):
            n = rng.randint(2, 64)
            length = rng.randint(1, 20)
            windowed = [rng.random() for _ in range(length)]
            mean = sum(windowed) / length  # same arithmetic as the controller
            delta = ws_instance_controller(windowed, n)
            low = 0.80 * (n - 1) / n
            if mean > 0.80:
                assert delta == 1, (mean, n)
            elif low <= mean <= 0.80:
                assert delta == 0, (mean, n)
            elif mean < low:
                assert delta == (-1 if n > 2 else 0), (mean, n)
            # never both directions for the same window
            assert ws_instance_controller(windowed, n) == delta
            checked += 1
        thresholds_ordered = all(0.80 * (n - 1) / n < 0.80 for n in range(2, 65))
        report(
            8,
            checked == 10000 and thresholds_ordered,
            f"{checked} windows, dead band respected, thresholds strictly ordered",
        )
