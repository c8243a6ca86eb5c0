import json
from pathlib import Path

from provsim.metrics import (
    CSV_COLUMNS,
    MetricsReport,
    csv_header,
    report_to_csv_row,
    report_to_dict,
    report_to_json,
)
from provsim.policies import PolicyParams
from provsim.scenario import load_scenario, load_traces, run_scenario_obj
from provsim.simkernel import run
from provsim.state import REGIMES
from provsim.trace import DemandTrace, Job

from conftest import make_demand, make_jobs
from oracles import (
    ec2rs_closed_form,
    integrate,
    random_fuzz_setup,
    random_micro_scenario,
    replay_consumption,
)

ZERO_WS = DemandTrace(samples=((0, 0),))


class TestConsumptionCurve:
    def test_dcs_constant_config(self):
        jobs = make_jobs([(1, 0, 50, 4), (2, 10, 100, 2)], duration=500)
        demand = make_demand([(0, 2), (100, 4)])
        result = run(jobs, demand, "DCS", PolicyParams())  # config = 4 + 4
        assert result.metrics.peak_consumption == 8
        assert result.metrics.total_consumption_node_seconds == 8 * 500

    def test_fb_constant_config(self):
        jobs = make_jobs([(1, 0, 50, 4)], duration=400)
        demand = make_demand([(0, 2), (100, 6)])
        result = run(jobs, demand, "FB", PolicyParams(L=100), config_size=10)
        assert result.metrics.peak_consumption == 10
        assert result.metrics.total_consumption_node_seconds == 10 * 400

    def test_flb_constant_pool_when_no_external_leases(self):
        # Everything fits under the coordinated pool: batch share 12 covers the
        # jobs, demand stays below the web-service share.
        jobs = make_jobs([(1, 0, 100, 4), (2, 50, 100, 6)], duration=1000)
        demand = make_demand([(0, 5), (300, 8), (600, 3)])
        # Peaks 6 and 8 give a floor of 25*6//14 = 10 >= both job sizes.
        result = run(jobs, demand, "FLB_NUB", PolicyParams(B=25, L=200), record_events=True)
        assert all(r["state"]["pbj_external"] == r["state"]["ws_external"] == 0
                   for r in result.events)
        assert result.metrics.peak_consumption == 25
        assert result.metrics.total_consumption_node_seconds == 25 * 1000

    def test_ec2_lease_rounding_node_hours(self):
        # One job: 4 nodes for 90 minutes with hourly leases -> 8 node-hours.
        jobs = make_jobs([(1, 0, 5400, 4)], duration=7200)
        result = run(jobs, ZERO_WS, "EC2RS", PolicyParams(L=3600))
        m = result.metrics
        assert m.total_consumption_node_seconds == 4 * 7200
        assert m.total_consumption_node_hours == 8.0
        assert m.peak_consumption == 4

    def test_same_time_levels_keep_the_last(self):
        # At t=100 the demand rise (10 nodes held) comes before the lease
        # expiry (6 held): only the level after both counts toward the peak.
        jobs = make_jobs([(1, 0, 50, 4)], duration=200)
        demand = make_demand([(0, 0), (100, 6)])
        m = run(jobs, demand, "EC2RS", PolicyParams(L=100)).metrics
        assert m.peak_consumption == 6
        assert m.total_consumption_node_seconds == 4 * 100 + 6 * 100

    def test_ec2_peak_at_least_ws_peak(self):
        jobs = make_jobs([(1, 0, 10, 1)], duration=1000)
        demand = make_demand([(0, 3), (500, 9)])
        result = run(jobs, demand, "EC2RS", PolicyParams(L=100))
        assert result.metrics.peak_consumption >= 9


class TestFinalize:
    def test_no_completions_reports_absent_averages(self):
        jobs = make_jobs([(1, 0, 10**6, 1)], duration=100)
        result = run(jobs, ZERO_WS, "DCS", PolicyParams())
        m = result.metrics
        assert m.completed_jobs == 0
        assert m.avg_execution_time is None
        assert m.avg_turnaround_time is None
        data = report_to_dict(m, {"name": "x"})
        assert data["avg_execution_time_s"] is None
        row = report_to_csv_row(m, {"name": "x"})
        assert ",," in row  # absent averages serialize as empty cells

    def test_turnaround_at_least_execution(self):
        for seed in range(10):
            jobs, demand = random_micro_scenario(seed)
            m = run(jobs, demand, "DCS", PolicyParams()).metrics
            if m.completed_jobs:
                assert m.avg_turnaround_time >= m.avg_execution_time

    def test_total_bounded_by_peak_times_window(self):
        for seed in range(10):
            jobs, demand = random_micro_scenario(seed)
            m = run(jobs, demand, "EC2RS", PolicyParams(L=120)).metrics
            assert m.total_consumption_node_seconds <= m.peak_consumption * m.window_duration

    def test_adjustments_zero_for_dcs_positive_for_flb(self):
        jobs = make_jobs([(1, 0, 100, 8), (2, 10, 100, 8)], duration=1000)
        demand = make_demand([(0, 2), (100, 5)])
        dcs = run(jobs, demand, "DCS", PolicyParams())
        assert dcs.metrics.adjustment_count == 0
        flb = run(jobs, demand, "FLB_NUB", PolicyParams(B=4, L=100))
        assert flb.metrics.adjustment_count > 0

    def test_integrate_curve_exact(self):
        # The oracles' step-curve integral, the reference for the kernel's
        # running total.
        assert integrate([(0, 5)], 100) == 500
        assert integrate([(0, 2), (10, 4), (90, 0)], 100) == 20 + 320
        assert integrate([(0, 1), (200, 9)], 100) == 100


class TestOracleReplay:
    def test_independent_replay_matches_within_one_node_second(self):
        # The kernel's running peak and total against the step curve rebuilt
        # from event payloads: fixed parameters, then the invariant-fuzz setups.
        cases = [(regime, seed, *random_micro_scenario(seed + 100), PolicyParams(B=7, L=180), {})
                 for regime in ("FLB_NUB", "EC2RS") for seed in range(15)]
        cases += [(regime, seed, *random_fuzz_setup(regime, seed))
                  for regime in REGIMES for seed in range(400)]
        for regime, seed, jobs, demand, params, kwargs in cases:
            result = run(jobs, demand, regime, params, record_events=True, **kwargs)
            total_peak = jobs.peak_demand + demand.peak_demand
            floor = params.B * jobs.peak_demand // total_peak if total_peak else 0
            duration = jobs.window[1]
            curve = replay_consumption(
                result.events, regime, config_size=kwargs.get("config_size", total_peak),
                pool_size=params.B, duration=duration,
                pbj_floor=floor if regime == "FLB_NUB" else 0,
            )
            m = result.metrics
            assert m.total_consumption_node_seconds == integrate(curve, duration), (regime, seed)
            assert m.peak_consumption == max(v for _, v in curve), (regime, seed)


class TestClosedForms:
    """Two regimes' reports need no simulation, so they check the kernel from
    outside it: EC2RS's from each job's whole lease units and the demand
    curve (``ec2rs_closed_form``), DCS's from its constant level, the peak
    sum, held over the window with no adjustment."""

    SEEDS = range(1000)
    SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios" / "synthetic"

    @staticmethod
    def assert_ec2rs_matches(jobs, demand, params, m, case):
        peak, total, completed, runtime_sum, adjustments, incomplete = ec2rs_closed_form(
            jobs, demand, params)
        assert (m.peak_consumption, m.total_consumption_node_seconds, m.completed_jobs,
                m.adjustment_count, m.incomplete_jobs) == (
            peak, total, completed, adjustments, incomplete), case
        average = runtime_sum / completed if completed else None
        assert m.avg_execution_time == m.avg_turnaround_time == average, case

    def test_ec2rs_matches_its_leases_and_demand(self):
        for seed in self.SEEDS:
            jobs, demand, params, _ = random_fuzz_setup("EC2RS", seed)
            self.assert_ec2rs_matches(jobs, demand, params,
                                      run(jobs, demand, "EC2RS", params).metrics, seed)
            # A job submitted at the window end never arrives: no lease, no adjustment.
            end = jobs.window[1]
            late = jobs._replace(jobs=jobs.jobs + (Job(len(jobs.jobs) + 1, end, 60, 3),))
            self.assert_ec2rs_matches(late, demand, params,
                                      run(late, demand, "EC2RS", params).metrics, (seed, "end"))

    def test_dcs_holds_the_peak_sum_throughout(self):
        for seed in self.SEEDS:
            jobs, demand, params, _ = random_fuzz_setup("DCS", seed)
            m = run(jobs, demand, "DCS", params).metrics
            size = jobs.peak_demand + demand.peak_demand
            assert (m.peak_consumption, m.total_consumption_node_seconds, m.adjustment_count) == (
                size, size * jobs.window[1], 0), seed

    def test_shipped_scenarios_match_their_closed_forms(self):
        scenario = load_scenario(self.SCENARIOS / "synthetic_ec2rs.json")
        jobs, demand = load_traces(scenario)
        self.assert_ec2rs_matches(jobs, demand, scenario.params,
                                  run_scenario_obj(scenario, (jobs, demand)).metrics, "shipped")
        scenario = load_scenario(self.SCENARIOS / "synthetic_dcs_256.json")
        jobs, demand = load_traces(scenario)
        m = run_scenario_obj(scenario, (jobs, demand)).metrics
        size = jobs.peak_demand + demand.peak_demand
        assert (m.peak_consumption, m.total_consumption_node_seconds, m.adjustment_count) == (
            size, size * scenario.window_duration, 0)


class TestSerialization:
    def test_csv_header_matches_columns(self):
        assert csv_header().split(",") == CSV_COLUMNS

    def test_csv_row_round_trips_through_json(self):
        report = MetricsReport(
            regime="FLB_NUB", completed_jobs=10, incomplete_jobs=2,
            avg_execution_time=123.456, avg_turnaround_time=456.789,
            peak_consumption=40, total_consumption_node_seconds=3_600_123,
            adjustment_count=17, window_duration=1000,
        )
        ident = {"name": "s1", "config_size": None, "prc_pbj": 128, "prc_ws": 64,
                 "B": 25, "U": 1.2, "V": 0.2, "G": 0.5, "L_seconds": 3600}
        data = json.loads(report_to_json(report, ident))
        row = report_to_csv_row(report, ident).split(",")
        for column, cell in zip(CSV_COLUMNS, row):
            value = data[column]
            assert cell == ("" if value is None else str(value))

    def test_node_hours_one_decimal(self):
        report = MetricsReport(
            regime="DCS", completed_jobs=0, incomplete_jobs=0,
            avg_execution_time=None, avg_turnaround_time=None,
            peak_consumption=1, total_consumption_node_seconds=5432,
            adjustment_count=0, window_duration=10,
        )
        assert report.total_consumption_node_hours == 1.5
