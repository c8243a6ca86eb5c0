from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provsim.errors import EmptyTraceError, TraceParseError
from provsim.scenario import load_scenario, read_traces, scale_traces
from provsim.trace import (
    DemandTrace,
    Job,
    JobTrace,
    normalize_cpus,
    parse_demand_trace,
    parse_swf,
    scale_to_peak,
    window,
)


class TestDerivedPeak:
    """A trace stores only its entries; its peak cannot disagree with them."""

    def test_job_peak_is_largest_size(self):
        jobs = (Job(1, 0, 100, 4), Job(2, 5, 10, 2))
        assert JobTrace(jobs=jobs, window=(0, 100)).peak_demand == 4
        assert JobTrace(jobs=(), window=(0, 100)).peak_demand == 0

    def test_demand_peak_covers_every_sample(self):
        assert DemandTrace(samples=((0, 3), (10, 9), (20, 1))).peak_demand == 9
        assert DemandTrace(samples=()).peak_demand == 0

    def test_traces_are_immutable_records_that_keep_their_peak(self):
        jobs = JobTrace(jobs=(Job(1, 0, 100, 4),), window=(0, 100))
        demand = DemandTrace(samples=((0, 3), (10, 9)))
        assert repr(jobs) == ("JobTrace(jobs=(Job(id=1, submit_time=0, runtime=100, size=4),), "
                              "window=(0, 100))")
        assert repr(demand) == "DemandTrace(samples=((0, 3), (10, 9)))"
        twins = [(jobs, JobTrace(jobs=jobs.jobs, window=(0, 100)), "jobs"),
                 (demand, DemandTrace(samples=demand.samples), "samples")]
        for trace, twin, field in twins:
            assert trace == twin and hash(trace) == hash(twin)
            peak = trace.peak_demand
            for name in (field, "peak_demand", "other"):
                with pytest.raises(AttributeError):
                    setattr(trace, name, 0)
            with pytest.raises(AttributeError):
                del trace.peak_demand
            assert vars(trace)["peak_demand"] == peak  # computed once, then kept
        rebuilt = jobs._replace(jobs=(Job(2, 0, 1, 7),))
        assert type(rebuilt) is JobTrace and rebuilt.peak_demand == 7

    def test_job_is_a_named_tuple(self):
        job = Job(id=1, submit_time=2, runtime=3, size=4)
        assert Job._fields == ("id", "submit_time", "runtime", "size")
        assert job == Job(1, 2, 3, 4) and job._replace(size=5).size == 5


def swf_line(job_id, submit, runtime, alloc, requested):
    fields = [job_id, submit, -1, runtime, alloc, -1, -1, requested] + [-1] * 10
    return " ".join(str(f) for f in fields)


class TestParseSwf:
    def test_direct_field_mapping(self):
        trace = parse_swf(swf_line(1, 100, 300, 4, 8))
        assert trace.jobs == (Job(id=1, submit_time=100, runtime=300, size=4),)
        assert trace.peak_demand == 4

    def test_requested_fallback_when_alloc_missing(self):
        trace = parse_swf(swf_line(1, 0, 60, -1, 16))
        assert trace.jobs[0].size == 16

    def test_drops_nonpositive_runtime_and_size(self):
        text = "\n".join(
            [
                swf_line(1, 0, 0, 4, 4),      # zero runtime
                swf_line(2, 5, -1, 4, 4),     # negative runtime
                swf_line(3, 10, 60, -1, -1),  # no size at all
                swf_line(4, 15, 60, 2, 2),
            ]
        )
        trace = parse_swf(text)
        assert [j.id for j in trace.jobs] == [4]

    def test_comments_and_blank_lines_ignored(self):
        text = "; SWF header comment\n\n" + swf_line(7, 3, 10, 1, 1) + "\n"
        assert parse_swf(text).jobs[0].id == 7

    def test_malformed_field_names_line_number(self):
        text = swf_line(1, 0, 60, 1, 1) + "\nnot a number " + " ".join(["1"] * 17)
        with pytest.raises(TraceParseError, match="line 2"):
            parse_swf(text)

    def test_too_few_fields_rejected(self):
        with pytest.raises(TraceParseError, match="line 1"):
            parse_swf("1 2 3")

    def test_duplicate_ids_rejected(self):
        text = swf_line(1, 0, 60, 1, 1) + "\n" + swf_line(1, 5, 60, 1, 1)
        with pytest.raises(TraceParseError, match="duplicate job id 1"):
            parse_swf(text)

    def test_empty_after_filtering(self):
        with pytest.raises(EmptyTraceError):
            parse_swf(swf_line(1, 0, 0, 4, 4))

    def test_jobs_sorted_by_submit_time(self):
        text = swf_line(2, 50, 10, 1, 1) + "\n" + swf_line(1, 10, 10, 1, 1)
        trace = parse_swf(text)
        assert [j.submit_time for j in trace.jobs] == [10, 50]

    def test_submit_times_keep_original_offsets(self):
        trace = parse_swf(swf_line(9, 4242, 10, 1, 1))
        assert trace.jobs[0].submit_time == 4242

    def test_real_archive_trace_sizes_within_cluster(self):
        # Runs only when the published 128-node trace is present (see README).
        from conftest import traces_dir

        path = traces_dir() / "NASA-iPSC-1993-3.1-cln.swf"
        if not path.exists():
            pytest.skip("archive trace not available")
        trace = parse_swf(path.read_text())
        assert all(1 <= j.size <= 128 for j in trace.jobs)


class TestParseDemandTrace:
    def test_basic(self):
        trace = parse_demand_trace("0,2\n3600,5\n7200,3")
        assert trace.samples == ((0, 2), (3600, 5), (7200, 3))
        assert trace.peak_demand == 5

    def test_constant_zero(self):
        trace = parse_demand_trace("0,0")
        assert trace.samples == ((0, 0),)
        assert trace.peak_demand == 0

    def test_optional_header(self):
        assert parse_demand_trace("time,demand\n0,1").samples == ((0, 1),)

    def test_unknown_header_rejected(self):
        with pytest.raises(TraceParseError, match="header"):
            parse_demand_trace("when,how_much\n0,1")

    def test_header_only_on_first_non_empty_line(self):
        assert parse_demand_trace("\ntime,demand\n0,1").samples == ((0, 1),)
        with pytest.raises(TraceParseError, match="line 2"):
            parse_demand_trace("time,demand\ntime,demand\n0,5\n")

    def test_nonmonotonic_time(self):
        with pytest.raises(TraceParseError, match="line 3"):
            parse_demand_trace("0,1\n10,2\n10,3")

    def test_samples_after_the_first_line_keep_every_rule(self):
        """Lines after the first take a shorter path; each rule still holds there."""
        assert parse_demand_trace("0,1\n 5 ,\t2 \n\n9,0").samples == ((0, 1), (5, 2), (9, 0))
        for text, message in [("0,1\n5,-1", "line 2: negative demand -1"),
                              ("0,1\n-5,1", "line 2: negative time -5"),
                              ("3,1\n\n3,2", "line 3: time 3 not greater than previous 3"),
                              ("0,1\n5,2,3", "line 2: expected 'time,demand'"),
                              ("0,1\ntime,demand", "line 2: non-integer field"),
                              (f"0,1\n{2**63},1", "line 2: field not below 2\\*\\*63")]:
            with pytest.raises(TraceParseError, match=message):
                parse_demand_trace(text)

    def test_negative_demand(self):
        with pytest.raises(TraceParseError, match="negative demand"):
            parse_demand_trace("0,-1")

    def test_non_integer(self):
        with pytest.raises(TraceParseError, match="line 1"):
            parse_demand_trace("0,two")

    def test_empty(self):
        with pytest.raises(EmptyTraceError):
            parse_demand_trace("")

    def test_round_trip_bit_exact(self):
        text = "time,demand\n0,2\n3600,5\n7200,3\n"
        trace = parse_demand_trace(text)
        assert trace.samples == ((0, 2), (3600, 5), (7200, 3)) and trace.peak_demand == 5

    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=30,
                 unique=True).map(sorted),
        st.data(),
    )
    def test_round_trip_property(self, times, data):
        demands = data.draw(
            st.lists(st.integers(min_value=0, max_value=10**6),
                     min_size=len(times), max_size=len(times))
        )
        text = "time,demand\n" + "".join(f"{t},{d}\n" for t, d in zip(times, demands))
        trace = DemandTrace(samples=tuple(zip(times, demands)))
        assert parse_demand_trace(text) == trace


def jobs_at(times, size=1, runtime=10):
    jobs = tuple(Job(i + 1, t, runtime, size) for i, t in enumerate(times))
    return JobTrace(jobs=jobs, window=(0, max(times) if times else 0))


class TestWindow:
    def test_cut_and_rebase(self):
        trace = jobs_at([10, 20, 30])
        cut = window(trace, 15, 10)
        assert [j.submit_time for j in cut.jobs] == [5]
        assert cut.jobs[0].id == 2
        assert cut.window == (15, 10)

    def test_full_span_identity_modulo_rebase(self):
        trace = jobs_at([0, 10, 20])
        cut = window(trace, 0, 21)
        assert cut.jobs == trace.jobs

    def test_half_open_interval(self):
        trace = jobs_at([10, 20])
        cut = window(trace, 0, 20)
        assert [j.id for j in cut.jobs] == [1]

    def test_job_at_the_window_end_is_dropped(self):
        assert [j.id for j in window(jobs_at([0, 10, 20]), 0, 20).jobs] == [1, 2]

    def test_unsorted_jobs_outside_the_window_are_dropped(self):
        """Jobs need not come sorted: one before 0 and one at the end, neither
        of them first or last, are dropped at offset 0."""
        jobs = (Job(1, 5, 10, 1), Job(2, -1, 10, 1), Job(3, 10, 10, 1), Job(4, 0, 10, 1))
        cut = window(JobTrace(jobs=jobs, window=(0, 10)), 0, 10)
        assert [j.id for j in cut.jobs] == [1, 4]

    def test_full_span_shares_the_jobs(self, synthetic_pbj_raw):
        """A window that keeps every job as it is reuses the input's jobs."""
        cut = window(synthetic_pbj_raw, 0, synthetic_pbj_raw.window[1] + 1)
        assert cut.jobs is synthetic_pbj_raw.jobs
        assert cut.window == (0, synthetic_pbj_raw.window[1] + 1)

    def test_empty_window_errors(self):
        with pytest.raises(EmptyTraceError):
            window(jobs_at([10]), 100, 50)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            window(jobs_at([10]), 0, 0)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=1000),
    )
    def test_idempotent(self, times, start, duration):
        trace = jobs_at(sorted(times))
        try:
            once = window(trace, start, duration)
        except EmptyTraceError:
            return
        assert window(once, 0, duration) == once


class TestNormalizeCpus:
    def test_exact_division(self):
        trace = jobs_at([0], size=8)
        assert normalize_cpus(trace, 8).jobs[0].size == 1

    def test_ceiling(self):
        trace = jobs_at([0], size=9)
        assert normalize_cpus(trace, 8).jobs[0].size == 2

    def test_peak_recomputed(self):
        jobs = (Job(1, 0, 10, 9), Job(2, 1, 10, 16))
        trace = JobTrace(jobs=jobs, window=(0, 1))
        assert normalize_cpus(trace, 8).peak_demand == 2

    @given(
        st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=64),
    )
    def test_never_produces_zero_size(self, sizes, divisor):
        jobs = tuple(Job(i + 1, i, 10, s) for i, s in enumerate(sizes))
        trace = JobTrace(jobs=jobs, window=(0, len(sizes)))
        assert all(j.size >= 1 for j in normalize_cpus(trace, divisor).jobs)


class TestLibraryGuards:
    """Arguments the CLI path rejects before they get here, passed directly."""

    def test_cpus_per_node_below_one(self):
        with pytest.raises(ValueError, match="cpus_per_node"):
            normalize_cpus(jobs_at([0], size=8), 0)

    def test_target_peak_below_one(self):
        with pytest.raises(ValueError, match="target_peak"):
            scale_to_peak(jobs_at([0], size=8), 0)

    def test_zero_peak_job_trace(self):
        with pytest.raises(ValueError, match="job trace with zero peak"):
            scale_to_peak(JobTrace(jobs=(), window=(0, 1)), 4)

    def test_not_a_trace(self):
        with pytest.raises(TypeError, match="JobTrace or DemandTrace"):
            scale_to_peak([(0, 1)], 4)


class TestScaleToPeak:
    def test_factor_two(self):
        jobs = (Job(1, 0, 10, 2), Job(2, 1, 10, 4))
        trace = JobTrace(jobs=jobs, window=(0, 1))
        scaled = scale_to_peak(trace, 8)
        assert [j.size for j in scaled.jobs] == [4, 8]
        assert scaled.peak_demand == 8

    def test_identity_when_target_equals_peak(self):
        jobs = (Job(1, 0, 10, 3), Job(2, 1, 10, 7))
        trace = JobTrace(jobs=jobs, window=(0, 1))
        assert scale_to_peak(trace, 7) is trace
        demand = DemandTrace(samples=((0, 0), (5, 7), (9, 3)))
        assert scale_to_peak(demand, 7) is demand

    def test_own_peak_above_2_53_is_not_an_identity(self):
        """2**53 + 1 times itself over itself rounds to 2**53 in float, so a
        rescale to its own peak changes it and builds a new trace."""
        demand = DemandTrace(samples=((0, 3), (5, 2**53 + 1)))
        assert scale_to_peak(demand, 2**53 + 1).samples == ((0, 3), (5, 2**53))

    def test_shipped_scenario_shaping_shares_the_jobs_it_reads(self):
        """The synthetic batch trace peaks at its target, 128, so scaling
        returns the jobs that were read; the demand trace peaks at 64 and is
        doubled."""
        scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                                 / "synthetic" / "synthetic_fb_152.json")
        jobs, demand = read_traces(scenario)
        scaled_jobs, scaled_demand = scale_traces(scenario, (jobs, demand))
        assert scaled_jobs.jobs is jobs.jobs
        assert scaled_demand.samples == tuple((t, 2 * d) for t, d in demand.samples)

    def test_job_sizes_floored_at_one(self):
        jobs = (Job(1, 0, 10, 1), Job(2, 1, 10, 100))
        trace = JobTrace(jobs=jobs, window=(0, 1))
        assert scale_to_peak(trace, 10).jobs[0].size == 1

    def test_zero_peak_rejected(self):
        demand = DemandTrace(samples=((0, 0),))
        with pytest.raises(ValueError):
            scale_to_peak(demand, 5)

    def test_demand_doubling_matches_independent_recompute(self, synthetic_ws_raw):
        # Oracle: doubling a peak-64 trace to 128 must equal 2x every sample,
        # and the max over the scaled list must equal the target exactly.
        scaled = scale_to_peak(synthetic_ws_raw, 128)
        expected = tuple((t, 2 * d) for t, d in synthetic_ws_raw.samples)
        assert scaled.samples == expected
        assert max(d for _, d in scaled.samples) == 128

    @given(
        st.lists(st.integers(min_value=0, max_value=10000), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=200)
    def test_scaled_demand_peak_is_exact(self, demands, target):
        if max(demands) == 0:
            return
        samples = tuple((i, d) for i, d in enumerate(demands))
        trace = DemandTrace(samples=samples)
        scaled = scale_to_peak(trace, target)
        assert max(d for _, d in scaled.samples) == target
        assert scaled.peak_demand == target

    @given(
        st.lists(st.integers(min_value=1, max_value=10000), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=200)
    def test_scaled_job_peak_is_exact_and_positive(self, sizes, target):
        jobs = tuple(Job(i + 1, i, 10, s) for i, s in enumerate(sizes))
        trace = JobTrace(jobs=jobs, window=(0, len(sizes)))
        scaled = scale_to_peak(trace, target)
        assert max(j.size for j in scaled.jobs) == target
        assert all(1 <= j.size <= target for j in scaled.jobs)
