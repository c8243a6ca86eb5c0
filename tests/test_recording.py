"""A run without an event log reports exactly what a recording run reports,
and keeps no per-event records. Its completion figures also equal those
replayed from a recorded log (`oracles.replay_completions`).

`run` builds event records only with `record_events=True`; the metrics come
from completion tallies and the consumption peak and integral the kernel
keeps as it goes. Arrivals are walked in submit order beside its event
heap, which holds only pending events, so the heap's length and the run's
memory do not grow with the trace length.
"""

import hashlib
import heapq
import io
import json
import tracemalloc
from pathlib import Path

import pytest

from provsim.metrics import csv_header, report_to_csv_row, report_to_json
from provsim.scenario import load_scenario, load_traces
from provsim.simkernel import run, write_event_log
from provsim.state import REGIMES, ClusterState
from provsim.trace import DemandTrace, Job, JobTrace

from oracles import random_fuzz_setup, replay_completions

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "scenarios" / "synthetic").glob("*.json"))
FB_152 = ROOT / "scenarios" / "synthetic" / "synthetic_fb_152.json"
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())["shipped"]


def run_shipped(scenario, jobs, demand, record_events=False):
    return run(jobs, demand, scenario.regime, scenario.params,
               config_size=scenario.config_size, pbj_floor=scenario.pbj_floor,
               record_events=record_events)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("regime", REGIMES)
def test_fuzzed_metrics_identical_with_recording_off(regime):
    for seed in range(1000):
        jobs, demand, params, kwargs = random_fuzz_setup(regime, seed)
        recorded = run(jobs, demand, regime, params, record_events=True, **kwargs)
        plain = run(jobs, demand, regime, params, **kwargs)
        assert plain.events is None
        assert plain.metrics == recorded.metrics, seed
        assert plain.adjustments == recorded.adjustments, seed
        m = plain.metrics
        assert replay_completions(recorded.events) == (
            m.completed_jobs, m.avg_execution_time, m.avg_turnaround_time), seed


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_scenarios_identical_with_recording_off(path):
    scenario = load_scenario(path)
    jobs, demand = load_traces(scenario)
    recorded = run_shipped(scenario, jobs, demand, record_events=True)
    plain = run_shipped(scenario, jobs, demand)
    assert plain.events is None
    assert plain.metrics == recorded.metrics
    assert plain.adjustments == recorded.adjustments
    m = plain.metrics
    assert replay_completions(recorded.events) == (
        m.completed_jobs, m.avg_execution_time, m.avg_turnaround_time)
    # The reports are byte-identical to the recorded golden outputs.
    ident = {"name": scenario.name, **plain.columns}
    csv = csv_header() + "\n" + report_to_csv_row(plain.metrics, ident) + "\n"
    assert sha256(report_to_json(plain.metrics, ident)) == GOLDEN[f"{path.stem}.report.json"]
    assert sha256(csv) == GOLDEN[f"{path.stem}.report.csv"]


def test_default_run_snapshots_once_per_event(monkeypatch):
    # perfbench/tracer.py reads the queue length at each snapshot call, so a
    # run without records still takes (and drops) one snapshot per event.
    jobs, demand, params, kwargs = random_fuzz_setup("FB", 7)
    recorded = run(jobs, demand, "FB", params, record_events=True, **kwargs)
    calls = []
    snapshot = ClusterState.snapshot
    monkeypatch.setattr(ClusterState, "snapshot",
                        lambda state: calls.append(state.clock) or snapshot(state))
    plain = run(jobs, demand, "FB", params, **kwargs)
    assert plain.events is None
    assert calls == [r["time"] for r in recorded.events]


def test_event_log_of_a_metrics_only_run_is_a_value_error():
    jobs, demand, params, kwargs = random_fuzz_setup("FB", 7)
    plain = run(jobs, demand, "FB", params, **kwargs)
    stream = io.StringIO()
    with pytest.raises(ValueError, match=r"not recorded.*record_events=True"):
        write_event_log(plain, stream)
    assert stream.getvalue() == ""


def test_metrics_only_run_retains_under_half_the_memory():
    # Two weeks of FB 152: about 15k events. Measured peaks: about 0.07 MB
    # without records and 15.4 MB with them.
    scenario = load_scenario(FB_152)
    jobs, demand = load_traces(scenario)
    peaks = {}
    for record_events in (False, True):
        tracemalloc.start()
        try:
            result = run_shipped(scenario, jobs, demand, record_events)
            peaks[record_events] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.events is None) != record_events
        del result
    assert peaks[False] < peaks[True] * 0.05, peaks


def tile(jobs, demand, copies):
    """The traces repeated ``copies`` times back to back in time."""
    span = jobs.window[1]
    tiled_jobs = tuple(Job(j.id + k * 10**7, j.submit_time + k * span, j.runtime, j.size)
                       for k in range(copies) for j in jobs.jobs)
    samples = tuple((t + k * span, d) for k in range(copies)
                    for t, d in demand.samples if t < span)
    return JobTrace(tiled_jobs, (0, copies * span)), DemandTrace(samples)


def test_event_heap_is_flat_in_trace_length(monkeypatch):
    # Arrivals are walked in submit order beside the heap, and demand samples
    # and timers each keep one entry in it, so its longest length does not
    # grow when the trace is four times as long (measured: 49 at both lengths).
    scenario = load_scenario(FB_152)
    jobs, demand = load_traces(scenario)
    push = heapq.heappush
    longest = {}

    def counting_push(heap, item):
        push(heap, item)
        longest[copies] = max(longest.get(copies, 0), len(heap))

    monkeypatch.setattr(heapq, "heappush", counting_push)
    for copies in (1, 4):
        run_shipped(scenario, *tile(jobs, demand, copies))
    assert 0 < longest[4] == longest[1] < 100, longest
