"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys

import pytest

import checks
import inputs
import run
import workloads
from tracer import Tracer

SPEC = json.loads(run.BENCHMARK.read_text())
TIME_UNITS = run.TIME_UNITS


def names(section):
    return [m["name"] for m in SPEC[section]]


def provsim_bindings():
    """Every attribute of every provsim module, and ClusterState's methods, by identity."""
    import provsim.cli  # noqa: F401  (loads every module)
    from provsim.state import ClusterState

    bound = {(name, attr): id(value)
             for name, module in sys.modules.items()
             if name == "provsim" or name.startswith("provsim.")
             for attr, value in vars(module).items()}
    bound.update({("ClusterState", attr): id(value) for attr, value in vars(ClusterState).items()})
    return bound


@pytest.fixture
def small_plan(tmp_path, monkeypatch):
    """The long workload on its first 2,000 jobs."""
    monkeypatch.setattr(workloads, "LONG_JOBS", 2000)
    return workloads.prepare("long", 7, tmp_path / "inputs")


def test_default_seed_reproduces_committed_traces(tmp_path):
    swf, csv = inputs.default_seed_traces(tmp_path)
    assert swf.read_bytes() == inputs.COMMITTED_SWF.read_bytes()
    assert csv.read_bytes() == inputs.COMMITTED_CSV.read_bytes()


def test_longer_streams_start_with_the_committed_two_weeks(tmp_path):
    jobs, samples = inputs.segment_stream(inputs.DEFAULT_SEED, min_segments=3)
    first_jobs, first_samples = inputs.segment_stream(inputs.DEFAULT_SEED)
    assert jobs[: len(first_jobs)] == first_jobs
    assert samples[: len(first_samples)] == first_samples
    assert len(jobs) > len(first_jobs)
    assert all(a[0] < b[0] for a, b in zip(samples, samples[1:]))


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        workloads.prepare(name, 5, tmp_path / "a" / name)
        workloads.prepare(name, 5, tmp_path / "b" / name)
        assert checks.digests(tmp_path / "a" / name) == checks.digests(tmp_path / "b" / name)


def test_tracer_leaves_provsim_unpatched(small_plan, tmp_path):
    before = provsim_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert provsim_bindings() != before
        run.execute_inprocess(small_plan.timed(tmp_path / "out", 1), tracer)
    finally:
        tracer.uninstall()
    assert provsim_bindings() == before
    assert any(s[0] == "simkernel.run" for s in tracer.spans)


def test_per_layer_counts_repeat_exactly(small_plan, tmp_path):
    first, _ = run.traced_passes(small_plan, tmp_path / "a", 0, float("inf"), tmp_path / "a.jsonl")
    second, _ = run.traced_passes(small_plan, tmp_path / "b", 0, float("inf"), tmp_path / "b.jsonl")
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in TIME_UNITS]
    assert {n: first[0][n] for n in counts} == {n: second[0][n] for n in counts}
    assert first[0]["simkernel.events"] == first[0]["state.snapshot_calls"] > 0
    assert first[0]["policies.jobs_started"] > 0


def test_traced_pass_reports_every_per_layer_metric(small_plan, tmp_path):
    layers, _ = run.traced_passes(small_plan, tmp_path, 0, float("inf"), tmp_path / "s.jsonl")
    assert set(layers[0]) == set(names("per_layer"))
    assert (tmp_path / "s.jsonl").stat().st_size > 0


def test_layer_annotations_cover_the_per_layer_metrics():
    annotations = json.loads((run.HERE / "layers.json").read_text())["per_layer"]
    assert list(annotations) == names("per_layer")
    end_to_end = set(names("end_to_end"))
    workload_names = {w["name"] for w in SPEC["workloads"]}
    for entry in annotations.values():
        assert entry["moves"] in end_to_end
        assert entry["on"].split(" ")[0].strip(",") in workload_names


def test_benchmark_output_names_match_benchmark_json():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "congested",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=run.ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == names("end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
