"""``scripts/ab.py``'s summary, on canned perfbench results: no run starts."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

BETTER = {"sim_events_per_s": "higher", "wall_s": "lower"}


def result(correct=True, **metrics):
    return {"correct": correct, "metrics": metrics, "unscaled": {"kernel_s": 1 / metrics["sim_events_per_s"]}}


def test_parse_run_reads_the_info_and_result_lines():
    info = {"workload": "long", "start": {"nproc": 2}, "unscaled": {"setup_s": 0.04}}
    res = {"correct": True, "attempted": 3, "failed": 0,
           "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    stdout = "progress\n" + json.dumps(info) + "\n" + json.dumps(res) + "\n"
    assert ab.parse_run(stdout) == {"correct": True, "metrics": {"wall_s": 1.5},
                                    "unscaled": {"setup_s": 0.04}, "host": {"nproc": 2}}


def test_summary_counts_the_pairs_each_tree_won():
    values = [(100, 110, 2.0, 1.9), (100, 105, 2.0, 2.0), (120, 100, 1.8, 2.2), (100, 120, 2.1, 1.7)]
    runs = [{"pair": i, "seed": 1, "first": "parent",
             "parent": result(sim_events_per_s=pe, wall_s=pw),
             "change": result(sim_events_per_s=ce, wall_s=cw)}
            for i, (pe, ce, pw, cw) in enumerate(values)]
    summary = ab.summarize(runs, BETTER)
    events, wall = summary["metrics"]["sim_events_per_s"], summary["metrics"]["wall_s"]
    assert (events["change_won"], events["parent_won"]) == (3, 1)
    assert (wall["change_won"], wall["parent_won"]) == (2, 1)  # the 2.0 tie counts for neither
    assert events["parent"]["median"] == 100 and events["change"]["median"] == 107.5
    assert events["median_change"] == pytest.approx(0.075)
    assert events["parent"]["q1"] <= events["parent"]["median"] <= events["parent"]["q3"]
    assert summary["unscaled_median"]["parent"]["kernel_s"] == pytest.approx(0.01)
    assert (summary["runs_correct"], summary["runs"], summary["all_correct"]) == (8, 8, True)


def test_failed_run_gives_no_values_and_marks_the_workload():
    failed = {"correct": False, "metrics": {}, "unscaled": {}, "error": "exit 1"}
    runs = [{"pair": 0, "seed": 1, "first": "parent", "parent": result(sim_events_per_s=100, wall_s=1.0),
             "change": result(sim_events_per_s=110, wall_s=0.9)},
            {"pair": 1, "seed": 2, "first": "change", "parent": result(sim_events_per_s=90, wall_s=1.1),
             "change": failed}]
    summary = ab.summarize(runs, BETTER)
    events = summary["metrics"]["sim_events_per_s"]
    assert events["pairs"] == 1 and events["change"] == {"median": 110, "q1": 110, "q3": 110}
    assert (summary["runs_correct"], summary["all_correct"]) == (3, False)
