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


def test_parse_calls_reads_each_scenario_line():
    stdout = ("long_dcs         DCS      events   47538  calls   402708  per event 8.47  "
              "collector passes 0/0/0  young objects left 217 (pass 0.0 ms)\n"
              "long_ec2rs       EC2RS    events   67511  calls   635268  per event 9.41  "
              "collector passes 0/0/0  young objects left 48083 (pass 2.0 ms)\n")
    assert ab.parse_calls("a warning\n" + stdout) == {
        "long_dcs": {"events": 47538, "calls": 402708, "per_event": 8.47},
        "long_ec2rs": {"events": 67511, "calls": 635268, "per_event": 9.41}}


def test_parse_calls_reads_the_writer_counts_of_a_recorded_line():
    stdout = ("congested_dcs    DCS      events   14396  calls   155252  per event 10.78  "
              "collector passes 0/0/0  young objects left 40619 (pass 2.8 ms)  "
              "writer calls per line 1.76  writes 57\n")
    assert ab.parse_calls(stdout) == {"congested_dcs": {
        "events": 14396, "calls": 155252, "per_event": 10.78, "writer_calls_per_line": 1.76,
        "writes": 57}}


def test_parse_calls_reads_the_retained_memory_where_the_line_gives_it():
    # A tree whose script predates the figure prints no "retained" part.
    stdout = ("long_ec2rs       EC2RS    events   67511  calls   574806  per event 8.51  "
              "collector passes 0/0/0  young objects left 607 (pass 0.1 ms)  "
              "retained 0.00 MB\n"
              "congested_dcs    DCS      events   14396  calls   149663  per event 10.40  "
              "collector passes 0/0/0  young objects left 40621 (pass 4.1 ms)  "
              "retained 5.10 MB  writer calls per line 1.76  writes 57\n"
              "long_fb152       FB       events   48584  calls   426509  per event 8.78  "
              "collector passes 0/0/0  young objects left 7885 (pass 0.4 ms)\n")
    assert ab.parse_calls(stdout) == {
        "long_ec2rs": {"events": 67511, "calls": 574806, "per_event": 8.51, "retained_mb": 0.0},
        "congested_dcs": {"events": 14396, "calls": 149663, "per_event": 10.40,
                          "retained_mb": 5.10, "writer_calls_per_line": 1.76, "writes": 57},
        "long_fb152": {"events": 48584, "calls": 426509, "per_event": 8.78}}


@pytest.mark.parametrize("workload, record", [("congested", True), ("long", False),
                                               ("sweep", False)])
def test_calls_are_counted_on_recorded_runs_where_the_workload_times_them(
        monkeypatch, workload, record):
    argvs = []

    def fake_run_script(tree, *argv):
        argvs.append(argv)
        return ab.subprocess.CompletedProcess(argv, 0, stdout="", stderr="")

    monkeypatch.setattr(ab, "run_script", fake_run_script)
    assert ab.calls_once(Path("."), workload, 3) == {}
    assert argvs == [("scripts/calls_per_event.py", "--workload", workload, "--seed", "3",
                      *(["--record"] if record else []))]


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


def timed(wall_s, kernel_s, probe_s, scale=1.0):
    """A run whose scaled times are its unscaled ones times ``scale``."""
    return {"correct": True, "metrics": {"wall_s": wall_s * scale, "sim_events_per_s": 1 / (kernel_s * scale)},
            "unscaled": {"wall_s": wall_s, "kernel_s": kernel_s, "probe_s": probe_s}}


def test_summary_reads_the_unscaled_times_beside_the_scaled_ones():
    runs = [{"pair": i, "seed": 1, "first": "parent", "parent": timed(1.0, 0.5, 0.06),
             "change": timed(0.9 + i / 100, 0.45, 0.06)} for i in range(4)]
    summary = ab.summarize(runs, BETTER)
    wall = summary["unscaled"]["wall_s"]
    assert (wall["change_won"], wall["parent_won"]) == (4, 0)
    assert wall["change"]["median"] == pytest.approx(0.915)
    assert summary["unscaled"]["kernel_s"]["change_won"] == 4
    assert summary["metrics"]["wall_s"]["unscaled"] == "wall_s"
    assert summary["metrics"]["sim_events_per_s"]["unscaled"] == "kernel_s"
    assert all(stats["flags"] == [] for stats in summary["metrics"].values())
    assert summary["unscaled_median"]["change"]["probe_s"] == 0.06


def test_summary_flags_a_scaled_winner_the_unscaled_times_do_not_pick():
    # The change runs faster, but its probe read faster still, so scaling reverses the verdict.
    runs = [{"pair": i, "seed": 1, "first": "parent", "parent": timed(1.0, 0.5, 0.06, 1.0),
             "change": timed(0.96, 0.48, 0.057, 1.06)} for i in range(4)]
    summary = ab.summarize(runs, BETTER)
    wall = summary["metrics"]["wall_s"]
    assert ab.winner(wall) == "parent" and ab.winner(summary["unscaled"]["wall_s"]) == "change"
    assert wall["flags"][0] == "scaled wall_s picks parent, unscaled wall_s picks change"
    assert wall["flags"][1].startswith("probe medians differ by 5.0%, more than wall_s's")
    assert any(line.startswith("  FLAG scaled wall_s") for line in ab.describe(summary))


def test_probe_gap_within_the_quartile_spread_is_not_flagged():
    runs = [{"pair": i, "seed": 1, "first": "parent", "parent": timed(1.0 + i / 10, 0.5, 0.060),
             "change": timed(0.9 + i / 10, 0.45, 0.061)} for i in range(4)]
    assert ab.summarize(runs, BETTER)["metrics"]["wall_s"]["flags"] == []


@pytest.mark.parametrize("workload", ["long", "congested"])
def test_committed_bench_runs_are_flagged(workload):
    """Re-summarising the committed runs flags both workloads, whose scaled and
    unscaled wall_s pick different winners (ROADMAP's probe finding)."""
    root = SCRIPT.parent.parent
    runs = json.loads((root / "BENCH_pr30.json").read_text())["workloads"][workload]["runs"]
    better = {m["name"]: m["better"]
              for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = ab.summarize(runs, better)
    wall = summary["metrics"]["wall_s"]
    assert wall["flags"] and wall["flags"][0].startswith("scaled wall_s picks")
    assert ab.winner(wall) != ab.winner(summary["unscaled"]["wall_s"])
    assert summary["unscaled"]["kernel_s"]["change_won"] == 6
