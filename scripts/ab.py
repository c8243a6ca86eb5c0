#!/usr/bin/env python3
"""Compare this tree with another checkout on perfbench workloads, run by run,
and write the per-pair values and a summary to ``BENCH_<label>.json``.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once in
each tree, T being ``BENCHMARK.json``'s ``run_seconds``, the first pair and
every second one after it starting with TREE. Both run with ``PYTHONDONTWRITEBYTECODE=1``, after the ``__pycache__``
folders under both trees' ``src`` and ``perfbench`` are removed, so each
compiles what it imports and neither gains from a bytecode cache the other
lacks (about 0.6 ms of ``setup_s`` per 100 lines). Seeds cycle through
``--seeds``. The file holds, per workload:

- ``runs``: per pair, the seed, which tree ran first, and each tree's
  end-to-end metrics, unscaled times, host line and ``correct``;
- ``summary``: for each end-to-end metric of ``BENCHMARK.json``, each
  tree's median and quartiles, the pairs each tree won (by the metric's
  ``better`` direction; a tie counts for neither) and the relative change of
  the median; the same for the unscaled ``wall_s``, ``setup_s``, ``cpu_s``
  and ``kernel_s``; each tree's median unscaled times, the host probe's
  included; flags on each scaled time metric whose verdict the probe may
  have set (``summarize``); and whether every run was correct. The summary
  is also printed, one line a reading;
- ``calls_per_event``: per seed and tree, each scenario's events, Python
  calls and calls per event from ``scripts/calls_per_event.py --workload W
  --seed S``, run once in each tree: the counts are exact, so one run shows
  a change of even a hundredth of a call per event. A tree whose script
  prints it adds the MB a run retains (``retained_mb``). For ``congested``,
  whose timed commands are recorded runs, the script runs with ``--record``,
  and a tree whose script prints them adds the event-log writer's calls per
  line and ``write`` calls per log.

A run that exits nonzero counts as not correct and gives no values. Standard
library only; not part of tier-1 (``tests/test_ab.py`` checks the summary).

Run from anywhere:
    python3 scripts/ab.py --against TREE --workload long [--workload congested]
        [--pairs 10] [--seeds 1,2] [--label NAME]
Exit status: 0 when every run was correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # TREE, then this tree
RECORDED = ("congested",)  # workloads whose timed commands write an event log


def parse_run(stdout: str) -> dict:
    """One run's record from perfbench's last two lines: the info line (host,
    unscaled times) and the result line."""
    info_line, result_line = stdout.strip().splitlines()[-2:]
    info, result = json.loads(info_line), json.loads(result_line)
    return {"correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "unscaled": info.get("unscaled", {}), "host": info.get("start")}


# One scenario's line of scripts/calls_per_event.py, its retained memory, and
# the writer's part of it under --record.
CALLS_LINE = re.compile(r"^(\S+)\s+\S+\s+events\s+(\d+)\s+calls\s+(\d+)\s+per event\s+([\d.]+)")
RETAINED_PART = re.compile(r"retained ([\d.]+) MB")
WRITER_PART = re.compile(r"writer calls per line ([\d.]+)\s+writes (\d+)")


def parse_calls(stdout: str) -> dict:
    """Each scenario's events, calls and calls per event, by scenario name,
    with the retained MB and the writer's calls per line and writes where the
    line gives them."""
    scenarios = {}
    for line in stdout.splitlines():
        match = CALLS_LINE.match(line)
        if match:
            counts = scenarios[match[1]] = {"events": int(match[2]), "calls": int(match[3]),
                                            "per_event": float(match[4])}
            retained = RETAINED_PART.search(line)
            if retained:
                counts["retained_mb"] = float(retained[1])
            writer = WRITER_PART.search(line)
            if writer:
                counts.update(writer_calls_per_line=float(writer[1]), writes=int(writer[2]))
    return scenarios


def clear_bytecode(tree: Path) -> None:
    for cache in [*tree.glob("src/**/__pycache__"), *tree.glob("perfbench/**/__pycache__")]:
        shutil.rmtree(cache)


def run_script(tree: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True,
                          text=True)


def last_error(done: subprocess.CompletedProcess) -> str:
    return (done.stderr.strip().splitlines() or [f"exit {done.returncode}"])[-1]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = run_script(tree, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds))
    if done.returncode != 0:
        return {"correct": False, "metrics": {}, "unscaled": {}, "error": last_error(done)}
    return parse_run(done.stdout)


def calls_once(tree: Path, workload: str, seed: int) -> dict:
    record = ["--record"] if workload in RECORDED else []
    done = run_script(tree, "scripts/calls_per_event.py", "--workload", workload,
                      "--seed", str(seed), *record)
    return parse_calls(done.stdout) if done.returncode == 0 else {"error": last_error(done)}


def spread(values: list[float]) -> dict:
    """Median and quartiles of one tree's values."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


# Each probe-scaled end-to-end metric and the unscaled time it is computed from.
UNSCALED = {"wall_s": "wall_s", "setup_s": "setup_s", "cpu_s": "cpu_s",
            "sim_events_per_s": "kernel_s"}


def compare(runs: list[dict], key: str, name: str, direction: str) -> Optional[dict]:
    """Both trees' spread of ``run[side][key][name]`` over the pairs that
    have it, the pairs each tree won and the relative change of the median;
    None when no pair has it."""
    pairs = [(run["parent"][key][name], run["change"][key][name]) for run in runs
             if name in run["parent"][key] and name in run["change"][key]]
    if not pairs:
        return None
    sign = 1 if direction == "higher" else -1
    parent, change = (spread(list(side)) for side in zip(*pairs))
    return {
        "better": direction, "pairs": len(pairs), "parent": parent, "change": change,
        "parent_won": sum(sign * (p - c) > 0 for p, c in pairs),
        "change_won": sum(sign * (c - p) > 0 for p, c in pairs),
        "median_change": change["median"] / parent["median"] - 1 if parent["median"] else None,
    }


def winner(stats: dict) -> Optional[str]:
    """The tree that won more pairs, or None on a tie."""
    if stats["change_won"] == stats["parent_won"]:
        return None
    return "change" if stats["change_won"] > stats["parent_won"] else "parent"


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """The summary of a workload's pairs; ``better`` maps each end-to-end
    metric to "higher" or "lower". Pairs missing a value are left out.

    Each scaled time metric also gets the name of its unscaled time and
    ``flags``: why its verdict may be the probe's and not the program's. One
    flag is raised when the scaled and unscaled readings pick different
    winners by pairs won, and one when the trees' probe medians differ by
    more than the quartile spread of the parent's scaled values (both as a
    share of the median)."""
    metrics = {name: stats for name, direction in better.items()
               if (stats := compare(runs, "metrics", name, direction))}
    unscaled = {name: stats for name in dict.fromkeys(UNSCALED.values())
                if (stats := compare(runs, "unscaled", name, "lower"))}
    medians = {}
    for side in SIDES:
        names = sorted({name for run in runs for name in run[side]["unscaled"]})
        medians[side] = {name: statistics.median(run[side]["unscaled"][name] for run in runs
                                                 if name in run[side]["unscaled"])
                         for name in names}
    probes = [medians[side].get("probe_s") for side in SIDES]
    for name, stats in metrics.items():
        raw = unscaled.get(UNSCALED.get(name))
        if raw is None:
            continue
        stats["unscaled"], stats["flags"] = UNSCALED[name], []
        if winner(stats) != winner(raw):
            stats["flags"].append(f"scaled {name} picks {winner(stats)}, unscaled "
                                  f"{UNSCALED[name]} picks {winner(raw)}")
        parent = stats["parent"]
        quartiles = (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else 0
        if None not in probes and abs(probes[1] / probes[0] - 1) > quartiles:
            stats["flags"].append(f"probe medians differ by {abs(probes[1] / probes[0] - 1):.1%}, "
                                  f"more than {name}'s quartile spread of {quartiles:.1%}")
    correct = [run[side]["correct"] for run in runs for side in SIDES]
    return {"metrics": metrics, "unscaled": unscaled, "unscaled_median": medians,
            "runs_correct": sum(correct), "runs": len(correct), "all_correct": all(correct)}


def describe(summary: dict) -> list[str]:
    """One line per metric, scaled and unscaled, with its flags."""
    def reading(name: str, stats: dict) -> str:
        return (f"{name} {stats['parent']['median']:.6g} -> {stats['change']['median']:.6g} "
                f"({stats['median_change']:+.1%}), pairs won parent {stats['parent_won']} "
                f"change {stats['change_won']}" if stats["median_change"] is not None else name)

    lines = [f"  scaled {reading(name, stats)}" for name, stats in summary["metrics"].items()]
    lines += [f"  unscaled {reading(name, stats)}" for name, stats in summary["unscaled"].items()]
    probes = [summary["unscaled_median"][side].get("probe_s") for side in SIDES]
    lines.append(f"  probe median parent {probes[0]} change {probes[1]}")
    lines += [f"  FLAG {flag}" for stats in summary["metrics"].values()
              for flag in stats.get("flags", [])]
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, required=True, metavar="TREE",
                        help="the checkout to compare with (the parent)")
    parser.add_argument("--workload", action="append", required=True,
                        choices=["long", "congested", "sweep"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=lambda text: [int(seed) for seed in text.split(",")],
                        default=[1, 2], help="comma-separated input seeds")
    parser.add_argument("--label", default="ab", help="names the output BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.against.resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for tree in trees.values():
        clear_bytecode(tree)
    seconds = spec["run_seconds"]
    out = {"against": trees["parent"].name, "pairs": args.pairs, "seeds": args.seeds,
           "seconds": seconds, "workloads": {}}
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            run = {"pair": pair, "seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(trees[side], workload, seed, seconds)
            runs.append(run)
            print(f"{workload} pair {pair} seed {seed}: " + ", ".join(
                f"{name} {run['parent']['metrics'][name]:.6g} -> {run['change']['metrics'][name]:.6g}"
                for name in better if name in run["parent"]["metrics"]
                and name in run["change"]["metrics"]), flush=True)
        calls = {str(seed): {side: calls_once(trees[side], workload, seed) for side in SIDES}
                 for seed in dict.fromkeys(run["seed"] for run in runs)}
        summary = summarize(runs, better)
        print(f"{workload}:", *describe(summary), sep="\n")
        out["workloads"][workload] = {"summary": summary, "calls_per_event": calls, "runs": runs}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if all(w["summary"]["all_correct"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
