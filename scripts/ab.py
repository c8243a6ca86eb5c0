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
  the median; each tree's median unscaled times; and whether every run was
  correct.

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
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # TREE, then this tree


def parse_run(stdout: str) -> dict:
    """One run's record from perfbench's last two lines: the info line (host,
    unscaled times) and the result line."""
    info_line, result_line = stdout.strip().splitlines()[-2:]
    info, result = json.loads(info_line), json.loads(result_line)
    return {"correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "unscaled": info.get("unscaled", {}), "host": info.get("start")}


def clear_bytecode(tree: Path) -> None:
    for cache in [*tree.glob("src/**/__pycache__"), *tree.glob("perfbench/**/__pycache__")]:
        shutil.rmtree(cache)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        return {"correct": False, "metrics": {}, "unscaled": {},
                "error": (done.stderr.strip().splitlines() or [f"exit {done.returncode}"])[-1]}
    return parse_run(done.stdout)


def spread(values: list[float]) -> dict:
    """Median and quartiles of one tree's values."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """The summary of a workload's pairs; ``better`` maps each end-to-end
    metric to "higher" or "lower". Pairs missing a value are left out."""
    metrics = {}
    for name, direction in better.items():
        pairs = [(run["parent"]["metrics"][name], run["change"]["metrics"][name])
                 for run in runs
                 if name in run["parent"]["metrics"] and name in run["change"]["metrics"]]
        if not pairs:
            continue
        sign = 1 if direction == "higher" else -1
        parent, change = (spread(list(side)) for side in zip(*pairs))
        metrics[name] = {
            "better": direction, "pairs": len(pairs), "parent": parent, "change": change,
            "parent_won": sum(sign * (p - c) > 0 for p, c in pairs),
            "change_won": sum(sign * (c - p) > 0 for p, c in pairs),
            "median_change": change["median"] / parent["median"] - 1 if parent["median"] else None,
        }
    unscaled = {}
    for side in SIDES:
        names = sorted({name for run in runs for name in run[side]["unscaled"]})
        unscaled[side] = {name: statistics.median(run[side]["unscaled"][name] for run in runs
                                                  if name in run[side]["unscaled"])
                          for name in names}
    correct = [run[side]["correct"] for run in runs for side in SIDES]
    return {"metrics": metrics, "unscaled_median": unscaled,
            "runs_correct": sum(correct), "runs": len(correct), "all_correct": all(correct)}


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
        out["workloads"][workload] = {"summary": summarize(runs, better), "runs": runs}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if all(w["summary"]["all_correct"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
