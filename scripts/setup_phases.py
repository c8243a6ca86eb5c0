#!/usr/bin/env python3
"""Time each phase of a perfbench workload's trace setup in fresh interpreters.

Builds the workload's seeded inputs as ``perfbench/run.py`` does, then starts
one new Python process per run on the workload's first scenario by name, with
``src`` of the tree under test on its path. That process times, in order and without any host-speed scaling: the
import of ``provsim.cli``, ``load_scenario``, the two file reads,
``parse_swf``, ``window``, ``normalize_cpus`` (only when the scenario has more
than one CPU per node), ``parse_demand_trace`` and the peak scaling
(``scale_traces``), the steps ``load_traces`` takes; like ``provsim run``,
it reads and shapes the traces with the cyclic collector paused
(``simkernel.collector_paused``). Then, outside the
total, it times ``compile`` of the source of every ``src/provsim`` module
that import loaded. Every process runs with ``PYTHONDONTWRITEBYTECODE=1``,
after the ``__pycache__`` folders under each tree's ``src`` are removed, as
``scripts/ab.py`` runs the benchmark: the import then compiles those modules
in every process, and so includes the ``compile`` time, and no tree is left
with a cache. It prints each phase's median and quartiles in milliseconds.
With ``--against TREE`` it alternates the two trees run by run (the first
run and every second one after it start with TREE) and also prints in how
many pairs this tree was faster. Standard library only; not part of tier-1.

Run from anywhere:
    python3 scripts/setup_phases.py [--workload long|congested|sweep] [--seed 1]
        [--runs 10] [--against TREE]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # nor for the workload modules imported here

import workloads  # noqa: E402

# Runs in the fresh interpreter: argv[1] is the scenario file. Prints one JSON
# object of phase -> seconds, in the order the phases ran.
CHILD = r"""
import time
start = time.perf_counter()
import provsim.cli
import json, pathlib, sys
from provsim import scenario as S, trace as T
from provsim.errors import TraceParseError
from provsim.simkernel import collector_paused
phases = {"import": time.perf_counter() - start}

def timed(name, function, *args):
    began = time.perf_counter()
    value = function(*args)
    phases[name] = time.perf_counter() - began
    return value

def read(scenario):
    return [S.read_input((scenario.base_dir / name).resolve(), what, TraceParseError)
            for name, what in ((scenario.pbj_trace, "batch-job trace"),
                               (scenario.ws_trace, "demand trace"))]

scenario = timed("load_scenario", S.load_scenario, sys.argv[1])
with collector_paused():  # as `provsim run` reads and shapes the traces
    pbj_text, ws_text = timed("read_files", read, scenario)
    jobs = timed("parse_swf", T.parse_swf, pbj_text)
    jobs = timed("window", T.window, jobs, scenario.window_start, scenario.window_duration)
    if scenario.cpus_per_node > 1:
        jobs = timed("normalize_cpus", T.normalize_cpus, jobs, scenario.cpus_per_node)
    demand = timed("parse_demand_trace", T.parse_demand_trace, ws_text)
    timed("scale_traces", S.scale_traces, scenario, (jobs, demand))
phases["total"] = time.perf_counter() - start
sources = {module.__file__: pathlib.Path(module.__file__).read_text()
           for name, module in list(sys.modules.items()) if name.split(".")[0] == "provsim"}
began = time.perf_counter()
for path, source in sources.items():
    compile(source, path, "exec")
phases["compile"] = time.perf_counter() - began
print(json.dumps(phases))
"""


def measure(tree: Path, scenario: Path) -> dict[str, float]:
    """One fresh interpreter's phase times for ``tree``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(tree / "src") + (os.pathsep + path if path else ""),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", CHILD, str(scenario)], env=env, cwd=tree,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summary(values: list[float]) -> str:
    """Median [first quartile-third quartile] in milliseconds."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{median * 1e3:7.2f} [{q1 * 1e3:.2f}-{q3 * 1e3:.2f}]"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="long", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10, help="fresh interpreters per tree")
    parser.add_argument("--against", type=Path, metavar="TREE",
                        help="another checkout of the repository to alternate with")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = [ROOT] if args.against is None else [args.against.resolve(), ROOT]
    for cache in [cache for tree in trees for cache in tree.glob("src/**/__pycache__")]:
        shutil.rmtree(cache)
    with tempfile.TemporaryDirectory(prefix="provsim-setup-") as work:
        plan = workloads.prepare(args.workload, args.seed, Path(work))
        name = sorted(plan.job_counts)[0]  # a workload's scenarios share their traces
        scenario = Path(work) / f"{name}.json"
        times: dict[Path, list[dict[str, float]]] = {tree: [] for tree in trees}
        for run in range(args.runs):
            for tree in (trees if run % 2 == 0 else trees[::-1]):
                times[tree].append(measure(tree, scenario))
    print(f"{args.workload} seed {args.seed}, {name} ({plan.job_counts[name]} jobs): "
          f"{args.runs} fresh interpreters per tree, ms median [quartiles]")
    header = f"{'phase':20}" + "".join(f"{str(tree):>32}" for tree in trees)
    print(header + ("  this tree faster" if args.against else ""))
    for phase in times[ROOT][0]:
        columns = [[sample.get(phase, 0.0) for sample in times[tree]] for tree in trees]
        line = f"{phase:20}" + "".join(f"{summary(values):>32}" for values in columns)
        if args.against:
            wins = sum(ours < theirs for theirs, ours in zip(*columns))
            line += f"  {wins}/{args.runs} pairs"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
