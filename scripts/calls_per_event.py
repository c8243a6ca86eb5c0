#!/usr/bin/env python3
"""Count the Python calls per simulated event of each scenario of a
perfbench workload, with cProfile, and the garbage collector's passes
during each run.

Builds the workload's seeded inputs as ``perfbench/run.py`` does, then for
each scenario the workload times (each point of a sweep) runs
``simkernel.run`` once with its event log (for the event count) and once
without, under cProfile, and prints the profiled run's total calls divided
by the events. With ``--record`` it profiles the recorded run instead, as
``congested`` times it. It also prints, per generation, the garbage
collector's passes during one unprofiled run of the same kind, from
``gc.get_stats()`` before and after it, starting from an empty young
generation, and how many young-generation objects a run leaves
(``gc.get_count()[0]`` before and after a run with the collector held
off), with the time of the one young-generation pass over them that the
resumed collector makes. The counts are exact: unlike a timing, they are the
same on every run of the same code under the same Python version. Standard
library only.

Run from anywhere:
    python3 scripts/calls_per_event.py [--workload long|congested|sweep] [--seed 1] [--record]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from provsim.scenario import load_scenario, load_traces  # noqa: E402
from provsim.simkernel import run  # noqa: E402


def collections() -> list[int]:
    """The collector's passes so far, per generation. ``gc.get_stats`` copies
    them before it allocates, and nothing is allocated before it is called,
    so a pass that the reading itself triggers is not counted."""
    stats = gc.get_stats()
    return [generation["collections"] for generation in stats]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="long", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--record", action="store_true",
                        help="profile the run that keeps its event log")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="provsim-calls-") as work:
        plan = workloads.prepare(args.workload, args.seed, Path(work))
        for name in sorted(plan.job_counts):
            scenario = load_scenario(Path(work) / f"{name}.json")
            jobs, demand = load_traces(scenario)
            call = partial(run, jobs, demand, scenario.regime, scenario.params,
                           config_size=scenario.config_size, pbj_floor=scenario.pbj_floor)
            gc.collect()  # the young generation starts empty
            before = collections()
            result = call(record_events=args.record)
            after = collections()
            passes = [end - start for end, start in zip(after, before)]
            events = len((result if args.record else call(record_events=True)).records)
            del result
            gc.collect()
            gc.disable()  # so that reading the count starts no pass
            try:
                young = gc.get_count()[0]
                result = call(record_events=args.record)
                young = gc.get_count()[0] - young
            finally:
                gc.enable()
            started = time.perf_counter()
            gc.collect(0)
            young_pass_ms = (time.perf_counter() - started) * 1e3
            del result
            profile = cProfile.Profile()
            profile.runcall(call, record_events=args.record)
            calls = pstats.Stats(profile).total_calls
            print(f"{name:16} {scenario.regime:8} events {events:7}  calls {calls:8}  "
                  f"per event {calls / events:.2f}  "
                  f"collector passes {'/'.join(map(str, passes))}  "
                  f"young objects left {young} (pass {young_pass_ms:.1f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
