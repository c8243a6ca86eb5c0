#!/usr/bin/env python3
"""Count the Python calls per simulated event of each scenario of a
perfbench workload, with cProfile.

Builds the workload's seeded inputs as ``perfbench/run.py`` does, then for
each scenario runs ``simkernel.run`` once with its event log (for the event
count) and once without, under cProfile, and prints the profiled run's
total calls divided by the events. The count is exact: unlike a timing, it
is the same on every run of the same code under the same Python version.
Standard library only.

Run from anywhere:  python3 scripts/calls_per_event.py [--workload long] [--seed 1]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from provsim.scenario import load_scenario, load_traces  # noqa: E402
from provsim.simkernel import run  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="long", choices=["long", "congested"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="provsim-calls-") as work:
        workloads.prepare(args.workload, args.seed, Path(work))
        for path in sorted(Path(work).glob("*.json")):
            scenario = load_scenario(path)
            jobs, demand = load_traces(scenario)
            kwargs = {"config_size": scenario.config_size, "pbj_floor": scenario.pbj_floor}
            events = len(run(jobs, demand, scenario.regime, scenario.params,
                             record_events=True, **kwargs).records)
            profile = cProfile.Profile()
            profile.runcall(run, jobs, demand, scenario.regime, scenario.params, **kwargs)
            calls = pstats.Stats(profile).total_calls
            print(f"{path.stem:16} {scenario.regime:8} events {events:7}  calls {calls:8}  "
                  f"per event {calls / events:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
