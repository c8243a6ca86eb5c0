"""The benchmark's workloads: seeded inputs plus the ``provsim`` commands run on them.

Each workload writes its traces and scenario files into a work directory and
returns a ``Plan``. ``timed`` is what the benchmark measures; ``reference``
lists the extra ``provsim run --event-log`` commands that give every input its
event log (for the event count and the digests) and every sweep point its own
report row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

# Scenario settings shared with scenarios/synthetic/: peaks 128:128, L = 60 min.
FLB_BASELINE = "B25/U1.2/V0.2/G0.5/L60"
LEASE_60 = {"L_minutes": 60}
LONG_JOBS = 20_000          # about six weeks of the seeded stream
SWEEP_JOBS = 16_000         # about five weeks
CONGESTED_RUNTIME_FACTOR = 12
SWEEP_L_MINUTES = (15, 30, 60, 120, 240)


@dataclass
class Command:
    """One ``provsim`` invocation and the scenarios it simulates, in order."""

    argv: list[str]
    points: list[str]


@dataclass
class Plan:
    workload: str
    seed: int
    job_counts: dict[str, int]                       # scenario name -> jobs in window
    timed: Callable[[Path, int], list[Command]]      # (output dir, sweep workers)
    reference: Callable[[Path], list[Command]] = lambda out: []
    event_logs_from_timed: bool = False
    # Also check the shipped scenarios/synthetic/ goldens (with --event-log).
    check_shipped: bool = False


def _run(scenario: Path, out: Path, event_log: bool) -> Command:
    argv = ["run", str(scenario), "--output-dir", str(out)]
    if event_log:
        argv.append("--event-log")
    return Command(argv, [scenario.stem])


def _long(seed: int, work: Path) -> Plan:
    jobs, samples, duration = inputs.first_jobs(seed, LONG_JOBS)
    swf, csv = inputs.write_traces(jobs, samples, work, "long")
    scenarios = [
        inputs.write_scenario(work, "long_dcs", swf, csv, duration, "DCS"),
        inputs.write_scenario(work, "long_fb152", swf, csv, duration, "FB",
                              config_size=152, params=LEASE_60),
        inputs.write_scenario(work, "long_flb", swf, csv, duration, "FLB_NUB",
                              params=FLB_BASELINE),
        inputs.write_scenario(work, "long_ec2rs", swf, csv, duration, "EC2RS",
                              params=LEASE_60),
    ]
    return Plan(
        "long", seed, {s.stem: len(jobs) for s in scenarios},
        timed=lambda out, workers: [_run(s, out, False) for s in scenarios],
        reference=lambda out: [_run(s, out, True) for s in scenarios],
    )


def _congested(seed: int, work: Path) -> Plan:
    # The job stream is the generator's default two weeks for every seed, so the
    # queue reaches the same ~1.4k jobs; the seed draws the web-service demand,
    # which moves FB's forced releases and kills.
    base_jobs, _ = inputs.segment_stream(inputs.DEFAULT_SEED)
    _, samples = inputs.segment_stream(seed)
    jobs = [(i, s, r * CONGESTED_RUNTIME_FACTOR, z) for i, s, r, z in base_jobs]
    swf, csv = inputs.write_traces(jobs, samples, work, "congested")
    scenarios = [
        inputs.write_scenario(work, "congested_dcs", swf, csv, inputs.SEGMENT, "DCS"),
        inputs.write_scenario(work, "congested_fb152", swf, csv, inputs.SEGMENT, "FB",
                              config_size=152, params=LEASE_60),
    ]
    return Plan(
        "congested", seed, {s.stem: len(jobs) for s in scenarios},
        timed=lambda out, workers: [_run(s, out, True) for s in scenarios],
        event_logs_from_timed=True,
        check_shipped=True,
    )


def _sweep(seed: int, work: Path) -> Plan:
    jobs, samples, duration = inputs.first_jobs(seed, SWEEP_JOBS)
    swf, csv = inputs.write_traces(jobs, samples, work, "sweep")
    base = inputs.write_scenario(work, "sweep_flb", swf, csv, duration, "FLB_NUB",
                                 params=FLB_BASELINE)
    # One scenario file per point, named and parameterised as `sweep` derives it.
    points = [
        inputs.write_scenario(work, f"sweep_flb_L{m}", swf, csv, duration, "FLB_NUB",
                              params=FLB_BASELINE.replace("L60", f"L{m}"))
        for m in SWEEP_L_MINUTES
    ]
    values = ",".join(str(m) for m in SWEEP_L_MINUTES)

    def timed(out: Path, workers: int) -> list[Command]:
        argv = ["sweep", str(base), "--axis", "L", "--values", values,
                "--workers", str(workers), "--output-dir", str(out)]
        return [Command(argv, [p.stem for p in points])]

    return Plan(
        "sweep", seed, {p.stem: len(jobs) for p in points},
        timed=timed,
        reference=lambda out: [_run(p, out, True) for p in points],
    )


WORKLOADS = {"long": _long, "congested": _congested, "sweep": _sweep}


def prepare(name: str, seed: int, work: Path) -> Plan:
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work)


def sweep_workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))
