"""Correctness checks on the outputs of the benchmark's ``provsim`` commands.

Every check counts as attempted; a failed one is named on stderr and counts
toward ``error_rate``. At the generator's default seed the report and event-log
digests must equal ``golden.json``; at every seed the invariants below hold.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

import inputs

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SHIPPED = sorted((inputs.ROOT / "scenarios" / "synthetic").glob("*.json"))


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(*dirs: Path) -> dict[str, str]:
    """File name -> SHA-256 of every output in the given directories."""
    return {p.name: sha256(p) for d in dirs for p in sorted(d.iterdir()) if p.is_file()}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def event_count(log: Path) -> int:
    with log.open("rb") as stream:
        return sum(1 for _ in stream)


def compare_digests(checks: Checks, actual: dict[str, str], expected: dict[str, str],
                    label: str) -> None:
    checks.check(set(actual) == set(expected),
                 f"{label}: output files {sorted(actual)} differ from golden {sorted(expected)}")
    for name in sorted(set(actual) & set(expected)):
        checks.check(actual[name] == expected[name], f"{label}: {name} digest differs from golden")


def check_generator(checks: Checks, work: Path) -> None:
    """At its default seed the generator reproduces the committed traces."""
    swf, csv_path = inputs.default_seed_traces(work / "default_seed")
    checks.check(swf.read_bytes() == inputs.COMMITTED_SWF.read_bytes(),
                 "default-seed job trace differs from traces/synthetic_pbj.swf")
    checks.check(csv_path.read_bytes() == inputs.COMMITTED_CSV.read_bytes(),
                 "default-seed demand trace differs from traces/synthetic_ws_demand.csv")


def _report_rows(directory: Path):
    """(scenario name, row dict) for every JSON report and sweep CSV row."""
    for path in sorted(directory.glob("*.report.json")):
        yield path.name, json.loads(path.read_text())
    for path in sorted(directory.glob("*.sweep_*.csv")):
        with path.open() as stream:
            for row in csv.DictReader(stream):
                yield f"{path.name}:{row['scenario']}", row


def verify(checks: Checks, plan, first: Path, later: list[dict[str, str]], ref: Path) -> None:
    """Invariants at every seed, plus golden digests at the default seed.

    ``first`` holds the outputs of the first timed pass and ``later`` the
    digests of the passes after it; ``ref`` holds the reference commands'
    outputs.
    """
    label = f"{plan.workload} seed {plan.seed}"
    produced = digests(first)
    checks.check(bool(produced), f"{label}: the commands wrote no output")
    for other in later:
        checks.check(other == produced, f"{label}: outputs differ between two runs")
    reference = digests(ref) if ref.is_dir() else {}
    for name in sorted(set(produced) & set(reference)):
        checks.check(produced[name] == reference[name],
                     f"{label}: {name} differs between the metrics-only and event-log runs")
    for directory in (first, ref):
        if not directory.is_dir():
            continue
        for name, row in _report_rows(directory):
            jobs = plan.job_counts.get(row["scenario"])
            checks.check(
                jobs is not None
                and int(row["completed_jobs"]) + int(row["incomplete_jobs"]) == jobs,
                f"{label}: {name}: completed + incomplete != {jobs} jobs")
    for merged in sorted(first.glob("*.sweep_*.csv")):
        for row in merged.read_text().splitlines()[1:]:
            point = row.split(",", 1)[0]
            single = ref / f"{point}.report.csv"
            checks.check(single.is_file() and single.read_text().splitlines()[1] == row,
                         f"{label}: sweep row {point} differs from provsim run of that point")
    if plan.seed == inputs.DEFAULT_SEED:
        compare_digests(checks, {**reference, **produced}, load_golden()[plan.workload], label)


def event_counts(plan, first: Path, ref: Path) -> dict[str, int]:
    """Events per simulated input, read from its event log."""
    directory = first if plan.event_logs_from_timed else ref
    return {log.name[: -len(".events.jsonl")]: event_count(log)
            for log in directory.glob("*.events.jsonl")}


def shipped_commands(out: Path) -> list:
    from workloads import Command

    return [Command(["run", str(path), "--event-log", "--output-dir", str(out)], [path.stem])
            for path in SHIPPED]


def check_shipped(checks: Checks, execute, out: Path) -> None:
    """The seven shipped synthetic scenarios reproduce their golden digests."""
    execute(shipped_commands(out))
    compare_digests(checks, digests(out), load_golden()["shipped"], "scenarios/synthetic")
