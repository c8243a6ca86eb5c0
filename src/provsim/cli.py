"""Batch command-line interface: run scenarios, sweep parameters, validate agreements.

Exit codes: 0 success, else the exit_code of the ProvsimError's class (errors.py):
2 invalid input (scenario, trace, agreement, file), 3 infeasible scenario, 1 anything else.
The PROVSIM_OUTPUT_DIR environment variable overrides where reports land.
A sweep runs in N = min(--workers, points, CPUs) processes (1 without os.fork):
process k, the parent being 0, runs every N-th distinct point from the k-th.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

from .errors import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK  # noqa: F401 (read as cli.EXIT_*)
from .errors import AgreementError, ProvsimError, ScenarioError, SweepError
from .metrics import csv_header, report_to_csv_row, report_to_json
from .scenario import (
    FIELDS,
    REQUIRED,
    SWEEP_AXES,
    Scenario,
    apply_axis,
    load_scenario,
    load_traces,
    peak_pair,
    read_input,
    read_traces,
    run_scenario_obj,
    scale_traces,
    scenario_from_dict,
)
from .simkernel import collector_paused, write_event_log

OUTPUT_DIR_ENV = "PROVSIM_OUTPUT_DIR"


def _output_dir(override: Optional[str], scenario: Optional[Scenario] = None) -> Path:
    """Precedence: --output-dir flag, then the env var, then the scenario, then cwd."""
    if override:
        return Path(override)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    if scenario is not None and scenario.output_dir:
        return scenario.base_dir / scenario.output_dir
    return Path(".")


@contextmanager
def _report_dir(out_dir: Path):
    """Create ``out_dir`` for the block's writes; an OSError names the directory."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ScenarioError(f"cannot write reports to directory {out_dir}: {exc}") from None


def _write_reports(scenario: Scenario, result, out_dir: Path) -> list[Path]:
    ident = {"name": scenario.name, **result.columns}
    json_path = out_dir / f"{scenario.name}.report.json"
    csv_path = out_dir / f"{scenario.name}.report.csv"
    written = [json_path, csv_path]
    with _report_dir(out_dir):
        json_path.write_text(report_to_json(result.metrics, ident))
        csv_path.write_text(csv_header() + "\n" + report_to_csv_row(result.metrics, ident) + "\n")
        if result.records is not None:
            log_path = out_dir / f"{scenario.name}.events.jsonl"
            with log_path.open("wb") as stream:
                write_event_log(result, stream)
            written.append(log_path)
    return written


def _scenario_from_flags(given: dict[str, str]) -> Scenario:
    """The scenario of the ad hoc flags ``given`` by key, each read as that key of a file."""
    required = {key: flag for key, (_, _, default, flag) in FIELDS.items() if default is REQUIRED}
    if not all(given.get(key) for key in required):  # an empty flag counts as missing
        *first, last = required.values()
        raise ScenarioError(f"ad hoc runs need {', '.join(first)} and {last}")
    doc: dict = {}
    for key, text in given.items():
        outer, _, inner = key.rpartition(".")
        (doc.setdefault(outer, {}) if outer else doc)[inner] = text
    if "target_peaks" in doc:  # the one flag that gives an object
        pbj, ws = peak_pair(doc["target_peaks"], "--target-peaks")
        doc["target_peaks"] = {"pbj": pbj, "ws": ws}
    return scenario_from_dict(doc, default_name="adhoc")


def _cmd_run(args: argparse.Namespace) -> int:
    given = {key: vars(args)[key] for key, (*_, flag) in FIELDS.items() if flag and key in args}
    if args.scenario is None:
        scenario = _scenario_from_flags(given)
    elif given:
        raise ScenarioError("give either a scenario file or ad hoc flags, not both (got "
                            f"{', '.join(FIELDS[key][3] for key in given)})")
    else:
        scenario = load_scenario(args.scenario)
    # Paused through the reports, records freed before it resumes: a pass would walk them all.
    with collector_paused():
        result = run_scenario_obj(scenario, load_traces(scenario), record_events=args.event_log)
        written = _write_reports(scenario, result, _output_dir(args.output_dir, scenario))
        report = result.metrics
        del result
    exec_s = "-" if report.avg_execution_time is None else f"{report.avg_execution_time:.1f}"
    turn_s = "-" if report.avg_turnaround_time is None else f"{report.avg_turnaround_time:.1f}"
    print(
        f"{scenario.name}: regime={scenario.regime} completed={report.completed_jobs} "
        f"exec={exec_s}s turnaround={turn_s}s peak={report.peak_consumption} "
        f"total={report.total_consumption_node_hours} node-h "
        f"adjustments={report.adjustment_count}"
    )
    for path in written:
        print(f"  wrote {path}")
    return EXIT_OK


def _run_share(share: list[Scenario], shaped: dict[tuple, tuple], out) -> None:
    """Run ``share`` in order, writing each point's CSV row and a newline to
    ``out``, up to its first failure; then a NUL and the failure's text, if any."""
    for point in share:
        try:
            result = run_scenario_obj(point, shaped[point.prc_pbj, point.prc_ws])
        except Exception as exc:
            detail = exc if isinstance(exc, ProvsimError) else f"{type(exc).__name__}: {exc}"
            out.write(f"\0{detail}")
            return  # at the first failure
        out.write(report_to_csv_row(result.metrics, {"name": point.name, **result.columns}) + "\n")
    out.write("\0")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ScenarioError(f"--workers must be >= 1, got {args.workers}")
    base = load_scenario(args.scenario)
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise ScenarioError("sweep --values needs at least one value")
    points = [apply_axis(base, args.axis, value) for value in values]
    distinct = list(dict.fromkeys(points))  # a value given twice runs once
    # Points differ at most in their peak tuple: read once, scale once per tuple.
    read = read_traces(base)
    by_peaks = {(p.prc_pbj, p.prc_ws): p for p in distinct}
    shaped = {peaks: scale_traces(p, read) for peaks, p in by_peaks.items()}
    workers = min(args.workers, len(distinct), os.cpu_count() or 1) if hasattr(os, "fork") else 1
    shares = [distinct[k::workers] for k in range(workers)]
    sys.stdout.flush()
    sys.stderr.flush()
    children, mine = [], io.StringIO()
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # a child leaves by os._exit: no cleanup, no flush
                try:
                    with open(write_end, "w", buffering=1, encoding="utf-8") as pipe:
                        _run_share(share, shaped, pipe)
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((pid, read_end))
        _run_share(shares[0], shaped, mine)
    finally:  # also when this process's share raises
        texts = [mine.getvalue()]
        for pid, read_end in children:
            with open(read_end, encoding="utf-8", errors="replace") as pipe:
                texts.append(pipe.read())
            os.waitpid(pid, 0)
    rows, failures = {}, {}
    for share, text in zip(shares, texts):
        head, ended, failure = text.partition("\0")
        done = head.split("\n")[:-1]  # a dead child's last line may be cut short
        rows.update(zip(share, done))  # the first point left without a row failed
        failures.update(zip(share[len(done):], [failure if ended else "its worker process died"]))
    for point in distinct:  # in value order, whichever process ran the point
        if point not in rows:
            raise SweepError(f"sweep point {point.name} failed: {failures[point]}")
    out_dir = _output_dir(args.output_dir, base)
    merged = out_dir / f"{base.name}.sweep_{args.axis}.csv"
    lines = [csv_header(), *(rows[point] for point in points)]  # in given-value order
    with _report_dir(out_dir):
        merged.write_text("\n".join(lines) + "\n")
    print(f"{base.name}: swept {args.axis} over {len(points)} points")
    print(f"  wrote {merged}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    from .agreement import agreement_to_json, parse_agreement  # only this command needs it

    text = read_input(Path(args.agreement), "agreement file", AgreementError)
    agreement = parse_agreement(text)
    print(agreement_to_json(agreement))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provsim",
        description="Trace-driven simulator for coordinated cluster resource provisioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file (or ad hoc flags) and write reports")
    run_p.add_argument("scenario", nargs="?", default=None, help="path to a scenario JSON file")
    run_p.add_argument("--event-log", action="store_true", help="also write the LDJSON event log")
    run_p.add_argument("--output-dir", default=None, help=f"report directory (or ${OUTPUT_DIR_ENV})")
    adhoc = run_p.add_argument_group(
        "ad hoc run (instead of a scenario file)",
        "each flag is read as the scenario field it names; --target-peaks as pbj:ws")
    for key, (_, _, _, flag) in FIELDS.items():
        if flag:
            adhoc.add_argument(flag, dest=key, metavar=key, default=argparse.SUPPRESS)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run one scenario across an axis of parameter values")
    sweep_p.add_argument("scenario", help="path to the base scenario JSON file")
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument(
        "--values", required=True,
        help="comma-separated values (L in minutes; tuple as pbj:ws pairs)",
    )
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="sweep processes, this one included (capped at points and CPUs)")
    sweep_p.add_argument("--output-dir", default=None, help=f"report directory (or ${OUTPUT_DIR_ENV})")
    sweep_p.set_defaults(func=_cmd_sweep)

    val_p = sub.add_parser("validate", help="parse and validate an RE agreement (XML or JSON)")
    val_p.add_argument("agreement", help="path to an agreement file")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProvsimError as exc:
        print(f"provsim: {exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
