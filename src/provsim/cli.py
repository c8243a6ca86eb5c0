"""Batch command-line interface: run scenarios, sweep parameters, validate agreements.

Exit codes: 0 success, 2 validation/parse problems (bad scenario, bad trace,
bad agreement, missing file), 3 infeasible scenario, 1 anything else.
The PROVSIM_OUTPUT_DIR environment variable overrides where reports land.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    AgreementError,
    EmptyTraceError,
    InfeasibleScenarioError,
    ProvsimError,
    ScenarioError,
    SweepError,
    TraceParseError,
)
from .metrics import csv_header, report_to_csv_row, report_to_json
from .scenario import (
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
from .state import REGIMES

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3

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


def _classify(exc: ProvsimError) -> tuple[str, int]:
    if isinstance(exc, InfeasibleScenarioError):
        return "infeasible scenario", EXIT_INFEASIBLE
    if isinstance(exc, (TraceParseError, EmptyTraceError)):
        return "trace error", EXIT_INVALID
    if isinstance(exc, (ScenarioError, AgreementError)):
        return "invalid input", EXIT_INVALID
    if isinstance(exc, SweepError):
        return "sweep error", EXIT_INVALID
    return "error", EXIT_ERROR


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
            with log_path.open("w") as stream:
                write_event_log(result, stream)
            written.append(log_path)
    return written


def _scenario_from_flags(args: argparse.Namespace) -> Scenario:
    doc = {
        "name": args.name or "adhoc",
        "pbj_trace": args.pbj_trace,
        "ws_trace": args.ws_trace,
        "window": {"start_offset": args.window_start, "duration": args.duration},
        "cpus_per_node": args.cpus_per_node,
        "regime": args.regime,
    }
    if args.target_peaks:
        pbj, ws = peak_pair(args.target_peaks, "--target-peaks")
        doc["target_peaks"] = {"pbj": pbj, "ws": ws}
    if args.config_size is not None:
        doc["config_size"] = args.config_size
    if args.params:
        doc["params"] = args.params
    return scenario_from_dict(doc)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        if args.pbj_trace or args.ws_trace:
            raise ScenarioError("give either a scenario file or --pbj-trace/--ws-trace flags")
        scenario = load_scenario(args.scenario)
    else:
        if not (args.pbj_trace and args.ws_trace and args.regime) or args.duration is None:
            raise ScenarioError(
                "ad hoc runs need --pbj-trace, --ws-trace, --regime and --duration"
            )
        scenario = _scenario_from_flags(args)
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


_shaped_traces: dict[tuple, tuple] = {}  # a sweep's shaped traces by peak tuple


def _share_traces(shaped: dict[tuple, tuple]) -> None:
    """Keep a sweep's shaped traces for this process's points. The pool's initializer:
    forked workers inherit ``shaped``, spawned ones unpickle it once each."""
    global _shaped_traces
    _shaped_traces = shaped


def _run_sweep_point(point: Scenario) -> str:
    result = run_scenario_obj(point, _shaped_traces[point.prc_pbj, point.prc_ws])
    return report_to_csv_row(result.metrics, {"name": point.name, **result.columns})


def _cmd_sweep(args: argparse.Namespace) -> int:
    import concurrent.futures  # only this command needs it

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
    # The pool forks all its workers at once: never more than there are
    # points to run or CPUs to run them on.
    workers = min(args.workers, len(distinct), os.cpu_count() or 1)
    rows: dict[str, str] = {}
    with ExitStack() as stack:
        stack.callback(_share_traces, {})  # this process holds them only while the sweep runs
        if workers > 1:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_share_traces, initargs=(shaped,)))
            results = pool.map(_run_sweep_point, distinct)
        else:
            _share_traces(shaped)
            results = map(_run_sweep_point, distinct)
        # Results come in the points' order, so the first failing point (also on
        # a dead worker, BrokenProcessPool) exits as a SweepError naming it; the
        # cause keeps the worker's traceback.
        try:
            for point in distinct:
                rows[point.name] = next(results)
        except Exception as exc:
            detail = exc if isinstance(exc, ProvsimError) else f"{type(exc).__name__}: {exc}"
            raise SweepError(f"sweep point {point.name} failed: {detail}") from exc
    out_dir = _output_dir(args.output_dir, base)
    merged = out_dir / f"{base.name}.sweep_{args.axis}.csv"
    lines = [csv_header(), *(rows[point.name] for point in points)]  # in given-value order
    with _report_dir(out_dir):
        merged.write_text("\n".join(lines) + "\n")
    print(f"{base.name}: swept {args.axis} over {len(points)} points")
    print(f"  wrote {merged}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    from .agreement import agreement_to_json, parse_agreement  # only this command needs it

    text = read_input(Path(args.agreement), "agreement file", AgreementError, AgreementError)
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
    adhoc = run_p.add_argument_group("ad hoc run (instead of a scenario file)")
    adhoc.add_argument("--pbj-trace", default=None, help="SWF batch-job trace path")
    adhoc.add_argument("--ws-trace", default=None, help="demand-trace CSV path")
    adhoc.add_argument("--regime", choices=REGIMES, default=None)
    # The integer flags are scenario fields, converted and checked as such.
    adhoc.add_argument("--duration", default=None, help="window duration in seconds")
    adhoc.add_argument("--window-start", default=0)
    adhoc.add_argument("--cpus-per-node", default=1)
    adhoc.add_argument("--target-peaks", default=None, help="scaling tuple as pbj:ws, e.g. 128:128")
    adhoc.add_argument("--config-size", default=None)
    adhoc.add_argument("--params", default=None, help='e.g. "B25/U1.2/V0.2/G0.5/L60"')
    adhoc.add_argument("--name", default=None, help="report base name for ad hoc runs")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run one scenario across an axis of parameter values")
    sweep_p.add_argument("scenario", help="path to the base scenario JSON file")
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument(
        "--values", required=True,
        help="comma-separated values (L in minutes; tuple as pbj:ws pairs)",
    )
    sweep_p.add_argument(
        "--workers", type=int, default=1,
        help="concurrent sweep workers (capped at the point count and the CPU count)",
    )
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
        category, code = _classify(exc)
        print(f"provsim: {category}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
