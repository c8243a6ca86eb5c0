#!/usr/bin/env python3
"""provsim's benchmark: one workload, seeded inputs, checked outputs, one JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload long|congested|sweep --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's ``provsim`` commands run as subprocesses,
pass after pass for S seconds (at least three passes). The last line of
standard output carries the end-to-end metrics of ``BENCHMARK.json``: medians
per command, with times scaled by a host-speed probe taken before each
command (see ``measure.host_probe``; the unscaled values are on the line
before). With ``--trace 1`` the same commands run in this process with
provsim's public functions wrapped (see ``tracer.py``), and the last line
carries the per-layer metrics, unscaled. The line before the result records
the host, the load average and the sample counts. Every output is checked:
against ``golden.json`` at the generator's default seed, and by invariants
at every seed (see ``checks.py``).
"""

from __future__ import annotations

import argparse
import json
import shutil
from statistics import median
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
REQUIRED = [ROOT / "src" / "provsim" / "cli.py",
            ROOT / "scripts" / "generate_synthetic_traces.py",
            ROOT / "traces" / "synthetic_pbj.swf"]
MIN_PASSES = 3
MAX_PASSES = 40
PASS_BUDGET_S = 100          # stop starting passes after this, to end well within 180 s
TIME_UNITS = {"s", "ms", "us"}


class CommandFailed(Exception):
    pass


def execute_subprocess(commands, scratch: Path, probes: list | None = None):
    """Run each command; with ``probes``, take a host-speed probe before each."""
    import measure

    samples = []
    for command in commands:
        if probes is not None:
            probes.append(measure.host_probe())
        sample = measure.run_subprocess(command.argv, scratch)
        if sample.code != 0:
            raise CommandFailed(f"provsim {' '.join(command.argv)} exited {sample.code}:\n"
                                f"{sample.output}")
        samples.append(sample)
    return samples


def execute_inprocess(commands, tracer=None) -> float:
    import measure

    started = time.perf_counter()
    for command in commands:
        code, output = measure.run_inprocess(command.argv, tracer)
        if code != 0:
            raise CommandFailed(f"provsim {' '.join(command.argv)} exited {code}:\n{output}")
    return time.perf_counter() - started


def timed_passes(plan, work: Path, seconds: float, deadline: float):
    """Run the timed commands pass after pass; keep the first pass's outputs and
    the digests of the others."""
    import checks
    import workloads

    per_command: list[list] = []
    later_digests, probes = [], []
    started = time.perf_counter()
    n = 0
    while n < MIN_PASSES or (time.perf_counter() - started < seconds and n < MAX_PASSES):
        if n >= MIN_PASSES and time.perf_counter() > deadline:
            break
        out = work / f"pass{n}"
        samples = execute_subprocess(plan.timed(out, workloads.sweep_workers()), work / "proc",
                                     probes)
        for k, sample in enumerate(samples):
            if k == len(per_command):
                per_command.append([])
            per_command[k].append(sample)
        if n:
            later_digests.append(checks.digests(out))
            shutil.rmtree(out)
        n += 1
    return per_command, later_digests, probes


def end_to_end(plan, per_command, events: dict[str, int], probes: list[float]):
    """End-to-end metrics from per-command medians, host-speed scaled (see
    ``measure.PROBE_REFERENCE_S``); also the unscaled values."""
    import measure

    commands = plan.timed(Path("."), 1)
    total_events = sum(events[p] for c in commands for p in c.points)
    passes = len(per_command[0])
    raw = {
        "wall_s": sum(median([s.wall_s for s in samples]) for samples in per_command),
        "kernel_s": sum(median([s.kernel_s for s in samples]) for samples in per_command),
        "setup_s": median([s.setup_s for samples in per_command for s in samples]),
        "cpu_s": sum(median([s.cpu_s for s in samples]) for samples in per_command),
        "probe_s": median(probes),
    }
    speed = measure.PROBE_REFERENCE_S / raw["probe_s"]
    values = {
        "wall_s": raw["wall_s"] * speed,
        "sim_events_per_s": total_events / (raw["kernel_s"] * speed),
        "setup_s": raw["setup_s"] * speed,
        "peak_rss_mb": median([max(samples[i].maxrss_mb for samples in per_command)
                               for i in range(passes)]),
        "cpu_s": raw["cpu_s"] * speed,
    }
    counts = {name: passes for name in values}
    counts["setup_s"] = passes * len(per_command)
    return values, counts, raw


def traced_passes(plan, work: Path, seconds: float, deadline: float, spans_path: Path):
    """Traced in-process passes, each between two untraced ones; per-layer
    metrics of each traced pass.

    The traced pass runs the reference commands and then the timed ones. The
    tracing overhead is the traced timed commands' wall time minus the
    faster of the untraced passes around them, which are warm like it.
    """
    import checks
    import measure
    import provsim.cli  # noqa: F401  (imported before any pass is timed)
    from tracer import Tracer

    import_s = measure.import_time()
    results, later_digests = [], []
    started = time.perf_counter()
    for n in range(MAX_PASSES):
        began = time.perf_counter()
        before_dir, ref_dir, traced_dir, after_dir = (
            work / f"{kind}{n}" for kind in ("pass", "ref", "traced", "after"))
        before = execute_inprocess(plan.timed(before_dir, 1))
        tracer = Tracer()
        tracer.install()
        try:
            reference = plan.reference(ref_dir)
            execute_inprocess(reference, tracer)
            timed = plan.timed(traced_dir, 1)
            traced = execute_inprocess(timed, tracer)
        finally:
            tracer.uninstall()
        after = execute_inprocess(plan.timed(after_dir, 1))
        logs = [p for d in (ref_dir, traced_dir) if d.is_dir() for p in d.glob("*.events.jsonl")]
        events = checks.event_counts(plan, traced_dir, ref_dir)
        layer = tracer.layer_metrics(sum(events[p] for c in reference + timed for p in c.points))
        layer["cli.import_s"] = import_s
        layer["cli.event_log_bytes"] = sum(p.stat().st_size for p in logs)
        layer["tracing.overhead_s"] = traced - min(before, after)
        results.append(layer)
        if n == 0:
            tracer.write(spans_path)
        else:
            later_digests.append(checks.digests(before_dir))
            shutil.rmtree(before_dir)
            shutil.rmtree(ref_dir, ignore_errors=True)
        for directory in (traced_dir, after_dir):
            later_digests.append(checks.digests(directory))
            shutil.rmtree(directory)
        now = time.perf_counter()
        if now + (now - began) > min(started + seconds, deadline):
            break
    return results, later_digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["long", "congested", "sweep"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the trace generator's SEED)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a provsim checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import inputs
    import measure
    import workloads

    began = time.perf_counter()
    deadline = began + PASS_BUDGET_S
    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    spec = json.loads(BENCHMARK.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    info = {"workload": args.workload, "seed": seed, "trace": args.trace,
            "start": measure.environment()}
    work = HERE / ".work" / f"{args.workload}-{seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = workloads.prepare(args.workload, seed, work / "inputs")
        verdict = checks.Checks()
        checks.check_generator(verdict, work)
        if args.trace:
            layers, later = traced_passes(plan, work, args.seconds, deadline,
                                          HERE / ".traces" / f"{args.workload}-{seed}.spans.jsonl")
            ref = work / "ref0"
            for name in layers[0]:
                if not any(m["name"] == name and m["unit"] in TIME_UNITS for m in wanted):
                    verdict.check(all(r[name] == layers[0][name] for r in layers),
                                  f"per-layer count {name} differs between traced runs")
            values = {name: median([r[name] for r in layers]) for name in layers[0]}
            counts = {name: len(layers) for name in values}
        else:
            ref = work / "ref"
            execute_subprocess(plan.reference(ref), work / "proc")
            per_command, later, probes = timed_passes(plan, work, args.seconds, deadline)
            events = checks.event_counts(plan, work / "pass0", ref)
            values, counts, info["unscaled"] = end_to_end(plan, per_command, events, probes)
        checks.verify(verdict, plan, work / "pass0", later, ref)
        if plan.check_shipped:
            checks.check_shipped(verdict, lambda cmds: execute_subprocess(cmds, work / "proc"),
                                 work / "shipped")
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise CommandFailed(f"metrics not measured: {missing}")
        info.update(end=measure.environment(), samples=counts,
                    error_rate=verdict.failed / verdict.attempted,
                    failures=verdict.failures, elapsed_s=time.perf_counter() - began)
        result = {
            "correct": verdict.failed == 0,
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }
    except CommandFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
