"""Running ``provsim`` commands: as timed subprocesses, or in-process for tracing."""

from __future__ import annotations

import contextlib
import heapq
import io
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import inputs

SRC = inputs.ROOT / "src"
SHIM = Path(__file__).resolve().parent / "provsim_cmd.py"
COMMAND_TIMEOUT_S = 170


@dataclass
class Sample:
    """Host measurements of one ``provsim`` process and the workers it reaped."""

    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    kernel_s: float      # summed time inside provsim.simkernel.run
    setup_s: float       # process start to the first kernel entry
    output: str


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def run_subprocess(argv: list[str], scratch: Path) -> Sample:
    """Run ``provsim ARGV`` through the kernel-timing entry point."""
    scratch.mkdir(parents=True, exist_ok=True)
    timings, log = scratch / "timings.txt", scratch / "output.txt"
    timings.unlink(missing_ok=True)
    with log.open("w") as out:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(SHIM), str(timings), *argv],
                                stdout=out, stderr=subprocess.STDOUT, env=_env(),
                                cwd=inputs.ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 returns the usage of this process plus the workers it reaped.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    start, kernel, entries = None, 0.0, []
    if timings.exists():
        for line in timings.read_text().splitlines():
            kind, *values = line.split()
            if kind == "start":
                start = float(values[0])
            else:
                entered, left = map(float, values)
                kernel += left - entered
                entries.append(entered)
    setup = min(entries) - start if entries and start is not None else float("nan")
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, kernel, setup, log.read_text())


def run_inprocess(argv: list[str], tracer=None) -> tuple[int, str]:
    """Call ``provsim.cli.main(ARGV)`` in this process; a tracer gets a command span."""
    import provsim.cli

    captured = io.StringIO()
    span = tracer.open(f"cli.{argv[0]}") if tracer is not None else None
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = provsim.cli.main(argv)
    finally:
        if span is not None:
            tracer.close(span)
    return code, captured.getvalue()


def import_time(repeats: int = 5) -> float:
    """Median seconds for a fresh interpreter to import ``provsim.cli``."""
    code = ("import time; t = time.perf_counter(); import provsim.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                                  capture_output=True, text=True, cwd=inputs.ROOT).stdout)
             for _ in range(repeats)]
    return statistics.median(times)


# Host-speed probe: a fixed pure-Python loop of the kinds of work the simulator
# does (heap pushes and pops of tuples, small dicts and lists, str()). On a
# shared 2-core VM the host's speed drifted by tens of percent over minutes;
# over 30-second windows the probe drifted with single-process provsim runs,
# and scaling by it halved the spread of their timings between runs (it does
# not help the two-worker sweep). Timings are therefore reported in seconds at
# the host speed where one probe takes PROBE_REFERENCE_S.
PROBE_REFERENCE_S = 0.1


def host_probe() -> float:
    """Seconds this process takes for the fixed probe loop."""
    started = time.perf_counter()
    heap, table = [], {}
    for i in range(40_000):
        heapq.heappush(heap, (i * 7919 % 1000, i, str(i)))
        table[i % 512] = {"a": i, "b": [i, i + 1]}
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - started


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg": list(os.getloadavg()),
    }
