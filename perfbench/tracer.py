"""In-process tracing of calls into provsim's public functions.

``Tracer.install`` wraps the functions named in ``SPANS`` and ``PER_EVENT``
wherever a ``provsim`` module binds them, and ``uninstall`` puts every
original back. Calls in ``SPANS`` become spans (name, start, end, parent)
kept in memory. Calls in ``PER_EVENT`` happen once or more per simulated
event; keeping one span each would hold millions of records, so their calls
and seconds are summed per name and charged to the innermost open span,
which is what its self time needs. ``agreement`` is off the simulation path
and is not traced.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPANS = [
    "trace.parse_swf",
    "trace.parse_demand_trace",
    "trace.window",
    "trace.normalize_cpus",
    "trace.scale_to_peak",
    "scenario.load_scenario",
    "scenario.load_traces",
    "scenario.run_scenario_obj",
    "simkernel.run",
    "simkernel.write_event_log",
    "metrics.consumption_curve",
    "metrics.finalize",
]
PER_EVENT = [
    "state.ClusterState.snapshot",
    "policies.first_fit_schedule",
    "policies.dcs_allocate",
    "policies.dcs_ws_demand",
    "policies.fb_ws_demand",
    "policies.fb_lease_tick",
    "policies.flb_ws_demand",
    "policies.flb_lease_tick",
    "policies.flb_manage_tick",
    "policies.ec2_job_lifecycle",
]
SHAPING = ("trace.window", "trace.normalize_cpus", "trace.scale_to_peak")
TICKS = ("policies.fb_lease_tick", "policies.flb_lease_tick", "policies.flb_manage_tick")


def _resolve(target: str):
    """(owner object, attribute name) of a dotted name below ``provsim``."""
    module_name, *rest = target.split(".")
    owner = importlib.import_module(f"provsim.{module_name}")
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1]


def _provsim_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "provsim" or n.startswith("provsim."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, per-event seconds]
        self.per_event: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, s]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._queue = {"last_t": 0, "last_len": 0, "weighted": 0, "time": 0, "max": 0}

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for target in SPANS + PER_EVENT:
            try:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                print(f"perfbench: {target} not found, not traced", file=sys.stderr)
                continue
            wrap = self._span_wrapper if target in SPANS else self._per_event_wrapper
            wrapper = wrap(target, original, getattr(self, "_after_" + target.split(".")[-1], None))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in _provsim_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, name, fn, after):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _per_event_wrapper(self, name, fn, after):
        totals = self.per_event[name]
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            started = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - started
            totals[0] += 1
            totals[1] += elapsed
            if stack:
                spans[stack[-1]][4] += elapsed
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- counters taken at the same calls -----------------------------------

    def _after_parse_swf(self, args, result):
        self.counts["jobs_parsed"] += len(result.jobs)

    def _after_first_fit_schedule(self, args, result):
        self.counts["queue_scanned"] += len(args[0])
        self.counts["jobs_started"] += len(result)

    def _after_ec2_job_lifecycle(self, args, result):
        self.counts["jobs_started"] += 1

    def _after_fb_ws_demand(self, args, result):
        self.counts["kills"] += len(result)

    def _after_snapshot(self, args, result):
        state, q = args[0], self._queue
        length = len(state.queue)
        q["weighted"] += q["last_len"] * (state.clock - q["last_t"])
        q["last_t"], q["last_len"] = state.clock, length
        q["max"] = max(q["max"], length)

    def _after_run(self, args, result):
        # Close the time-weighted queue length at the window end; reset for the next run.
        q, duration = self._queue, args[0].window[1]
        q["weighted"] += q["last_len"] * (duration - q["last_t"])
        q["time"] += duration
        q["last_t"] = q["last_len"] = 0

    # -- results -----------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] in names)

    def children(self, index: int) -> list[list]:
        return [s for s in self.spans if s[3] == index]

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        return (span[2] - span[1] - span[4]
                - sum(c[2] - c[1] for c in self.children(index)))

    def layer_metrics(self, events: int) -> dict[str, float]:
        """Per-layer figures of everything traced so far; ``events`` is the
        number of simulated events of the commands traced."""
        spans = self.spans
        run_spans = [i for i, s in enumerate(spans) if s[0] == "simkernel.run"]
        commands = [i for i, s in enumerate(spans) if s[0].startswith("cli.")]
        per = self.per_event
        write_reports = overhead = 0.0
        sweep_points = 0
        for i in commands:
            start, end = spans[i][1], spans[i][2]
            kids = self.children(i)
            points = [c for c in kids if c[0] == "scenario.run_scenario_obj"]
            logs = [c for c in kids if c[0] == "simkernel.write_event_log"]
            overhead += end - start - sum(c[2] - c[1] for c in points + logs)
            if spans[i][0] == "cli.sweep":
                sweep_points += len(points)
            if points:
                # After the last point run: reports written, results released.
                tail_start = max(c[2] for c in points)
                write_reports += end - tail_start - sum(
                    c[2] - c[1] for c in logs if c[1] >= tail_start)
        q = self._queue
        return {
            "trace.parse_swf_s": self.total("trace.parse_swf"),
            "trace.jobs_parsed": self.counts["jobs_parsed"],
            "trace.parse_demand_s": self.total("trace.parse_demand_trace"),
            "trace.shape_s": self.total(*SHAPING),
            "scenario.load_traces_calls": sum(1 for s in spans if s[0] == "scenario.load_traces"),
            "scenario.load_traces_s": self.total("scenario.load_traces"),
            "simkernel.run_s": self.total("simkernel.run"),
            "simkernel.events": events,
            "simkernel.self_us_per_event":
                sum(self.self_time(i) for i in run_spans) / max(events, 1) * 1e6,
            "state.snapshot_calls": per["state.ClusterState.snapshot"][0],
            "state.snapshot_s": per["state.ClusterState.snapshot"][1],
            "state.queue_len_max": q["max"],
            "state.queue_len_mean": q["weighted"] / q["time"] if q["time"] else 0.0,
            "policies.first_fit_calls": per["policies.first_fit_schedule"][0],
            "policies.first_fit_s": per["policies.first_fit_schedule"][1],
            "policies.first_fit_queue_scanned": self.counts["queue_scanned"],
            "policies.jobs_started": self.counts["jobs_started"],
            "policies.fb_ws_demand_calls": per["policies.fb_ws_demand"][0],
            "policies.kills": self.counts["kills"],
            "policies.flb_manage_tick_calls": per["policies.flb_manage_tick"][0],
            "policies.tick_s": sum(per[name][1] for name in TICKS),
            "metrics.consumption_curve_s": self.total("metrics.consumption_curve"),
            "metrics.finalize_s": self.total("metrics.finalize"),
            "cli.write_reports_s": write_reports,
            "cli.write_event_log_s": self.total("simkernel.write_event_log"),
            "cli.sweep_points": sweep_points,
            "cli.overhead_s": overhead,
        }

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line of per-event call totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as stream:
            for name, start, end, parent, per_event_s in self.spans:
                stream.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "per_event_s": per_event_s}) + "\n")
            stream.write(json.dumps({"per_event": dict(self.per_event)}) + "\n")
