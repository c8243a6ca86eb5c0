"""Every provsim function the benchmark's tracer wraps still exists and is
still reached.

`perfbench/tracer.py` reports a name it cannot find only as a "not found"
line on stderr, and the per-layer figure built on it then reads 0. The first
test reads the tracer's `SPANS` and `PER_EVENT` lists, so removing or
renaming a traced function fails here instead. The second runs the tracer on
a short run of each regime, so a call path that no longer goes through a
traced function fails too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# Listed by the tracer although provsim no longer has them (ROADMAP item 1).
STALE = {"metrics.consumption_curve", "policies.dcs_allocate", "policies.dcs_ws_demand"}


def traced_names() -> list[str]:
    lists = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text()).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "PER_EVENT")
    }
    return lists["SPANS"] + lists["PER_EVENT"]


def resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    owner = importlib.import_module(f"provsim.{module}")
    for attr in attrs:
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_every_traced_name_resolves():
    names = traced_names()
    assert "simkernel.run" in names and "state.ClusterState.snapshot" in names
    assert [name for name in names if name not in STALE and not resolves(name)] == []


TRACES = Path(__file__).resolve().parent.parent / "traces"
# Regime, its extra flags, and the per-event names each of its runs must call.
REGIME_RUNS = [
    ("DCS", [], ["policies.first_fit_schedule"]),
    ("FB", ["--config-size", "152", "--params", "L60"],
     ["policies.first_fit_schedule", "policies.fb_ws_demand"]),
    ("FLB_NUB", ["--params", "B25/U1.2/V0.2/G0.5/L60"],
     ["policies.first_fit_schedule", "policies.flb_manage_tick"]),
    ("EC2RS", ["--params", "L60"], ["policies.ec2_job_lifecycle"]),
]
# Spans every run enters, and how often: scale_to_peak once for each trace.
SPANS_PER_RUN = {"trace.parse_swf": 1, "trace.window": 1, "trace.scale_to_peak": 2,
                 "scenario.load_traces": 1, "simkernel.run": 1, "metrics.finalize": 1}


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("regime, flags, per_event", REGIME_RUNS,
                         ids=[run[0] for run in REGIME_RUNS])
def test_traced_functions_are_reached(tmp_path, capsys, regime, flags, per_event):
    """A refactor that routes around a traced function makes its per-layer
    figure read 0 while the name still resolves; a one-day run of each
    regime must pass through every span and per-event name it is measured by."""
    from provsim import cli

    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        code = cli.main([
            "run", "--pbj-trace", str(TRACES / "synthetic_pbj.swf"),
            "--ws-trace", str(TRACES / "synthetic_ws_demand.csv"),
            "--regime", regime, "--duration", "86400", "--target-peaks", "128:128",
            *flags, "--output-dir", str(tmp_path),
        ])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK, capsys.readouterr().err
    entered = {name: sum(1 for span in tracer.spans if span[0] == name) for name in SPANS_PER_RUN}
    assert entered == SPANS_PER_RUN
    assert all(tracer.per_event[name][0] > 0 for name in per_event), dict(tracer.per_event)
    if regime == "EC2RS":
        calls = tracer.per_event["policies.ec2_job_lifecycle"][0]
        assert tracer.counts["jobs_started"] == calls
