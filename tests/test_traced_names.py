"""Every provsim function the benchmark's tracer wraps still exists.

`perfbench/tracer.py` reports a name it cannot find only as a "not found"
line on stderr, and the per-layer figure built on it then reads 0. This test
reads the tracer's `SPANS` and `PER_EVENT` lists, so removing or renaming a
traced function fails here instead.
"""

import ast
import importlib
from pathlib import Path

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
