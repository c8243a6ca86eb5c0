"""README's promises about running provsim, run as tests: its library
example works on the shipped traces, its table of scenario fields is the
code's, a run writes the same bytes under any hash seed, a sweep writes
the same bytes with forked workers, from a fresh interpreter, as with one,
and the property tests draw as the one Hypothesis profile says.
"""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from provsim.cli import main
from provsim.policies import parse_params
from provsim.scenario import FIELDS, REQUIRED

ROOT = Path(__file__).resolve().parent.parent
TRACES = ROOT / "traces"
FLB_BASELINE = ROOT / "scenarios" / "synthetic" / "synthetic_flb_baseline.json"
FB_152 = ROOT / "scenarios" / "synthetic" / "synthetic_fb_152.json"
# The command line as if on two CPUs, so that two workers fork on any host.
TWO_CPU_MAIN = ("import os, sys; os.cpu_count = lambda: 2; "
                "from provsim.cli import main; sys.exit(main(sys.argv[1:]))")


def test_readme_library_example_runs_on_shipped_traces():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    code = (block.replace('"jobs.swf"', repr(str(TRACES / "synthetic_pbj.swf")))
            .replace('"demand.csv"', repr(str(TRACES / "synthetic_ws_demand.csv"))))
    assert code.count(str(TRACES)) == 2
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), namespace)
    result = namespace["result"]
    assert out.getvalue() == f"{result.metrics}\n"
    assert result.metrics.regime == "FLB_NUB" and result.metrics.completed_jobs > 0


def test_readme_scenario_table_is_the_code_table():
    """Its keys in the code's order, each one's default and flag. A default
    written as code is JSON or a compact params string; plain words mean none."""
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| key | type | default | ad hoc flag |\n|---|---|---|---|\n")[1]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.split("\n\n")[0].splitlines()]
    first_code = re.compile(r"`([^`]*)`")

    def code(text):
        match = first_code.match(text)
        return match[1] if match else None

    def default(text):
        if text == "required":
            return REQUIRED
        if code(text) is None:
            return None
        return parse_params(code(text)) if code(text)[0] == "B" else json.loads(code(text))

    assert [(code(key), default(text), code(flag)) for key, _, text, flag in rows] == [
        (key, default, flag) for key, (_, _, default, flag) in FIELDS.items()]


def _env(**extra) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_recorded_run_writes_the_same_bytes_under_two_hash_seeds(tmp_path):
    # Both runs at once: each takes about 0.3 s, mostly start-up.
    runs = {seed: subprocess.Popen(
        [sys.executable, "-m", "provsim.cli", "run", str(FB_152), "--event-log",
         "--output-dir", str(tmp_path / seed)],
        env=_env(PYTHONHASHSEED=seed), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True) for seed in ("0", "12345")}
    for proc in runs.values():
        assert proc.wait() == 0, proc.stderr.read()
        proc.stderr.close()
    for suffix in ("report.json", "report.csv", "events.jsonl"):
        name = f"{FB_152.stem}.{suffix}"
        assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "12345" / name).read_bytes()


def test_sweep_with_forked_workers_writes_the_serial_bytes(tmp_path):
    sweep = ["sweep", str(FLB_BASELINE), "--axis", "L", "--values", "30,60"]
    assert main([*sweep, "--workers", "1", "--output-dir", str(tmp_path / "serial")]) == 0
    done = subprocess.run(
        [sys.executable, "-c", TWO_CPU_MAIN, *sweep, "--workers", "2",
         "--output-dir", str(tmp_path / "forked")],
        env=_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    name = f"{FLB_BASELINE.stem}.sweep_L.csv"
    assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_property_tests_draw_as_the_profile_says():
    """tests/conftest.py's profile decides how every property test draws: the
    same examples at every run, with no deadline and no example database, and
    its child "explicit" runs the @example inputs only. Elsewhere in tests/, a
    `settings(...)` call sets nothing but a `max_examples` other than 100."""
    assert settings.default.deadline is None and settings.default.database is None
    assert settings.get_profile("explicit").phases == (Phase.explicit,)
    overrides = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "settings"
        and (node.args or any(kw.arg != "max_examples" or getattr(kw.value, "value", None) == 100
                              for kw in node.keywords))]
    assert overrides == []
    drawn = []

    @given(st.integers())
    def draw(value):
        drawn.append(value)

    draw()  # the explicit profile skips the test here: it draws nothing
    draw()
    assert drawn[:len(drawn) // 2] == drawn[len(drawn) // 2:]
