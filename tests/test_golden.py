"""The shipped scenarios reproduce their recorded output digests.

Every `scenarios/synthetic/*.json` runs through the CLI with `--event-log`;
the SHA-256 of each report and event log must equal the digest recorded in
`perfbench/golden.json` under "shipped". Regenerate that file only for a
change meant to alter provsim's outputs (`python3 perfbench/make_golden.py`).

The archive-shaped scenarios (`scenarios/archive_shaped/*.json`: 8 CPUs per
node, a window with a start offset, allocated counts missing) are checked the
same way against `tests/archive_shaped_golden.json`. They stay out of
`scenarios/synthetic/`, whose set the benchmark's correctness check compares
with its own fixed list.
"""

import hashlib
import json
from pathlib import Path

import pytest

from provsim.cli import EXIT_OK, main
from provsim.scenario import load_scenario
from provsim.trace import parse_swf

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "scenarios" / "synthetic").glob("*.json"))
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())["shipped"]
ARCHIVE_SHAPED = sorted((ROOT / "scenarios" / "archive_shaped").glob("*.json"))
ARCHIVE_SHAPED_GOLDEN = json.loads((ROOT / "tests" / "archive_shaped_golden.json").read_text())


def stems(golden):
    return {name.split(".", 1)[0] for name in golden}


def assert_digests(scenario, golden, tmp_path, capsys):
    """Run ``scenario`` with its event log; every output file's digest is in ``golden``."""
    code = main(["run", str(scenario), "--event-log", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK, capsys.readouterr().err
    actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    expected = {name: digest for name, digest in golden.items()
                if name.split(".", 1)[0] == scenario.stem}
    assert actual == expected


def test_every_shipped_scenario_has_digests():
    assert stems(GOLDEN) == {path.stem for path in SHIPPED}
    assert stems(ARCHIVE_SHAPED_GOLDEN) == {path.stem for path in ARCHIVE_SHAPED}


@pytest.mark.parametrize("scenario", SHIPPED, ids=lambda p: p.stem)
def test_outputs_match_golden_digests(scenario, tmp_path, capsys):
    assert_digests(scenario, GOLDEN, tmp_path, capsys)


@pytest.mark.parametrize("scenario", ARCHIVE_SHAPED, ids=lambda p: p.stem)
def test_archive_shaped_outputs_match_golden_digests(scenario, tmp_path, capsys):
    assert_digests(scenario, ARCHIVE_SHAPED_GOLDEN, tmp_path, capsys)


def test_archive_shaped_scenarios_take_the_archive_paths():
    """Each one normalizes 8-CPU sizes, cuts a window with jobs before its start, and
    reads jobs whose allocated count is missing, so that the requested one is used."""
    for path in ARCHIVE_SHAPED:
        scenario = load_scenario(path)
        assert scenario.cpus_per_node == 8 and scenario.window_start > 0
        text = (path.parent / scenario.pbj_trace).read_text()
        jobs = parse_swf(text).jobs
        assert all(job.size % 8 == 0 for job in jobs)
        assert min(job.submit_time for job in jobs) < scenario.window_start
        assert any(line.split()[4] == "-1" for line in text.splitlines() if line[:1] != ";")
