"""The shipped synthetic scenarios reproduce their recorded output digests.

Every `scenarios/synthetic/*.json` runs through the CLI with `--event-log`;
the SHA-256 of each report and event log must equal the digest recorded in
`perfbench/golden.json` under "shipped". Regenerate that file only for a
change meant to alter provsim's outputs (`python3 perfbench/make_golden.py`).
"""

import hashlib
import json
from pathlib import Path

import pytest

from provsim.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "scenarios" / "synthetic").glob("*.json"))
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())["shipped"]


def test_every_shipped_scenario_has_digests():
    stems = {name.split(".", 1)[0] for name in GOLDEN}
    assert stems == {path.stem for path in SHIPPED}


@pytest.mark.parametrize("scenario", SHIPPED, ids=lambda p: p.stem)
def test_outputs_match_golden_digests(scenario, tmp_path, capsys):
    code = main(["run", str(scenario), "--event-log", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK, capsys.readouterr().err
    actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    expected = {name: digest for name, digest in GOLDEN.items()
                if name.split(".", 1)[0] == scenario.stem}
    assert actual == expected
