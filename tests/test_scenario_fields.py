"""The scenario's table of fields, `provsim.scenario.FIELDS`, pinned by what
it does: each key's default, each required key, each ad hoc flag's key, and
the bound on timer firings that a run checks.

The expected values are written out here rather than read from the table, so
that a changed row fails a test.
"""

import json
import time

import pytest

from provsim import simkernel
from provsim.cli import EXIT_INVALID, EXIT_OK, build_parser, main
from provsim.errors import ScenarioError
from provsim.policies import PolicyParams
from provsim.scenario import FIELDS, scenario_from_dict
from conftest import time_limit
from test_cli import write_scenario, workspace  # noqa: F401  (workspace is a fixture)

# A document that gives every key, and the Scenario value each key sets.
FULL = {"name": "full", "pbj_trace": "jobs.swf", "ws_trace": "demand.csv",
        "window": {"start_offset": 3, "duration": 600}, "cpus_per_node": 2,
        "target_peaks": {"pbj": 4, "ws": 3}, "regime": "FLB_NUB", "config_size": None,
        "params": "B4/L5", "pbj_floor": 1, "output_dir": "out"}
# The value a Scenario holds for each optional key left out of FULL.
DEFAULTS = {"name": "scenario", "window.start_offset": 0, "cpus_per_node": 1,
            "target_peaks.pbj": None, "target_peaks.ws": None, "config_size": None,
            "params": PolicyParams(), "pbj_floor": None, "output_dir": None}
ATTRS = {"name": "name", "window.start_offset": "window_start", "cpus_per_node": "cpus_per_node",
         "target_peaks.pbj": "prc_pbj", "target_peaks.ws": "prc_ws",
         "config_size": "config_size", "params": "params", "pbj_floor": "pbj_floor",
         "output_dir": "output_dir"}
REQUIRED_KEYS = ["pbj_trace", "ws_trace", "window.duration", "regime"]
# (flag, its text, the Scenario field it sets, the value read)
FLAGS = [("--name", "named", "name", "named"),
         ("--pbj-trace", "other.swf", "pbj_trace", "other.swf"),
         ("--ws-trace", "other.csv", "ws_trace", "other.csv"),
         ("--window-start", "7", "window_start", 7),
         ("--duration", "900", "window_duration", 900),
         ("--cpus-per-node", "4.0", "cpus_per_node", 4),
         ("--target-peaks", "8:2", "prc_pbj", 8),
         ("--regime", "EC2RS", "regime", "EC2RS"),
         ("--config-size", "1e1", "config_size", 10),
         ("--params", "L7", "params", PolicyParams(L=420))]
ADHOC = ["--pbj-trace", "jobs.swf", "--ws-trace", "demand.csv", "--regime", "FB",
         "--duration", "600", "--config-size", "8"]


def without(doc, key):
    doc = json.loads(json.dumps(doc))
    outer, _, inner = key.rpartition(".")
    (doc[outer] if outer else doc).pop(inner)
    return doc


@pytest.mark.parametrize("key", DEFAULTS)
def test_left_out_key_reads_its_default(key):
    doc = without(FULL, key if key not in ("target_peaks.pbj", "target_peaks.ws")
                  else "target_peaks")
    assert getattr(scenario_from_dict(doc), ATTRS[key]) == DEFAULTS[key]


@pytest.mark.parametrize("key", REQUIRED_KEYS)
@pytest.mark.parametrize("value", ["left out", None])
def test_required_key_is_named_when_missing(key, value):
    doc = without(FULL, key)
    if value is None:
        outer, _, inner = key.rpartition(".")
        (doc[outer] if outer else doc)[inner] = None
    with pytest.raises(ScenarioError, match=f"missing scenario field '{key}'"):
        scenario_from_dict(doc)


def test_table_keys_are_the_documented_ones():
    assert list(FIELDS) == ["name", "pbj_trace", "ws_trace", "window", "window.start_offset",
                            "window.duration", "cpus_per_node", "target_peaks",
                            "target_peaks.pbj", "target_peaks.ws", "regime", "config_size",
                            "params", "pbj_floor", "output_dir"]


@pytest.mark.parametrize("flag, text, attr, value", FLAGS, ids=[f[0] for f in FLAGS])
def test_each_flag_sets_its_field(monkeypatch, flag, text, attr, value):
    class Read(Exception):
        """Raised with the scenario in place of reading its traces."""

    def read(scenario):
        raise Read(scenario)

    monkeypatch.setattr("provsim.cli.load_traces", read)
    args = build_parser().parse_args(["run", *ADHOC, flag, text])
    with pytest.raises(Read) as read_scenario:
        args.func(args)
    assert getattr(read_scenario.value.args[0], attr) == value


@pytest.mark.parametrize("flag", [f[0] for f in FLAGS])
def test_flag_beside_a_scenario_file_is_refused(workspace, capsys, flag):  # noqa: F811
    path = write_scenario(workspace)
    code = main(["run", str(path), flag, "8", "--output-dir", str(workspace / "out")])
    assert code == EXIT_INVALID
    assert f"not both (got {flag})" in capsys.readouterr().err


def test_adhoc_run_names_every_required_flag(capsys):
    assert main(["run", "--regime", "FB"]) == EXIT_INVALID
    assert ("ad hoc runs need --pbj-trace, --ws-trace, --duration and --regime"
            in capsys.readouterr().err)


@pytest.mark.parametrize("regime, extra", [("FB", {"config_size": 8}), ("FLB_NUB", {})])
def test_timer_regime_refuses_a_window_past_the_firing_bound(workspace, capsys,  # noqa: F811
                                                             regime, extra):
    """With window.duration 2**62 the lease timer would fire for ever; the run
    exits 2 at once, naming the window and L."""
    path = write_scenario(workspace, regime=regime, params="L60",
                          window={"start_offset": 0, "duration": 2**62}, **extra)
    started = time.perf_counter()
    with time_limit(2):
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
    assert time.perf_counter() - started < 1.0
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"window.duration={2**62} s over lease unit L=3600 s" in err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("regime", ["DCS", "EC2RS"])
def test_regime_without_timers_runs_any_window(workspace, regime):  # noqa: F811
    path = write_scenario(workspace, regime=regime, params="L60",
                          window={"start_offset": 0, "duration": 2**62})
    assert main(["run", str(path), "--output-dir", str(workspace / "out")]) == EXIT_OK


@pytest.mark.parametrize("duration, code", [(600, EXIT_OK), (899, EXIT_OK), (900, EXIT_INVALID)])
def test_firing_bound_is_duration_over_l(workspace, monkeypatch, capsys,  # noqa: F811
                                         duration, code):
    monkeypatch.setattr(simkernel, "MAX_TIMER_FIRINGS", 2)  # L is 300 s
    path = write_scenario(workspace, window={"start_offset": 0, "duration": duration})
    assert main(["run", str(path), "--output-dir", str(workspace / "out")]) == code
    if code == EXIT_INVALID:
        assert "fires FLB_NUB's timers 3 times, above the 2" in capsys.readouterr().err


def test_sweep_point_past_the_firing_bound_fails_as_a_bad_point(workspace, monkeypatch,  # noqa: F811
                                                                capsys):
    monkeypatch.setattr(simkernel, "MAX_TIMER_FIRINGS", 2)
    path = write_scenario(workspace)
    code = main(["sweep", str(path), "--axis", "L", "--values", "5,1",
                 "--output-dir", str(workspace / "out")])
    assert code == EXIT_INVALID
    assert ("sweep point tiny_L1 failed: window.duration=600 s over lease unit L=60 s"
            in capsys.readouterr().err)
