import gc
import json
import os
import re
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from provsim import cli
from provsim.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, main
from provsim.errors import KernelError, ScenarioError
from provsim.scenario import apply_axis, load_scenario
from provsim.trace import JobTrace, parse_demand_trace, parse_swf

TINY_SWF = "\n".join(
    [
        "; tiny trace",
        "1 0 -1 40 2 -1 -1 2 -1 -1 1 1 1 1 1 1 -1 -1",
        "2 30 -1 60 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1",
        "3 100 -1 30 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1",
    ]
)
TINY_WS = "time,demand\n0,1\n200,3\n400,2\n"
TINY_PEAKS = (parse_swf(TINY_SWF).peak_demand, parse_demand_trace(TINY_WS).peak_demand)

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").rglob("*.json"))

AGREEMENT_XML = """<RE_agreement>
<relationship="affiliated"></relationship>
<type="web_services"></type>
<coordinated_RE="Yes"></coordinated_RE>
<granularity="node"></granularity>
<resource_coordination_model="FLB_NUB"></resource_coordination_model>
<lower_bound_size="13"></lower_bound_size>
<upper_bound_size=null></upper_bound_size>
<setup_policy="WIPE"></setup_policy>
</RE_agreement>
"""


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "jobs.swf").write_text(TINY_SWF)
    (tmp_path / "demand.csv").write_text(TINY_WS)
    return tmp_path


def write_scenario(workspace, name="tiny", **overrides):
    doc = {
        "name": name,
        "pbj_trace": "jobs.swf",
        "ws_trace": "demand.csv",
        "window": {"start_offset": 0, "duration": 600},
        "regime": "FLB_NUB",
        "params": "B4/U1.2/V0.2/G0.5/L5",
    }
    doc.update(overrides)
    path = workspace / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


class TestRunCommand:
    def test_run_writes_reports(self, workspace, capsys):
        path = write_scenario(workspace)
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_OK
        report = json.loads((workspace / "out" / "tiny.report.json").read_text())
        assert report["completed_jobs"] == 3
        assert report["scenario"] == "tiny"
        csv_text = (workspace / "out" / "tiny.report.csv").read_text()
        assert csv_text.startswith("scenario,regime,")
        assert "tiny,FLB_NUB" in csv_text

    def test_run_twice_byte_identical(self, workspace):
        path = write_scenario(workspace)
        main(["run", str(path), "--output-dir", str(workspace / "a"), "--event-log"])
        main(["run", str(path), "--output-dir", str(workspace / "b"), "--event-log"])
        for name in ("tiny.report.json", "tiny.report.csv", "tiny.events.jsonl"):
            assert (workspace / "a" / name).read_bytes() == (workspace / "b" / name).read_bytes()

    def test_output_dir_env_override(self, workspace, monkeypatch):
        path = write_scenario(workspace)
        monkeypatch.setenv("PROVSIM_OUTPUT_DIR", str(workspace / "env_out"))
        assert main(["run", str(path)]) == EXIT_OK
        assert (workspace / "env_out" / "tiny.report.json").exists()

    def test_scenario_output_dir_relative_to_file(self, workspace, monkeypatch):
        monkeypatch.delenv("PROVSIM_OUTPUT_DIR", raising=False)
        path = write_scenario(workspace, output_dir="results")
        assert main(["run", str(path)]) == EXIT_OK
        assert (workspace / "results" / "tiny.report.json").exists()

    def test_reports_default_to_the_working_directory(self, workspace, monkeypatch):
        monkeypatch.delenv("PROVSIM_OUTPUT_DIR", raising=False)
        (workspace / "cwd").mkdir()
        monkeypatch.chdir(workspace / "cwd")
        assert main(["run", str(write_scenario(workspace))]) == EXIT_OK
        assert (workspace / "cwd" / "tiny.report.json").exists()

    def test_other_provsim_error_exits_one(self, workspace, monkeypatch, capsys):
        def broken_run(*args, **kwargs):
            raise KernelError("time regression")

        monkeypatch.setattr(cli, "run_scenario_obj", broken_run)
        path = write_scenario(workspace)
        assert main(["run", str(path), "--output-dir", str(workspace / "out")]) == EXIT_ERROR
        assert "provsim: error: time regression" in capsys.readouterr().err

    def test_zero_duration_rejected(self, workspace, capsys):
        path = write_scenario(workspace, window={"start_offset": 0, "duration": 0})
        assert main(["run", str(path)]) == EXIT_INVALID
        assert "invalid input" in capsys.readouterr().err

    def test_missing_scenario_file(self, workspace, capsys):
        assert main(["run", str(workspace / "nope.json")]) == EXIT_INVALID

    def test_missing_trace_file(self, workspace):
        path = write_scenario(workspace, pbj_trace="absent.swf")
        assert main(["run", str(path)]) == EXIT_INVALID

    def test_infeasible_scenario_exit_code(self, workspace):
        # FB with demand peak above the configuration size.
        path = write_scenario(
            workspace, regime="FB", config_size=2, params={"L_minutes": 1}
        )
        assert main(["run", str(path)]) == EXIT_INFEASIBLE

    def test_ec2_rejects_config_size(self, workspace):
        # FLB_NUB draws from an unbounded provider too.
        for regime in ("EC2RS", "FLB_NUB"):
            path = write_scenario(workspace, regime=regime, config_size=16)
            assert main(["run", str(path)]) == EXIT_INVALID

    def test_adhoc_flags_run(self, workspace):
        code = main([
            "run",
            "--pbj-trace", str(workspace / "jobs.swf"),
            "--ws-trace", str(workspace / "demand.csv"),
            "--regime", "EC2RS", "--duration", "600",
            "--params", "L1", "--name", "flags",
            "--output-dir", str(workspace / "adhoc"),
        ])
        assert code == EXIT_OK
        report = json.loads((workspace / "adhoc" / "flags.report.json").read_text())
        assert report["regime"] == "EC2RS"
        assert report["completed_jobs"] == 3

    def test_adhoc_duration_beyond_range_rejected(self, workspace, capsys):
        code = main([
            "run",
            "--pbj-trace", str(workspace / "jobs.swf"),
            "--ws-trace", str(workspace / "demand.csv"),
            "--regime", "FLB_NUB", "--duration", "1e30", "--params", "B4/L5",
            "--output-dir", str(workspace / "adhoc"),
        ])
        assert code == EXIT_INVALID
        assert "window.duration" in capsys.readouterr().err

    @pytest.mark.parametrize("regime, overrides", [("DCS", {}), ("FB", {"config_size": 8}),
                                                   ("EC2RS", {})])
    def test_pbj_floor_only_for_flb_nub(self, workspace, capsys, regime, overrides):
        path = write_scenario(workspace, regime=regime, pbj_floor=1, **overrides)
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        assert "pbj_floor" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--window-start", "-5000", "window.start_offset"),
        ("--window-start", "1e400", "window.start_offset"),
        ("--cpus-per-node", "1e400", "cpus_per_node"),
        ("--name", "../escaped", "name"),
        ("--name", "a,b", "scenario field name='a,b'"),
    ])
    def test_adhoc_flag_checked_as_its_field(self, workspace, capsys, flag, value, field):
        code = main([
            "run",
            "--pbj-trace", str(workspace / "jobs.swf"),
            "--ws-trace", str(workspace / "demand.csv"),
            "--regime", "FLB_NUB", "--duration", "600", "--params", "B4/L5",
            flag, value, "--output-dir", str(workspace / "adhoc"),
        ])
        assert code == EXIT_INVALID
        assert field in capsys.readouterr().err
        assert not (workspace / "adhoc").exists()

    @pytest.mark.parametrize("below_file", [False, True], ids=["is-file", "below-file"])
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "B", "--values", "4"]])
    def test_unusable_output_dir_exits_invalid(self, workspace, capsys, command, below_file):
        path = write_scenario(workspace)
        (workspace / "taken").write_text("a file, not a directory\n")
        out_dir = workspace / "taken" / "out" if below_file else workspace / "taken"
        code = main([command[0], str(path), *command[1:], "--output-dir", str(out_dir)])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "invalid input" in err and str(out_dir) in err

    def test_adhoc_flags_need_all_required(self, workspace, capsys):
        code = main(["run", "--pbj-trace", str(workspace / "jobs.swf")])
        assert code == EXIT_INVALID
        assert "ad hoc" in capsys.readouterr().err


# (field the error must name, scenario overrides)
MALFORMED_FIELDS = [
    ("window", {"window": 5}),
    ("window", {"window": "ab"}),
    ("window", {"window": [["duration", 600]]}),
    ("window.duration", {"window": {"start_offset": 0, "duration": 1e30}}),
    ("target_peaks", {"target_peaks": [["pbj", 4], ["ws", 3]]}),
    ("target_peaks.pbj", {"target_peaks": {"pbj": "x", "ws": 2}}),
    ("target_peaks", {"target_peaks": {"pbj": 4}}),
    ("target_peaks.pbj", {"target_peaks": {"pbj": 0, "ws": 2}}),
    ("params.L", {"params": {"L": "abc"}}),
    ("cpus_per_node", {"cpus_per_node": "a"}),
    ("config_size", {"config_size": "x"}),
    ("name", {"name": ["x", 1]}),
    ("name", {"name": {"x": 1}}),
    ("name", {"name": True}),
    ("pbj_trace", {"pbj_trace": ["jobs.swf"]}),
    ("ws_trace", {"ws_trace": {"path": "demand.csv"}}),
    ("scenario field regime", {"regime": ["FB"]}),
    ("output_dir", {"output_dir": False}),
    ("target_peaks.pbj", {"target_peaks": {"pbj": 2**63, "ws": 2}}),
    ("params.B", {"params": {"B": 2**63}}),
    ("config_size", {"regime": "FB", "config_size": 2**63, "params": {"L_minutes": 1}}),
    ("window.start_offset", {"window": {"start_offset": -5000, "duration": 600}}),
    ("unknown scenario field target_peak", {"target_peak": {"pbj": 4, "ws": 2}}),
    ("unknown scenario field window.start", {"window": {"start": 3600, "duration": 600}}),
    ("unknown scenario field target_peaks.wss", {"target_peaks": {"pbj": 4, "ws": 2, "wss": 3}}),
    ("unknown scenario field params.L_minute", {"params": {"L_minute": 30}}),
    ("scenario field name", {"name": "a,b"}),
    ("scenario field name", {"name": 'a"b'}),
    ("scenario field name", {"name": "a\nb"}),
    ("scenario field name", {"name": "a\rb"}),
]

# Scenario names that are not a plain file name in the report directory.
UNUSABLE_NAMES = ["", ".", "..", "a/b", "a\u0000b", "../escaped"]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_shipped_scenario_loads(path):
    # Loading reads no trace, so the archive scenarios load without their traces.
    assert load_scenario(path).name


def modules_loaded_by_import(module):
    """The modules that a fresh interpreter holds after importing ``module``."""
    code = f"import sys, {module}; print(*sorted(sys.modules))"
    src = str(Path(cli.__file__).resolve().parent.parent)
    # No bytecode written: a run must leave the tree as it found it.
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_cli_import_loads_only_what_run_uses():
    # Every configuration is one provsim process, so each import is paid per
    # command: the record classes are NamedTuples and plain classes, not
    # dataclasses (which load inspect), a sweep forks its own workers (no
    # process pool), and the agreement parser, which only validate uses,
    # loads in that command.
    unused = {"dataclasses", "inspect", "concurrent.futures", "provsim.agreement"}
    loaded = modules_loaded_by_import("provsim.cli")
    assert unused.isdisjoint(loaded), unused & loaded


def test_agreement_import_loads_no_dataclasses():
    # validate pays for the agreement module's imports: its records are
    # NamedTuples too.
    unused = {"dataclasses", "inspect"}
    loaded = modules_loaded_by_import("provsim.agreement")
    assert unused.isdisjoint(loaded), unused & loaded


# provsim's console entry point with os.fork counted and two CPUs, so that
# `--workers 2` forks on any host; it prints the forks and the loaded modules.
COUNTED_FORKS_MAIN = """
import os, sys
real_fork, forked = os.fork, []

def fork():
    pid = real_fork()
    forked.append(pid)
    return pid

os.fork, os.cpu_count = fork, lambda: 2
from provsim.cli import main
code = main(sys.argv[1:])
print(len(forked), *sorted(sys.modules))
sys.exit(code)
"""


def test_sweep_with_two_workers_loads_no_process_pool(workspace):
    # A sweep forks its workers itself: concurrent.futures would pull in
    # multiprocessing and logging, paid by every sweep command.
    path = write_scenario(workspace)
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", COUNTED_FORKS_MAIN, "sweep", str(path), "--axis", "L",
         "--values", "1,2", "--workers", "2", "--output-dir", str(workspace / "out")],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    forks, *modules = done.stdout.splitlines()[-1].split()
    assert forks == "1"
    pool = {"concurrent.futures", "multiprocessing", "logging"}
    assert pool.isdisjoint(modules), pool.intersection(modules)
    assert (workspace / "out" / "tiny.sweep_L.csv").exists()


def fb_152_two_days(tmp_path):
    """The shipped FB 152 scenario cut to two days, as a file in ``tmp_path``."""
    shipped = next(path for path in SCENARIOS if path.stem == "synthetic_fb_152")
    doc = json.loads(shipped.read_text())
    doc["window"]["duration"] = 2 * 86400
    for key in ("pbj_trace", "ws_trace"):
        doc[key] = str((shipped.parent / doc[key]).resolve())
    path = tmp_path / "fb_152_two_days.json"
    path.write_text(json.dumps(doc))
    return path


class TestRunPausesTheCollector:
    """`provsim run` keeps the cyclic collector paused from reading the traces
    until its reports are written, and frees the run's records before it
    resumes, then leaves it as it found it. A recorded run keeps one record
    per event; a pass made while they are held would walk them all, and find
    no cycle."""

    def test_no_pass_walks_the_records(self, tmp_path, monkeypatch, collector_state):
        path = fb_152_two_days(tmp_path)
        window = []  # True once the traces are read, False once the reports are written
        passes = []
        walked_after = []  # objects in the generation of each pass after the reports
        load_traces, write_reports = cli.load_traces, cli._write_reports

        def loading(scenario):
            window.append(True)
            return load_traces(scenario)

        def writing(*args):
            written = write_reports(*args)
            window.append(False)
            return written

        def count(phase, info):
            if phase == "start" and window and window[-1]:
                passes.append(info["generation"])
            elif phase == "start" and window:
                walked_after.append(len(gc.get_objects(info["generation"])))

        monkeypatch.setattr(cli, "load_traces", loading)
        monkeypatch.setattr(cli, "_write_reports", writing)
        gc.collect()  # the young generation then holds only what the command makes
        gc.enable()
        gc.callbacks.append(count)
        try:
            code = main(["run", str(path), "--event-log", "--output-dir", str(tmp_path)])
        finally:
            gc.callbacks.remove(count)
        assert code == EXIT_OK and window == [True, False]
        events = (tmp_path / "synthetic_fb_152.events.jsonl").read_text().count("\n")
        assert events > 1000  # the young generation would fill several times over
        assert passes == []
        # The resumed collector's first pass comes before the command returns.
        assert walked_after and walked_after[0] < events, (walked_after, events)

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_prior_state_comes_back_on_success_and_on_error(self, tmp_path, enabled,
                                                            collector_state):
        path = fb_152_two_days(tmp_path)
        not_a_directory = tmp_path / "file"
        not_a_directory.write_text("")
        (gc.enable if enabled else gc.disable)()
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == EXIT_OK
        assert gc.isenabled() == enabled
        # The reports' directory cannot be made: exit 2 from inside the pause.
        assert main(["run", str(path), "--output-dir", str(not_a_directory)]) == EXIT_INVALID
        assert gc.isenabled() == enabled


class TestMalformedScenario:
    @pytest.mark.parametrize("field, overrides", MALFORMED_FIELDS,
                             ids=[json.dumps(o) for _, o in MALFORMED_FIELDS])
    def test_malformed_field_exits_invalid(self, workspace, capsys, field, overrides):
        path = write_scenario(workspace, **overrides)
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "invalid input" in err and field in err

    @pytest.mark.parametrize("name", UNUSABLE_NAMES)
    def test_unusable_name_exits_invalid(self, workspace, capsys, name):
        doc = json.loads(write_scenario(workspace).read_text())
        path = workspace / "named.json"
        path.write_text(json.dumps({**doc, "name": name}))
        code = main(["run", str(path), "--output-dir", str(workspace / "out" / "deep")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "invalid input" in err and "scenario field name" in err
        assert not (workspace / "out").exists()

    def test_unusable_file_stem_as_name_exits_invalid(self, workspace, capsys):
        # Without a name field the name is the file's stem: "." for "..json".
        doc = json.loads(write_scenario(workspace).read_text())
        path = workspace / "..json"
        path.write_text(json.dumps({key: v for key, v in doc.items() if key != "name"}))
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        assert "scenario name='.'" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    def test_csv_breaking_file_stem_as_name_exits_invalid(self, workspace, capsys):
        # The report CSV is unquoted, so a comma in the name would add a cell.
        doc = json.loads(write_scenario(workspace).read_text())
        path = workspace / "a,b.json"
        path.write_text(json.dumps({key: v for key, v in doc.items() if key != "name"}))
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        assert "scenario name='a,b'" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("params", [{"U": float("nan")}, {"V": float("nan")},
                                        "B4/Unan", "Bnan", "Linf"],
                             ids=["U-NaN", "V-NaN", "Unan", "Bnan", "Linf"])
    def test_non_finite_params_exit_invalid(self, workspace, capsys, params):
        path = write_scenario(workspace, params=params)
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        assert "invalid input" in capsys.readouterr().err


# (field the error must name, scenario overrides): integer fields with a fraction
FRACTIONAL_FIELDS = [
    ("window.duration", {"window": {"start_offset": 0, "duration": 100.9}}),
    ("cpus_per_node", {"cpus_per_node": 1.5}),
    ("target_peaks.pbj", {"target_peaks": {"pbj": 4.5, "ws": 2}}),
    ("params.B", {"params": {"B": 4.7}}),
    ("params.L", {"params": {"L": 90.5}}),
    ("params.L_minutes", {"params": {"L_minutes": 0.01}}),
    ("parameter B", {"params": "B4.7"}),
    ("parameter L", {"params": "L1.01"}),
]


class TestInputErrorsNameTheField:
    """Input errors that exit 2 and name the field; ``edit`` turns the tiny
    scenario's JSON document into the one the command reads."""

    @pytest.mark.parametrize("command, edit, field", [
        (["sweep", "--axis", "B", "--values", ","], dict, "--values"),
        (["run"], lambda doc: {**doc, "params": {"L": 60, "L_minutes": 1}}, "L_minutes"),
        (["run"], lambda doc: {**doc, "params": ["B4"]}, "params"),
        (["run", "--pbj-trace", "jobs.swf"], dict, "--pbj-trace"),
        (["run"], lambda doc: [doc], "scenario document"),
        (["run"], lambda doc: {k: v for k, v in doc.items() if k != "pbj_trace"}, "pbj_trace"),
        (["run"], lambda doc: {**doc, "regime": "FB"}, "config_size"),
        (["run"], lambda doc: {**doc, "regime": "FB", "config_size": 0}, "config_size"),
        (["run"], lambda doc: {**doc, "pbj_floor": -1}, "pbj_floor"),
        (["run"], lambda doc: {**doc, "pbj_floor": 5}, "pbj_floor"),  # B is 4
        (["run"], lambda doc: {**doc, "cpus_per_node": 0}, "cpus_per_node"),
        (["run"], lambda doc: json.dumps(doc)[:-1], "invalid scenario JSON"),
    ], ids=["sweep-empty-values", "params-L-twice", "params-list", "scenario-and-flags",
            "document-not-object", "no-pbj_trace", "FB-no-config_size", "config_size-0",
            "pbj_floor-negative", "pbj_floor-above-B", "cpus_per_node-0", "not-JSON"])
    def test_exits_invalid_naming_the_field(self, workspace, capsys, command, edit, field):
        path = write_scenario(workspace)
        doc = edit(json.loads(path.read_text()))
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main([command[0], str(path), *command[1:], "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (workspace / "out").exists()


class TestThresholdU:
    """Below 1, R > U fires while the queue fits the holdings; U must be >= 1."""

    @pytest.mark.parametrize("u", ["0.5", "0.9"])
    def test_u_below_one_exits_invalid(self, workspace, capsys, u):
        path = write_scenario(workspace, params=f"B4/U{u}/V0.2/G0.5/L5")
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "threshold ratio U" in err and "Traceback" not in err
        assert not (workspace / "out").exists()

    def test_u_of_one_runs(self, workspace):
        path = write_scenario(workspace, params="B4/U1.0/V0.2/G0.5/L5")
        assert main(["run", str(path), "--output-dir", str(workspace / "out")]) == EXIT_OK

    @pytest.mark.parametrize("values", ["0.5", "0.5,1.2"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_u_below_one_exits_invalid(self, workspace, capsys, values, workers):
        path = write_scenario(workspace)
        code = main(["sweep", str(path), "--axis", "U", "--values", values,
                     "--workers", workers, "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "sweep point tiny_U0.5" in err and "threshold ratio U" in err
        assert not (workspace / "out").exists()


@pytest.mark.parametrize("values, status", [("1.2", EXIT_OK), ("1.2,0.5", EXIT_INVALID)],
                         ids=["succeeds", "fails"])
def test_in_process_sweep_lets_go_of_its_traces(workspace, forks, values, status):
    # forks.sweep checks that no provsim.cli global holds a JobTrace afterwards.
    path = write_scenario(workspace)
    code = forks.sweep(["sweep", str(path), "--axis", "U", "--values", values,
                        "--output-dir", str(workspace / "out")])
    assert code == status
    assert forks.children == []


class TestFractionalFields:
    @pytest.mark.parametrize("field, overrides", FRACTIONAL_FIELDS,
                             ids=[json.dumps(o) for _, o in FRACTIONAL_FIELDS])
    def test_fraction_exits_invalid(self, workspace, capsys, field, overrides):
        path = write_scenario(workspace, **overrides)
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "invalid input" in err and field in err and "whole number" in err

    def test_lease_minutes_agree_in_both_forms(self, workspace):
        # 1.5 minutes is 90 whole seconds in the object and the compact form.
        for name, params in (("obj", {"L_minutes": 1.5}), ("compact", "L1.5")):
            path = write_scenario(workspace, name=name, params=params)
            assert main(["run", str(path), "--output-dir", str(workspace / "out")]) == EXIT_OK
            report = json.loads((workspace / "out" / f"{name}.report.json").read_text())
            assert report["L_seconds"] == 90


# A whole number spelled as a JSON value and as text, and the value every form
# reads from it (None: every form exits 2).
SPELLINGS = [(4, "4", 4), (4.0, "4.0", 4), ("4.0", "4.0", 4), ("1e3", "1e3", 1000),
             (4.7, "4.7", None), (True, "true", None), (float("nan"), "nan", None)]

# form -> (arguments given the workspace and one spelling, report column it sets)
SPELLING_FORMS = {
    "compact": (lambda ws, value, text: ["run", str(write_scenario(ws, params=f"B{text}/L5"))],
                "B"),
    "params object": (lambda ws, value, text: [
        "run", str(write_scenario(ws, params={"B": value, "L_minutes": 5}))], "B"),
    "sweep axis": (lambda ws, value, text: [
        "sweep", str(write_scenario(ws)), "--axis", "B", "--values", text], "B"),
    "target_peaks": (lambda ws, value, text: [
        "run", str(write_scenario(ws, target_peaks={"pbj": value, "ws": value}))], "prc_pbj"),
    "--target-peaks": (lambda ws, value, text: [
        "run", "--pbj-trace", str(ws / "jobs.swf"), "--ws-trace", str(ws / "demand.csv"),
        "--regime", "FLB_NUB", "--duration", "600", "--params", "B4/L5",
        "--target-peaks", f"{text}:{text}"], "prc_pbj"),
    "tuple axis": (lambda ws, value, text: [
        "sweep", str(write_scenario(ws)), "--axis", "tuple", "--values", f"{text}:{text}"],
        "prc_pbj"),
}


class TestOneRulePerField:
    """Every form that takes a whole number reads each spelling the same way."""

    @pytest.mark.parametrize("form", SPELLING_FORMS)
    @pytest.mark.parametrize("value, text, expected", SPELLINGS,
                             ids=[json.dumps(value) for value, _, _ in SPELLINGS])
    def test_spelling_reads_the_same_in_every_form(self, workspace, capsys, form, value, text,
                                                   expected):
        arguments, column = SPELLING_FORMS[form]
        out = workspace / "out"
        code = main([*arguments(workspace, value, text), "--output-dir", str(out)])
        if expected is None:
            assert code == EXIT_INVALID
            assert "invalid input" in capsys.readouterr().err
            return
        assert code == EXIT_OK
        [report] = out.glob("*.csv")
        header, row = report.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))[column] == str(expected)


class TestWholeNumbersBeyondFloatPrecision:
    """A compact parameter or sweep value is read as an integer before as a
    float, so it stays exact above 2**53 and is accepted up to 2**63 - 1."""

    @pytest.mark.parametrize("form", ["compact", "sweep axis"])
    @pytest.mark.parametrize("value", [2**53 + 1, 2**63 - 1, 2**63],
                             ids=["2**53+1", "2**63-1", "2**63"])
    def test_integer_text_read_exactly(self, workspace, capsys, form, value):
        arguments, column = SPELLING_FORMS[form]
        out = workspace / "out"
        code = main([*arguments(workspace, value, str(value)), "--output-dir", str(out)])
        if value >= 2**63:
            assert code == EXIT_INVALID
            assert "not below 2**63" in capsys.readouterr().err
            return
        assert code == EXIT_OK
        [report] = out.glob("*.csv")
        header, row = report.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))[column] == str(value)


class TestInputEncoding:
    """Input files that are not UTF-8 exit 2 with a message, not a traceback."""

    @pytest.mark.parametrize("name, category", [("jobs.swf", "trace error"),
                                                ("demand.csv", "trace error"),
                                                ("tiny.json", "invalid input")])
    def test_run_input_not_utf8(self, workspace, capsys, name, category):
        path = write_scenario(workspace)
        target = workspace / name
        target.write_bytes(target.read_bytes() + b"\xff\n")
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert category in err and name in err and "not valid UTF-8" in err

    def test_agreement_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "re.xml"
        path.write_bytes(AGREEMENT_XML.encode() + b"\xff")
        assert main(["validate", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "invalid input" in err and "not valid UTF-8" in err


class TestMalformedSweepValues:
    @pytest.mark.parametrize("axis", ["B", "U", "V", "G", "L"])
    def test_malformed_axis_value_exits_invalid(self, workspace, capsys, axis):
        path = write_scenario(workspace)
        code = main(["sweep", str(path), "--axis", axis, "--values", "4,abc",
                     "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "invalid input" in err and f"sweep axis {axis}" in err and "'abc'" in err
        assert not (workspace / "out").exists()

    def test_lease_axis_takes_fractional_minutes(self, workspace):
        # 1.5 minutes is 90 whole seconds, as for L1.5 and params.L_minutes.
        path = write_scenario(workspace)
        code = main(["sweep", str(path), "--axis", "L", "--values", "1.5",
                     "--output-dir", str(workspace / "out")])
        assert code == EXIT_OK
        header, row = (workspace / "out" / "tiny.sweep_L.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["scenario"] == "tiny_L1.5" and cells["L_seconds"] == "90"

    def test_lease_axis_not_whole_seconds_exits_invalid(self, workspace, capsys):
        path = write_scenario(workspace)
        code = main(["sweep", str(path), "--axis", "L", "--values", "1.01",
                     "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "sweep axis L" in err and "whole number of seconds" in err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("axis", ["U", "V"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_exits_invalid(self, workspace, capsys, axis, value):
        path = write_scenario(workspace)
        code = main(["sweep", str(path), "--axis", axis, "--values", value,
                     "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "sweep error" in err and f"tiny_{axis}{value}" in err
        assert f"threshold ratio {axis}" in err


class TestDemandHeaderRule:
    """The first demand line is a header exactly when its first field is no integer."""

    @pytest.mark.parametrize("text, code, named", [
        ("+0,1\n200,3\n", EXIT_OK, None),
        ("time,demand\n0,1\n", EXIT_OK, None),
        ("when,how_much\n0,1\n", EXIT_INVALID, "demand line 1: unrecognized header"),
        ("0,two\n", EXIT_INVALID, "demand line 1: non-integer field"),
    ], ids=["signed-data", "header", "unknown-header", "non-integer"])
    def test_first_line(self, workspace, capsys, text, code, named):
        (workspace / "demand.csv").write_text(text)
        path = write_scenario(workspace)
        assert main(["run", str(path), "--output-dir", str(workspace / "out")]) == code
        if named:
            assert named in capsys.readouterr().err


class TestTraceErrors:
    @pytest.mark.parametrize("token", ["inf", "-inf", "1e999"])
    def test_infinite_swf_field_exits_invalid(self, workspace, capsys, token):
        fields = TINY_SWF.splitlines()[1].split()
        fields[3] = token
        (workspace / "jobs.swf").write_text(" ".join(fields) + "\n")
        path = write_scenario(workspace)
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "trace error" in err and "line 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("trace, text", [
        ("jobs.swf", "1 0 -1 40 1e307 -1 -1 2 -1 -1 1 1 1 1 1 1 -1 -1\n"),
        ("demand.csv", "time,demand\n0,1\n200," + "1" + "0" * 400 + "\n"),
    ], ids=["swf-size", "demand-sample"])
    def test_field_beyond_range_exits_invalid(self, workspace, capsys, trace, text):
        (workspace / trace).write_text(text)
        path = write_scenario(workspace)
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "trace error" in err and "2**63" in err
        assert ("line 1" if trace == "jobs.swf" else "line 3") in err

    @pytest.mark.parametrize("text, named", [
        ("time,demand\n0,1\n200,3,4\n", "demand line 3: expected 'time,demand'"),
        ("time,demand\n0,1\n-200,3\n", "demand line 3: negative time -200"),
    ], ids=["three-fields", "negative-time"])
    def test_malformed_demand_line_exits_invalid(self, workspace, capsys, text, named):
        (workspace / "demand.csv").write_text(text)
        path = write_scenario(workspace)
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "trace error" in err and named in err and "Traceback" not in err

    def test_second_demand_header_exits_invalid(self, workspace, capsys):
        (workspace / "demand.csv").write_text("time,demand\ntime,demand\n0,5\n")
        path = write_scenario(workspace)
        code = main(["run", str(path), "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "trace error" in err and "demand line 2" in err

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "B", "--values", "4"],
                                         ["sweep", "--axis", "tuple", "--values", "8:4"]])
    def test_zero_peak_demand_with_target_peaks_exits_invalid(self, workspace, capsys, command):
        (workspace / "demand.csv").write_text("time,demand\n0,0\n200,0\n")
        path = write_scenario(workspace, target_peaks={"pbj": 4, "ws": 2})
        code = main([command[0], str(path), *command[1:], "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "demand.csv" in err and "target_peaks.ws" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_trace_error_fails_before_any_point(self, workspace, capsys, monkeypatch,
                                                      forks, workers):
        lines = TINY_SWF.splitlines()
        lines[2] = "2 30 -1 sixty 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1"
        (workspace / "jobs.swf").write_text("\n".join(lines) + "\n")
        runs = []
        monkeypatch.setattr(cli, "run_scenario_obj", lambda *args, **kwargs: runs.append(args))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        path = write_scenario(workspace)
        code = forks.sweep(["sweep", str(path), "--axis", "L", "--values", "1,2,5",
                            "--workers", workers, "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "trace error" in err and "SWF line 3" in err and "Traceback" not in err
        assert runs == [] and forks.children == []
        assert not (workspace / "out").exists()


def holds_a_trace(value) -> bool:
    """Whether a JobTrace is reachable from ``value`` through dicts, lists,
    tuples and sets."""
    stack, seen = [value], set()
    while stack:
        value = stack.pop()
        if isinstance(value, JobTrace):
            return True
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, dict):
            stack.extend(value.items())
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
    return False


class Forks:
    """``os.fork`` and ``os.waitpid`` recorded for one test: ``children`` holds
    the pids forked, in fork order, and ``exits`` the exit code each child
    was reaped with (negative: the signal that ended it)."""

    def __init__(self, monkeypatch):
        self.parent, self.children, self.exits = os.getpid(), [], {}
        fork, waitpid = os.fork, os.waitpid

        def counted_fork():
            pid = fork()
            if pid:
                self.children.append(pid)
            return pid

        def recorded_waitpid(pid, options):
            reaped, status = waitpid(pid, options)
            if reaped:
                self.exits[reaped] = os.waitstatus_to_exitcode(status)
            return reaped, status

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)

    def sweep(self, argv):
        """``main(argv)``; then, also when it raises, no child of this process
        is left, every child forked was reaped by the sweep, and no
        provsim.cli global holds a JobTrace. A child that comes back out of
        ``main`` exits at once with code 99."""
        try:
            return main(argv)
        finally:
            if os.getpid() != self.parent:
                os._exit(99)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert sorted(self.exits) == sorted(self.children)
            assert not holds_a_trace(list(vars(cli).values()))


@pytest.fixture()
def forks(monkeypatch):
    return Forks(monkeypatch)


@pytest.fixture()
def point_runs(monkeypatch, tmp_path):
    """Logs every run_scenario_obj call; the returned function reads the log as
    {pid: [point names, in run order]}. The log is a file, so that a forked
    child's runs are seen too."""
    log = tmp_path / "point_runs.log"
    run_scenario_obj = cli.run_scenario_obj

    def logged(point, *args, **kwargs):
        with log.open("a") as stream:
            stream.write(f"{os.getpid()} {point.name}\n")
        return run_scenario_obj(point, *args, **kwargs)

    def read():
        runs = {}
        for line in log.read_text().splitlines() if log.exists() else []:
            pid, name = line.split(" ", 1)
            runs.setdefault(int(pid), []).append(name)
        return runs

    monkeypatch.setattr(cli, "run_scenario_obj", logged)
    return read


def runs_by_process(forks, point_runs):
    """The points each process ran, this one first, then each child in fork order."""
    runs = point_runs()
    return [runs.get(pid) for pid in [forks.parent, *forks.children]]


ALL_L = ["tiny_L1", "tiny_L2", "tiny_L5"]


class TestSweepWorkers:
    # Three points, so min(workers, 3, CPUs) processes, the parent included;
    # process k runs every N-th point from the k-th. An unknown CPU count
    # (None) means one process.
    @pytest.mark.parametrize("workers, cpus, expected", [
        (2, 4, [["tiny_L1", "tiny_L5"], ["tiny_L2"]]),
        (3, 4, [["tiny_L1"], ["tiny_L2"], ["tiny_L5"]]),
        (1000, 4, [["tiny_L1"], ["tiny_L2"], ["tiny_L5"]]),
        (1, 4, [ALL_L]), (8, 2, [["tiny_L1", "tiny_L5"], ["tiny_L2"]]), (8, 1, [ALL_L]),
        (8, None, [ALL_L]),
    ])
    def test_pool_capped_at_points_and_cpus(self, workspace, forks, point_runs, monkeypatch,
                                            workers, cpus, expected):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        path = write_scenario(workspace)
        code = forks.sweep(["sweep", str(path), "--axis", "L", "--values", "1,2,5",
                            "--workers", str(workers), "--output-dir", str(workspace / "out")])
        assert code == EXIT_OK
        assert runs_by_process(forks, point_runs) == expected
        assert forks.exits == dict.fromkeys(forks.children, 0)

    def test_no_fork_runs_every_point_here(self, workspace, forks, point_runs, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        monkeypatch.delattr(cli.os, "fork")
        path = write_scenario(workspace)
        code = forks.sweep(["sweep", str(path), "--axis", "L", "--values", "1,2,5",
                            "--workers", "3", "--output-dir", str(workspace / "out")])
        assert code == EXIT_OK
        assert runs_by_process(forks, point_runs) == [ALL_L]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_rejected(self, workspace, forks, capsys, workers):
        path = write_scenario(workspace)
        code = forks.sweep(["sweep", str(path), "--axis", "L", "--values", "1,2",
                            "--workers", workers, "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        assert "--workers" in capsys.readouterr().err
        assert forks.children == []
        assert not (workspace / "out").exists()


class TestSweepWorkerFailures:
    """A failing point exits the same way whichever process ran it."""

    @pytest.mark.parametrize("error, workers", [
        (RuntimeError("boom"), "2"), (RuntimeError("boom"), "1"),
    ], ids=["RuntimeError", "RuntimeError-serial"])
    def test_worker_failure_names_the_point(self, workspace, monkeypatch, capsys, forks, error,
                                            workers):
        # tiny_L2 is the child's point with two workers: its error comes back through the pipe.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        run_scenario_obj = cli.run_scenario_obj

        def failing_run(point, *args, **kwargs):
            if point.name == "tiny_L2":
                raise error
            return run_scenario_obj(point, *args, **kwargs)

        monkeypatch.setattr(cli, "run_scenario_obj", failing_run)
        path = write_scenario(workspace)
        code = forks.sweep(["sweep", str(path), "--axis", "L", "--values", "1,2",
                            "--workers", workers, "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == f"provsim: sweep error: sweep point tiny_L2 failed: {type(error).__name__}: {error}\n"
        assert len(forks.children) == int(workers) - 1
        assert forks.exits == dict.fromkeys(forks.children, 0)
        assert not (workspace / "out").exists()

    def test_dead_worker_names_its_point(self, workspace, monkeypatch, capsys, forks):
        """A child killed by a signal while it runs a point fails the sweep at
        that point; the row of the point it finished before still arrived."""
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        run_scenario_obj = cli.run_scenario_obj

        def dying_run(point, *args, **kwargs):
            if point.name == "tiny_L10" and os.getpid() != forks.parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_scenario_obj(point, *args, **kwargs)

        monkeypatch.setattr(cli, "run_scenario_obj", dying_run)
        path = write_scenario(workspace)
        # Two processes: this one runs L1 and L5, the child L2 and then L10.
        code = forks.sweep(["sweep", str(path), "--axis", "L", "--values", "1,2,5,10",
                            "--workers", "2", "--output-dir", str(workspace / "out")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == "provsim: sweep error: sweep point tiny_L10 failed: its worker process died\n"
        assert forks.exits == dict.fromkeys(forks.children, -signal.SIGKILL)
        assert len(forks.children) == 1
        assert not (workspace / "out").exists()

    def test_children_reaped_when_this_process_share_raises(self, workspace, monkeypatch, forks,
                                                            point_runs):
        """An exception that is no Exception (here, out of this process's own
        point) leaves the sweep, but only after every child is reaped."""

        class Interrupted(BaseException):
            pass

        logged = cli.run_scenario_obj

        def interrupted_here(point, *args, **kwargs):
            result = logged(point, *args, **kwargs)
            if os.getpid() == forks.parent:
                raise Interrupted
            return result

        monkeypatch.setattr(cli, "run_scenario_obj", interrupted_here)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        path = write_scenario(workspace)
        with pytest.raises(Interrupted):
            forks.sweep(["sweep", str(path), "--axis", "L", "--values", "1,2,5",
                         "--workers", "3", "--output-dir", str(workspace / "out")])
        assert runs_by_process(forks, point_runs) == [["tiny_L1"], ["tiny_L2"], ["tiny_L5"]]
        assert forks.exits == dict.fromkeys(forks.children, 0)
        assert not (workspace / "out").exists()


class TestSweepCommand:
    def test_single_value_sweep_matches_run(self, workspace):
        path = write_scenario(workspace)
        main(["run", str(path), "--output-dir", str(workspace / "single")])
        main(["sweep", str(path), "--axis", "B", "--values", "4",
              "--output-dir", str(workspace / "swept")])
        run_row = (workspace / "single" / "tiny.report.csv").read_text().splitlines()[1]
        sweep_row = (workspace / "swept" / "tiny.sweep_B.csv").read_text().splitlines()[1]
        # Identical apart from the derived point name.
        assert sweep_row.replace("tiny_B4", "tiny") == run_row

    def test_workers_do_not_change_output(self, workspace, monkeypatch, forks):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        path = write_scenario(workspace)
        for workers in ("1", "2", "3"):
            assert forks.sweep(["sweep", str(path), "--axis", "L", "--values", "1,2,5",
                                "--workers", workers, "--output-dir", str(workspace / workers)]
                               ) == EXIT_OK
        assert len(forks.children) == 0 + 1 + 2
        merged1 = (workspace / "1" / "tiny.sweep_L.csv").read_bytes()
        assert (workspace / "2" / "tiny.sweep_L.csv").read_bytes() == merged1
        assert (workspace / "3" / "tiny.sweep_L.csv").read_bytes() == merged1

    def test_rows_ordered_by_given_values(self, workspace):
        path = write_scenario(workspace)
        main(["sweep", str(path), "--axis", "B", "--values", "8,2,4",
              "--output-dir", str(workspace / "ord")])
        rows = (workspace / "ord" / "tiny.sweep_B.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["tiny_B8", "tiny_B2", "tiny_B4"]

    def test_failing_point_names_it(self, workspace, capsys, monkeypatch, forks, point_runs):
        """Two points fail; the one given first is named, with the same message,
        also when this process fails at the later one and a child at the
        earlier. A process stops at its first failure."""
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        path = write_scenario(workspace)
        errors = []
        for workers in ("1", "2"):
            code = forks.sweep(["sweep", str(path), "--axis", "B", "--values", "4,-1,-2,8",
                                "--workers", workers, "--output-dir", str(workspace / "bad")])
            assert code == EXIT_INVALID
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].endswith("sweep point tiny_B-1 failed: pool size B must be >= 0, got -1\n")
        assert "tiny_B-2" not in errors[0] and "ScenarioError" not in errors[0]
        # One process: 4, then -1 fails. Two: 4, then -2 fails here; -1 fails in the child.
        runs = point_runs()
        assert [runs[forks.parent], runs[forks.children[0]]] == [
            ["tiny_B4", "tiny_B-1", "tiny_B4", "tiny_B-2"], ["tiny_B-1"]]
        assert not (workspace / "bad").exists()

    @pytest.mark.parametrize("workers, pools", [
        ("1", [["tiny_8x4", "tiny_16x8"]]), ("3", [["tiny_8x4"], ["tiny_16x8"]]),
    ])
    def test_repeated_value_runs_once(self, workspace, forks, point_runs, monkeypatch,
                                      workers, pools):
        """A value given twice is simulated once, its row written twice, and
        the processes are capped at the distinct points: ``pools`` lists the
        points each process runs, this one first."""
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        path = write_scenario(workspace)
        code = forks.sweep(["sweep", str(path), "--axis", "tuple", "--values", "8:4,16:8,16:8",
                            "--workers", workers, "--output-dir", str(workspace / "out")])
        assert code == EXIT_OK
        assert runs_by_process(forks, point_runs) == pools
        rows = (workspace / "out" / "tiny.sweep_tuple.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["tiny_8x4", "tiny_16x8", "tiny_16x8"]
        assert rows[1] == rows[2]

    def test_respelled_value_runs_once(self, workspace, monkeypatch):
        """U, V and G points are named by the value read, not its spelling,
        so one value written two ways is one point."""
        runs = []
        run_scenario_obj = cli.run_scenario_obj

        def counted(point, *args, **kwargs):
            runs.append(point.name)
            return run_scenario_obj(point, *args, **kwargs)

        monkeypatch.setattr(cli, "run_scenario_obj", counted)
        path = write_scenario(workspace)
        code = main(["sweep", str(path), "--axis", "U", "--values", "1.2,1.20,2.0",
                     "--output-dir", str(workspace / "out")])
        assert code == EXIT_OK
        assert runs == ["tiny_U1.2", "tiny_U2"]
        rows = (workspace / "out" / "tiny.sweep_U.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["tiny_U1.2", "tiny_U1.2", "tiny_U2"]
        assert rows[0] == rows[1]

    def test_unknown_axis_rejected(self, workspace):
        # The CLI offers only the known axes; apply_axis checks on its own.
        with pytest.raises(ScenarioError, match="unknown sweep axis 'X'"):
            apply_axis(load_scenario(write_scenario(workspace)), "X", "1")

    def test_tuple_axis(self, workspace):
        path = write_scenario(workspace)
        code = main(["sweep", str(path), "--axis", "tuple", "--values", "8:4,16:8",
                     "--output-dir", str(workspace / "tup")])
        assert code == EXIT_OK
        rows = (workspace / "tup" / "tiny.sweep_tuple.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].split(",")[3:5] == ["8", "4"]


    def test_tuple_axis_rederives_dcs_config(self, workspace):
        # DCS's configuration size is the peak tuple's sum: 4+3 in the base, 8+4 at the point.
        path = write_scenario(workspace, regime="DCS", target_peaks={"pbj": 4, "ws": 3},
                              config_size=7)
        code = main(["sweep", str(path), "--axis", "tuple", "--values", "8:4",
                     "--output-dir", str(workspace / "tup")])
        assert code == EXIT_OK
        header, row = (workspace / "tup" / "tiny.sweep_tuple.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["config_size"] == "12"


# A base with every FLB_NUB parameter and a peak tuple, and two values per sweep axis.
BASE_PARAMS = {"B": 4, "U": 1.2, "V": 0.2, "G": 0.5, "L_minutes": 5}
AXIS_VALUES = {"B": "2,8", "U": "1.1,1.5", "V": "0.1,0.4", "G": "0.25,0.75", "L": "1,10",
               "tuple": "8:4,3:16"}


def point_fields(axis, value):
    """The scenario fields that the sweep point at ``value`` on ``axis`` overrides."""
    if axis == "tuple":
        pbj, ws = map(int, value.split(":"))
        return {"target_peaks": {"pbj": pbj, "ws": ws}}
    return {"params": {**BASE_PARAMS, "L_minutes" if axis == "L" else axis: json.loads(value)}}


class TestSweepEqualsRun:
    """Each merged sweep row is the `provsim run` row of its point, on every
    axis, from one process and from two, with and without CPU normalization."""

    @pytest.mark.parametrize("cpus_per_node", [1, 2])
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("axis", AXIS_VALUES)
    def test_every_row_equals_its_run(self, workspace, monkeypatch, forks, axis, workers,
                                      cpus_per_node):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # two points: two processes
        base = {"cpus_per_node": cpus_per_node, "params": BASE_PARAMS,
                "target_peaks": {"pbj": 4, "ws": 3}}
        path = write_scenario(workspace, **base)
        assert forks.sweep(["sweep", str(path), "--axis", axis, "--values", AXIS_VALUES[axis],
                            "--workers", workers, "--output-dir", str(workspace / "swept")]
                           ) == EXIT_OK
        assert len(forks.children) == int(workers) - 1
        rows = (workspace / "swept" / f"tiny.sweep_{axis}.csv").read_text().splitlines()[1:]
        values = AXIS_VALUES[axis].split(",")
        assert len(rows) == len(values)
        for value, row in zip(values, rows):
            point = write_scenario(workspace, name="point", **{**base, **point_fields(axis, value)})
            assert main(["run", str(point), "--output-dir", str(workspace / "run")]) == EXIT_OK
            run_row = (workspace / "run" / "point.report.csv").read_text().splitlines()[1]
            assert row.split(",")[1:] == run_row.split(",")[1:], value


class TestSweepReadsTracesOnce:
    @pytest.mark.parametrize("axis, values, scalings", [("L", "1,2,5", 1), ("tuple", "8:4,16:8", 2)])
    def test_parse_and_scale_counts(self, workspace, monkeypatch, axis, values, scalings):
        """Each trace is parsed once per sweep, and scaled once per distinct peak tuple."""
        from provsim import trace

        calls = Counter()

        def counted(fn):
            def wrapper(*args):
                calls[fn.__name__, type(args[0]).__name__] += 1
                return fn(*args)
            return wrapper

        for name in ("parse_swf", "parse_demand_trace", "scale_to_peak"):
            monkeypatch.setattr(trace, name, counted(getattr(trace, name)))
        path = write_scenario(workspace, target_peaks={"pbj": 4, "ws": 3})
        assert main(["sweep", str(path), "--axis", axis, "--values", values,
                     "--workers", "1", "--output-dir", str(workspace / "out")]) == EXIT_OK
        assert calls == {("parse_swf", "str"): 1, ("parse_demand_trace", "str"): 1,
                         ("scale_to_peak", "JobTrace"): scalings,
                         ("scale_to_peak", "DemandTrace"): scalings}


class TestReportColumns:
    """A report's identification columns are the values the run used, also
    for a DCS scenario without target_peaks: its traces run at their own
    peaks, and its configuration is their sum."""

    EXPECTED = {"config_size": str(sum(TINY_PEAKS)), "prc_pbj": str(TINY_PEAKS[0]),
                "prc_ws": str(TINY_PEAKS[1])}

    def test_unscaled_dcs_run(self, workspace):
        path = write_scenario(workspace, regime="DCS")
        assert main(["run", str(path), "--output-dir", str(workspace / "out")]) == EXIT_OK
        report = json.loads((workspace / "out" / "tiny.report.json").read_text())
        assert {key: str(report[key]) for key in self.EXPECTED} == self.EXPECTED

    def test_unscaled_dcs_sweep_point_matches_run(self, workspace):
        path = write_scenario(workspace, regime="DCS")
        main(["run", str(path), "--output-dir", str(workspace / "single")])
        assert main(["sweep", str(path), "--axis", "B", "--values", "4",
                     "--output-dir", str(workspace / "swept")]) == EXIT_OK
        run_row = (workspace / "single" / "tiny.report.csv").read_text().splitlines()[1]
        header, sweep_row = (workspace / "swept" / "tiny.sweep_B.csv").read_text().splitlines()
        assert sweep_row.replace("tiny_B4", "tiny") == run_row
        cells = dict(zip(header.split(","), sweep_row.split(",")))
        assert {key: cells[key] for key in self.EXPECTED} == self.EXPECTED


class TestValidateCommand:
    def test_valid_agreement(self, tmp_path, capsys):
        path = tmp_path / "re.xml"
        path.write_text(AGREEMENT_XML)
        assert main(["validate", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["model"] == "FLB_NUB"
        assert out["lower_bound"] == 13
        assert out["setup_policy"] == "WIPE"

    def test_invalid_agreement(self, tmp_path, capsys):
        path = tmp_path / "re.xml"
        path.write_text(AGREEMENT_XML.replace("FLB_NUB", "WHATEVER"))
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert "WHATEVER" in capsys.readouterr().err

    # (JSON key, JSON value, XML element, XML value, value read; None: both exit 2)
    @pytest.mark.parametrize("key, value, element, text, expected", [
        ("lower_bound", "abc", "lower_bound_size", "abc", None),
        ("lower_bound", [1], "lower_bound_size", "[1]", None),
        ("lower_bound", float("inf"), "lower_bound_size", "1e999", None),
        ("lower_bound", 8.9, "lower_bound_size", "8.9", None),
        ("lower_bound", 8.0, "lower_bound_size", "8.0", 8),
        ("has_coordinated_re", "no", "coordinated_RE", "no", False),
    ], ids=["abc", "list", "1e999", "8.9", "8.0", "no"])
    def test_json_fields_read_as_in_xml(self, tmp_path, capsys, key, value, element, text,
                                        expected):
        base = {"relationship": "affiliated", "workload_type": "web_services",
                "has_coordinated_re": True, "granularity": "node", "model": "FLB_NUB",
                "lower_bound": 13, "upper_bound": None, "setup_policy": "WIPE"}
        json_path, xml_path = tmp_path / "re.json", tmp_path / "re.xml"
        # json.dumps writes inf as Infinity; 1e999 is what a user would write.
        json_path.write_text(json.dumps({**base, key: value}).replace("Infinity", "1e999"))
        xml_path.write_text(re.sub(f'<{element}="[^"]*">', f'<{element}="{text}">',
                                   AGREEMENT_XML))
        outputs = []
        for path in (json_path, xml_path):
            code = main(["validate", str(path)])
            out, err = capsys.readouterr()
            assert code == (EXIT_INVALID if expected is None else EXIT_OK)
            assert "Traceback" not in err
            outputs.append(out)
        assert outputs[0] == outputs[1]
        if expected is not None:
            assert json.loads(outputs[0])[key] == expected

    # (agreement text, what the error must name)
    @pytest.mark.parametrize("text, named", [
        (AGREEMENT_XML.replace("RE_agreement", "agreement"), "RE_agreement root"),
        (AGREEMENT_XML.replace("</granularity>", "</gran>"), "mismatched element tags"),
        ('{"relationship": "same",', "invalid agreement JSON"),
        (AGREEMENT_XML.replace('<lower_bound_size="13">', "<lower_bound_size=null>"),
         "lower_bound_size"),
        (AGREEMENT_XML.replace("FLB_NUB", "FB"), "FB model requires a defined upper bound"),
        (AGREEMENT_XML.replace('"WIPE"', '""'), "setup policy"),
        (AGREEMENT_XML.replace('<coordinated_RE="Yes">', '<coordinated_RE="maybe">'),
         "coordinated_RE"),
        # Only text that starts with "{" is read as JSON, and such text is an
        # object or invalid JSON; any other document has no RE_agreement root.
        ("[1]", "RE_agreement root"),
    ], ids=["no-root", "mismatched-tags", "invalid-JSON", "null-lower-bound",
            "FB-no-upper-bound", "empty-setup-policy", "coordinated_RE-maybe", "JSON-not-object"])
    def test_agreement_error_exits_invalid(self, tmp_path, capsys, text, named):
        path = tmp_path / "re.txt"
        path.write_text(text)
        assert main(["validate", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "invalid input" in err and named in err and "Traceback" not in err

    def test_json_agreement_accepted(self, tmp_path):
        path = tmp_path / "re.json"
        path.write_text(json.dumps({
            "relationship": "same", "workload_type": "parallel_batch_jobs",
            "granularity": "node", "model": "FB",
            "lower_bound": 8, "upper_bound": 8, "setup_policy": "NOOP",
        }))
        assert main(["validate", str(path)]) == EXIT_OK
