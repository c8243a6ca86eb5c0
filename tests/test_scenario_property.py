"""Property tests of bad scenario documents and ad hoc flags on `provsim run`.

The strategies draw from the scenario's table of fields
(`provsim.scenario.FIELDS`): every key of the table, nested ones included,
and every ad hoc flag it names may be left out or given a value of the wrong
type, out of range, null or empty; each object of the document may get an
unknown key, and `params` a malformed object. A key or flag added to the
table is fuzzed with no edit here. Every input either runs (exit 0) or is
refused as invalid (2) or infeasible (3), never an internal error (1) or a
traceback, within a time limit per run; an accepted input writes the same
report bytes when it is run again.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from provsim.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, main
from provsim.scenario import _OBJECT_PARAMS, FIELDS
from conftest import time_limit
from test_cli import TINY_SWF, TINY_WS

LIMIT_S = 10  # per run; a tiny trace runs in milliseconds
LEFT_OUT = object()
SCALARS = [None, True, False, "", "x", "FB", "4:3", "L5", -1, 0, 1, 2, 8, 1.5, "8", "1e3",
           2**62, 2**63, float("inf"), float("nan")]
VALUES = st.one_of(
    st.sampled_from(SCALARS),
    st.lists(st.sampled_from(SCALARS), max_size=2),
    st.dictionaries(st.sampled_from([*_OBJECT_PARAMS, "start_offset", "duration", "pbj", "ws",
                                     "Q"]),
                    st.sampled_from(SCALARS), max_size=3),
)
# Every key of the table, and one unknown key in the document and each object.
OBJECTS = ["", *(key for key, (attr, *_) in FIELDS.items() if attr is None)]
KEYS = [*FIELDS, *(f"{outer}.unknown" if outer else "unknown" for outer in OBJECTS)]
FLAGS = [flag for *_, flag in FIELDS.values() if flag]
FLAG_TEXTS = ["", "x", "null", "[1]", "-1", "0", "1", "8", "1.5", "1e3", "nan", "inf",
              str(2**62), str(2**63), "4:3", "0:3", "4:", "L5", "B4/L5", "FB", "EC2RS", "a,b"]
# A valid document for each regime on the tiny traces; a run takes milliseconds.
BASES = [
    {"regime": "FLB_NUB", "params": "B4/L5", "pbj_floor": 1},
    {"regime": "FB", "config_size": 8, "params": {"L_minutes": 5}},
    {"regime": "DCS"},
    {"regime": "EC2RS", "params": {"L": 300}},
]


def run(argv):
    """The exit code and stderr of ``provsim`` ``argv``; argparse's exit counts too."""
    err = io.StringIO()
    with time_limit(LIMIT_S), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def reports(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.glob("*.report.*"))}


def assert_runs_or_is_refused(argv_for):
    """Run ``argv_for(out_dir)`` and judge it; rerun an accepted one."""
    with tempfile.TemporaryDirectory() as scratch:
        first, second = Path(scratch, "first"), Path(scratch, "second")
        code, err = run(argv_for(first))
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_INFEASIBLE), err
        assert "Traceback" not in err
        event(f"exit {code}")
        if code == EXIT_OK:
            assert run(argv_for(second))[0] == EXIT_OK
            assert reports(first) == reports(second) != {}


def put(doc, key, value):
    outer, _, inner = key.rpartition(".")
    owner = doc.get(outer) if outer else doc
    if not isinstance(owner, dict):
        return
    if value is LEFT_OUT:
        owner.pop(inner, None)
    else:
        owner[inner] = value


@settings(max_examples=60)
@given(base=st.sampled_from(BASES),
       edits=st.lists(st.tuples(st.sampled_from(KEYS), st.one_of(st.just(LEFT_OUT), VALUES)),
                      min_size=1, max_size=3))
def test_scenario_document_runs_or_exits_invalid(base, edits):
    doc = {"name": "p", "pbj_trace": "jobs.swf", "ws_trace": "demand.csv",
           "window": {"start_offset": 0, "duration": 600},
           "target_peaks": {"pbj": 4, "ws": 3}, **json.loads(json.dumps(base))}
    for key, value in edits:
        put(doc, key, value)
    with tempfile.TemporaryDirectory() as traces:
        Path(traces, "jobs.swf").write_text(TINY_SWF)
        Path(traces, "demand.csv").write_text(TINY_WS)
        path = Path(traces, "p.json")
        path.write_text(json.dumps(doc))
        assert_runs_or_is_refused(lambda out: ["run", str(path), "--output-dir", str(out)])


@settings(max_examples=60)
@given(regime=st.sampled_from(["FLB_NUB", "FB", "DCS", "EC2RS"]),
       edits=st.lists(st.tuples(st.sampled_from([*FLAGS, *(f"{flag}x" for flag in FLAGS)]),
                                st.one_of(st.just(LEFT_OUT), st.sampled_from(FLAG_TEXTS))),
                      min_size=1, max_size=3))
def test_adhoc_flags_run_or_exit_invalid(regime, edits):
    with tempfile.TemporaryDirectory() as traces:
        Path(traces, "jobs.swf").write_text(TINY_SWF)
        Path(traces, "demand.csv").write_text(TINY_WS)
        flags = {"--pbj-trace": str(Path(traces, "jobs.swf")),
                 "--ws-trace": str(Path(traces, "demand.csv")), "--regime": regime,
                 "--duration": "600", "--target-peaks": "4:3", "--name": "p",
                 "--params": "L5" if regime != "FLB_NUB" else "B4/L5"}
        if regime == "FB":
            flags["--config-size"] = "8"
        for flag, text in edits:
            if text is LEFT_OUT:
                flags.pop(flag, None)
            else:
                flags[flag] = text
        argv = [f"{flag}={text}" for flag, text in flags.items()]
        assert_runs_or_is_refused(lambda out: ["run", *argv, "--output-dir", str(out)])
