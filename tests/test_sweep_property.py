"""Property tests of `provsim sweep --axis ... --values ...`.

Generated value lists for every axis (B, U, V, G, L and tuple) drive
`cli.main(["sweep", ...])` on a tiny scenario, with one worker and with two.
The values are in range, of the wrong type, out of range, nan or inf, empty,
repeated, or one value spelled two ways. Every list either runs (exit 0) or
is rejected (exit 2 or 3), never an internal error (exit 1) or a traceback,
and leaves no child process behind; an accepted list, run again with the
other number of workers, writes the same CSV bytes.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from provsim.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, main

TINY_SWF = "\n".join([
    "1 0 -1 40 2 -1 -1 2 -1 -1 1 1 1 1 1 1 -1 -1",
    "2 30 -1 60 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1",
    "3 100 -1 30 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1",
])
TINY_WS = "time,demand\n0,1\n200,3\n400,2\n"
BASE = {"pbj_trace": "jobs.swf", "ws_trace": "demand.csv",
        "window": {"start_offset": 0, "duration": 600},
        "params": "B4/U1.2/V0.2/G0.5/L5", "target_peaks": {"pbj": 4, "ws": 3}}
REGIMES = {"FLB_NUB": {}, "EC2RS": {}, "DCS": {}, "FB": {"config_size": 8}}

# Values each axis accepts with the base's other parameters (V=0.2 < U=1.2).
IN_RANGE = {
    "B": st.integers(0, 64).map(str),
    "U": st.floats(1, 3).map(repr),
    "V": st.floats(0.05, 1.1).map(repr),
    "G": st.floats(0.05, 0.95).map(repr),
    "L": st.one_of(st.integers(1, 120).map(str), st.sampled_from(["0.5", "1.5", "0.1"])),
    "tuple": st.tuples(st.integers(1, 64), st.integers(1, 64)).map("{0[0]}:{0[1]}".format),
}
# Wrong in type, out of range, nan or inf, empty or oddly written, for any axis.
EDGE = st.sampled_from([
    "", " ", "abc", "0", "-1", "0.5", "1", "1.0", "1.2", "4.7", "0.999", "1e3", "1e-9",
    "nan", "-nan", "inf", "-inf", "Infinity", "True", "true", "None", "null", "1/2",
    "0x10", "1_0", "٣", "--5", str(2**53 + 1), str(2**63 - 1), str(2**63), "9" * 40,
    "0.016666666666666666", ":", "4:", ":4", "4:3", "0:0", "-1:4", "4:-1", "nan:4",
    "4:inf", "4.5:3", "4:3:2", "4 : 3", f"{2**63}:1", f"{2**62}:{2**62}", "{\"B\": 4}",
    "1e15", "1e300", "1e-300",
])
# One value spelled another way.
RESPELL = st.sampled_from(["{}", "+{}", " {} ", "{}0", "0{}", "{}e0", "{}.0"])


def values_for(axis):
    good = IN_RANGE[axis]
    respelled = st.tuples(good, RESPELL).map(lambda pair: [pair[0], pair[1].format(pair[0])])
    token = st.one_of(good.map(lambda v: [v]), good.map(lambda v: [v, v]), respelled,
                      EDGE.map(lambda v: [v]))
    return st.lists(token, max_size=3).map(lambda groups: ",".join(sum(groups, [])))


CASES = st.sampled_from(sorted(IN_RANGE)).flatmap(
    lambda axis: st.tuples(st.just(axis), values_for(axis)))


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    """A tiny base scenario file per regime, with its traces."""
    root = tmp_path_factory.mktemp("sweep_property")
    (root / "jobs.swf").write_text(TINY_SWF)
    (root / "demand.csv").write_text(TINY_WS)
    paths = {}
    for regime, fields in REGIMES.items():
        paths[regime] = root / f"{regime.lower()}.json"
        doc = {"name": regime.lower(), "regime": regime, **BASE, **fields}
        paths[regime].write_text(json.dumps(doc))
    return paths


def sweep(path, axis, values, workers, out_dir):
    """``main(["sweep", ...])`` as if on two CPUs: (exit code, stderr)."""
    err = io.StringIO()
    with mock.patch.object(os, "cpu_count", lambda: 2), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["sweep", str(path), "--axis", axis, f"--values={values}",
                     "--workers", str(workers), "--output-dir", str(out_dir)])
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)
    return code, err.getvalue()


@settings(max_examples=40)
@given(case=CASES, regime=st.sampled_from(sorted(REGIMES)), workers=st.sampled_from([1, 2]))
def test_sweep_values_exit_ok_or_rejected(scenarios, case, regime, workers):
    axis, values = case
    with tempfile.TemporaryDirectory() as scratch:
        first, second = Path(scratch, "first"), Path(scratch, "second")
        code, err = sweep(scenarios[regime], axis, values, workers, first)
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_INFEASIBLE), (code, err)
        assert "Traceback" not in err
        event(f"exit {code}")
        if code == EXIT_OK:
            assert sweep(scenarios[regime], axis, values, 3 - workers, second) == (EXIT_OK, "")
            name = f"{regime.lower()}.sweep_{axis}.csv"
            assert (first / name).read_bytes() == (second / name).read_bytes()
        else:
            assert not first.exists()
