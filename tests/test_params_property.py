"""Property tests of compact `--params` strings on `provsim run`.

Generated `B…/U…/V…/G…/L…` strings (unknown keys, empty tokens, fractions,
`nan`, `inf`, booleans, 2**63, `U<1`, `V>=U`) drive `cli.main(["run", ...])`
on the shipped synthetic traces. Every input either runs (exit 0) or is
rejected as invalid (exit 2), never an internal error or a traceback; an
accepted input writes byte-identical reports on a second run.
"""

import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from provsim.cli import EXIT_INVALID, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
PBJ = ROOT / "traces" / "synthetic_pbj.swf"
WS = ROOT / "traces" / "synthetic_ws_demand.csv"
# Four hours hold a few jobs (the first arrives at 7533 s) and keep a run
# short even with one-second lease ticks.
DURATION = "14400"

KEYS = st.sampled_from(["B", "U", "V", "G", "L", "b", "u", "X", "Q", " B", "", "BU"])
EDGE_VALUES = ["", "0", "1", "2", "25", "-1", "0.5", "1.2", "0.2", "0.999", "1.0", "1e3",
               "1/2", "3/4", "nan", "-nan", "inf", "-inf", "Infinity", "True", "False",
               "true", str(2**63), str(2**63 - 1), str(-2**63), "1e19", "9" * 40,
               "0.016666666666666666", "1e-9", "1_0", "0x10", " 3 ", "٣", "--5"]
VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.integers(-2**65, 2**65).map(str),
    st.floats(min_value=-4, max_value=4).map(repr),
    st.fractions(min_value=0, max_value=3, max_denominator=7).map(str),
)
# In-range values of each key, so that about half the strings are accepted.
GOOD = st.one_of(st.integers(0, 64).map("B{}".format),
                 st.floats(1, 3).map("U{!r}".format),
                 st.floats(0.05, 1.5).map("V{!r}".format),
                 st.floats(0.05, 0.95).map("G{!r}".format),
                 st.integers(1, 120).map("L{}".format))
EDGE = st.tuples(KEYS, VALUES).map("".join)
TOKENS = st.one_of(GOOD, GOOD, GOOD, EDGE)
COMPACT = st.lists(TOKENS, max_size=5).map("/".join)
REGIMES = st.sampled_from([("FLB_NUB",), ("EC2RS",), ("DCS",), ("FB", "--config-size", "256")])


def run_adhoc(compact, regime, out_dir):
    return main(["run", "--pbj-trace", str(PBJ), "--ws-trace", str(WS),
                 "--regime", *regime, "--duration", DURATION, "--target-peaks", "128:128",
                 f"--params={compact}", "--name", "p", "--output-dir", str(out_dir)])


@settings(derandomize=True, max_examples=12, deadline=None)
@given(compact=COMPACT, regime=REGIMES)
def test_params_string_exits_ok_or_invalid(compact, regime):
    with tempfile.TemporaryDirectory() as scratch:
        first, second = Path(scratch, "first"), Path(scratch, "second")
        code = run_adhoc(compact, regime, first)
        assert code in (EXIT_OK, EXIT_INVALID), compact
        event(f"exit {code}")
        if code == EXIT_OK:
            assert run_adhoc(compact, regime, second) == EXIT_OK
            for name in ("p.report.json", "p.report.csv"):
                assert (first / name).read_bytes() == (second / name).read_bytes()
