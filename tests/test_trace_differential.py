"""The trace layer against its reference implementations in tests/oracles.py.

A pair matches when both return equal values, or both raise the same
exception type with the same message. The generated texts mix plain
integers with spellings only the float fallback reads ("1.0", "1e3"), values
at and beyond 2**53 and 2**63, non-ASCII digits, comments, tabs, duplicate
ids and unsorted submit times.
"""

import tempfile
from pathlib import Path

import pytest
from conftest import traces_dir
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    normalize_cpus_reference,
    parse_demand_trace_reference,
    parse_swf_reference,
    peak_reference,
    scale_to_peak_reference,
    window_reference,
)

import provsim.trace
from provsim.cli import EXIT_INVALID, EXIT_OK, main
from provsim.metrics import csv_header, report_to_csv_row, report_to_json
from provsim.policies import parse_params
from provsim.simkernel import run
from provsim.trace import (
    DemandTrace,
    Job,
    JobTrace,
    normalize_cpus,
    parse_demand_trace,
    parse_swf,
    scale_to_peak,
    window,
)

EDGE_TOKENS = [
    "+5", "-0", "007", "1.0", "-1.0", "1.5", "0.9999999999999999", "1e3", "1E3", "2e-1",
    "inf", "-inf", "nan", "1e999", "1_0", "_1", "1__0", "٣", "１２", "²",
    "0x10", "--5", "++5", "abc", "", "-",
    str(2**53 - 1), str(2**53), str(2**53 + 1), str(-(2**53) - 1),
    str(2**63 - 1), str(2**63), str(-(2**63)), str(2**64), "9" * 4400,
]
SEPARATORS = [" ", "  ", "\t", " \t ", "\u3000", "\x0c"]
READ_FIELDS = (0, 1, 3, 4, 7)  # id, submit time, run time, allocated and requested size


def derandomized(examples):
    """Hypothesis settings that draw the same examples at every run."""
    return settings(derandomize=True, deadline=None, max_examples=examples)


def outcome(function, *args):
    """What ``function(*args)`` returns, or the type and message of what it raises."""
    try:
        value = function(*args)
    except Exception as exc:  # compared with the reference's, type and message
        return type(exc), str(exc)
    if isinstance(value, JobTrace):
        assert all(type(job) is Job for job in value.jobs)
    if isinstance(value, (JobTrace, DemandTrace)):
        assert value.peak_demand == peak_reference(value)
    return value


def entries(trace):
    """A trace's jobs or samples tuple."""
    return trace.jobs if isinstance(trace, JobTrace) else trace.samples


EDGES = st.sampled_from(EDGE_TOKENS)
ONE_IN_20 = st.integers(0, 19)


@st.composite
def token(draw, numbers):
    """Mostly a number from ``numbers``, sometimes an edge spelling."""
    return draw(EDGES) if draw(ONE_IN_20) == 0 else str(draw(numbers))


# The read fields' tokens by position, and the other fields' shared token.
FIELD_TOKENS = {0: token(st.integers(1, 30)), 1: token(st.integers(-3, 400)),
                3: token(st.integers(-1, 300)), 4: token(st.integers(-1, 40)),
                7: token(st.integers(-1, 40))}
UNREAD = st.sampled_from(["-1", "0", "7", "x"])
FIELD_COUNTS = st.sampled_from([18] * 8 + [19, 20, 17, 5])
LINE_PADS = st.sampled_from(["", " ", "\t"])
COMMENTS = st.sampled_from([";", "; comment 1 2 3", ";;"])


@st.composite
def swf_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        pad = draw(LINE_PADS)
        if kind == 0:
            lines.append(pad + draw(COMMENTS))
        elif kind == 1:
            lines.append(pad)
        else:
            count = draw(FIELD_COUNTS)
            fields = [draw(UNREAD)] * count
            for position in READ_FIELDS:
                if position < count:
                    fields[position] = draw(FIELD_TOKENS[position])
            lines.append(pad + draw(st.sampled_from(SEPARATORS)).join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


HEADERS = ["time,demand", " Time , DEMAND ", "TIME,demand", "when,how_much", "time,demand,x",
           "+0,4", "0,two", "-5,3", "²,1", "--5,3", "-,-", "1_0,2", "time,", ",demand"]
SAMPLE_TOKENS = token(st.integers(0, 9))
FIELD_PADS = st.sampled_from(["", " ", "\t", "\u2003"])


@st.composite
def demand_text(draw):
    lines = [draw(st.sampled_from(HEADERS))] if draw(st.integers(0, 3)) == 0 else []
    t = draw(st.integers(-1, 5))
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(ONE_IN_20)
        pad = draw(FIELD_PADS)
        if kind == 0:
            lines.append(pad)
        elif kind == 1:
            lines.append(f"{t},1,2")
        elif kind == 2:
            lines.append(draw(st.sampled_from(HEADERS)))
        elif kind == 3:
            lines.append(f"{pad}{draw(SAMPLE_TOKENS)},{pad}{draw(SAMPLE_TOKENS)}{pad}")
        else:  # a time not above the last one, a negative demand, or a sample
            t += 0 if kind == 4 else draw(st.integers(1, 100))
            lines.append(f"{pad}{t}{pad},{pad}{draw(st.integers(-1 if kind == 5 else 0, 50))}{pad}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


jobs = st.lists(st.builds(Job, st.integers(1, 40), st.integers(-5, 300), st.integers(1, 100),
                          st.integers(-2, 64)), max_size=12).map(tuple)
job_traces = st.builds(JobTrace, jobs=jobs,
                       window=st.tuples(st.integers(0, 100), st.integers(1, 500)))
demand_traces = st.builds(
    DemandTrace, samples=st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 500)),
                                  max_size=12).map(tuple))


class TestParsersMatchReference:
    @derandomized(100)
    @given(swf_text())
    def test_parse_swf(self, text):
        assert outcome(parse_swf, text) == outcome(parse_swf_reference, text)

    def test_every_edge_token_in_every_read_field(self):
        """Each spelling reaches each read field, on a line of plain integers."""
        for position in READ_FIELDS:
            for edge in EDGE_TOKENS:
                fields = ["2", "10", "-1", "60", "4", "-1", "-1", "4"] + ["-1"] * 10
                fields[position] = edge
                text = "1 0 -1 30 2 -1 -1 2 -1 -1 1 1 1 1 1 1 -1 -1\n" + " ".join(fields)
                assert outcome(parse_swf, text) == outcome(parse_swf_reference, text), text

    @derandomized(100)
    @given(demand_text())
    def test_parse_demand_trace(self, text):
        assert outcome(parse_demand_trace, text) == outcome(parse_demand_trace_reference, text)

    def test_every_header_and_edge_token(self):
        for first in [*HEADERS, *(f"{edge},3" for edge in EDGE_TOKENS),
                      *(f"0,{edge}" for edge in EDGE_TOKENS)]:
            for text in (first, f"\n{first}\n5,2\n", f"0,1\n{first}\n"):
                assert (outcome(parse_demand_trace, text)
                        == outcome(parse_demand_trace_reference, text)), text

    def test_samples_padded_with_a_unit_separator(self):
        """int() rejects a "\\x1f" around a field, which str.strip removes: such a line
        reaches the checks, which read it as a sample or name its fault."""
        assert parse_demand_trace("\x1f0,1\n5,3\x1f\n\x1f9 , 0\x1f").samples == (
            (0, 1), (5, 3), (9, 0))
        for text in ("time,demand\x1f\n\x1f0,1", "0,1\n0,2\x1f", "0,1\n5,-1\x1f",
                     "\x1f-1,3", f"\x1f{2**63},3", "0,1\n5\x1f,3", "0,1\n5,\x1f3"):
            assert (outcome(parse_demand_trace, text)
                    == outcome(parse_demand_trace_reference, text)), text


PBJ_LINES = (traces_dir() / "synthetic_pbj.swf").read_text().splitlines()
PBJ_DATA = range(3, len(PBJ_LINES) - 1)  # data lines followed by another
SWF_EDITS = ["17 fields", "19 fields", "a field moved to the next line", "1.0", "2**53 + 1",
             "a repeated id", "runtime -1", "alloc -1", "a comment line", "a blank line",
             "a NUL byte", "a NUL token for a line break"]


def edited_pbj(kind, k, j, read, field):
    """The synthetic SWF trace with one edit of ``kind`` at data line ``k`` (line
    ``j`` gives a repeated id, ``read`` the read field, ``field`` any field)."""
    lines = list(PBJ_LINES)
    fields, following = lines[k].split(), lines[k + 1].split()
    if kind == "17 fields":
        fields.pop()
    elif kind == "19 fields":
        fields.append("-1")
    elif kind == "a field moved to the next line":  # 17 then 19: the block's token count holds
        following.append(fields.pop())
    elif kind == "1.0":
        fields[read] += ".0"
    elif kind == "2**53 + 1":  # int reads it exactly, the float fallback as 2**53
        fields[read] = str(2**53 + 1)
    elif kind == "a repeated id":
        fields[0] = lines[j].split()[0]
    elif kind == "runtime -1":
        fields[3] = "-1"
    elif kind == "alloc -1":  # the requested count is the size
        fields[4] = "-1"
    elif kind == "a NUL byte":
        fields[field] += "\x00"
    elif kind == "a NUL token for a line break":  # 21 fields, then 15: 19 tokens a line still
        fields += ["\x00", *following[:2]]
        following = following[3:]
    lines[k:k + 2] = [" ".join(fields), " ".join(following)]
    if kind in ("a comment line", "a blank line"):
        lines.insert(k, "; comment" if kind == "a comment line" else "")
    return "\n".join(lines) + "\n"


class TestSwfBlocksMatchReference:
    """`parse_swf` reads a regular block of lines column by column and any other
    line by line; either way it matches the line-by-line reference."""

    @derandomized(50)
    @given(swf_text())
    def test_short_blocks(self, text):
        """Blocks of 1, 2 and 3 lines: the short texts span several blocks, with
        duplicate ids within and across blocks."""
        expected = outcome(parse_swf_reference, text)
        for block in (1, 2, 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(provsim.trace, "_BLOCK", block)
                assert outcome(parse_swf, text) == expected, block

    @pytest.mark.parametrize("kind", SWF_EDITS)
    @derandomized(2)
    @given(st.sampled_from(PBJ_DATA), st.sampled_from(PBJ_DATA), st.sampled_from(READ_FIELDS),
           st.integers(0, 17))
    def test_synthetic_trace_with_one_edit(self, kind, k, j, read, field):
        """The committed trace, 7 blocks at the default size, with one edit."""
        text = edited_pbj(kind, k, j, read, field)
        assert outcome(parse_swf, text) == outcome(parse_swf_reference, text)

    def test_synthetic_trace_with_a_19th_field_on_every_line(self):
        """No block is regular, so the line reader reads every line of the trace."""
        text = "\n".join(line if line.startswith(";") else line + " 0" for line in PBJ_LINES)
        read = []
        lines_reader = provsim.trace._swf_lines
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(provsim.trace, "_swf_lines",
                          lambda lines, *rest: read.extend(lines) or lines_reader(lines, *rest))
            trace = parse_swf(text)
        assert read == text.splitlines()[3:]
        assert trace == parse_swf("\n".join(PBJ_LINES)) == parse_swf_reference(text)


class TestShapingMatchesReference:
    @derandomized(60)
    @given(job_traces, st.one_of(st.integers(-1, 2), st.integers(-5, 300)), st.integers(-1, 400))
    def test_window(self, trace, start, duration):
        assert (outcome(window, trace, start, duration)
                == outcome(window_reference, trace, start, duration))

    @derandomized(40)
    @given(job_traces, st.integers(-1, 9))
    def test_normalize_cpus(self, trace, cpus_per_node):
        assert (outcome(normalize_cpus, trace, cpus_per_node)
                == outcome(normalize_cpus_reference, trace, cpus_per_node))

    @derandomized(60)
    @given(st.one_of(job_traces, demand_traces, st.just([(0, 1)])), st.integers(-1, 300))
    def test_scale_to_peak(self, trace, target):
        assert (outcome(scale_to_peak, trace, target)
                == outcome(scale_to_peak_reference, trace, target))

    @derandomized(60)
    @given(st.one_of(job_traces, demand_traces), st.booleans())
    def test_scale_to_own_peak(self, trace, huge):
        """Scaling to the trace's own peak, which above 2**53 is no identity."""
        if huge and isinstance(trace, DemandTrace):
            trace = DemandTrace(samples=trace.samples + ((1001, 2**53 + 1),))
        target = peak_reference(trace)
        result = outcome(scale_to_peak, trace, target)
        assert result == outcome(scale_to_peak_reference, trace, target)
        if result == trace:
            assert entries(result) is entries(trace)

    @derandomized(60)
    @given(job_traces, st.integers(0, 2))
    # An earliest submit of -1 is always tried: what Hypothesis draws depends on the loaded modules.
    @example(JobTrace(jobs=(Job(1, -1, 10, 1), Job(2, 5, 10, 1)), window=(0, 10)), 1)
    def test_window_over_whole_span(self, trace, extra):
        """Offset 0 and a duration that reaches, or just passes, the last submit time."""
        duration = max([0, *(job.submit_time for job in trace.jobs)]) + extra
        result = outcome(window, trace, 0, duration)
        assert result == outcome(window_reference, trace, 0, duration)
        if isinstance(result, JobTrace) and result.jobs == trace.jobs:
            assert result.jobs is trace.jobs


@derandomized(25)
@given(swf_text(), demand_text(), st.booleans(), st.sampled_from(["1", "2"]),
       st.sampled_from(["0", "50"]), st.sampled_from([[], ["--target-peaks", "8:4"]]))
def test_run_on_generated_traces_exits_ok_or_invalid(swf, demand, not_utf8, cpus_per_node,
                                                     start, peaks):
    """`provsim run` on any trace text succeeds or exits 2, never 1 (a traceback)."""
    with tempfile.TemporaryDirectory() as tmp:
        pbj_path, ws_path = Path(tmp, "jobs.swf"), Path(tmp, "demand.csv")
        pbj_path.write_bytes(swf.encode() + (b"\xff\n" if not_utf8 else b""))
        ws_path.write_text(demand, encoding="utf-8")
        code = main(["run", "--pbj-trace", str(pbj_path), "--ws-trace", str(ws_path),
                     "--regime", "FLB_NUB", "--duration", "600", "--window-start", start,
                     "--cpus-per-node", cpus_per_node, "--params", "B4/U1.2/V0.2/G0.5/L5",
                     *peaks, "--output-dir", str(Path(tmp, "out"))])
    assert code in (EXIT_OK, EXIT_INVALID)


def test_cpus_per_node_run_matches_reference_normalization(tmp_path):
    """`provsim run --cpus-per-node 2` reports what `run()` reports on the
    synthetic traces shaped by the reference functions."""
    pbj, ws = traces_dir() / "synthetic_pbj.swf", traces_dir() / "synthetic_ws_demand.csv"
    duration, params = 3 * 86400, "B25/U1.2/V0.2/G0.5/L60"
    code = main(["run", "--pbj-trace", str(pbj), "--ws-trace", str(ws), "--regime", "FLB_NUB",
                 "--duration", str(duration), "--cpus-per-node", "2", "--params", params,
                 "--name", "cpus2", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    windowed = window_reference(parse_swf_reference(pbj.read_text()), 0, duration)
    jobs = normalize_cpus_reference(windowed, 2)
    assert jobs != windowed  # the normalization changes sizes
    result = run(jobs, parse_demand_trace_reference(ws.read_text()), "FLB_NUB",
                 parse_params(params))
    ident = {"name": "cpus2", **result.columns}
    assert (tmp_path / "cpus2.report.csv").read_text() == (
        csv_header() + "\n" + report_to_csv_row(result.metrics, ident) + "\n")
    assert (tmp_path / "cpus2.report.json").read_text() == report_to_json(result.metrics, ident)
