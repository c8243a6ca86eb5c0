"""Workload trace ingestion and shaping.

Two trace kinds drive a simulation: parallel batch job logs in the
Parallel Workloads Archive's Standard Workload Format (SWF), and
web-service node-demand traces as two-column CSV. All shaping helpers
(window, normalize_cpus, scale_to_peak) are pure and return new traces, or
share their input's entries where a step changes nothing: loaded traces are
immutable, so sharing is safe, also between sweep workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .errors import EmptyTraceError, TraceParseError

INT_LIMIT = 2**63  # bound on every integer read, so that float arithmetic cannot overflow

# SWF field positions (0-based) of the fields the simulator consumes.
_F_ID = 0
_F_SUBMIT = 1
_F_RUNTIME = 3
_F_ALLOC = 4
_F_REQUESTED = 7
_SWF_MIN_FIELDS = 18
_SIZE = itemgetter(3)  # a Job's size
_SUBMIT = _DEMAND = itemgetter(1)  # a Job's submit time, a demand sample's demand


class Job(NamedTuple):
    """One parallel batch job: submit time and runtime in seconds, size in nodes."""

    id: int
    submit_time: int
    runtime: int
    size: int


@dataclass(frozen=True)
class JobTrace:
    """An ordered batch-job trace and its time window.

    ``window`` is ``(start_offset, duration)``: the offset of the segment
    within the original log and the segment length, both in seconds.
    """

    jobs: tuple[Job, ...]
    window: tuple[int, int]

    @property
    def peak_demand(self) -> int:
        """The largest job size; 0 for an empty trace."""
        return max(map(_SIZE, self.jobs), default=0)


@dataclass(frozen=True)
class DemandTrace:
    """Piecewise-constant web-service node demand: each sample holds until the next.

    The peak covers every sample, including any after the simulated window's
    end, so scaling and the reported peak see the whole file.
    """

    samples: tuple[tuple[int, int], ...]

    @property
    def peak_demand(self) -> int:
        """The largest demand; 0 for an empty trace."""
        return max(map(_DEMAND, self.samples), default=0)


def _swf_int(token: str, lineno: int, what: str) -> int:
    try:
        value = int(float(token))
        if abs(value) < INT_LIMIT:
            return value
    except (ValueError, OverflowError):
        pass
    raise TraceParseError(
        f"SWF line {lineno}: {what} field is not a finite number below 2**63: {token!r}")


def parse_swf(text: str) -> JobTrace:
    """Parse SWF text into a JobTrace.

    Comment lines start with ';'. Data lines must carry at least 18
    whitespace-separated fields. Job size is the allocated-processor count,
    falling back to the requested count when allocation is missing (<= 0).
    Jobs with non-positive runtime or size or a negative submit time are
    dropped. Submit times keep their original offsets; re-basing is `window`'s job.
    """
    jobs: list[Job] = []
    seen_ids: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == ";":
            continue
        if len(fields) < _SWF_MIN_FIELDS:
            raise TraceParseError(
                f"SWF line {lineno}: expected >= {_SWF_MIN_FIELDS} fields, got {len(fields)}")
        try:  # below 2**53, int(token) reads what _swf_int reads
            job_id, submit, runtime, alloc, requested = (int(fields[_F_ID]), int(fields[_F_SUBMIT]),
                int(fields[_F_RUNTIME]), int(fields[_F_ALLOC]), int(fields[_F_REQUESTED]))
            if not (-2**53 < job_id < 2**53 and -2**53 < submit < 2**53 and -2**53 < runtime < 2**53
                    and -2**53 < alloc < 2**53 and -2**53 < requested < 2**53):
                raise ValueError
        except ValueError:  # "1.0", "1e3", "inf", 2**53 or more: _swf_int reads or names each
            job_id = _swf_int(fields[_F_ID], lineno, "job id")
            submit = _swf_int(fields[_F_SUBMIT], lineno, "submit time")
            runtime = _swf_int(fields[_F_RUNTIME], lineno, "run time")
            alloc = _swf_int(fields[_F_ALLOC], lineno, "allocated processors")
            requested = _swf_int(fields[_F_REQUESTED], lineno, "requested processors")
        size = alloc if alloc > 0 else requested
        if runtime <= 0 or size <= 0 or submit < 0:
            continue
        if job_id in seen_ids:
            raise TraceParseError(f"SWF line {lineno}: duplicate job id {job_id}")
        seen_ids.add(job_id)
        jobs.append(Job(job_id, submit, runtime, size))
    if not jobs:
        raise EmptyTraceError("SWF trace contains no usable jobs after filtering")
    jobs.sort(key=_SUBMIT)
    return JobTrace(jobs=tuple(jobs), window=(0, jobs[-1].submit_time))


def parse_demand_trace(text: str) -> DemandTrace:
    """Parse "time,demand" CSV text into a DemandTrace.

    The first non-empty line is a "time,demand" header if its first field is no integer.
    Sample times must be strictly increasing and demands nonnegative integers.
    """
    samples: list[tuple[int, int]] = []
    first_line = True  # the only line that may be the header
    last = -1  # the last sample's time
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not first_line:  # a valid "t,d" sample needs no strip: int() ignores whitespace
            try:
                t, d = map(int, raw.split(","))
            except ValueError:  # not two integer fields: the path below names the fault
                pass
            else:
                if last < t < INT_LIMIT and 0 <= d < INT_LIMIT:
                    samples.append((t, d))
                    last = t
                    continue
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")  # int() ignores the whitespace around a field
        if len(parts) != 2:
            raise TraceParseError(f"demand line {lineno}: expected 'time,demand', got {line!r}")
        if first_line:
            first_line = False
            try:
                int(parts[0])
            except ValueError:
                if parts[0].strip().lower() == "time" and parts[1].strip().lower() == "demand":
                    continue
                raise TraceParseError(
                    f"demand line {lineno}: unrecognized header {line!r}") from None
        try:
            t, d = int(parts[0]), int(parts[1])
        except ValueError:
            raise TraceParseError(f"demand line {lineno}: non-integer field in {line!r}") from None
        if max(t, d) >= INT_LIMIT:  # negative values are rejected below
            raise TraceParseError(f"demand line {lineno}: field not below 2**63 in {line!r}")
        if d < 0:
            raise TraceParseError(f"demand line {lineno}: negative demand {d}")
        if t < 0:
            raise TraceParseError(f"demand line {lineno}: negative time {t}")
        if t <= last:
            raise TraceParseError(f"demand line {lineno}: time {t} not greater than previous {last}")
        samples.append((t, d))
        last = t
    if not samples:
        raise EmptyTraceError("demand trace contains no samples")
    return DemandTrace(samples=tuple(samples))


def window(trace: JobTrace, start_offset: int, duration: int) -> JobTrace:
    """Cut the segment [start_offset, start_offset + duration) and re-base to 0."""
    if duration <= 0:
        raise ValueError("window duration must be positive")
    end = start_offset + duration
    kept = trace.jobs  # shared when the window keeps every job as it is
    if (start_offset or min(map(_SUBMIT, kept), default=0) < 0
            or max(map(_SUBMIT, kept), default=0) >= end):
        kept = tuple(j for j in kept if start_offset <= j.submit_time < end)
    if start_offset:
        kept = tuple(Job(i, t - start_offset, r, z) for i, t, r, z in kept)
    if not kept:
        raise EmptyTraceError(
            f"no jobs in window [{start_offset}, {end}) of trace with window {trace.window}")
    return JobTrace(jobs=kept, window=(trace.window[0] + start_offset, duration))


def normalize_cpus(trace: JobTrace, cpus_per_node: int) -> JobTrace:
    """Convert per-CPU job sizes to node counts: size -> ceil(size / cpus_per_node).

    Ceiling keeps single-CPU jobs alive (size never becomes 0).
    """
    if cpus_per_node < 1:
        raise ValueError("cpus_per_node must be >= 1")
    nodes = {s: -(-s // cpus_per_node) for s in set(map(_SIZE, trace.jobs))}
    jobs = tuple(Job(i, t, r, nodes[s]) for i, t, r, s in trace.jobs)
    return JobTrace(jobs=jobs, window=trace.window)


def scale_to_peak(trace, target_peak: int):
    """Rescale a JobTrace or DemandTrace so its peak demand is exactly target_peak.

    Every size/demand is multiplied by target_peak / current peak and rounded to the nearest
    integer; job sizes are floored at 1, demands at 0, and all values are clamped to target_peak
    so the resulting peak is exact. A trace whose every value maps to itself is returned as is.
    """
    if target_peak < 1:
        raise ValueError("target_peak must be >= 1")
    if not isinstance(trace, (JobTrace, DemandTrace)):
        raise TypeError(f"scale_to_peak expects JobTrace or DemandTrace, got {type(trace)!r}")
    is_jobs = isinstance(trace, JobTrace)
    entries, value, minimum = (trace.jobs, _SIZE, 1) if is_jobs else (trace.samples, _DEMAND, 0)
    peak = trace.peak_demand
    if peak <= 0:
        kind = "job" if is_jobs else "demand"
        raise ValueError(f"cannot scale a {kind} trace with zero peak demand")
    # v * target_peak is exact in int; round half up, clamp into range.
    scaled = {v: min(target_peak, max(minimum, math.floor(v * target_peak / peak + 0.5)))
              for v in set(map(value, entries))}
    if list(scaled) == list(scaled.values()):
        return trace
    if is_jobs:
        return JobTrace(tuple(Job(i, t, r, scaled[s]) for i, t, r, s in entries), trace.window)
    return DemandTrace(samples=tuple((t, scaled[d]) for t, d in entries))
