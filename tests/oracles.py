"""Independent reference implementations used to cross-check the simulator.

Everything here is deliberately written against the event-log payloads (not
the kernel's snapshots), or by brute force, so the checks do not share code
paths with the implementation under test.
"""

from __future__ import annotations

import json
import math
import random
from itertools import chain

from provsim.errors import EmptyTraceError, TraceParseError
from provsim.policies import PolicyParams
from provsim.state import (KIND_JOB_ARRIVAL, KIND_JOB_COMPLETION, KIND_LEASE_TICK, KIND_NAMES,
                           KIND_WS_DEMAND_CHANGE)
from provsim.trace import INT_LIMIT, DemandTrace, Job, JobTrace


def replay_consumption(events, regime, *, config_size=None, pool_size=0, duration=0,
                       pbj_floor=0):
    """Rebuild the nodes-consumed step curve from event payloads alone."""
    if regime in ("DCS", "FB"):
        return [(0, config_size)]
    points = [(0, pool_size if regime == "FLB_NUB" else 0)]

    def emit(t, v):
        if v != points[-1][1]:
            if t == points[-1][0]:
                points[-1] = (t, v)
            else:
                points.append((t, v))

    if regime == "EC2RS":
        leases = 0
        demand = 0
        for r in events:
            if r["time"] > duration:
                break
            if r["kind"] == "job_arrival":
                leases += r["payload"]["size"]
            elif r["kind"] == "lease_tick":
                leases -= r["payload"]["nodes"]
            elif r["kind"] == "ws_demand_change":
                demand = r["payload"]["demand"]
            emit(r["time"], leases + demand)
        return points

    # FLB_NUB: replay the first-come pool accounting from adjustment deltas,
    # starting from the rigid lower-bound share.
    pbj_owned = pbj_pool = pbj_floor
    ws_held = ws_pool = 0
    for r in events:
        if r["time"] > duration:
            break
        for actor, delta in r.get("adjustments", ()):
            if actor == "ws_manager":
                if delta > 0:
                    room = pool_size - pbj_pool - ws_pool
                    ws_pool += min(delta, room)
                else:
                    ext = ws_held - ws_pool
                    pool_part = max(0, -delta - ext)
                    ws_pool -= pool_part
                ws_held += delta
            else:  # pbj_manager or provision_service
                if delta > 0:
                    room = pool_size - pbj_pool - ws_pool
                    pbj_pool += min(delta, room)
                else:
                    ext = pbj_owned - pbj_pool
                    pool_part = max(0, -delta - ext)
                    pbj_pool -= pool_part
                pbj_owned += delta
        emit(r["time"], pool_size + (pbj_owned - pbj_pool) + (ws_held - ws_pool))
    return points


def integrate(points, duration):
    total = 0
    for (t0, v), (t1, _) in zip(points, points[1:]):
        if t0 >= duration:
            break
        total += v * (min(t1, duration) - t0)
    if points[-1][0] < duration:
        total += points[-1][1] * (duration - points[-1][0])
    return total


def check_conservation(events, regime, *, config_size=None, pbj_floor=0, pool_size=0,
                       pbj_bound=None, ws_bound=None):
    """Assert the resource-accounting invariants on every event snapshot."""
    for r in events:
        s = r["state"]
        assert s["pbj_idle"] == s["pbj_owned"] - s["running_alloc"], r
        assert s["pbj_idle"] >= 0, r
        assert s["ws_held"] >= 0 and s["free"] >= 0, r
        if regime in ("DCS", "FB", "FLB_NUB") and r["kind"] == "ws_demand_change":
            # Demand is absolute: holdings track it the instant it changes.
            assert s["ws_held"] == r["payload"]["demand"], r
        if regime == "DCS":
            assert s["pbj_owned"] == pbj_bound, r
            assert s["ws_held"] <= ws_bound, r
        if regime == "FB":
            assert s["ws_held"] + s["pbj_owned"] + s["free"] == config_size, r
            assert s["ws_held"] + s["pbj_owned"] <= config_size, r
            if pbj_bound is not None:
                assert s["pbj_owned"] <= pbj_bound, r
                if r["kind"] == "lease_tick":
                    # The tick pushes every free node to the batch RE, up to
                    # its agreement bound.
                    assert s["pbj_owned"] == min(pbj_bound, config_size - s["ws_held"]), r
        if regime == "FLB_NUB":
            assert s["pbj_owned"] >= pbj_floor, r
            assert s["pbj_pool"] + s["ws_pool"] <= pool_size, r
            assert 0 <= s["pbj_pool"] <= s["pbj_owned"], r
            assert 0 <= s["ws_pool"] <= s["ws_held"], r


def queue_order(queue):
    """The jobs of a `JobQueue` in queue order, read from its size buckets and
    its lone-job slot, which is set only when the buckets are empty.

    The order keys are distinct, so sorting the pairs never compares two jobs.
    """
    bucketed = [job for _, job in sorted(chain.from_iterable(queue._buckets.values()))]
    if queue._lone is None:
        return bucketed
    assert not bucketed, "the lone-job slot is set beside bucketed jobs"
    return [queue._lone]


def first_fit_reference(queue, pbj_idle):
    """First fit by rescanning from the front after every start.

    The scheduler's original list implementation, minus the start time it
    used to pair with each job; returns the started jobs in start order and
    leaves `queue` untouched.
    """
    remaining = list(queue)
    idle = pbj_idle
    started = []
    while True:
        for i, job in enumerate(remaining):
            if job.size <= idle:
                started.append(job)
                idle -= job.size
                del remaining[i]
                break
        else:
            return started


def replay_queue_accounting(events):
    """Rebuild queue_len, queued_demand and running_alloc after every event.

    Works from the arrival, `started`, `killed` and completion payloads
    alone: arrivals queue their size, started jobs move it from the queue to
    the running set, killed jobs move it back, completions free it. Returns
    one dict per event, comparable with the snapshot's three fields.
    """
    sizes = {}
    queue_len = queued_demand = running_alloc = 0
    rebuilt = []
    for r in events:
        if r["kind"] == "job_arrival":
            sizes[r["payload"]["job_id"]] = r["payload"]["size"]
            queue_len += 1
            queued_demand += r["payload"]["size"]
        elif r["kind"] == "job_completion":
            running_alloc -= r["payload"]["size"]
        for job_id in r.get("killed", ()):
            running_alloc -= sizes[job_id]
            queue_len += 1
            queued_demand += sizes[job_id]
        for job_id in r.get("started", ()):
            running_alloc += sizes[job_id]
            queue_len -= 1
            queued_demand -= sizes[job_id]
        rebuilt.append({"queue_len": queue_len, "queued_demand": queued_demand,
                        "running_alloc": running_alloc})
    return rebuilt


def greedy_kill_reference(running, needed):
    """Brute-force greedy victim order: minimum size, then latest start.

    `running` is a list of (job_id, size, start_time, start_seq) tuples;
    returns (victim id sequence, total nodes released).
    """
    pool = list(running)
    victims = []
    released = 0
    while released < needed:
        pool.sort(key=lambda r: (r[1], -r[2], -r[3]))
        victim = pool.pop(0)
        victims.append(victim[0])
        released += victim[1]
    return victims, released


def replay_completions(events):
    """(completed, average runtime, average turnaround) from the completion
    records of an event log; the averages are None when nothing completed."""
    completions = [r["payload"] for r in events if r["kind"] == "job_completion"]
    if not completions:
        return 0, None, None
    count = len(completions)
    return (count, sum(p["runtime"] for p in completions) / count,
            sum(p["turnaround"] for p in completions) / count)


def ec2rs_closed_form(jobs, demand, params):
    """EC2RS's report without a simulation, from the trace alone: (peak,
    total node-seconds, completed, runtime sum, adjustments, incomplete).

    Each job submitted before the window end holds ``size`` nodes over
    ``[submit, submit + ceil(runtime / L) * L)``, and web-service capacity
    is the demand in force; the level is their sum. The adjustments are the
    leases, the releases up to the window end, and the nonzero demand
    changes up to it. A job completes when ``submit + runtime <= duration``.
    """
    duration, lease = jobs.window[1], params.L
    changes: dict[int, int] = {}  # time -> net level change
    adjustments = completed = runtime_sum = 0
    for _, submit, runtime, size in jobs.jobs:
        if submit >= duration:
            continue
        release = submit + -(-runtime // lease) * lease
        changes[submit] = changes.get(submit, 0) + size
        changes[release] = changes.get(release, 0) - size
        adjustments += 1 + (release <= duration)
        if submit + runtime <= duration:
            completed += 1
            runtime_sum += runtime
    held = 0
    for time, level in sorted(demand.samples, key=lambda sample: sample[0]):
        if time <= duration and level != held:
            changes[time] = changes.get(time, 0) + level - held
            adjustments += 1
            held = level
    level = peak = total = since = 0
    for time in sorted(t for t in changes if t <= duration):
        total += level * (time - since)
        level += changes[time]
        since = time
        peak = max(peak, level)
    total += level * (duration - since)
    return peak, total, completed, runtime_sum, adjustments, len(jobs.jobs) - completed


def job_times(events):
    """Per-job start and completion times extracted from an event log."""
    starts: dict[int, list[int]] = {}
    completions: dict[int, int] = {}
    for r in events:
        for jid in r.get("started", ()):
            starts.setdefault(jid, []).append(r["time"])
        if r["kind"] == "job_completion":
            completions[r["payload"]["job_id"]] = r["time"]
    return starts, completions


def random_micro_scenario(seed):
    """A tiny random scenario for invariant fuzzing; returns (jobs, demand)."""
    rng = random.Random(seed)
    duration = rng.randint(1200, 4000)
    jobs = []
    t = 0
    for i in range(1, rng.randint(2, 12)):
        t += rng.randint(0, duration // 4)
        if t >= duration:
            break
        jobs.append(Job(i, t, rng.randint(5, duration), rng.randint(1, 12)))
    if not jobs:
        jobs = [Job(1, 0, rng.randint(5, duration), rng.randint(1, 12))]
    job_trace = JobTrace(jobs=tuple(jobs), window=(0, duration))
    samples = []
    t = 0
    last = None
    while t <= duration:
        d = rng.randint(0, 9)
        if d != last:
            samples.append((t, d))
            last = d
        t += rng.randint(60, duration // 3)
    demand = DemandTrace(samples=tuple(samples))
    return job_trace, demand


def random_fuzz_setup(regime, seed):
    """``random_micro_scenario(seed)`` plus random parameters (and a random
    FB configuration): returns (jobs, demand, params, run kwargs)."""
    jobs, demand = random_micro_scenario(seed)
    rng = random.Random(seed ^ 0xF00D)
    params = PolicyParams(
        B=rng.randint(0, 16),
        U=rng.uniform(1.05, 2.0),
        V=rng.uniform(0.05, 0.9),
        G=rng.uniform(0.2, 0.8),
        L=rng.choice((150, 300, 600)),
    )
    kwargs = {}
    if regime == "FB":
        low = demand.peak_demand
        high = jobs.peak_demand + demand.peak_demand
        kwargs["config_size"] = max(1, rng.randint(min(low, high), max(low, high)))
    return jobs, demand, params, kwargs


# The trace layer as it was before its per-entry fast paths, kept as the
# reference that tests/test_trace_differential.py compares the library with:
# the same values, or the same exception type and message. Only the demand
# header rule differs from that version: the first line is a header when its
# first field does not read with int().

def _swf_int(token: str, lineno: int, what: str) -> int:
    try:
        value = int(float(token))
        if abs(value) < INT_LIMIT:
            return value
    except (ValueError, OverflowError):
        pass
    raise TraceParseError(
        f"SWF line {lineno}: {what} field is not a finite number below 2**63: {token!r}")


def parse_swf_reference(text: str) -> JobTrace:
    jobs: list[Job] = []
    seen_ids: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        fields = line.split()
        if len(fields) < 18:
            raise TraceParseError(
                f"SWF line {lineno}: expected >= 18 fields, got {len(fields)}")
        job_id = _swf_int(fields[0], lineno, "job id")
        submit = _swf_int(fields[1], lineno, "submit time")
        runtime = _swf_int(fields[3], lineno, "run time")
        alloc = _swf_int(fields[4], lineno, "allocated processors")
        requested = _swf_int(fields[7], lineno, "requested processors")
        size = alloc if alloc > 0 else requested
        if runtime <= 0 or size <= 0 or submit < 0:
            continue
        if job_id in seen_ids:
            raise TraceParseError(f"SWF line {lineno}: duplicate job id {job_id}")
        seen_ids.add(job_id)
        jobs.append(Job(id=job_id, submit_time=submit, runtime=runtime, size=size))
    if not jobs:
        raise EmptyTraceError("SWF trace contains no usable jobs after filtering")
    jobs.sort(key=lambda j: j.submit_time)
    return JobTrace(jobs=tuple(jobs), window=(0, jobs[-1].submit_time))


def _reads_as_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def parse_demand_trace_reference(text: str) -> DemandTrace:
    samples: list[tuple[int, int]] = []
    first_line = True  # the only line that may be the header
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise TraceParseError(f"demand line {lineno}: expected 'time,demand', got {line!r}")
        if first_line:
            first_line = False
            if not _reads_as_int(parts[0]):
                if parts[0].lower() == "time" and parts[1].lower() == "demand":
                    continue
                raise TraceParseError(f"demand line {lineno}: unrecognized header {line!r}")
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
        if samples and t <= samples[-1][0]:
            raise TraceParseError(
                f"demand line {lineno}: time {t} not greater than previous {samples[-1][0]}")
        samples.append((t, d))
    if not samples:
        raise EmptyTraceError("demand trace contains no samples")
    return DemandTrace(samples=tuple(samples))


def window_reference(trace: JobTrace, start_offset: int, duration: int) -> JobTrace:
    if duration <= 0:
        raise ValueError("window duration must be positive")
    end = start_offset + duration
    kept = tuple(j._replace(submit_time=j.submit_time - start_offset)
                 for j in trace.jobs if start_offset <= j.submit_time < end)
    if not kept:
        raise EmptyTraceError(
            f"no jobs in window [{start_offset}, {end}) of trace with window {trace.window}")
    return JobTrace(jobs=kept, window=(trace.window[0] + start_offset, duration))


def normalize_cpus_reference(trace: JobTrace, cpus_per_node: int) -> JobTrace:
    if cpus_per_node < 1:
        raise ValueError("cpus_per_node must be >= 1")
    jobs = tuple(j._replace(size=-(-j.size // cpus_per_node)) for j in trace.jobs)
    return JobTrace(jobs=jobs, window=trace.window)


def peak_reference(trace) -> int:
    """A JobTrace's largest size or a DemandTrace's largest demand; 0 when empty."""
    if isinstance(trace, JobTrace):
        return max((j.size for j in trace.jobs), default=0)
    return max((d for _, d in trace.samples), default=0)


def _scale_value(value: int, target_peak: int, peak: int, minimum: int) -> int:
    # value * target_peak is exact in int; round half up, clamp into range.
    scaled = math.floor(value * target_peak / peak + 0.5)
    return min(target_peak, max(minimum, scaled))


def scale_to_peak_reference(trace, target_peak: int):
    if target_peak < 1:
        raise ValueError("target_peak must be >= 1")
    if isinstance(trace, JobTrace):
        peak = peak_reference(trace)
        if peak <= 0:
            raise ValueError("cannot scale a job trace with zero peak demand")
        jobs = tuple(j._replace(size=_scale_value(j.size, target_peak, peak, 1))
                     for j in trace.jobs)
        return JobTrace(jobs=jobs, window=trace.window)
    if isinstance(trace, DemandTrace):
        peak = peak_reference(trace)
        if peak <= 0:
            raise ValueError("cannot scale a demand trace with zero peak demand")
        samples = tuple((t, _scale_value(d, target_peak, peak, 0)) for t, d in trace.samples)
        return DemandTrace(samples=samples)
    raise TypeError(f"scale_to_peak expects JobTrace or DemandTrace, got {type(trace)!r}")


# The event log as the kernel built it before its per-kind templates: one dict
# per processed event, encoded by JSONEncoder. tests/test_event_log_differential.py
# checks that ``write_event_log`` writes these exact bytes.

# The "state" keys in event-log order, written out here rather than read from
# provsim, so a change to the kernel's own order fails the differential test.
STATE_KEYS = ("pbj_owned", "pbj_idle", "running_alloc", "ws_held", "free", "pbj_pool", "ws_pool",
              "pbj_external", "ws_external", "queue_len", "queued_demand")


def event_dicts_reference(result) -> list[dict]:
    """The event-log records of a recorded run, built as dicts from its raw
    records (time, kind, payload, started, killed, adjustment slice, snapshot
    tuple)."""
    events = []
    for time, kind, event_payload, started, killed, first, end, snapshot in result.records:
        if kind == KIND_JOB_ARRIVAL:
            job = event_payload
            payload = {"job_id": job.id, "size": job.size, "runtime": job.runtime,
                       "submit": job.submit_time}
        elif kind == KIND_JOB_COMPLETION:
            job, attempt = event_payload
            payload = {"job_id": job.id, "size": job.size, "runtime": job.runtime,
                       "submit": job.submit_time, "attempt": attempt,
                       "turnaround": time - job.submit_time}
        elif kind == KIND_WS_DEMAND_CHANGE:
            payload = {"demand": event_payload}
        elif kind == KIND_LEASE_TICK and event_payload is not None:
            job_id, nodes = event_payload
            payload = {"job_id": job_id, "nodes": nodes}
        else:
            payload = {}
        record = {"time": time, "kind": KIND_NAMES[kind], "payload": payload}
        if started:
            record["started"] = [job.id for job in started]
        if killed:
            record["killed"] = killed
        new_adjustments = result.adjustments[first:end]
        if new_adjustments:
            record["adjustments"] = [[a, d] for a, d in new_adjustments]
        record["state"] = dict(zip(STATE_KEYS, snapshot))
        events.append(record)
    return events


_EVENT_ENCODER = json.JSONEncoder(separators=(",", ":"))


def write_event_log_reference(events, stream) -> None:
    encode = _EVENT_ENCODER.encode
    for record in events:
        stream.write(encode(record) + "\n")
