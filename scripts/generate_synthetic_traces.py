#!/usr/bin/env python3
"""Generate the repository's synthetic workload traces.

The real archive traces are not redistributable, so the repository ships
deterministic synthetic stand-ins with the same character: a two-week
parallel-batch-job trace (single-CPU nodes, power-of-two job sizes, peak
size 128, bursty diurnal arrivals) and a two-week web-service node-demand
trace with a high peak-to-normal ratio and peak 64. A third, archive-shaped
batch-job trace has the form of the Parallel Workloads Archive's cleaned logs
of 8-CPU-node machines (SDSC BLUE): an SWF comment header, sizes in CPUs that
are multiples of 8, some jobs with no allocated count (-1) but a requested one,
some cancelled jobs with no runtime, and 16 days of jobs, so that a window
with a start offset has jobs on both sides of it. Each trace has its own seed.

Run from the repository root:  python3 scripts/generate_synthetic_traces.py
"""

import math
import random
from pathlib import Path

SEED = 20260810
DURATION = 14 * 24 * 3600  # two weeks of seconds
PBJ_PEAK = 128
WS_PEAK = 64
WS_STEP = 300  # 5-minute demand samples

SIZES = [1, 2, 4, 8, 16, 32, 64, 128]
SIZE_WEIGHTS = [42, 23, 14, 9, 6, 3.5, 1.5, 0.5]

ARCHIVE_SEED = 20261020
ARCHIVE_DAYS = 16
ARCHIVE_CPUS_PER_NODE = 8
ARCHIVE_NODES = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128]  # job sizes in nodes
ARCHIVE_NODE_WEIGHTS = [30, 16, 3, 12, 3, 9, 2, 7, 1.5, 5, 1, 2.5, 0.5, 0.8]


def hourly_rate(second: int, day_factors) -> float:
    """Jobs per hour at a given instant: diurnal shape scaled per working day."""
    hour_of_day = (second // 3600) % 24
    day = second // 86400
    shape = 1.5 + 40.0 * math.exp(-((hour_of_day - 14.0) ** 2) / 18.0)
    return day_factors[day] * shape


def generate_jobs(rng: random.Random):
    # Ordinary working days plus two deadline-crunch days with several times
    # the submission rate; the crunches dominate the busiest hours.
    day_factors = [rng.uniform(0.5, 1.6) for _ in range(DURATION // 86400 + 1)]
    for crunch in rng.sample(range(2, len(day_factors) - 1), 2):
        day_factors[crunch] *= rng.uniform(2.8, 4.2)
    jobs = []
    t = 0.0
    job_id = 1
    while True:
        rate = hourly_rate(int(t), day_factors) / 3600.0
        t += rng.expovariate(rate)
        if t >= DURATION:
            break
        size = rng.choices(SIZES, weights=SIZE_WEIGHTS)[0]
        runtime = int(min(7200, max(10, rng.lognormvariate(5.9, 1.0))))
        jobs.append((job_id, int(t), runtime, size))
        job_id += 1
    return jobs


def write_swf(jobs, path: Path) -> None:
    lines = [
        "; synthetic parallel-batch-job trace (two weeks, 128 single-CPU nodes)",
        f"; generated by scripts/generate_synthetic_traces.py with seed {SEED}",
        "; fields: id submit wait runtime alloc cpu mem req_procs req_time req_mem"
        " status uid gid app queue partition preceding think",
    ]
    for job_id, submit, runtime, size in jobs:
        lines.append(
            f"{job_id} {submit} -1 {runtime} {size} -1 -1 {size} -1 -1 1 1 1 1 1 1 -1 -1"
        )
    path.write_text("\n".join(lines) + "\n")


def generate_archive_jobs(rng: random.Random):
    """Jobs as SWF's read fields plus wait and status: (id, submit, wait, runtime,
    allocated CPUs, requested CPUs, requested time, status), by submit time."""
    jobs = []
    t = 0.0
    job_id = 1
    while True:
        day = int(t) // 86400
        weekend = day % 7 in (5, 6)  # day 0 is a Monday
        hour_of_day = (int(t) // 3600) % 24
        hourly = 8.0 + 36.0 * math.exp(-((hour_of_day - 13.0) ** 2) / 20.0)
        t += rng.expovariate((0.4 if weekend else 1.0) * hourly / 3600.0)
        if t >= ARCHIVE_DAYS * 86400:
            break
        cpus = ARCHIVE_CPUS_PER_NODE * rng.choices(ARCHIVE_NODES, weights=ARCHIVE_NODE_WEIGHTS)[0]
        requested_time = rng.choice([900, 1800, 3600, 7200, 14400, 28800, 64800])
        runtime = int(min(requested_time, max(1, rng.lognormvariate(7.0, 1.4))))
        status = 1
        if rng.random() < 0.02:  # cancelled before it ran
            runtime, status = -1, 5
        allocated = -1 if rng.random() < 0.06 else cpus  # only the request was logged
        wait = int(rng.expovariate(1 / 600.0)) if runtime > 0 else -1
        jobs.append((job_id, int(t), wait, runtime, allocated, cpus, requested_time, status))
        job_id += 1
    return jobs


def write_archive_swf(jobs, path: Path) -> None:
    max_nodes = max(ARCHIVE_NODES)
    lines = [
        "; Version: 2.2",
        "; Computer: synthetic archive-shaped machine",
        f"; Installation: scripts/generate_synthetic_traces.py, seed {ARCHIVE_SEED}",
        f"; MaxJobs: {len(jobs)}",
        f"; MaxRecords: {len(jobs)}",
        "; UnixStartTime: 0",
        f"; MaxNodes: {max_nodes}",
        f"; MaxProcs: {max_nodes * ARCHIVE_CPUS_PER_NODE}",
        "; Note: allocated processors is -1 where only the request was logged;"
        " cancelled jobs have runtime -1",
        ";",
    ]
    for job_id, submit, wait, runtime, allocated, cpus, requested_time, status in jobs:
        lines.append(f"{job_id} {submit} {wait} {runtime} {allocated} -1 -1 {cpus}"
                     f" {requested_time} -1 {status} {1 + job_id % 37} {1 + job_id % 5}"
                     f" -1 {1 + job_id % 3} -1 -1 -1")
    path.write_text("\n".join(lines) + "\n")


def generate_demand(rng: random.Random):
    # World-Cup-like character: low normal load, a few tall narrow event spikes.
    spikes = []
    for _ in range(6):
        start = rng.randint(0, DURATION - 6 * 3600)
        length = rng.randint(1, 2) * 3600
        height = rng.uniform(0.45, 1.0)
        spikes.append((start, length, height))
    raw = []
    for t in range(0, DURATION + 1, WS_STEP):
        hour_of_day = (t // 3600) % 24
        level = 3.0 + 4.0 * math.exp(-((hour_of_day - 15.0) ** 2) / 24.0)
        for start, length, height in spikes:
            if start <= t < start + length:
                ramp = math.sin(math.pi * (t - start) / length)
                level = max(level, height * WS_PEAK * ramp)
        raw.append(max(1.0, level + rng.gauss(0.0, 0.6)))
    top = max(raw)
    demands = [min(WS_PEAK, max(0, round(v * WS_PEAK / top))) for v in raw]
    samples = []
    last = None
    for t, d in zip(range(0, DURATION + 1, WS_STEP), demands):
        if d != last:
            samples.append((t, d))
            last = d
    return samples


def write_demand(samples, path: Path) -> None:
    lines = ["time,demand"]
    lines.extend(f"{t},{d}" for t, d in samples)
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "traces"
    out_dir.mkdir(exist_ok=True)
    rng = random.Random(SEED)
    jobs = generate_jobs(rng)
    write_swf(jobs, out_dir / "synthetic_pbj.swf")
    samples = generate_demand(rng)
    write_demand(samples, out_dir / "synthetic_ws_demand.csv")
    node_seconds = sum(r * s for _, _, r, s in jobs)
    print(f"jobs: {len(jobs)}  peak size: {max(s for *_, s in jobs)}  "
          f"mean runtime: {node_seconds / sum(s for *_, s in jobs):.0f}s  "
          f"utilization of {PBJ_PEAK} nodes: {node_seconds / (PBJ_PEAK * DURATION):.1%}")
    print(f"demand samples: {len(samples)}  peak: {max(d for _, d in samples)}  "
          f"mean: {sum(d for _, d in samples) / len(samples):.1f}")
    archive = generate_archive_jobs(random.Random(ARCHIVE_SEED))
    write_archive_swf(archive, out_dir / "archive_shaped.swf")
    ran = [(cpus, runtime) for _, _, _, runtime, _, cpus, _, _ in archive if runtime > 0]
    machine = max(ARCHIVE_NODES) * ARCHIVE_CPUS_PER_NODE
    cpu_seconds = sum(cpus * runtime for cpus, runtime in ran)
    print(f"archive-shaped jobs: {len(archive)}  ran: {len(ran)}  "
          f"utilization of {machine} CPUs: {cpu_seconds / (machine * ARCHIVE_DAYS * 86400):.1%}")


if __name__ == "__main__":
    main()
