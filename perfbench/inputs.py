"""Seeded benchmark inputs built with the repository's synthetic-trace generator.

Every trace comes from the generator functions in
``scripts/generate_synthetic_traces.py``, driven by ``random.Random(seed)``
exactly as the script drives them: ``generate_jobs`` then ``generate_demand``
per two-week segment. Segments after the first are shifted in time and
appended, so a longer stream starts with the same two weeks the script
writes. At the script's own ``SEED`` the first segment is byte-identical to
``traces/synthetic_*``.
"""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATOR = ROOT / "scripts" / "generate_synthetic_traces.py"
COMMITTED_SWF = ROOT / "traces" / "synthetic_pbj.swf"
COMMITTED_CSV = ROOT / "traces" / "synthetic_ws_demand.csv"


def load_generator():
    spec = importlib.util.spec_from_file_location("generate_synthetic_traces", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = load_generator()
DEFAULT_SEED = GEN.SEED
SEGMENT = GEN.DURATION


def segment_stream(seed: int, min_jobs: int = 0, min_segments: int = 1):
    """Jobs and demand samples of consecutive two-week segments from one rng.

    Segments are appended until there are more than ``min_jobs`` jobs and at
    least ``min_segments`` segments. Job ids are renumbered in order; the
    first demand sample of each later segment is dropped because it falls
    on the last sample time of the segment before.
    """
    rng = random.Random(seed)
    jobs: list[tuple[int, int, int, int]] = []
    samples: list[tuple[int, int]] = []
    k = 0
    while k < min_segments or len(jobs) <= min_jobs:
        offset = k * SEGMENT
        for _id, submit, runtime, size in GEN.generate_jobs(rng):
            jobs.append((len(jobs) + 1, submit + offset, runtime, size))
        for t, demand in GEN.generate_demand(rng):
            if k == 0 or t > 0:
                samples.append((t + offset, demand))
        k += 1
    return jobs, samples


def first_jobs(seed: int, n_jobs: int):
    """The first ``n_jobs`` jobs of the seeded stream, the demand samples, and
    a window that ends one second after the last of those jobs arrives."""
    jobs, samples = segment_stream(seed, min_jobs=n_jobs)
    jobs = jobs[:n_jobs]
    return jobs, samples, jobs[-1][1] + 1


def write_traces(jobs, samples, directory: Path, stem: str) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    swf, csv = directory / f"{stem}.swf", directory / f"{stem}.csv"
    GEN.write_swf(jobs, swf)
    GEN.write_demand(samples, csv)
    return swf, csv


def write_scenario(directory: Path, name: str, swf: Path, csv: Path, duration: int,
                   regime: str, **fields) -> Path:
    """A scenario file next to its traces; the peak tuple is 128:128 as shipped."""
    doc = {
        "name": name,
        "pbj_trace": swf.name,
        "ws_trace": csv.name,
        "window": {"start_offset": 0, "duration": duration},
        "cpus_per_node": 1,
        "target_peaks": {"pbj": 128, "ws": 128},
        "regime": regime,
        **fields,
    }
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def default_seed_traces(directory: Path) -> tuple[Path, Path]:
    """What the generator script writes, produced here without touching ``traces/``."""
    rng = random.Random(DEFAULT_SEED)
    jobs = GEN.generate_jobs(rng)
    samples = GEN.generate_demand(rng)
    return write_traces(jobs, samples, directory, "default_seed")
