import pytest

from provsim import PolicyParams, parse_demand_trace, parse_swf, scale_to_peak, window
from provsim.trace import DemandTrace, Job, JobTrace

TRACES = None  # resolved lazily relative to this file


def traces_dir():
    from pathlib import Path

    return Path(__file__).resolve().parent.parent / "traces"


@pytest.fixture(scope="session")
def synthetic_pbj_raw():
    return parse_swf((traces_dir() / "synthetic_pbj.swf").read_text())


@pytest.fixture(scope="session")
def synthetic_ws_raw():
    return parse_demand_trace((traces_dir() / "synthetic_ws_demand.csv").read_text())


@pytest.fixture(scope="session")
def pbj_128(synthetic_pbj_raw):
    """The two-week synthetic batch trace scaled to peak demand 128."""
    return scale_to_peak(window(synthetic_pbj_raw, 0, 1209600), 128)


@pytest.fixture(scope="session")
def ws_128(synthetic_ws_raw):
    """The synthetic demand trace scaled to peak 128."""
    return scale_to_peak(synthetic_ws_raw, 128)


@pytest.fixture(scope="session")
def baseline_params():
    return PolicyParams(B=25, U=1.2, V=0.2, G=0.5, L=3600)


def make_jobs(specs, duration):
    """JobTrace from (id, submit, runtime, size) tuples."""
    return JobTrace(jobs=tuple(Job(*spec) for spec in specs), window=(0, duration))


def make_demand(samples):
    return DemandTrace(samples=tuple(samples))
