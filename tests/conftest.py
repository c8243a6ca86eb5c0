import contextlib
import gc
import io
import signal

import pytest
from hypothesis import Phase, settings

from provsim import PolicyParams, parse_demand_trace, parse_swf, scale_to_peak, window
from provsim.simkernel import write_event_log
from provsim.trace import DemandTrace, Job, JobTrace

TRACES = None  # resolved lazily relative to this file

# The one place that decides how every property test draws. Derandomized, each
# test draws the same examples at every run and keeps no example database, so
# a failure found in one tree never carries into another; no deadline, since a
# slow draw on a loaded host is no fault. "explicit" gives a property test its
# @example inputs only: `pytest --hypothesis-profile explicit`.
settings.register_profile("provsim", derandomize=True, deadline=None)
settings.register_profile("explicit", parent=settings.get_profile("provsim"),
                          phases=[Phase.explicit])
settings.load_profile("provsim")


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    """`--hypothesis-seed` draws from that seed: Hypothesis lets `derandomize`
    win over the seed, so a seeded run turns it off."""
    if config.getoption("--hypothesis-seed") is not None:
        name = f"{settings.get_current_profile_name()}-seeded"
        settings.register_profile(name, derandomize=False, database=None)
        settings.load_profile(name)


def traces_dir():
    from pathlib import Path

    return Path(__file__).resolve().parent.parent / "traces"


@pytest.fixture
def collector_state():
    """Restore the collector's state after a test that changes it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


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


def log_text(result):
    """A recorded run's event log, as ``write_event_log`` writes it, decoded."""
    stream = io.BytesIO()
    write_event_log(result, stream)
    return stream.getvalue().decode()


class CountingStream(io.BytesIO):
    """A binary stream that counts its ``write`` calls."""

    writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)


class TooLong(BaseException):
    """Raised in a block that ran past its ``time_limit``; no ``except
    Exception`` in the program catches it."""


@contextlib.contextmanager
def time_limit(seconds):
    """Stop the block with TooLong after ``seconds`` of wall time, so that a
    run that would not end fails instead of hanging the suite."""
    def expire(*_):
        raise TooLong(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
