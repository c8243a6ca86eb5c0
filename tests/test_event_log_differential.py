"""`write_event_log` writes exactly the bytes of the dict-building reference
writer (`oracles.event_dicts_reference` encoded by JSONEncoder).

The fuzzed micro scenarios of each regime cover, between them, FB kills,
FLB_NUB and EC2RS adjustments, EC2RS lease-tick payloads and empty payloads
(``COVERED``); the shipped synthetic scenarios add long queues and started
lists of many jobs. Runs of one line fewer, as many and one more than one and
two whole blocks of ``_BLOCK`` lines check where the writer joins them.
"""

import io
from pathlib import Path

import pytest

from provsim.policies import PolicyParams
from provsim.scenario import load_scenario, load_traces, run_scenario_obj
from provsim.simkernel import _BLOCK, run, write_event_log
from provsim.state import REGIMES

from conftest import CountingStream, log_text, make_demand, make_jobs
from oracles import event_dicts_reference, random_fuzz_setup, write_event_log_reference

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "scenarios" / "synthetic").glob("*.json"))
FUZZ_SEEDS = range(150)
SHIPPED_DAYS = 2
# Line parts the fuzzed logs of each regime must contain between them.
COVERED = {
    "DCS": ['"kind":"job_arrival"', '"kind":"job_completion"', '"started":[', '"state":{'],
    "FB": ['"killed":[', '"adjustments":[', '"kind":"lease_tick","payload":{}',
           '"kind":"ws_demand_change","payload":{"demand"'],
    "FLB_NUB": ['"adjustments":[', '"kind":"pbj_manage_tick","payload":{}'],
    "EC2RS": ['"kind":"lease_tick","payload":{"job_id"', '"adjustments":['],
}


def logs(result):
    """(written log, reference log) of a recorded run."""
    reference = io.StringIO()
    write_event_log_reference(event_dicts_reference(result), reference)
    return log_text(result), reference.getvalue()


@pytest.mark.parametrize("regime", REGIMES)
def test_fuzzed_logs_match_reference(regime):
    written_logs = []
    for seed in FUZZ_SEEDS:
        jobs, demand, params, kwargs = random_fuzz_setup(regime, seed)
        written, reference = logs(run(jobs, demand, regime, params, record_events=True, **kwargs))
        assert written == reference, seed
        written_logs.append(written)
    covered = "".join(written_logs)
    assert all(part in covered for part in COVERED[regime]), regime


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_logs_match_reference(path):
    # The first two days of each shipped scenario; tests/test_golden.py checks
    # the whole two weeks against digests of logs the reference writer wrote.
    scenario = load_scenario(path)._replace(window_duration=SHIPPED_DAYS * 86400)
    written, reference = logs(run_scenario_obj(scenario, load_traces(scenario), record_events=True))
    assert written == reference


@pytest.mark.parametrize("lines", [k * _BLOCK + d for k in (1, 2) for d in (-1, 0, 1)])
def test_logs_across_block_boundaries_match_reference(lines):
    # A DCS run of one demand sample and lines - 1 arrivals: exactly ``lines``
    # records. Long runtimes fill the nodes, so later jobs queue.
    specs = [(i, i, 10**6, 1 + i % 3) for i in range(1, lines)]
    result = run(make_jobs(specs, lines), make_demand([(0, 2)]), "DCS", PolicyParams(),
                 record_events=True)
    assert len(result.records) == lines
    stream = CountingStream()
    write_event_log(result, stream)
    reference = io.StringIO()
    write_event_log_reference(event_dicts_reference(result), reference)
    assert stream.getvalue().decode() == reference.getvalue()
    assert stream.writes == -(-lines // _BLOCK)
