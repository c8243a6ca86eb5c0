"""`write_event_log` writes exactly the bytes of the dict-building reference
writer (`oracles.event_dicts_reference` encoded by JSONEncoder).

The fuzzed micro scenarios of each regime cover, between them, FB kills,
FLB_NUB and EC2RS adjustments, EC2RS lease-tick payloads and empty payloads
(``COVERED``); the shipped synthetic scenarios add long queues and started
lists of many jobs.
"""

import io
from pathlib import Path

import pytest

from provsim.scenario import load_scenario, load_traces, run_scenario_obj
from provsim.simkernel import run, write_event_log
from provsim.state import REGIMES

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
    written, reference = io.StringIO(), io.StringIO()
    write_event_log(result, written)
    write_event_log_reference(event_dicts_reference(result), reference)
    return written.getvalue(), reference.getvalue()


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
