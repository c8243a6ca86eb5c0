"""Evaluation metrics of one run, from what the kernel tallies as it goes:
completion counts and sums, and the peak and integral of the consumption
level (each regime gives its level from state). Totals are kept as exact
integer node-seconds and reported in node-hours to one decimal.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple, Optional

# The columns identifying what ran: ``Regime.report_columns`` gives their
# values, and ``SimResult.columns`` carries them.
IDENT_COLUMNS = ["config_size", "prc_pbj", "prc_ws", "B", "U", "V", "G", "L_seconds"]

CSV_COLUMNS = [
    "scenario",
    "regime",
    *IDENT_COLUMNS,
    "completed_jobs",
    "incomplete_jobs",
    "avg_execution_time_s",
    "avg_turnaround_time_s",
    "peak_consumption_nodes",
    "total_consumption_node_hours",
    "adjustment_count",
    "window_duration_s",
]


class MetricsReport(NamedTuple):
    """The comparison metrics of one simulated scenario."""

    regime: str
    completed_jobs: int
    incomplete_jobs: int
    avg_execution_time: Optional[float]
    avg_turnaround_time: Optional[float]
    peak_consumption: int
    total_consumption_node_seconds: int
    adjustment_count: int
    window_duration: int

    @property
    def total_consumption_node_hours(self) -> float:
        return round(self.total_consumption_node_seconds / 3600.0, 1)


def finalize(
    *,
    peak: int,
    total: int,
    completed: int,
    runtime_sum: int,
    turnaround_sum: int,
    duration: int,
    regime: str,
    total_jobs: int,
    adjustment_count: int,
) -> MetricsReport:
    """Assemble the report from the completion tallies and the consumption
    peak and total node-seconds over the window.

    Averages cover completed jobs only (jobs still queued or running at the
    window end are reported as incomplete); turnaround runs from the original
    submission, and execution time is the trace runtime.
    """
    return MetricsReport(
        regime=regime,
        completed_jobs=completed,
        incomplete_jobs=total_jobs - completed,
        avg_execution_time=runtime_sum / completed if completed else None,
        avg_turnaround_time=turnaround_sum / completed if completed else None,
        peak_consumption=peak,
        total_consumption_node_seconds=total,
        adjustment_count=adjustment_count,
        window_duration=duration,
    )


def _round1(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 1)


def report_to_dict(report: MetricsReport, ident: dict[str, Any]) -> dict[str, Any]:
    """JSON-ready report; `ident` supplies the scenario name and the
    identification columns (absent ones are empty)."""
    return {
        "scenario": ident.get("name", ""),
        "regime": report.regime,
        **{column: ident.get(column) for column in IDENT_COLUMNS},
        "completed_jobs": report.completed_jobs,
        "incomplete_jobs": report.incomplete_jobs,
        "avg_execution_time_s": _round1(report.avg_execution_time),
        "avg_turnaround_time_s": _round1(report.avg_turnaround_time),
        "peak_consumption_nodes": report.peak_consumption,
        "total_consumption_node_hours": report.total_consumption_node_hours,
        "total_consumption_node_seconds": report.total_consumption_node_seconds,
        "adjustment_count": report.adjustment_count,
        "window_duration_s": report.window_duration,
    }


def report_to_json(report: MetricsReport, ident: dict[str, Any]) -> str:
    return json.dumps(report_to_dict(report, ident), indent=2) + "\n"


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def report_to_csv_row(report: MetricsReport, ident: dict[str, Any]) -> str:
    """One CSV row in the fixed, documented column order (empty = absent)."""
    data = report_to_dict(report, ident)
    return ",".join("" if data[column] is None else str(data[column]) for column in CSV_COLUMNS)
