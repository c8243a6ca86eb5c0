"""Scenario files: the reproducibility unit for batch runs and sweeps.

A scenario is a JSON document naming the two traces, the shaping pipeline
(window, CPU normalization, peak-scaling tuple), the provisioning regime and
its parameters, and optional output paths. Trace paths are resolved relative
to the scenario file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Collection, NamedTuple, Optional

from . import trace as trace_mod
from .errors import ProvsimError, ScenarioError, TraceParseError
from .policies import (
    PARAM_CONVERTERS,
    PolicyParams,
    convert,
    lease_seconds,
    parse_params,
    regime_class,
    whole,
)
from .simkernel import SimResult, run

Traces = tuple[trace_mod.JobTrace, trace_mod.DemandTrace]


class Scenario(NamedTuple):
    """A fully specified simulation scenario."""

    name: str
    pbj_trace: str
    ws_trace: str
    window_start: int
    window_duration: int
    cpus_per_node: int
    prc_pbj: Optional[int]
    prc_ws: Optional[int]
    regime: str
    config_size: Optional[int]
    params: PolicyParams = PolicyParams()
    pbj_floor: Optional[int] = None
    output_dir: Optional[str] = None
    base_dir: Path = Path(".")

    def validate(self) -> "Scenario":
        """Check the scenario's own fields; the regime checks the rest at run time."""
        regime_class(self.regime)
        if self.window_start < 0:
            raise ScenarioError(f"window.start_offset must be >= 0, got {self.window_start}")
        if self.window_duration <= 0:
            raise ScenarioError(f"window.duration must be positive, got {self.window_duration}")
        if self.cpus_per_node < 1:
            raise ScenarioError(f"cpus_per_node must be >= 1, got {self.cpus_per_node}")
        if (self.prc_pbj is None) != (self.prc_ws is None):
            raise ScenarioError("target_peaks needs both pbj and ws, or neither")
        return self


def _field(doc: dict[str, Any], key: str, converter: Callable[[Any], Any],
           default: Any = None, prefix: str = "") -> Any:
    """``converter(doc[key])``, or ``default`` when the field is absent or null."""
    value = doc.get(key)
    if value is None:
        return default
    return convert(value, converter, f"scenario field {prefix}{key}")


def _text(value: Any) -> str:
    """A string, or a number read as its text; a list, object or boolean
    raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"expected text, got {type(value).__name__}")
    return str(value)


def _file_name(value: Any) -> str:
    """Text usable as a file name in the report directory and as a cell of
    the unquoted report CSV."""
    name = _text(value)
    if name in ("", ".", "..") or any(c in name for c in '/\0,"\r\n'):
        raise ValueError("must be a plain file name and CSV cell: not empty, '.', '..', "
                         "and no '/', NUL, ',', '\"', CR or LF")
    return name


def _known(doc: dict[str, Any], keys: Collection[str], prefix: str = "") -> dict[str, Any]:
    """``doc``; a key outside ``keys`` raises a ScenarioError naming it."""
    for key in doc:
        if key not in keys:
            raise ScenarioError(f"unknown scenario field {prefix}{key} "
                                f"(expected one of {', '.join(keys)})")
    return doc


def _object(value: Any) -> dict[str, Any]:
    """A JSON object; anything else raises TypeError."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _peak(value: Any) -> int:
    peak = whole(value)
    if peak < 1:
        raise ValueError("a target peak must be >= 1")
    return peak


def peak_pair(text: str, what: str) -> tuple[int, int]:
    """The (pbj, ws) target peaks written "pbj:ws", such as "128:64"."""
    try:
        pbj, ws = (_peak(v) for v in text.split(":"))
    except ValueError:
        raise ScenarioError(f"{what} looks like '128:64', got {text!r}") from None
    return pbj, ws


# The object form takes L in seconds, or in minutes as L_minutes.
_OBJECT_PARAMS = {**PARAM_CONVERTERS, "L": whole, "L_minutes": lease_seconds}


def _parse_policy_params(raw: Any) -> PolicyParams:
    if raw is None:
        return PolicyParams()
    if isinstance(raw, str):
        return parse_params(raw)
    if isinstance(raw, dict):
        if "L_minutes" in raw and "L" in raw:
            raise ScenarioError("give either L (seconds) or L_minutes, not both")
        _known(raw, _OBJECT_PARAMS, "params.")
        values = {key[0]: _field(raw, key, converter, prefix="params.")  # L_minutes sets L
                  for key, converter in _OBJECT_PARAMS.items() if raw.get(key) is not None}
        return PolicyParams(**values)
    raise ScenarioError(f"params must be a compact string or an object, got {type(raw)!r}")


def read_input(path: Path, what: str, read_error: type[ProvsimError] = ScenarioError,
               decode_error: type[ProvsimError] = ScenarioError) -> str:
    """The UTF-8 text of an input file. A file that cannot be read raises
    ``read_error`` and one that is not UTF-8 ``decode_error``; both name
    ``what`` and the path."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise read_error(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise decode_error(f"{what} {path} is not valid UTF-8: {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    text = read_input(path, "scenario file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid scenario JSON in {path}: {exc}") from None
    return scenario_from_dict(doc, base_dir=path.parent, default_name=path.stem)


_FIELDS = ("name", "pbj_trace", "ws_trace", "window", "cpus_per_node", "target_peaks", "regime",
           "config_size", "params", "pbj_floor", "output_dir")


def scenario_from_dict(
    doc: dict[str, Any], base_dir: Path = Path("."), default_name: str = "scenario"
) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _known(doc, _FIELDS)
    for key in ("pbj_trace", "ws_trace", "regime"):
        if doc.get(key) is None:
            raise ScenarioError(f"missing scenario field {key!r}")
    window = _known(_field(doc, "window", _object, {}), ("start_offset", "duration"), "window.")
    targets = _known(_field(doc, "target_peaks", _object, {}), ("pbj", "ws"), "target_peaks.")
    scenario = Scenario(
        name=_field(doc, "name", _file_name) or convert(default_name, _file_name, "scenario name"),
        pbj_trace=_field(doc, "pbj_trace", _text),
        ws_trace=_field(doc, "ws_trace", _text),
        window_start=_field(window, "start_offset", whole, 0, "window."),
        window_duration=_field(window, "duration", whole, 0, "window."),
        cpus_per_node=_field(doc, "cpus_per_node", whole, 1),
        prc_pbj=_field(targets, "pbj", _peak, prefix="target_peaks."),
        prc_ws=_field(targets, "ws", _peak, prefix="target_peaks."),
        regime=_field(doc, "regime", _text),
        config_size=_field(doc, "config_size", whole),
        params=_parse_policy_params(doc.get("params")),
        pbj_floor=_field(doc, "pbj_floor", whole),
        output_dir=_field(doc, "output_dir", _text),
        base_dir=base_dir,
    )
    return scenario.validate()


def read_traces(scenario: Scenario) -> Traces:
    """Read both traces: parse, window, then CPU-normalize; no peak scaling."""
    pbj_path = (scenario.base_dir / scenario.pbj_trace).resolve()
    ws_path = (scenario.base_dir / scenario.ws_trace).resolve()
    pbj_text = read_input(pbj_path, "batch-job trace", decode_error=TraceParseError)
    ws_text = read_input(ws_path, "demand trace", decode_error=TraceParseError)
    jobs = trace_mod.parse_swf(pbj_text)
    jobs = trace_mod.window(jobs, scenario.window_start, scenario.window_duration)
    if scenario.cpus_per_node > 1:
        jobs = trace_mod.normalize_cpus(jobs, scenario.cpus_per_node)
    return jobs, trace_mod.parse_demand_trace(ws_text)


def scale_traces(scenario: Scenario, traces: Traces) -> Traces:
    """Read traces peak-scaled to the scenario's target_peaks, if it gives any."""
    if scenario.prc_pbj is None:
        return traces
    jobs, demand = traces
    if demand.peak_demand == 0:
        ws_path = (scenario.base_dir / scenario.ws_trace).resolve()
        raise ScenarioError(f"demand trace {ws_path} peaks at 0, so it cannot be scaled "
                            f"to target_peaks.ws={scenario.prc_ws}")
    return (trace_mod.scale_to_peak(jobs, scenario.prc_pbj),
            trace_mod.scale_to_peak(demand, scenario.prc_ws))


def load_traces(scenario: Scenario) -> Traces:
    """Load and shape both traces: window, then CPU-normalize, then peak-scale."""
    return scale_traces(scenario, read_traces(scenario))


def run_scenario_obj(scenario: Scenario, traces: Traces, record_events: bool = False) -> SimResult:
    """Execute one scenario on its shaped ``traces`` (see ``load_traces``),
    keeping its raw event records only with ``record_events``."""
    return run(*traces, scenario.regime, scenario.params, config_size=scenario.config_size,
               pbj_floor=scenario.pbj_floor, record_events=record_events)


SWEEP_AXES = (*PARAM_CONVERTERS, "tuple")


def apply_axis(scenario: Scenario, axis: str, value) -> Scenario:
    """Derive a sweep-point scenario by overriding one axis (L in minutes)."""
    if axis in PARAM_CONVERTERS:
        number = convert(value, PARAM_CONVERTERS[axis], f"sweep axis {axis} value")
        params = scenario.params._replace(**{axis: number})
        if axis == "L":  # labelled in minutes, as given
            label = number // 60 if number % 60 == 0 else number / 60
        else:  # B as read; U, V and G as an int when integral, else as the float
            label = int(number) if axis != "B" and number.is_integer() else number
        return scenario._replace(params=params, name=f"{scenario.name}_{axis}{label}")
    if axis == "tuple":
        pbj, ws = peak_pair(value, "tuple axis value")
        derived = scenario._replace(prc_pbj=pbj, prc_ws=ws, name=f"{scenario.name}_{pbj}x{ws}")
        if regime_class(scenario.regime).config_from_peaks:
            derived = derived._replace(config_size=None)
        return derived
    raise ScenarioError(f"unknown sweep axis {axis!r} (expected one of {SWEEP_AXES})")
