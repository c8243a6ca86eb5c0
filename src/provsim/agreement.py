"""RE agreements and the thin-RE lifecycle state machine.

Agreements arrive either in the attribute-style XML shape used by the
management system (``<lower_bound_size="100"></lower_bound_size>`` inside an
``RE_agreement`` root) or as an equivalent JSON object. Parsed agreements are
validated immutable records; the lifecycle machine is a pure transition
function over three states.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Optional, Union

from .errors import AgreementError, PairingError, TransitionError
from .policies import whole

RELATIONSHIPS = ("same", "affiliated", "business")
WORKLOAD_TYPES = ("parallel_batch_jobs", "web_services")
GRANULARITIES = ("node", "virtual_machine")
MODELS = ("FB", "FLB_NUB")

_ELEMENT_RE = re.compile(
    r'<\s*([A-Za-z_]\w*)\s*=\s*(?:"([^"]*)"|(null))\s*>\s*<\s*/\s*([A-Za-z_]\w*)\s*>',
    re.DOTALL,
)
_ROOT_RE = re.compile(r"<\s*RE_agreement\s*>(.*)</\s*RE_agreement\s*>", re.DOTALL)


@dataclass(frozen=True)
class REAgreement:
    """A validated runtime-environment agreement."""

    relationship: str
    workload_type: str
    granularity: str
    has_coordinated_re: bool
    allows_cross_provider: bool
    model: str
    lower_bound: int
    upper_bound: Optional[int]  # None = undefined (FLB_NUB)
    setup_policy: str


@dataclass(frozen=True)
class CoordinationPlan:
    """Result of pairing two coordinated agreements: shared pool = sum of lower bounds."""

    model: str
    pool_size: int


class TREState(Enum):
    UNINITIALIZED = "uninitialized"
    CREATED = "created"
    RUNNING = "running"


class LifecycleEvent(Enum):
    CREATE = "create"
    DEPLOY = "deploy"
    ACTIVATE = "activate"
    DEACTIVATE = "deactivate"
    DESTROY = "destroy"


_TRANSITIONS = {
    (TREState.UNINITIALIZED, LifecycleEvent.CREATE): TREState.UNINITIALIZED,
    (TREState.UNINITIALIZED, LifecycleEvent.DEPLOY): TREState.CREATED,
    (TREState.CREATED, LifecycleEvent.ACTIVATE): TREState.RUNNING,
    (TREState.RUNNING, LifecycleEvent.DEACTIVATE): TREState.CREATED,
    (TREState.CREATED, LifecycleEvent.DESTROY): TREState.UNINITIALIZED,
}


def lifecycle_step(state: TREState, event: Union[LifecycleEvent, str]) -> TREState:
    """Advance the TRE lifecycle; illegal (state, event) pairs raise TransitionError."""
    if isinstance(event, str):
        try:
            event = LifecycleEvent(event)
        except ValueError:
            raise TransitionError(f"unknown lifecycle event {event!r}") from None
    try:
        return _TRANSITIONS[(state, event)]
    except KeyError:
        raise TransitionError(
            f"illegal transition ({state.value}, {event.value})"
        ) from None


def _check_token(value: str, allowed: tuple[str, ...], field: str) -> str:
    if value not in allowed:
        raise AgreementError(f"unknown {field} token {value!r} (expected one of {allowed})")
    return value


def _validate(agreement: REAgreement) -> REAgreement:
    _check_token(agreement.relationship, RELATIONSHIPS, "relationship")
    _check_token(agreement.workload_type, WORKLOAD_TYPES, "workload type")
    _check_token(agreement.granularity, GRANULARITIES, "granularity")
    _check_token(agreement.model, MODELS, "coordination model")
    if agreement.lower_bound < 0:
        raise AgreementError(f"lower bound must be >= 0, got {agreement.lower_bound}")
    if agreement.model == "FB":
        if agreement.upper_bound is None:
            raise AgreementError("FB model requires a defined upper bound")
        if agreement.upper_bound != agreement.lower_bound:
            raise AgreementError(
                "FB model requires equal bounds, got "
                f"lower={agreement.lower_bound} upper={agreement.upper_bound}"
            )
    else:  # FLB_NUB
        if agreement.upper_bound is not None:
            raise AgreementError(
                f"FLB_NUB model requires an undefined upper bound, got {agreement.upper_bound}"
            )
    if not agreement.setup_policy:
        raise AgreementError("setup policy identifier must be nonempty")
    return agreement


def _parse_flag(value: str, field: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("yes", "true"):
        return True
    if lowered in ("no", "false"):
        return False
    raise AgreementError(f"unknown {field} token {value!r} (expected Yes/No)")


def _parse_bound(value: Optional[str], field: str) -> Optional[int]:
    if value is None or value.strip().lower() in ("null", "undefined", ""):
        return None
    try:
        return whole(value.strip())
    except ValueError as exc:
        raise AgreementError(f"bad {field} value {value!r}: {exc}") from None


_REQUIRED = ("relationship", "type", "granularity", "resource_coordination_model",
             "lower_bound_size", "setup_policy")

# JSON key -> element name; "workload_type" is listed after "type" so that it
# wins when both are given.
_JSON_ELEMENTS = {
    "relationship": "relationship",
    "type": "type",
    "workload_type": "type",
    "granularity": "granularity",
    "has_coordinated_re": "coordinated_RE",
    "allows_cross_provider": "cross_provider_coordinated_RE",
    "model": "resource_coordination_model",
    "lower_bound": "lower_bound_size",
    "upper_bound": "upper_bound_size",
    "setup_policy": "setup_policy",
}


def _build_agreement(fields: dict[str, Optional[str]]) -> REAgreement:
    """The agreement whose element values (text, or None for null) are
    ``fields``."""
    for name in _REQUIRED:
        if name not in fields:
            raise AgreementError(f"missing agreement element {name!r}")
    has_coord = _parse_flag(fields.get("coordinated_RE") or "No", "coordinated_RE")
    cross = fields.get("cross_provider_coordinated_RE")
    allows_cross = _parse_flag(cross, "cross_provider_coordinated_RE") if cross is not None else False
    lower = _parse_bound(fields["lower_bound_size"], "lower_bound_size")
    if lower is None:
        raise AgreementError("lower_bound_size must be a defined integer")
    return REAgreement(
        relationship=(fields["relationship"] or "").strip(),
        workload_type=(fields["type"] or "").strip(),
        granularity=(fields["granularity"] or "").strip(),
        has_coordinated_re=has_coord,
        allows_cross_provider=allows_cross,
        model=(fields["resource_coordination_model"] or "").strip(),
        lower_bound=lower,
        upper_bound=_parse_bound(fields.get("upper_bound_size"), "upper_bound_size"),
        setup_policy=(fields["setup_policy"] or "").strip(),
    )


def _parse_agreement_xml(text: str) -> REAgreement:
    root = _ROOT_RE.search(text)
    if root is None:
        raise AgreementError("missing RE_agreement root element")
    fields: dict[str, Optional[str]] = {}
    for match in _ELEMENT_RE.finditer(root.group(1)):
        open_name, quoted, null_token, close_name = match.groups()
        if open_name != close_name:
            raise AgreementError(
                f"mismatched element tags <{open_name}> ... </{close_name}>"
            )
        fields[open_name] = quoted.strip() if quoted is not None else None
    return _build_agreement(fields)


def _parse_agreement_json(text: str) -> REAgreement:
    """Text that starts with "{" decodes to an object or not at all."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AgreementError(f"invalid agreement JSON: {exc}") from None
    fields: dict[str, Optional[str]] = {"setup_policy": "NOOP"}
    for key, name in _JSON_ELEMENTS.items():
        if key in obj:  # a value is read as the text of its element: true as "True"
            fields[name] = None if obj[key] is None else str(obj[key])
    return _build_agreement(fields)


def parse_agreement(text: str) -> REAgreement:
    """Parse and validate an RE agreement from XML (attribute-style) or JSON."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _validate(_parse_agreement_json(text))
    return _validate(_parse_agreement_xml(text))


def serialize_agreement(agreement: REAgreement) -> str:
    """Serialize to the attribute-style XML shape accepted by parse_agreement."""
    upper = "null" if agreement.upper_bound is None else f'"{agreement.upper_bound}"'
    flag = "Yes" if agreement.has_coordinated_re else "No"
    cross = "Yes" if agreement.allows_cross_provider else "No"
    return (
        "<RE_agreement>\n"
        f'<relationship="{agreement.relationship}"></relationship>\n'
        f'<type="{agreement.workload_type}"></type>\n'
        f'<coordinated_RE="{flag}"></coordinated_RE>\n'
        f'<cross_provider_coordinated_RE="{cross}"></cross_provider_coordinated_RE>\n'
        f'<granularity="{agreement.granularity}"></granularity>\n'
        f'<resource_coordination_model="{agreement.model}"></resource_coordination_model>\n'
        f'<lower_bound_size="{agreement.lower_bound}"></lower_bound_size>\n'
        f"<upper_bound_size={upper}></upper_bound_size>\n"
        f'<setup_policy="{agreement.setup_policy}"></setup_policy>\n'
        "</RE_agreement>\n"
    )


def agreement_to_json(agreement: REAgreement) -> str:
    """JSON mirror of an agreement (same fields as the XML shape)."""
    return json.dumps(asdict(agreement), indent=2)


def allows_coordination(agreement: REAgreement) -> bool:
    return agreement.has_coordinated_re or agreement.allows_cross_provider


def pair_coordinated(a: REAgreement, b: REAgreement) -> CoordinationPlan:
    """Combine two coordinated agreements into a shared-pool plan.

    Both must allow coordination, declare the same model, and cover the two
    different workload types; the pool is the sum of the lower bounds.
    """
    if not allows_coordination(a) or not allows_coordination(b):
        raise PairingError("both agreements must allow coordinated REs")
    if a.model != b.model:
        raise PairingError(f"coordination model mismatch: {a.model} vs {b.model}")
    if a.workload_type == b.workload_type:
        raise PairingError(
            f"coordinated REs must cover different workload types, both are {a.workload_type}"
        )
    return CoordinationPlan(model=a.model, pool_size=a.lower_bound + b.lower_bound)
