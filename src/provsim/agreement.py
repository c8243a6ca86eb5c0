"""RE agreements and the thin-RE lifecycle state machine.

Agreements arrive either in the attribute-style XML shape used by the
management system (``<lower_bound_size="100"></lower_bound_size>`` inside an
``RE_agreement`` root) or as an equivalent JSON object, read and written
through one table of elements. Parsed agreements are validated immutable
records; the lifecycle machine is a pure transition function over three states.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from typing import Any, NamedTuple, Optional, Union

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


class REAgreement(NamedTuple):
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


class CoordinationPlan(NamedTuple):
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
        raise TransitionError(f"illegal transition ({state.value}, {event.value})") from None


def _token(allowed: tuple[str, ...], what: str):
    """A reader of one of the ``allowed`` tokens, named ``what`` in its message."""
    def read(text: Optional[str], element: str) -> str:
        value = (text or "").strip()
        if value not in allowed:
            raise AgreementError(f"unknown {what} token {value!r} (expected one of {allowed})")
        return value
    return read


def _flag(text: Optional[str], element: str) -> bool:
    lowered = (text or "No").strip().lower()
    if lowered in ("yes", "true"):
        return True
    if lowered in ("no", "false"):
        return False
    raise AgreementError(f"unknown {element} token {text!r} (expected Yes/No)")


def _bound(defined: bool):
    """A reader of a whole-number bound, which only an optional bound leaves null."""
    def read(text: Optional[str], element: str) -> Optional[int]:
        if text is None or text.strip().lower() in ("null", "undefined", ""):
            if defined:
                raise AgreementError(f"{element} must be a defined integer")
            return None
        try:
            return whole(text.strip())
        except ValueError as exc:
            raise AgreementError(f"bad {element} value {text!r}: {exc}") from None
    return read


# REAgreement field -> (XML element, required, reader), in the order in which
# serialize_agreement writes the elements. A reader takes the element's text
# (None for null or an absent element) and its name, and checks as it reads.
_ELEMENTS = {
    "relationship": ("relationship", True, _token(RELATIONSHIPS, "relationship")),
    "workload_type": ("type", True, _token(WORKLOAD_TYPES, "workload type")),
    "has_coordinated_re": ("coordinated_RE", False, _flag),
    "allows_cross_provider": ("cross_provider_coordinated_RE", False, _flag),
    "granularity": ("granularity", True, _token(GRANULARITIES, "granularity")),
    "model": ("resource_coordination_model", True, _token(MODELS, "coordination model")),
    "lower_bound": ("lower_bound_size", True, _bound(defined=True)),
    "upper_bound": ("upper_bound_size", False, _bound(defined=False)),
    "setup_policy": ("setup_policy", True, lambda text, element: (text or "").strip()),
}


def _once(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for name, value in pairs:
        if name in values:
            raise AgreementError(f"duplicate agreement element {name!r}")
        values[name] = value
    return values


def parse_agreement(text: str) -> REAgreement:
    """Parse and validate an RE agreement from XML (attribute-style) or JSON.

    Text that starts with "{" is JSON, and decodes to an object or not at all.
    Its keys are REAgreement's field names ("type" stands for "workload_type",
    which wins when both are given), each value read as its element's text:
    true as "True". A JSON setup policy defaults to NOOP. A repeated element
    is named first, then the first missing required one, then the readers'
    faults in element order, then the rules that tie fields together.
    """
    if text.lstrip().startswith("{"):
        try:
            obj = {"setup_policy": "NOOP", **json.loads(text, object_pairs_hook=_once)}
        except json.JSONDecodeError as exc:
            raise AgreementError(f"invalid agreement JSON: {exc}") from None
        if "type" in obj:
            obj.setdefault("workload_type", obj["type"])
        values = {element: None if obj[field] is None else str(obj[field])
                  for field, (element, _, _) in _ELEMENTS.items() if field in obj}
    else:
        root = _ROOT_RE.search(text)
        if root is None:
            raise AgreementError("missing RE_agreement root element")
        pairs = []  # (element, text), None for null
        for match in _ELEMENT_RE.finditer(root.group(1)):
            open_name, quoted, _, close_name = match.groups()
            if open_name != close_name:
                raise AgreementError(f"mismatched element tags <{open_name}> ... </{close_name}>")
            pairs.append((open_name, quoted.strip() if quoted is not None else None))
        values = _once(pairs)
    for element, required, _ in _ELEMENTS.values():
        if required and element not in values:
            raise AgreementError(f"missing agreement element {element!r}")
    a = REAgreement(**{field: read(values.get(element), element)
                       for field, (element, _, read) in _ELEMENTS.items()})
    if a.lower_bound < 0:
        raise AgreementError(f"lower bound must be >= 0, got {a.lower_bound}")
    if a.model == "FB":
        if a.upper_bound is None:
            raise AgreementError("FB model requires a defined upper bound")
        if a.upper_bound != a.lower_bound:
            raise AgreementError(
                f"FB model requires equal bounds, got lower={a.lower_bound} upper={a.upper_bound}"
            )
    elif a.upper_bound is not None:  # FLB_NUB
        raise AgreementError("FLB_NUB model requires an undefined upper bound, "
                             f"got {a.upper_bound}")
    if not a.setup_policy or '"' in a.setup_policy:  # XML's quotes cannot hold a '"'
        raise AgreementError(f"setup policy must be nonempty, without '\"', got {a.setup_policy!r}")
    return a


def serialize_agreement(agreement: REAgreement) -> str:
    """Serialize to the attribute-style XML shape accepted by parse_agreement."""
    lines = ["<RE_agreement>\n"]
    for field, (element, _, _) in _ELEMENTS.items():
        value = getattr(agreement, field)
        if isinstance(value, bool):
            value = "Yes" if value else "No"
        text = "null" if value is None else f'"{value}"'
        lines.append(f"<{element}={text}></{element}>\n")
    return "".join(lines) + "</RE_agreement>\n"


def agreement_to_json(agreement: REAgreement) -> str:
    """JSON mirror of an agreement (same fields as the XML shape)."""
    return json.dumps(agreement._asdict(), indent=2)


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
