"""The RE agreement's nine elements: the bytes both writers give, how each
element reads when it is left out or given twice, which fault a document
names first, and that every accepted agreement reads back as written."""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from provsim.agreement import agreement_to_json, parse_agreement, serialize_agreement
from provsim.cli import main
from provsim.errors import EXIT_INVALID, AgreementError

from test_agreement import BATCH_AGREEMENT_XML, make_agreement

FB_AGREEMENT = dict(model="FB", lower_bound=0, upper_bound=0, has_coordinated_re=False,
                    allows_cross_provider=True)

# (agreement fields, serialize_agreement bytes, agreement_to_json bytes)
WRITTEN = [
    ({},
     '<RE_agreement>\n<relationship="affiliated"></relationship>\n<type="web_services"></type>\n'
     '<coordinated_RE="Yes"></coordinated_RE>\n'
     '<cross_provider_coordinated_RE="No"></cross_provider_coordinated_RE>\n'
     '<granularity="node"></granularity>\n'
     '<resource_coordination_model="FLB_NUB"></resource_coordination_model>\n'
     '<lower_bound_size="13"></lower_bound_size>\n<upper_bound_size=null></upper_bound_size>\n'
     '<setup_policy="NOOP"></setup_policy>\n</RE_agreement>\n',
     '{\n  "relationship": "affiliated",\n  "workload_type": "web_services",\n'
     '  "granularity": "node",\n  "has_coordinated_re": true,\n'
     '  "allows_cross_provider": false,\n  "model": "FLB_NUB",\n  "lower_bound": 13,\n'
     '  "upper_bound": null,\n  "setup_policy": "NOOP"\n}'),
    (FB_AGREEMENT,
     '<RE_agreement>\n<relationship="affiliated"></relationship>\n<type="web_services"></type>\n'
     '<coordinated_RE="No"></coordinated_RE>\n'
     '<cross_provider_coordinated_RE="Yes"></cross_provider_coordinated_RE>\n'
     '<granularity="node"></granularity>\n'
     '<resource_coordination_model="FB"></resource_coordination_model>\n'
     '<lower_bound_size="0"></lower_bound_size>\n<upper_bound_size="0"></upper_bound_size>\n'
     '<setup_policy="NOOP"></setup_policy>\n</RE_agreement>\n',
     '{\n  "relationship": "affiliated",\n  "workload_type": "web_services",\n'
     '  "granularity": "node",\n  "has_coordinated_re": false,\n'
     '  "allows_cross_provider": true,\n  "model": "FB",\n  "lower_bound": 0,\n'
     '  "upper_bound": 0,\n  "setup_policy": "NOOP"\n}'),
]


@pytest.mark.parametrize("fields, xml, js", WRITTEN, ids=["FLB_NUB", "FB"])
def test_writers_keep_their_bytes(fields, xml, js):
    agreement = make_agreement(**fields)
    assert serialize_agreement(agreement) == xml
    assert agreement_to_json(agreement) == js


MISSING = "missing agreement element"
# Both flags are set, so that their default shows; FLB_NUB's upper bound is
# undefined, which is its default.
BASE = make_agreement(allows_cross_provider=True, setup_policy="WIPE")

# (XML element, JSON key, read when the XML element is absent, read when the
# JSON key is absent; MISSING: the document is rejected naming the element)
ELEMENTS = [
    ("relationship", "relationship", MISSING, MISSING),
    ("type", "workload_type", MISSING, MISSING),
    ("coordinated_RE", "has_coordinated_re", False, False),
    ("cross_provider_coordinated_RE", "allows_cross_provider", False, False),
    ("granularity", "granularity", MISSING, MISSING),
    ("resource_coordination_model", "model", MISSING, MISSING),
    ("lower_bound_size", "lower_bound", MISSING, MISSING),
    ("upper_bound_size", "upper_bound", None, None),
    ("setup_policy", "setup_policy", MISSING, "NOOP"),
]


def without(element, key):
    """BASE as XML without ``element`` and as JSON without ``key``."""
    xml = re.sub(f"<{element}=[^>]*></{element}>\n", "", serialize_agreement(BASE))
    obj = BASE._asdict()
    del obj[key]
    return xml, json.dumps(obj)


@pytest.mark.parametrize("element, key, xml_read, json_read", ELEMENTS,
                         ids=[element for element, *_ in ELEMENTS])
def test_left_out_element(element, key, xml_read, json_read):
    for text, read in zip(without(element, key), (xml_read, json_read)):
        if read == MISSING:
            with pytest.raises(AgreementError, match=f"{MISSING} '{element}'"):
                parse_agreement(text)
        else:
            assert parse_agreement(text) == BASE._replace(**{key: read})
    if xml_read != MISSING:  # an optional element given as null or as "" reads as absent
        for value in ("null", '""'):
            text = re.sub(f"<{element}=[^>]*>", f"<{element}={value}>", serialize_agreement(BASE))
            assert parse_agreement(text) == BASE._replace(**{key: xml_read})


@pytest.mark.parametrize("first", [True, False], ids=["type-first", "workload_type-first"])
def test_json_workload_type_wins_over_type(first):
    obj = BASE._asdict()
    del obj["workload_type"]
    pair = [("type", "parallel_batch_jobs"), ("workload_type", "web_services")]
    both = {**obj, **dict(pair if first else pair[::-1])}
    assert parse_agreement(json.dumps(both)).workload_type == "web_services"
    obj["type"] = "parallel_batch_jobs"
    assert parse_agreement(json.dumps(obj)).workload_type == "parallel_batch_jobs"


# (edits of BASE's XML, the fault named): missing elements first, then the
# readers' faults in element order, then the rules that tie fields together.
FAULTS = [
    ({'"affiliated"': '"buddies"', '<setup_policy="WIPE"></setup_policy>': ""},
     "missing agreement element 'setup_policy'"),
    ({'"affiliated"': '"buddies"', '"13"': '"abc"'}, "unknown relationship token 'buddies'"),
    ({'"node"': '"rack"', '<coordinated_RE="Yes">': '<coordinated_RE="maybe">'},
     "unknown coordinated_RE token 'maybe'"),
    ({'"13"': '"abc"', "null": '"5"'}, "bad lower_bound_size value 'abc'"),
    ({'"13"': '"-3"', '"WIPE"': '""'}, "lower bound must be >= 0"),
    ({"null": '"5"', '"WIPE"': '""'}, "FLB_NUB model requires an undefined upper bound"),
]


@pytest.mark.parametrize("edits, named", FAULTS, ids=[
    "missing-element", "token-before-bound", "flag-before-token", "lower-before-upper",
    "lower-rule-before-setup-policy", "model-rule-before-setup-policy"])
def test_first_fault_named(edits, named):
    text = serialize_agreement(BASE)
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    with pytest.raises(AgreementError, match=re.escape(named)):
        parse_agreement(text)


@pytest.mark.parametrize("element, key", [(element, key) for element, key, *_ in ELEMENTS],
                         ids=[element for element, *_ in ELEMENTS])
def test_element_given_twice_is_refused(element, key):
    # Neither copy is taken, whichever value each holds.
    xml = serialize_agreement(BASE)
    line = re.search(f"<{element}=[^>]*></{element}>\n", xml).group()
    value = json.dumps(BASE._asdict()[key])
    for text, name in ((xml.replace(line, line * 2), element),
                       ('{"%s": %s, %s' % (key, value, json.dumps(BASE._asdict())[1:]), key)):
        with pytest.raises(AgreementError, match=f"duplicate agreement element '{name}'"):
            parse_agreement(text)


def test_validate_exits_invalid_on_an_element_given_twice(tmp_path, capsys):
    xml = serialize_agreement(BASE).replace(
        '<lower_bound_size="13">', '<lower_bound_size="1"></lower_bound_size><lower_bound_size="7">')
    js = json.dumps(BASE._asdict()).replace('"lower_bound": 13', '"lower_bound": 3, "lower_bound": 9')
    for text, name in ((xml, "lower_bound_size"), (js, "lower_bound")):
        path = tmp_path / "re.txt"
        path.write_text(text)
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert f"duplicate agreement element '{name}'" in capsys.readouterr().err


# Setup policies that XML's quotes carry as they are.
POLICIES = ["é", "a<b", "a>b", "a&b", "re image now", " <&> é ", "null"]
# Every agreement that a fixture of these tests accepts, and BASE with each policy.
ACCEPTED = [BATCH_AGREEMENT_XML, serialize_agreement(BASE),
            *(agreement_to_json(make_agreement(**fields)) for fields, _, _ in WRITTEN),
            *(json.dumps({**BASE._asdict(), "setup_policy": policy}) for policy in POLICIES)]


@pytest.mark.parametrize("text", ACCEPTED, ids=["batch-XML", "BASE-XML", "FLB_NUB-JSON",
                                                "FB-JSON", *POLICIES])
def test_accepted_agreement_round_trips(text):
    agreement = parse_agreement(text)
    assert parse_agreement(serialize_agreement(agreement)) == agreement
    assert parse_agreement(agreement_to_json(agreement)) == agreement


@given(st.text())
def test_every_accepted_setup_policy_round_trips(policy):
    # A '"' could not stand inside XML's quotes, so it is refused.
    text = json.dumps({**BASE._asdict(), "setup_policy": policy})
    if not policy.strip() or '"' in policy:
        with pytest.raises(AgreementError, match="setup policy must be nonempty"):
            parse_agreement(text)
    else:
        agreement = parse_agreement(text)
        assert parse_agreement(serialize_agreement(agreement)) == agreement
