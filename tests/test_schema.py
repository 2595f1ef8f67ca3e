"""The built-in checker of ``REPORT_SCHEMA`` against ``jsonschema``, the
reference implementation of JSON Schema draft 2020-12."""

import copy
import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator

from dlv import (
    SchemaViolation,
    VerificationReport,
    report_to_dict,
    sweep_to_dict,
    verify_instance,
)
from dlv.oracle import OracleReport, oracle_report_to_dict
from dlv.schema import REPORT_SCHEMA, canonical_json, checked, document, validate_document

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Values that JSON Schema implementations are known to get wrong: bools
# pass as ints in Python, integral floats are integers, big ints, -0.0.
ODD_VALUES = [True, False, 1.0, -0.0, 2.5, 10**30, -1, 0, 1, None, [], {}, "", "x",
              "unknown", "Verified", "pairing", "verification-report"]


def _base_documents() -> list[dict]:
    """One valid document of each kind.  Every subschema of ``REPORT_SCHEMA``
    is reached by at least one of them (a ``failures`` list is non-empty),
    so a keyword the checker does not know cannot hide in a branch."""
    instances = (verify_instance(3, 1), verify_instance(3, 4))  # h0 1 and "unknown"
    report = VerificationReport(n=3, m_max=3, instances=instances, summary="two instances")
    oracle = oracle_report_to_dict(OracleReport("identity", 2, ("a mismatch",), 7))
    return [
        report_to_dict(report),
        sweep_to_dict([report]),
        oracle,
        document("oracle-run", reports=[oracle, oracle], failures_total=1),
        document("pair-result", n=3, expr="A.A", kind="pairing", value=8),
        document("pair-result", n=3, expr="A - R", kind="class", value="-G + Gamma_n"),
    ]


def _slots(node):
    """Every (container, key) pair below ``node``, depth first.  The schema
    allows any object as a rule's ``values``, so its insides are skipped."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)) and value and key != "values":
            yield from _slots(value)


def _mutate(doc: dict, rng: random.Random) -> None:
    parent, key = rng.choice(list(_slots(doc)))
    odd = copy.deepcopy(rng.choice(ODD_VALUES))
    action = rng.randrange(4)
    if action == 0:  # replace a value
        parent[key] = odd
    elif action == 1:  # drop a key or an item
        del parent[key]
    elif action == 2:  # add an extra key to the nearest object
        target = parent if isinstance(parent, dict) else parent[key]
        if isinstance(target, dict):
            target[rng.choice(["extra", "m", "status", "x"])] = odd
    else:  # append an item to the nearest array
        target = parent if isinstance(parent, list) else parent[key]
        if isinstance(target, list):
            target.append(copy.deepcopy(rng.choice(target)) if target else odd)


def _accepted(doc) -> bool:
    try:
        validate_document(doc)
    except SchemaViolation:
        return False
    return True


def test_base_documents_are_valid():
    reference = Draft202012Validator(REPORT_SCHEMA)
    for doc in _base_documents():
        validate_document(doc)
        assert reference.is_valid(doc)


def test_checker_agrees_with_jsonschema_on_mutants():
    reference = Draft202012Validator(REPORT_SCHEMA)
    rng = random.Random(20261018)
    bases = [canonical_json(doc) for doc in _base_documents()]
    disagreements, accepted, total = [], 0, 5000
    for i in range(total):
        doc = json.loads(bases[i % len(bases)])
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        expected = reference.is_valid(doc)
        accepted += expected
        if _accepted(doc) != expected:
            disagreements.append((i, doc))
    assert disagreements == []
    assert 100 < accepted < total - 1000  # both verdicts are well exercised


@pytest.mark.parametrize(
    "value, path",
    [
        ({"status": "Maybe"}, "$.reports[0].instances[1].status"),
        ({"h0": -1}, "$.reports[0].instances[1].h0"),
        ({"h0": True}, "$.reports[0].instances[1].h0"),
        ({"m": 0}, "$.reports[0].instances[1].m"),
        ({"extra": 1}, "$.reports[0].instances[1]"),
    ],
)
def test_violation_names_the_deepest_path(value, path):
    doc = _base_documents()[1]  # a sweep: the top-level oneOf must pick it
    doc["reports"][0]["instances"][1].update(value)
    with pytest.raises(SchemaViolation) as info:
        validate_document(doc)
    assert str(info.value).startswith(path + ": ")
    # the `path` attribute is the path the message names
    keys = info.value.path
    assert "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys) == path


@pytest.mark.parametrize(
    "kind, fields, message",
    [
        ("sweep-report", {"reports": [], "extra": 1}, "$: unexpected properties 'extra'"),
        ("sweep-report", {}, "$: 'reports' is a required property"),
        ("oracle-run", {"reports": [], "failures_total": -1},
         "$.failures_total: -1 is less than the minimum of 0"),
        ("pair-result", {"n": 3, "expr": "D.D", "kind": "pairing", "value": 1.5},
         "$.value: 1.5 is not of type 'integer'"),
    ],
)
def test_violation_comes_from_the_branch_of_the_named_kind(kind, fields, message):
    # the verification-report branch got deepest, at its `schema` const, so
    # a wrong sweep-report read "$.schema: 'sweep-report' is not 'verification-report'"
    doc = document(kind, **fields)
    with pytest.raises(SchemaViolation) as info:
        validate_document(doc)
    assert str(info.value) == message
    assert not Draft202012Validator(REPORT_SCHEMA).is_valid(doc)


def test_a_check_leaves_no_reference_cycle():
    # each failed oneOf branch kept its traceback, which held the checking
    # frames, and so the document, in a cycle until the next collection
    doc = _base_documents()[1]
    gc.collect()
    gc.disable()
    try:
        validate_document(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "value", [{"status": "Maybe"}, {"h0": -1}, {"m": 0}, {"extra": 1}, {"m": "1"}]
)
@pytest.mark.parametrize("sweep_index", [None, 0], ids=["verify", "sweep"])
def test_an_instance_checked_alone_fails_as_in_the_whole_document(value, sweep_index):
    # a streamed report is checked one instance at a time
    doc = _base_documents()[0 if sweep_index is None else 1]
    instances = doc["instances"] if sweep_index is None else doc["reports"][0]["instances"]
    instances[1].update(value)
    with pytest.raises(SchemaViolation) as whole:
        validate_document(doc)
    with pytest.raises(SchemaViolation) as alone:
        validate_document(instances[1], sweep_index, 1)
    assert str(alone.value) == str(whole.value)
    assert alone.value.path == whole.value.path


def test_checked_validates_only_when_the_check_is_on(monkeypatch):
    doc = _base_documents()[0]
    instance = doc["instances"][1]
    instance["status"] = "Maybe"
    monkeypatch.delenv("DLV_SCHEMA_CHECK", raising=False)
    assert checked(doc) is doc and checked(instance, None, 1) is instance
    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    for args, path in [
        ((doc,), "$.instances[1]"),
        ((instance, 2, 1), "$.reports[2].instances[1]"),
    ]:
        with pytest.raises(SchemaViolation, match=re.escape(f"{path}.status: 'Maybe'")):
            checked(*args)


@pytest.mark.parametrize(
    "schema",
    [
        {"const": 1},
        {"const": [1, {"a": False}]},
        {"enum": [0, "x", [True]]},
        {"minimum": 1},
        {"oneOf": [{"type": "integer"}, {"minimum": 0}]},
        {"properties": {"a": {"type": "string"}}, "required": ["b"],
         "additionalProperties": False},
        {"items": {"type": "integer"}},
    ],
)
def test_keyword_semantics_match_jsonschema(monkeypatch, schema):
    # REPORT_SCHEMA's consts are strings and its oneOf branches disjoint, so
    # these corners are reached only through schemas of their own
    monkeypatch.setattr("dlv.schema.REPORT_SCHEMA", schema)
    reference = Draft202012Validator(schema)
    values = [*ODD_VALUES, 5, 1.5, [1], [1.0], [True], [1, {"a": 0}], [1, {"a": False}],
              {"a": "s", "b": 0}, {"a": 1, "b": 0}, {"b": 0, "c": 0}, [1, "x"]]
    for value in values:
        assert _accepted(value) == reference.is_valid(value), (schema, value)


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "maxLength": 3},
        {"additionalProperties": {"type": "string"}},
        {"oneOf": [{"prefixItems": []}]},
    ],
)
def test_unknown_keyword_raises(monkeypatch, schema):
    monkeypatch.setattr("dlv.schema.REPORT_SCHEMA", schema)
    with pytest.raises(ValueError, match="does not support"):
        validate_document("ab")


def test_report_schema_is_a_valid_draft_2020_12_schema():
    # jsonschema.validate used to run this metaschema check on every call
    Draft202012Validator.check_schema(REPORT_SCHEMA)


def test_schema_check_runs_without_jsonschema(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--n-range", "3..9", "--format", "json", "--out", str(out)]
    code = (
        "import sys; sys.modules['jsonschema'] = None; "  # any import of it fails
        f"from dlv.cli import main; sys.exit(main({argv!r}))"
    )
    env = {**os.environ, "PYTHONPATH": SRC, "DLV_SCHEMA_CHECK": "1"}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "c8d6f797eb6326a8b34ce9bc127cebce499e70ce0af669f4c31ece64002c6150"
    )
