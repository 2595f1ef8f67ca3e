"""The JSON document format, stated once.

Every JSON document dlv writes opens with one envelope: ``schema`` (the
kind), ``schema_version`` and ``tool_version``, built only by
:func:`document`.  ``REPORT_SCHEMA`` states the five kinds the CLI emits:
``verification-report``, ``sweep-report``, ``oracle-report``, ``oracle-run``
and ``pair-result``.  Setting ``DLV_SCHEMA_CHECK=1`` makes the CLI validate
its own JSON output against it before writing it.
"""

from __future__ import annotations

import os

from . import __version__

SCHEMA_VERSION = 1


def document(kind: str, /, **fields) -> dict:
    """A ``kind`` document: the envelope, then ``fields``.  ``kind`` is
    positional-only because ``pair-result`` has a field named ``kind``."""
    return {
        "schema": kind,
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        **fields,
    }


def _object(**props) -> dict:
    """A closed object schema in which every property is required."""
    return {
        "type": "object",
        "properties": props,
        "required": list(props),
        "additionalProperties": False,
    }


def _document(kind: str, /, **props) -> dict:
    """The object schema of a ``kind`` document: the envelope, then ``props``."""
    return _object(
        schema={"const": kind},
        schema_version={"type": "integer"},
        tool_version={"type": "string"},
        **props,
    )


_RULE_APPLICATION = _object(
    rule={"type": "string"},
    citation={"type": "string"},
    values={"type": "object"},
)

_INSTANCE = _object(
    m={"type": "integer", "minimum": 1},
    a_n_squared={"type": "integer"},
    d_n_squared={"type": "integer"},
    certificate_value={"type": "integer"},
    h0={"oneOf": [{"type": "integer", "minimum": 0}, {"const": "unknown"}]},
    status={"enum": ["Verified", "BeyondThreshold", "Failed"]},
    certificate_chain={"type": "array", "items": _RULE_APPLICATION},
)

_VERIFICATION_REPORT = _document(
    "verification-report",
    n={"type": "integer", "minimum": 3},
    m_max={"type": "integer", "minimum": 1},
    instances={"type": "array", "items": _INSTANCE},
    summary={"type": "string"},
)

_ORACLE_REPORT = _document(
    "oracle-report",
    suite={"type": "string"},
    trials={"type": "integer", "minimum": 0},
    failures={"type": "array", "items": {"type": "string"}},
    seed={"type": "integer"},
)

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://example.invalid/dlv-report.schema.json",
    "oneOf": [
        _VERIFICATION_REPORT,
        _document(
            "sweep-report",
            reports={"type": "array", "items": _VERIFICATION_REPORT},
        ),
        _ORACLE_REPORT,
        _document(
            "oracle-run",
            reports={"type": "array", "items": _ORACLE_REPORT},
            failures_total={"type": "integer", "minimum": 0},
        ),
        _document(
            "pair-result",
            n={"type": "integer"},
            expr={"type": "string"},
            kind={"enum": ["pairing", "class"]},
            value={"oneOf": [{"type": "integer"}, {"type": "string"}]},
        ),
    ],
}


def schema_check_enabled() -> bool:
    return os.environ.get("DLV_SCHEMA_CHECK") == "1"


def validate_document(document: dict) -> None:
    """Raise ``jsonschema.ValidationError`` when the document does not
    match the embedded schema."""
    import jsonschema

    jsonschema.validate(instance=document, schema=REPORT_SCHEMA)
