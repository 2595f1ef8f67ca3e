"""Embedded JSON schema for every document the CLI emits.

Setting the environment variable ``DLV_SCHEMA_CHECK=1`` makes the CLI
validate its own JSON output against this schema before writing it.
"""

from __future__ import annotations

import os

SCHEMA_VERSION = 1

_RULE_APPLICATION = {
    "type": "object",
    "properties": {
        "rule": {"type": "string"},
        "citation": {"type": "string"},
        "values": {"type": "object"},
    },
    "required": ["rule", "citation", "values"],
    "additionalProperties": False,
}

_INSTANCE = {
    "type": "object",
    "properties": {
        "m": {"type": "integer", "minimum": 1},
        "a_n_squared": {"type": "integer"},
        "d_n_squared": {"type": "integer"},
        "certificate_value": {"type": "integer"},
        "h0": {"oneOf": [{"type": "integer", "minimum": 0}, {"const": "unknown"}]},
        "status": {"enum": ["Verified", "BeyondThreshold", "Failed"]},
        "certificate_chain": {"type": "array", "items": _RULE_APPLICATION},
    },
    "required": [
        "m",
        "a_n_squared",
        "d_n_squared",
        "certificate_value",
        "h0",
        "status",
        "certificate_chain",
    ],
    "additionalProperties": False,
}

_VERIFICATION_REPORT = {
    "type": "object",
    "properties": {
        "schema": {"const": "verification-report"},
        "schema_version": {"type": "integer"},
        "tool_version": {"type": "string"},
        "n": {"type": "integer", "minimum": 3},
        "m_max": {"type": "integer", "minimum": 1},
        "instances": {"type": "array", "items": _INSTANCE},
        "summary": {"type": "string"},
    },
    "required": [
        "schema",
        "schema_version",
        "tool_version",
        "n",
        "m_max",
        "instances",
        "summary",
    ],
    "additionalProperties": False,
}

_SWEEP_REPORT = {
    "type": "object",
    "properties": {
        "schema": {"const": "sweep-report"},
        "schema_version": {"type": "integer"},
        "tool_version": {"type": "string"},
        "reports": {"type": "array", "items": _VERIFICATION_REPORT},
    },
    "required": ["schema", "schema_version", "tool_version", "reports"],
    "additionalProperties": False,
}

_ORACLE_REPORT = {
    "type": "object",
    "properties": {
        "schema": {"const": "oracle-report"},
        "schema_version": {"type": "integer"},
        "tool_version": {"type": "string"},
        "suite": {"type": "string"},
        "trials": {"type": "integer", "minimum": 0},
        "failures": {"type": "array", "items": {"type": "string"}},
        "seed": {"type": "integer"},
    },
    "required": [
        "schema",
        "schema_version",
        "tool_version",
        "suite",
        "trials",
        "failures",
        "seed",
    ],
    "additionalProperties": False,
}

_ORACLE_RUN = {
    "type": "object",
    "properties": {
        "schema": {"const": "oracle-run"},
        "schema_version": {"type": "integer"},
        "tool_version": {"type": "string"},
        "reports": {"type": "array", "items": _ORACLE_REPORT},
        "failures_total": {"type": "integer", "minimum": 0},
    },
    "required": ["schema", "schema_version", "tool_version", "reports", "failures_total"],
    "additionalProperties": False,
}

_PAIR_RESULT = {
    "type": "object",
    "properties": {
        "schema": {"const": "pair-result"},
        "schema_version": {"type": "integer"},
        "tool_version": {"type": "string"},
        "n": {"type": "integer"},
        "expr": {"type": "string"},
        "kind": {"enum": ["pairing", "class"]},
        "value": {"oneOf": [{"type": "integer"}, {"type": "string"}]},
    },
    "required": ["schema", "schema_version", "tool_version", "n", "expr", "kind", "value"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://example.invalid/dlv-report.schema.json",
    "oneOf": [
        _VERIFICATION_REPORT,
        _SWEEP_REPORT,
        _ORACLE_REPORT,
        _ORACLE_RUN,
        _PAIR_RESULT,
    ],
}


def schema_check_enabled() -> bool:
    return os.environ.get("DLV_SCHEMA_CHECK") == "1"


def validate_document(document: dict) -> None:
    """Raise ``jsonschema.ValidationError`` when the document does not
    match the embedded schema."""
    import jsonschema

    jsonschema.validate(instance=document, schema=REPORT_SCHEMA)
