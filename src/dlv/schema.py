"""The JSON document format, stated once.

Every JSON document dlv writes opens with one envelope: ``schema`` (the
kind), ``schema_version`` and ``tool_version``, built only by
:func:`document`, and is written by :func:`write_json`, the one encoder:
the bytes of ``json.dumps(obj, indent=2, sort_keys=True) + "\n"``, streamed
piece by piece to a file.  :func:`canonical_json` is the same bytes as a
string.  A document may hold an :class:`IntRuns` where it holds a list of
ints, and a :class:`OneShotList` where it holds a list; the encoder writes
each as that list, so ``json.dumps`` of a document needs ``default=list``.
A value of a streamed document may be set while the values that sort
before it are written, as a report's ``summary`` is set once its last
instance is out.
``REPORT_SCHEMA`` states the five kinds the CLI emits:
``verification-report``, ``sweep-report``, ``oracle-report``, ``oracle-run``
and ``pair-result``.  With ``DLV_SCHEMA_CHECK=1``, dlv checks each document
it writes against it (by :func:`checked`), as JSON or as text: an
``oracle-run`` or ``pair-result`` whole before its first byte, a
``sweep-report``'s envelope before its first report, and a
``verification-report`` (alone or in a ``sweep-report``) one group of
instances at a time, each just before it is written, and its other fields
once its last instance is out.

:func:`validate_document` is a small checker of JSON Schema draft 2020-12
that interprets exactly the keywords ``REPORT_SCHEMA`` uses: ``type``
(``object``, ``array``, ``string``, ``integer``), ``const``, ``enum``,
``minimum``, ``properties``, ``required``, ``additionalProperties: false``,
``items`` and ``oneOf``.  It ignores ``$schema`` and ``$id`` and raises
``ValueError`` on any other keyword, so the schema cannot outgrow it
unnoticed.  It finds the first offending value without raising, so a
``oneOf`` branch that does not match costs no exception; a document that
does not match then raises one :class:`~dlv.errors.SchemaViolation`, whose
message names the JSON path of that value.  The tests compare it with ``jsonschema``'s
``Draft202012Validator`` on thousands of mutated documents; ``jsonschema``
is needed only there.
"""

from __future__ import annotations

import io
import itertools
import os
import reprlib
from collections.abc import Sequence

# the C function that ``json.encoder.encode_basestring_ascii`` names; taken
# from ``_json``, because importing ``json.encoder`` loads the whole ``json``
# package, its decoder included, into every cold start
from _json import encode_basestring_ascii

from . import __version__
from .errors import SchemaViolation

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


def write_json(obj, fh) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True) + "\n"`` to the
    text file ``fh``, piece by piece, never as one string.

    Only the types a document holds are written: a ``dict`` with ``str``
    keys (in sorted order), a ``list``, an :class:`IntRuns` (as the list of
    its ints), a :class:`OneShotList` (as the list of its items), a ``str``,
    an ``int`` and ``True``, ``False`` and ``None``.  Anything else (a
    float, a tuple, a set, a non-``str`` key, a subclass of :class:`IntRuns`
    or :class:`OneShotList`) raises ``TypeError``, possibly after earlier
    pieces went out.  A dict's value is read only when its key's turn
    comes, so a value may be set while the values before it are written."""
    _emit(obj, fh.write, "\n")
    fh.write("\n")


def canonical_json(obj: dict) -> str:
    """The bytes of :func:`write_json` as a string: sorted keys, fixed
    separators, trailing newline.  Identical inputs give identical output."""
    buffer = io.StringIO()
    write_json(obj, buffer)
    return buffer.getvalue()


class IntRuns(Sequence):
    """A read-only sequence of ints, stored as runs: ``(firsts, shifts,
    repeats)`` stands for ``repeats`` passes through ``len(firsts)``
    positions, pass k holding ``firsts[s] + k * shifts[s]`` at position s.

    Forcing records its step pairings so, in memory that does not grow with
    their number; :func:`write_json` writes one as the list of its ints,
    expanding it only while it writes it.  It equals a list or an
    :class:`IntRuns` of the same ints, and indexes, slices and iterates
    like a list.
    """

    __slots__ = ("_runs", "_length")

    def __init__(self, runs):
        self._runs = tuple(
            [(tuple(firsts), tuple(shifts), repeats) for firsts, shifts, repeats in runs]
        )
        self._length = sum(len(firsts) * repeats for firsts, _, repeats in self._runs)

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return itertools.chain.from_iterable(map(_expand_run, self._runs))

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other):
        if isinstance(other, (list, IntRuns)):
            return self._length == len(other) and list(self) == list(other)
        return NotImplemented


def _expand_run(run) -> list[int]:
    """The ints of one ``(firsts, shifts, repeats)`` run of :class:`IntRuns`."""
    firsts, shifts, repeats = run
    period = len(firsts)
    block = [0] * (period * repeats)
    for s, (first, shift) in enumerate(zip(firsts, shifts)):
        # each position is an arithmetic progression over the passes
        block[s::period] = (
            range(first, first + repeats * shift, shift) if shift else [first] * repeats
        )
    return block


class OneShotList:
    """A list that is written once, by :func:`write_json`, which takes each
    item from ``items`` only when it is its turn to be written and drops it
    once written.  A ``sweep-report`` streams its reports so, and a
    ``verification-report`` its instances: each is verified only after the
    one before it is written and freed.  Iterating it a second time raises
    ``RuntimeError``.
    """

    __slots__ = ("_items",)

    def __init__(self, items):
        self._items = items

    def __iter__(self):
        items, self._items = self._items, None
        if items is None:
            raise RuntimeError("a OneShotList is iterated only once")
        return iter(items)


def _emit(value, write, newline: str) -> None:
    """Write ``value``, whose lines after the first open with ``newline``."""
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, list):
        if value and set(map(type, value)) == {int}:  # the bulk of a report: step pairings
            inner = newline + "  "
            write("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
        else:
            _emit_items(value, write, newline)
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        separator = "{"
        for key in sorted(value):  # a key that is no str fails to sort or to encode
            write(separator + inner + encode_basestring_ascii(key) + ": ")
            _emit(value[key], write, inner)
            separator = ","
        write(newline + "}")
    elif type(value) is IntRuns:
        _emit(list(value), write, newline)  # expanded only while it is written
    elif type(value) is OneShotList:
        _emit_items(value, write, newline)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_items(items, write, newline: str) -> None:
    """Write the list of ``items``, taking each only once the one before it
    is written and no longer referenced here."""
    inner = newline + "  "
    separator = "["
    for item in items:
        write(separator + inner)
        _emit(item, write, inner)
        separator = ","
        del item
    write("[]" if separator == "[" else newline + "]")


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


def validate_document(
    document: dict, sweep_index: int | None = None, instance_index: int | None = None
) -> None:
    """Raise :class:`SchemaViolation` when the document does not match
    ``REPORT_SCHEMA``.

    With ``sweep_index`` k, ``document`` is one report of a streamed
    ``sweep-report``: it is checked as item k of its ``reports``, and a
    message names the path ``$.reports[k]...`` as for the whole sweep.  With
    ``instance_index`` j, ``document`` is one instance of a streamed
    ``verification-report`` (report k of a sweep, with ``sweep_index`` k):
    it is checked as item j of its ``instances``, path ``$.instances[j]...``
    or ``$.reports[k].instances[j]...``."""
    path = () if sweep_index is None else ("reports", sweep_index)
    if instance_index is not None:
        violation = _check(document, _INSTANCE, (*path, "instances", instance_index))
    elif sweep_index is None:
        violation = _check(document, REPORT_SCHEMA, ())
    else:
        violation = _check(document, _VERIFICATION_REPORT, path)
    if violation is not None:
        path, message = violation
        where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        raise SchemaViolation(f"{where}: {message}", path)


def checked(doc: dict, sweep_index=None, instance_index=None) -> dict:
    """``doc``, once :func:`validate_document` accepts it when
    ``DLV_SCHEMA_CHECK=1``; see there for the indices."""
    if schema_check_enabled():
        validate_document(doc, sweep_index, instance_index)
    return doc


# As in jsonschema: a bool is no integer, but an integral float is one.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _check(value, schema: dict, path: tuple):
    """The first way in which ``value``, found at ``path`` (the keys and
    indices from the document root), fails to match ``schema``, as the
    ``(path, message)`` of the offending value; ``None`` when it matches."""
    for keyword, arg in schema.items():
        if keyword == "type":
            if not _TYPES[arg](value):
                return path, f"{reprlib.repr(value)} is not of type {arg!r}"
        elif keyword == "const":
            if not _equal(value, arg):
                return path, f"{reprlib.repr(value)} is not {arg!r}"
        elif keyword == "enum":
            if not any(_equal(value, each) for each in arg):
                return path, f"{reprlib.repr(value)} is not one of {arg!r}"
        elif keyword == "minimum":
            if isinstance(value, (int, float)) and not isinstance(value, bool) and value < arg:
                return path, f"{reprlib.repr(value)} is less than the minimum of {arg!r}"
        elif keyword == "properties":
            if isinstance(value, dict):
                for name, subschema in arg.items():
                    if name in value:
                        violation = _check(value[name], subschema, (*path, name))
                        if violation is not None:
                            return violation
        elif keyword == "required":
            if isinstance(value, dict):
                for name in arg:
                    if name not in value:
                        return path, f"{name!r} is a required property"
        elif keyword == "additionalProperties" and arg is False:
            if isinstance(value, dict):
                extras = value.keys() - schema.get("properties", {}).keys()
                if extras:
                    names = ", ".join(sorted(map(repr, extras)))
                    return path, f"unexpected properties {names}"
        elif keyword == "items":
            if isinstance(value, list):
                for index, item in enumerate(value):
                    violation = _check(item, arg, (*path, index))
                    if violation is not None:
                        return violation
        elif keyword == "oneOf":
            violations = [_check(value, subschema, path) for subschema in arg]
            matches = violations.count(None)
            if matches == 0:
                # the branch of the kind a document names is the one meant;
                # failing that, the branch that got deepest most likely is
                named = {"const": value.get("schema")} if isinstance(value, dict) else None
                for subschema, violation in zip(arg, violations):
                    if named and subschema.get("properties", {}).get("schema") == named:
                        return violation
                return max(violations, key=lambda violation: len(violation[0]))
            if matches > 1:
                return path, f"{reprlib.repr(value)} matches {matches} oneOf branches, not one"
        elif keyword not in ("$schema", "$id"):
            raise ValueError(f"the schema checker does not support {keyword!r}: {arg!r}")
    return None


def _equal(a, b) -> bool:
    """JSON equality as in jsonschema: ``True`` is not ``1``, at any depth."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b
