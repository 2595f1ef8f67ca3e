"""The streaming JSON emitter against ``json.dumps(indent=2,
sort_keys=True, default=list)``, its reference, :class:`IntRuns`, the
run-length int list it writes as a list, against the list it stands for,
and :class:`OneShotList`, the list whose items it takes one at a time."""

import io
import json
import sys
import weakref
from collections.abc import Sequence

import pytest
from hypothesis import given, strategies as st

from dlv.schema import IntRuns, OneShotList, canonical_json, write_json

# ints past the 4,300-digit default limit of int-to-str conversion
_LONG_INTS = st.tuples(st.integers(4_290, 4_400), st.sampled_from([1, -1])).map(
    lambda t: t[1] * (10 ** t[0] + 7)
)
_INTS = st.integers() | _LONG_INTS
# any code point, lone surrogates included, and the characters JSON escapes
_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\ud800\udfff\U0001f600')
)
_SCALARS = st.none() | st.booleans() | _INTS | _TEXT
# (firsts, shifts, repeats) runs, as forcing records its step pairings
_RUNS = st.lists(
    st.integers(1, 3).flatmap(
        lambda period: st.tuples(
            st.lists(st.integers(), min_size=period, max_size=period),
            st.lists(st.integers(-5, 5), min_size=period, max_size=period),
            st.integers(0, 6),
        )
    ),
    max_size=5,
)
_INT_RUNS = _RUNS.map(IntRuns)


class _OneShot(list):
    """Where a document holds a :class:`OneShotList` of these items; each
    write gets a fresh one from :func:`_fresh`."""


_DOCUMENTS = st.recursive(
    _SCALARS | _INT_RUNS,
    lambda children: st.lists(children)
    | st.lists(_INTS)
    | st.lists(children).map(_OneShot)
    | st.dictionaries(_TEXT, children),
    max_leaves=40,
)


def _fresh(obj):
    """``obj`` with a new :class:`OneShotList` for each :class:`_OneShot`,
    whose items are built only as they are taken."""
    if type(obj) is _OneShot:
        return OneShotList(_fresh(item) for item in obj)
    if isinstance(obj, list):
        return [_fresh(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _fresh(value) for key, value in obj.items()}
    return obj


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=list) + "\n"


@given(_DOCUMENTS)
def test_write_json_matches_json_dumps(obj):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = _reference(_fresh(obj))
        buffer = io.StringIO()
        write_json(_fresh(obj), buffer)
        assert buffer.getvalue() == expected
        assert canonical_json(_fresh(obj)) == expected
    finally:
        sys.set_int_max_str_digits(limit)


class _SubRuns(IntRuns):
    __slots__ = ()


class _SubOneShot(OneShotList):
    __slots__ = ()


class _LookAlike(Sequence):
    """Every method of an :class:`IntRuns`, but not one."""

    __init__ = IntRuns.__init__
    __len__ = IntRuns.__len__
    __iter__ = IntRuns.__iter__
    __getitem__ = IntRuns.__getitem__


_LookAlike.__name__ = _LookAlike.__qualname__ = "IntRuns"
_ONE_RUN = [((1, 2), (1, 0), 2)]


@pytest.mark.parametrize(
    "obj",
    [1.5, (1, 2), {1, 2}, {1: "a"}, {None: 0}, {1: 0, "a": 1}, {"a": [0, 2.0]},
     [{"a": 1}, (3,)], [{-0.0}], _SubRuns(_ONE_RUN), {"a": [_LookAlike(_ONE_RUN)]},
     range(3), {"a": IntRuns([((1.5,), (0,), 1)])}, _SubOneShot([1]),
     {"a": OneShotList([{"b": 1.5}])}, (x for x in [1])],
    ids=["float", "tuple", "set", "int-key", "none-key", "mixed-keys", "nested-float",
         "nested-tuple", "nested-set", "runs-subclass", "runs-look-alike", "range",
         "runs-of-a-float", "one-shot-subclass", "one-shot-of-a-float", "generator"],
)
def test_types_a_document_does_not_hold_are_refused(obj):
    with pytest.raises(TypeError):
        write_json(obj, io.StringIO())


def _expanded(runs) -> list[int]:
    return [
        first + k * shift
        for firsts, shifts, repeats in runs
        for k in range(repeats)
        for first, shift in zip(firsts, shifts)
    ]


@given(_RUNS)
def test_int_runs_read_as_the_list_they_stand_for(runs):
    ints, expected = IntRuns(runs), _expanded(runs)
    assert len(ints) == len(expected)
    assert list(ints) == expected
    assert [ints[i] for i in range(-len(expected), len(expected))] == expected * 2
    assert ints[1:-1:2] == expected[1:-1:2] and ints[::-1] == expected[::-1]
    for outside in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            ints[outside]
    assert ints == expected and expected == ints and not ints != expected
    assert ints != expected + [0] and ints != tuple(expected)
    # another IntRuns of the same ints is equal, however its runs split them
    singles = IntRuns([((value,), (0,), 1) for value in expected])
    assert ints == IntRuns(runs) and ints == singles and not ints != singles
    assert ints != IntRuns([*runs, ((0,), (0,), 1)])
    assert list(reversed(ints)) == expected[::-1]


class _Part(dict):
    """A dict that a weak reference can watch."""


def test_one_shot_list_takes_each_item_once_the_one_before_is_freed():
    taken = []  # a weak reference to each item handed out

    def items():
        for k in range(3):
            assert all(ref() is None for ref in taken), f"item {k - 1} is still referenced"
            part = _Part(k=k, ints=[k, k + 1])
            taken.append(weakref.ref(part))
            yield part
            del part

    buffer = io.StringIO()
    write_json({"parts": OneShotList(items())}, buffer)
    assert buffer.getvalue() == _reference({"parts": [{"k": k, "ints": [k, k + 1]} for k in range(3)]})
    assert len(taken) == 3


def test_one_shot_list_is_written_once():
    parts = OneShotList(iter([1, 2]))
    assert canonical_json({"a": parts}) == _reference({"a": [1, 2]})
    with pytest.raises(RuntimeError, match="only once"):
        canonical_json({"a": parts})
    assert canonical_json(OneShotList(iter([]))) == "[]\n"


def test_a_value_set_while_the_values_before_it_are_written_is_the_one_written():
    doc = {"instances": None, "summary": None}

    def instances():
        yield {"m": 1}
        doc["summary"] = "one instance"  # known only once the last instance is out

    doc["instances"] = OneShotList(instances())
    expected = {"instances": [{"m": 1}], "summary": "one instance"}
    assert canonical_json(doc) == _reference(expected)
