"""The streaming JSON emitter against ``json.dumps(indent=2,
sort_keys=True, default=list)``, its reference, and :class:`IntRuns`, the
run-length int list it writes as a list, against the list it stands for."""

import io
import json
import sys
from collections.abc import Sequence

import pytest
from hypothesis import given, strategies as st

from dlv.schema import IntRuns, canonical_json, write_json

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
_DOCUMENTS = st.recursive(
    _SCALARS | _INT_RUNS,
    lambda children: st.lists(children) | st.lists(_INTS) | st.dictionaries(_TEXT, children),
    max_leaves=40,
)


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=list) + "\n"


@given(_DOCUMENTS)
def test_write_json_matches_json_dumps(obj):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = _reference(obj)
        buffer = io.StringIO()
        write_json(obj, buffer)
        assert buffer.getvalue() == expected
        assert canonical_json(obj) == expected
    finally:
        sys.set_int_max_str_digits(limit)


class _SubRuns(IntRuns):
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
     range(3), {"a": IntRuns([((1.5,), (0,), 1)])}],
    ids=["float", "tuple", "set", "int-key", "none-key", "mixed-keys", "nested-float",
         "nested-tuple", "nested-set", "runs-subclass", "runs-look-alike", "range",
         "runs-of-a-float"],
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
    assert list(reversed(ints)) == expected[::-1]
