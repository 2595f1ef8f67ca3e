"""The streaming JSON emitter against ``json.dumps(indent=2,
sort_keys=True)``, its reference."""

import io
import json
import sys

import pytest
from hypothesis import given, strategies as st

from dlv.schema import canonical_json, write_json

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
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: st.lists(children) | st.lists(_INTS) | st.dictionaries(_TEXT, children),
    max_leaves=40,
)


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


@pytest.mark.parametrize(
    "obj",
    [1.5, (1, 2), {1, 2}, {1: "a"}, {None: 0}, {1: 0, "a": 1}, {"a": [0, 2.0]},
     [{"a": 1}, (3,)], [{-0.0}]],
    ids=["float", "tuple", "set", "int-key", "none-key", "mixed-keys", "nested-float",
         "nested-tuple", "nested-set"],
)
def test_types_a_document_does_not_hold_are_refused(obj):
    with pytest.raises(TypeError):
        write_json(obj, io.StringIO())
