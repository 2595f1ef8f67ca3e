import functools
import re
import sys

import pytest
from hypothesis import given, strategies as st

from dlv import DivisorClass, MismatchedModel, build_tower
from dlv.cli import main
from dlv.expr import ExprError, parse_expr


def evaluate(n, text):
    tower = build_tower(n)
    return parse_expr(text, tower.base, named=dict(tower.classes), models=tower.models)


def test_member_self_pairing():
    assert evaluate(9, "A.A") == 8


def test_headline_self_pairing():
    assert evaluate(7, "D.D") == 4


def test_fiber_self_pairing():
    assert evaluate(3, "F.F") == 0


def test_witness_pairing_formula():
    # 4(m-1) - n^2 at m=2, n=3
    assert evaluate(3, "(2*A - R).G_n") == -5


def test_one_dim_class_pairings():
    assert evaluate(3, "L.L") == -4
    assert evaluate(5, "F.G_n") == 4
    assert evaluate(5, "G.G_n") == 25


def test_basis_labels_resolve():
    assert evaluate(7, "Gamma_n.G") == 49


def test_class_result():
    tower = build_tower(3)
    result = parse_expr("2*A - R", tower.base, named=dict(tower.classes))
    assert isinstance(result, DivisorClass)
    assert result.coeffs == (1, -1, 2)


def test_scalar_arithmetic():
    tower = build_tower(3)
    assert parse_expr("2*3 + 1", tower.base) == 7
    assert parse_expr("-(2 + 3)", tower.base) == -5


def test_unary_minus_on_class():
    assert evaluate(3, "-F.G_n") == -4


def test_unknown_identifier_offset():
    tower = build_tower(3)
    with pytest.raises(ExprError, match="unknown identifier 'Bogus'") as excinfo:
        parse_expr("A.Bogus", tower.base, named=dict(tower.classes))
    assert excinfo.value.position == 2


def test_syntax_error_offset():
    tower = build_tower(3)
    with pytest.raises(ExprError, match="expected a number, an identifier or") as excinfo:
        parse_expr("A + ", tower.base, named=dict(tower.classes))
    assert excinfo.value.position == 4


def test_unbalanced_parenthesis():
    tower = build_tower(3)
    with pytest.raises(ExprError, match=r"expected '\)'"):
        parse_expr("(A + F", tower.base, named=dict(tower.classes))


def test_bad_character():
    tower = build_tower(3)
    with pytest.raises(ExprError, match="unexpected character '/'") as excinfo:
        parse_expr("A / F", tower.base, named=dict(tower.classes))
    assert excinfo.value.position == 2


@pytest.mark.parametrize("text", ["\u0663*A", "\uff11+1"], ids=["arabic-indic", "fullwidth"])
def test_only_ascii_digits_are_literals(text):
    # \\d matched any Unicode digit, so "\u0663*A" read as 3*A
    with pytest.raises(ExprError, match="unexpected character") as excinfo:
        evaluate(3, text)
    assert excinfo.value.position == 0


def test_unicode_whitespace_is_an_unexpected_character(capsys):
    # \s and lstrip() skipped U+2003, so the ')' was reported at character
    # offset 5, which is byte offset 7
    with pytest.raises(ExprError, match="unexpected character") as excinfo:
        evaluate(3, "\u2003A + )")
    assert str(excinfo.value) == "unexpected character '\\u2003' (at offset 0)"
    assert main(["pair", "--n", "3", "--expr", "A +\u2003"]) == 1
    assert capsys.readouterr().err == (
        "dlv: expression error: unexpected character '\\u2003' (at offset 3)\n"
    )


def test_class_times_class_rejected():
    with pytest.raises(ExprError, match="cannot multiply two divisor classes"):
        evaluate(3, "A*A")


def test_mixed_scalar_class_sum_rejected():
    with pytest.raises(ExprError, match=r"cannot apply '\+' to a number and a divisor class"):
        evaluate(3, "1 + F")


def test_cross_model_pairing_rejected():
    with pytest.raises(MismatchedModel):
        evaluate(3, "A.D")


def test_pairing_needs_the_model_of_its_class():
    tower = build_tower(3)
    where = tower.base_blowup.model_id
    with pytest.raises(ExprError, match=re.escape(f"no model available for pairing on {where!r}")):
        parse_expr("L.L", tower.base, named=dict(tower.classes))
    assert evaluate(3, "L.L") == -4


def test_trailing_garbage_rejected():
    with pytest.raises(ExprError, match="unexpected 'A' after expression"):
        evaluate(3, "A.A A")


def test_nesting_cap_is_200_levels():
    assert evaluate(3, "(" * 200 + "1" + ")" * 200) == 1
    assert evaluate(3, "-" * 200 + "1") == 1
    with pytest.raises(ExprError, match="nesting deeper than 200 levels") as excinfo:
        evaluate(3, "(" * 201 + "1" + ")" * 201)
    assert excinfo.value.position == 200


def test_long_literal_converts_exactly():
    # int() refuses a literal longer than Python's digit limit (4300 by
    # default); the parser converts it without lifting that limit
    has_limit = hasattr(sys, "set_int_max_str_digits")
    if has_limit:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the CLI lifts it, tests may run after it
    try:
        assert evaluate(3, "9" * 5000) == 10**5000 - 1
        if has_limit:
            assert sys.get_int_max_str_digits() == 4300
    finally:
        if has_limit:
            sys.set_int_max_str_digits(saved)


# -- parse_expr against an independent evaluator -----------------------------
#
# A tree is an int literal, a named class, ("neg", x) or (op, x, y) for op in
# + - *.  Trees are typed: a class tree uses the named classes of one model,
# and * always has an int side, so every drawn expression is well formed.

_TOWER = build_tower(5)
_GROUPS = {}
for _name, _cls in sorted(_TOWER.classes.items()):
    _GROUPS.setdefault(_cls.model_id, []).append(_name)


@functools.lru_cache(maxsize=None)
def _int_trees(depth):
    leaf = st.integers(min_value=0, max_value=10**6)
    if depth == 0:
        return leaf
    sub = _int_trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from("+-*"), sub, sub),
    )


@functools.lru_cache(maxsize=None)
def _class_trees(names, depth):
    leaf = st.sampled_from(names)
    if depth == 0:
        return leaf
    sub, num = _class_trees(names, depth - 1), _int_trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from("+-"), sub, sub),
        st.tuples(st.just("*"), num, sub),
        st.tuples(st.just("*"), sub, num),
    )


@st.composite
def _expressions(draw):
    """``(text, value)``: a fully parenthesized expression with random
    spaces, and its value computed without the parser."""
    names = tuple(_GROUPS[draw(st.sampled_from(sorted(_GROUPS)))])
    top = draw(st.sampled_from(["int", "class", "pair"]))
    if top == "int":
        trees = [draw(_int_trees(6))]
    else:
        trees = [draw(_class_trees(names, 6)) for _ in range(1 + (top == "pair"))]
    spaces = draw(st.randoms(use_true_random=False))

    def gap():
        return " " * spaces.randint(0, 2)

    def render(tree):
        if isinstance(tree, int):
            return str(tree)
        if isinstance(tree, str):
            return tree
        if tree[0] == "neg":
            return f"({gap()}-{gap()}{render(tree[1])}{gap()})"
        op, left, right = tree
        return f"({gap()}{render(left)}{gap()}{op}{gap()}{render(right)}{gap()})"

    def value(tree):
        if isinstance(tree, int):
            return tree
        if isinstance(tree, str):
            return _TOWER.classes[tree]
        if tree[0] == "neg":
            return -value(tree[1])
        op, left, right = tree
        a, b = value(left), value(right)
        return a + b if op == "+" else a - b if op == "-" else a * b

    values = [value(tree) for tree in trees]
    text = f"{gap()}.{gap()}".join(render(tree) for tree in trees)
    if top == "pair":
        return gap() + text + gap(), _TOWER.model_of(values[0]).pair(*values)
    return gap() + text + gap(), values[0]


@given(_expressions())
def test_parse_expr_matches_an_independent_evaluator(case):
    text, expected = case
    got = parse_expr(text, _TOWER.base, named=dict(_TOWER.classes), models=_TOWER.models)
    assert got == expected
    assert type(got) is type(expected)
