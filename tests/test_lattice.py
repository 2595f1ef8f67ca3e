import ast
import pathlib
import re

import pytest
from hypothesis import given, strategies as st

import dlv
from dlv import (
    DivisorClass,
    InvalidModel,
    InvalidParameter,
    MismatchedModel,
    RegisteredCurve,
    SurfaceModel,
    build_abelian_product,
    format_class,
)
from dlv.lattice import SURFACE_KINDS, check_on, exact_int


def test_pair_fiber_with_kernel_curve():
    model = build_abelian_product(5)
    f = model.basis_class("F")
    g = model.basis_class("G")
    kernel = model.basis_class("Gamma_n")
    assert model.pair(f, kernel) == 4
    assert model.pair(g, kernel) == 25


def test_pair_with_zero_class():
    model = build_abelian_product(3)
    d = DivisorClass(model.model_id, (3, -2, 7))
    zero = DivisorClass(model.model_id, (0, 0, 0))
    assert model.pair(d, zero) == 0
    assert model.pair(zero, d) == 0


@pytest.mark.parametrize("n", [3, 5, 9, 31])
def test_member_self_intersection_is_eight(n):
    model = build_abelian_product(n)
    member = model.basis_class("F") + model.basis_class("Gamma_n")
    assert model.self_int(member) == 8


def test_fiber_self_intersections_vanish():
    model = build_abelian_product(7)
    assert model.self_int(model.basis_class("F")) == 0
    assert model.self_int(model.basis_class("G")) == 0
    assert model.self_int(model.basis_class("Gamma_n")) == 0


def test_add_and_scale():
    model = build_abelian_product(3)
    f = model.basis_class("F")
    kernel = model.basis_class("Gamma_n")
    member = f + kernel
    assert member.coeffs == (1, 0, 1)
    assert (0 * member).is_zero
    assert (member * 0).is_zero
    assert (3 * member).coeffs == (3, 0, 3)
    assert (-member).coeffs == (-1, 0, -1)
    assert (member - f).coeffs == (0, 0, 1)


def test_scale_multiple_of_strict_transform_sum(tower_3):
    one_dim = tower_3.classes["L"]
    tripled = 3 * one_dim
    assert tripled.coeffs == tuple(3 * c for c in one_dim.coeffs)


def test_cross_model_arithmetic_is_rejected():
    m3 = build_abelian_product(3)
    m5 = build_abelian_product(5)
    with pytest.raises(MismatchedModel):
        m3.basis_class("F") + m5.basis_class("F")
    with pytest.raises(MismatchedModel):
        m3.pair(m3.basis_class("F"), m5.basis_class("F"))
    with pytest.raises(MismatchedModel):
        m5.self_int(m3.basis_class("F"))


def test_arbitrary_precision_survives_huge_n():
    n = 10**9 + 1  # odd
    model = build_abelian_product(n)
    g = model.basis_class("G")
    kernel = model.basis_class("Gamma_n")
    assert model.pair(g, kernel) == n * n
    big = 10**30 * kernel
    assert model.pair(g, big) == 10**30 * n * n


def test_gram_must_be_symmetric():
    with pytest.raises(InvalidModel):
        SurfaceModel(model_id="bad", basis=("a", "b"), gram=((0, 1), (2, 0)))


def test_gram_must_be_square():
    with pytest.raises(InvalidModel):
        SurfaceModel(model_id="bad", basis=("a", "b"), gram=((0, 1),))


def test_basis_labels_must_be_strings():
    # this used to build, and format_class then raised a bare TypeError
    with pytest.raises(InvalidModel, match="basis labels must be strings, got 1"):
        SurfaceModel("x", (1, 2), ((0, 1), (1, 0)))


@pytest.mark.parametrize("gram", [5, (5,), "5", ({0: 5},)], ids=repr)
def test_gram_must_be_rows_of_a_tuple_or_list(gram):
    # a Gram matrix of 5 used to raise "TypeError: 'int' object is not iterable"
    with pytest.raises(InvalidModel, match="Gram matrix must be a tuple or list"):
        SurfaceModel("x", ("a",), gram)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("basis", 5, "basis must be a tuple or list, got int"),
        ("exceptional_labels", 5, "exceptional_labels must be a tuple or list, got int"),
        ("curves", 5, "curves must be a tuple or list, got int"),
        ("curves", (5,), "registered curves must be RegisteredCurve, got int"),
    ],
    ids=["basis", "exceptional_labels", "curves", "curve"],
)
def test_malformed_fields_are_invalid_models(field, value, message):
    # each used to end in a bare TypeError or AttributeError
    fields = {"model_id": "x", "basis": ("a",), "gram": ((0,),), field: value}
    with pytest.raises(InvalidModel, match=message):
        SurfaceModel(**fields)


_CURVE = RegisteredCurve("c", DivisorClass("x", (1,)))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"basis": (), "gram": ()}, "a surface model needs at least one basis class"),
        ({"basis": ("a", "a"), "gram": ((0, 0), (0, 0))}, "basis labels must be unique"),
        ({"kind": "k3"}, f"'kind' must be one of {SURFACE_KINDS}, got 'k3'"),
        ({"curves": (_CURVE, _CURVE)}, "duplicate registered curve label 'c'"),
        (
            {"curves": (RegisteredCurve("c", DivisorClass("y", (1,))),)},
            "registered curve 'c' belongs to model 'y', not 'x'",
        ),
        ({"exceptional_labels": ("e",)}, "exceptional label 'e' is not a basis label"),
    ],
    ids=["empty-basis", "duplicate-basis", "kind", "duplicate-curve", "foreign-curve",
         "exceptional-label"],
)
def test_a_model_that_breaks_an_invariant_is_refused(fields, message):
    fields = {"model_id": "x", "basis": ("a",), "gram": ((0,),), **fields}
    with pytest.raises(InvalidModel, match=f"^{re.escape(message)}$"):
        SurfaceModel(**fields)


def test_a_model_refuses_a_class_or_label_it_does_not_have():
    model = build_abelian_product(3)
    where = re.escape(repr(model.model_id))
    with pytest.raises(InvalidParameter, match=f"^'Q' is not a basis label of {where}$"):
        model.basis_class("Q")
    with pytest.raises(InvalidParameter, match=f"^'Q' is not a registered curve of {where}$"):
        model.curve("Q")


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: SurfaceModel(5, ("a",), ((0,),)), "model_id"),
        (lambda: RegisteredCurve(5, DivisorClass("x", (1,))), "label"),
        (lambda: RegisteredCurve("c", ("x", (1,))), "cls"),
    ],
    ids=["model_id", "label", "cls"],
)
def test_a_field_of_the_wrong_type_is_named(build, key):
    # each of these used to build, with a field of the wrong type
    with pytest.raises(InvalidModel, match=repr(key)):
        build()


@pytest.mark.parametrize(
    "build",
    [lambda: SurfaceModel(5, ("a",), ((0,),)), lambda: DivisorClass(5, (1,))],
    ids=["model", "class"],
)
def test_a_model_id_that_is_not_a_str_is_refused(build):
    # a class with an int model id used to build, and fail only at its first use
    with pytest.raises(InvalidModel, match="^'model_id' must be a string, got int$"):
        build()


@pytest.mark.parametrize("bad", [0.5, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("where", ["gram", "coeffs"])
def test_values_that_are_not_ints_are_rejected(where, bad):
    # each of these used to enter exact arithmetic: 0.5 paired as 0.5, True as 1
    if where == "gram":
        with pytest.raises(InvalidModel, match="Gram entries must be integers"):
            SurfaceModel(model_id="x", basis=("a", "b"), gram=((0, bad), (bad, 0)))
    else:
        with pytest.raises(InvalidModel, match="coefficients must be integers"):
            DivisorClass("x", (1, bad))


class _Int(int):
    pass


@pytest.mark.parametrize("bad", [True, 1.0, "1", None, pytest.param(_Int(1), id="int-subclass")], ids=repr)
def test_exact_int_takes_only_an_int(bad):
    with pytest.raises(InvalidParameter, match="k must be an integer, got"):
        exact_int(bad, "k")


def test_exact_int_checks_the_lower_bound():
    assert exact_int(-5, "k") == -5
    assert exact_int(0, "k", 0) == 0
    with pytest.raises(InvalidParameter, match="k must be an integer >= 1, got 0"):
        exact_int(0, "k", 1)


@pytest.mark.parametrize("k", [True, 2.0, "2"], ids=repr)
def test_scaling_takes_only_an_int(k):
    # True * D used to return D
    d = build_abelian_product(3).basis_class("F")
    with pytest.raises(TypeError):
        k * d
    with pytest.raises(TypeError):
        d * k


def test_check_on_names_the_fault():
    model = build_abelian_product(3)
    f = model.basis_class("F")
    check_on(f, model.model_id, 3)
    with pytest.raises(TypeError, match="expected a DivisorClass, got tuple"):
        check_on((1, 0, 0), model.model_id, 3)
    with pytest.raises(MismatchedModel, match="not 'other'"):
        check_on(f, "other", 3)
    with pytest.raises(MismatchedModel, match="3 coefficients, expected 4"):
        check_on(f, model.model_id, 4)


def test_abelian_model_rejects_negative_curves():
    mid = "bad-abelian"
    with pytest.raises(InvalidModel):
        SurfaceModel(
            model_id=mid,
            basis=("a",),
            gram=((-1,),),
            curves=(RegisteredCurve("a", DivisorClass(mid, (1,))),),
            kind="abelian",
        )


def test_registered_curve_length_checked():
    mid = "bad-length"
    with pytest.raises(InvalidModel):
        SurfaceModel(
            model_id=mid,
            basis=("a", "b"),
            gram=((0, 1), (1, 0)),
            curves=(RegisteredCurve("c", DivisorClass(mid, (1,))),),
        )


def test_zero_class_cannot_be_registered():
    mid = "bad-zero"
    with pytest.raises(InvalidModel):
        SurfaceModel(
            model_id=mid,
            basis=("a",),
            gram=((2,),),
            curves=(RegisteredCurve("c", DivisorClass(mid, (0,))),),
        )


def test_format_class(tower_3):
    bb = tower_3.base_blowup
    one_dim = tower_3.classes["L"]
    assert format_class(bb, one_dim) == "F + Gamma_n - 2*e_1 - 2*e_2 - 2*e_3"
    assert format_class(bb, DivisorClass(bb.model_id, (0,) * bb.size)) == "0"
    assert format_class(bb, -bb.basis_class("F")) == "-F"


# -- pairing laws on randomized models ---------------------------------------

_dim = st.shared(st.integers(min_value=1, max_value=5), key="dim")


@st.composite
def _model_and_classes(draw, num_classes=2):
    size = draw(_dim)
    entry = st.integers(min_value=-(10**6), max_value=10**6)
    upper = draw(
        st.lists(
            st.lists(entry, min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
    gram = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            gram[i][j] = gram[j][i] = upper[i][j]
    model = SurfaceModel(
        model_id="hyp",
        basis=tuple(f"b_{i}" for i in range(size)),
        gram=tuple(tuple(row) for row in gram),
    )
    coeff = st.integers(min_value=-100, max_value=100)
    classes = [
        DivisorClass(model.model_id, draw(st.lists(coeff, min_size=size, max_size=size)))
        for _ in range(num_classes)
    ]
    return model, classes


@given(_model_and_classes(num_classes=2))
def test_pairing_is_symmetric(data):
    model, (d1, d2) = data
    assert model.pair(d1, d2) == model.pair(d2, d1)


@given(
    _model_and_classes(num_classes=3),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)
def test_pairing_is_bilinear(data, a, b):
    model, (d1, d2, d3) = data
    left = model.pair(a * d1 + b * d2, d3)
    assert left == a * model.pair(d1, d3) + b * model.pair(d2, d3)


@given(_model_and_classes(num_classes=1))
def test_self_int_equals_pair(data):
    model, (d,) = data
    assert model.self_int(d) == model.pair(d, d)


def _public_paths():
    """Every public way to bring a value into exact arithmetic, each with
    the error it raises on a value that is not exactly an int."""
    from dlv.constructions import blow_up, build_tower, strict_transform

    model = build_abelian_product(3)
    f = model.basis_class("F")
    tower = build_tower(3)
    base_f = tower.classes["F"]
    return [
        ("class", InvalidModel, lambda bad: DivisorClass(model.model_id, (1, bad, 0))),
        ("gram", InvalidModel, lambda bad: SurfaceModel("x", ("a", "b"), ((0, bad), (bad, 0)))),
        ("scale-left", TypeError, lambda bad: bad * f),
        ("scale-right", TypeError, lambda bad: f * bad),
        (
            "strict-transform",
            InvalidParameter,
            lambda bad: strict_transform(tower.base_blowup_map, base_f, (bad, 0, 0)),
        ),
        ("point", InvalidParameter, lambda bad: blow_up(model, {"e_1": {"F": bad}})),
        ("exact-int", InvalidParameter, lambda bad: exact_int(bad, "m")),
    ]


@pytest.mark.parametrize("bad", [1.0, True, "1", _Int(1)], ids=["float", "bool", "str", "int-subclass"])
def test_every_public_path_rejects_a_value_that_is_not_an_int(bad):
    for name, error, build in _public_paths():
        with pytest.raises(error):
            build(bad)
            pytest.fail(f"{name} took {bad!r}")


_NO_LENGTH = ("map", "zip", "filter", "enumerate")


def _tuples_without_a_length(source: str) -> list[int]:
    """The lines of ``source`` that call ``tuple`` on a generator
    expression or on a call to one of ``_NO_LENGTH``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and len(node.args) == 1
        ):
            (arg,) = node.args
            if isinstance(arg, ast.GeneratorExp) or (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id in _NO_LENGTH
            ):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source, lines",
    [
        ("tuple(a + b for a, b in pairs)", [1]),
        ("x = 1\ny = tuple(map(f, xs))", [2]),
        ("tuple(zip(a, b)), tuple(filter(None, a)), tuple(enumerate(a))", [1, 1, 1]),
        ("tuple([a for a in xs]), (*map(f, xs),), tuple(xs), tuple(sorted(xs))", []),
    ],
)
def test_the_tuple_rule_check_finds_each_tuple_without_a_length(source, lines):
    assert _tuples_without_a_length(source) == lines


def test_no_tuple_in_the_package_is_built_without_a_length():
    # the rule in the lattice docstring: such a tuple leaves its block on
    # the free list of its final size
    package = pathlib.Path(dlv.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        for line in _tuples_without_a_length(path.read_text(encoding="utf-8"))
    ]
    assert found == []
