import functools
import re

import pytest
from hypothesis import given, settings, strategies as st

from dlv import (
    DivisorClass,
    DivisorLatticeError,
    InvalidParameter,
    MismatchedModel,
    MorphismMap,
    SurfaceModel,
    Tower,
    blow_up,
    blowup_section_transfer,
    build_abelian_product,
    build_tower,
    certify_not_effective,
    cover_section_split,
    double_cover,
    fixed_part_forcing,
    format_class,
    h0_unique_member,
    pullback,
    render_report_text,
    report_to_dict,
    streamed_report,
    strict_transform,
    verify,
    verify_instance,
)
from dlv.lattice import check_on


def test_declared_gram_for_smallest_n():
    model = build_abelian_product(3)
    assert model.gram == ((0, 1, 4), (1, 0, 9), (4, 9, 0))
    assert model.kind == "abelian"
    assert [c.label for c in model.curves] == ["F", "G", "Gamma_n"]


@pytest.mark.parametrize("bad", [2, 4, 1, -3, 0])
def test_even_or_small_n_rejected(bad):
    with pytest.raises(InvalidParameter):
        build_abelian_product(bad)


def test_non_integer_n_rejected():
    with pytest.raises(InvalidParameter):
        build_abelian_product(3.0)
    with pytest.raises(InvalidParameter):
        build_abelian_product(True)


def test_kernel_pairing_entry_grows_as_n_squared():
    model = build_abelian_product(7)
    assert model.gram[1][2] == 49


def test_blow_up_strict_transform_grams(tower_3):
    bb = tower_3.base_blowup
    f_strict = bb.curve("F'").cls
    k_strict = bb.curve("Gamma_n'").cls
    assert bb.self_int(f_strict) == -3
    assert bb.self_int(k_strict) == -3
    assert bb.pair(f_strict, k_strict) == 1


def test_exceptional_gram(tower_3):
    bb = tower_3.base_blowup
    e1 = bb.basis_class("e_1")
    e2 = bb.basis_class("e_2")
    assert bb.self_int(e1) == -1
    assert bb.pair(e1, e2) == 0
    up_f = pullback(tower_3.base_blowup_map, tower_3.classes["F"])
    assert bb.pair(up_f, e2) == 0


def test_blow_up_rejects_unknown_multiplicity_key():
    model = build_abelian_product(3)
    with pytest.raises(InvalidParameter, match="'NotACurve', which is not a registered curve"):
        blow_up(model, {"e_1": {"NotACurve": 1}})


def test_blow_up_needs_points():
    model = build_abelian_product(3)
    with pytest.raises(InvalidParameter, match="^blow_up needs at least one point$"):
        blow_up(model, {})


@pytest.mark.parametrize("points", [[], None, (("e_1", {}),)], ids=repr)
def test_blow_up_needs_a_mapping_of_points(points):
    message = "^blow_up needs a mapping of exceptional labels to multiplicities, got "
    with pytest.raises(InvalidParameter, match=message):
        blow_up(build_abelian_product(3), points)


def test_blow_up_rejects_negative_multiplicity():
    with pytest.raises(InvalidParameter):
        blow_up(build_abelian_product(3), {"e_1": {"F": -1}})


# a point's spec is its entry in ``blow_up``'s mapping: its exceptional
# label and its declared multiplicities


@pytest.mark.parametrize("mult", [-1, 1.9, True, "1", None], ids=repr)
def test_point_spec_multiplicity_must_be_a_non_negative_int(mult):
    with pytest.raises(InvalidParameter, match="^multiplicity of 'F' at 'e_1' must be"):
        blow_up(build_abelian_product(3), {"e_1": {"F": mult}})


@pytest.mark.parametrize("label", [1, None, ("F",), b"F"], ids=repr)
def test_point_spec_curve_label_must_be_a_str(label):
    message = f"^curve labels at 'e_1' must be strings, got {re.escape(repr(label))}$"
    with pytest.raises(InvalidParameter, match=message):
        blow_up(build_abelian_product(3), {"e_1": {label: 1, "F": 1}})


@pytest.mark.parametrize("mult", [-1, 1.5, True, "1", None], ids=repr)
def test_strict_transform_multiplicity_must_be_a_non_negative_int(tower_3, mult):
    # True used to pass as 1, -1 put +1 on e_1 and 1.5 raised InvalidModel
    with pytest.raises(InvalidParameter, match="multiplicity at e_1"):
        strict_transform(tower_3.base_blowup_map, tower_3.classes["F"], (mult, 0, 0))


@pytest.mark.parametrize("given", [(("F", 1),), [("F", 1)], ()], ids=repr)
def test_point_spec_needs_a_mapping(given):
    message = "^declared multiplicities at 'e_1' must be a mapping"
    with pytest.raises(InvalidParameter, match=message):
        blow_up(build_abelian_product(3), {"e_1": given})


@pytest.mark.parametrize("label", [5, None, ("p",)], ids=repr)
def test_point_spec_needs_a_string_label(label):
    message = f"^point labels must be strings, got {re.escape(repr(label))}$"
    with pytest.raises(InvalidParameter, match=message):
        blow_up(build_abelian_product(3), {label: {}})


def test_blow_up_names_each_point_by_its_exceptional_label():
    model = build_abelian_product(3)
    up, f = blow_up(model, {"x": {"Gamma_n": 1, "F": 2}, "y": {}})
    assert up.model_id == "blowup(abelian_product(n=3);x,y)"
    assert f.exceptional_labels == up.exceptional_labels == ("x", "y")
    assert [c.cls.coeffs[3:] for c in up.curves] == [(-2, 0), (0, 0), (-1, 0)]


def test_blow_up_label_collision_rejected(tower_3):
    with pytest.raises(InvalidParameter, match="^exceptional label 'F' collides"):
        blow_up(tower_3.base, {"F": {}})


def test_morphism_kind_is_checked():
    with pytest.raises(InvalidParameter, match="^unknown morphism kind 'flop'$"):
        MorphismMap("flop", "up", "down", 3)


_BASE = "('F', 'G', 'Gamma_n')"
_BASE_BLOWUP = "('F', 'G', 'Gamma_n', 'e_1', 'e_2', 'e_3')"
_COVER_BLOWUP = "('F', 'G', 'Gamma_n', 'E_1', 'E_2', 'E_3')"
_EQUAL = "a cover needs a source basis equal to its target's: "
_LONGER = "a blowup needs a source basis longer than, and opening with, its target's: "


@pytest.mark.parametrize(
    "make, error, message",
    [
        pytest.param(
            lambda t: MorphismMap("cover", "a", t.base, t.classes["R"]),
            InvalidParameter, "the source of a morphism must be a SurfaceModel, got str",
            id="source-not-a-model",
        ),
        pytest.param(
            lambda t: MorphismMap("blowup", t.base_blowup, t.base.model_id),
            InvalidParameter, "the target of a morphism must be a SurfaceModel, got str",
            id="target-not-a-model",
        ),
        pytest.param(
            lambda t: MorphismMap("blowup", t.cover_blowup, t.base_blowup),
            InvalidParameter,
            f"{_LONGER}{_COVER_BLOWUP} over {_BASE_BLOWUP}",
            id="basis-does-not-open-with-the-target",
        ),
        pytest.param(
            lambda t: MorphismMap("blowup", t.base, t.base_blowup),
            InvalidParameter,
            f"{_LONGER}{_BASE} over {_BASE_BLOWUP}",
            id="source-smaller-than-target",
        ),
        pytest.param(
            lambda t: MorphismMap("cover", t.base_blowup, t.base, t.classes["R"]),
            InvalidParameter,
            f"{_EQUAL}{_BASE_BLOWUP} over {_BASE}",
            id="cover-sizes-differ",
        ),
        pytest.param(
            lambda t: MorphismMap("cover", t.cover_blowup, t.base_blowup, t.classes["L"]),
            InvalidParameter,
            f"{_EQUAL}{_COVER_BLOWUP} over {_BASE_BLOWUP}",
            id="cover-basis-differs",
        ),
        pytest.param(
            lambda t: MorphismMap("blowup", t.cover, t.base),
            InvalidParameter, f"{_LONGER}{_BASE} over {_BASE}",
            id="blowup-appends-nothing",
        ),
        pytest.param(
            lambda t: MorphismMap("cover", t.cover, t.base),
            InvalidParameter, "a cover needs a branch half",
            id="cover-half-missing",
        ),
        pytest.param(
            lambda t: MorphismMap("cover", t.cover, t.base, t.classes["L"]),
            MismatchedModel,
            "class belongs to model 'blowup(abelian_product(n=3);e_1,e_2,e_3)', "
            "not 'abelian_product(n=3)'",
            id="cover-half-on-another-model",
        ),
        pytest.param(
            lambda t: MorphismMap("cover", t.cover, t.base, (1, 1, 0)),
            TypeError, "expected a DivisorClass, got tuple",
            id="cover-half-not-a-class",
        ),
        pytest.param(
            lambda t: MorphismMap("blowup", t.base_blowup, t.base, t.classes["R"]),
            InvalidParameter, "a blowup takes no branch half",
            id="blowup-given-a-half",
        ),
    ],
)
def test_a_malformed_morphism_is_refused_when_built(tower_3, make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make(tower_3)


@pytest.mark.parametrize("n", [3, 7])
def test_tower_maps_hold_the_tower_models(n):
    t = build_tower(n)
    assert t.base_blowup_map.source is t.base_blowup and t.base_blowup_map.target is t.base
    assert t.cover_map.source is t.cover and t.cover_map.target is t.base
    assert t.cover_blowup_map.source is t.cover_blowup and t.cover_blowup_map.target is t.cover
    assert t.cover.curves[-1].label == "A_n" and t.cover_map.branch_half == t.classes["R"]
    assert t.base_blowup_map.exceptional_labels == ("e_1", "e_2", "e_3")
    assert t.cover_blowup_map.exceptional_labels == ("E_1", "E_2", "E_3")
    assert t.cover_map.exceptional_labels == ()


# the table of the ``Tower`` docstring: each model and the classes on it
_CLASSES_ON = {"base": ("F", "G", "G_n", "R", "A"), "base_blowup": ("L",), "cover_blowup": ("D",)}


@pytest.mark.parametrize("n", [3, 7, 21])
def test_each_named_class_lies_on_its_model(n):
    t = build_tower(n)
    assert sorted(t.classes) == sorted(name for names in _CLASSES_ON.values() for name in names)
    for model_name, names in _CLASSES_ON.items():
        model = getattr(t, model_name)
        for name in names:
            check_on(t.classes[name], model.model_id, model.size)


def _base_lands_elsewhere(t):
    # a blow-up map onto a base the tower does not have
    elsewhere = SurfaceModel("elsewhere", t.base.basis, t.base.gram)
    return {"base_blowup_map": MorphismMap("blowup", t.base_blowup, elsewhere)}


_NOT_ONTO_BASE = "a tower's cover_map must map onto its base"
_NOT_ONTO_COVER = "a tower's cover_blowup_map must map onto its cover"


@pytest.mark.parametrize(
    "maps, message",
    [
        pytest.param(
            lambda t: {"base_blowup_map": t.cover_map},
            "a tower's base_blowup_map must be a blowup map, got 'cover'",
            id="base-blowup-a-cover",
        ),
        pytest.param(
            lambda t: {"cover_map": t.base_blowup_map},
            "a tower's cover_map must be a cover map, got 'blowup'",
            id="cover-a-blowup",
        ),
        pytest.param(
            lambda t: {"cover_blowup_map": t.cover_map},
            "a tower's cover_blowup_map must be a blowup map, got 'cover'",
            id="cover-blowup-a-cover",
        ),
        pytest.param(
            lambda t: {"cover_map": t.cover},
            "a tower's cover_map must be a cover map, got 'SurfaceModel'",
            id="cover-not-a-map",
        ),
        pytest.param(_base_lands_elsewhere, _NOT_ONTO_BASE, id="base_lands_elsewhere"),
        pytest.param(
            lambda t: {"cover_map": build_tower(5).cover_map},
            _NOT_ONTO_BASE,
            id="cover-of-another-base",
        ),
        pytest.param(
            # the cover as ``double_cover`` returns it, before A_n is registered
            lambda t: {"cover_map": double_cover(t.base, t.classes["R"])[1]},
            _NOT_ONTO_COVER,
            id="cover-without-the-nodal-member",
        ),
        pytest.param(
            lambda t: {"cover_blowup_map": t.base_blowup_map},
            _NOT_ONTO_COVER,
            id="top-over-the-base",
        ),
    ],
)
def test_a_tower_whose_maps_do_not_chain_is_refused(tower_3, maps, message):
    fields = {name: getattr(tower_3, name) for name in Tower._fields}
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        Tower(**{**fields, **maps(tower_3)})


_NOT_THE_NAMES = "a tower's classes must map the names F, G, G_n, R, A, L, D"


@pytest.mark.parametrize(
    "classes, error, message",
    [
        pytest.param(lambda t: 5, InvalidParameter, _NOT_THE_NAMES, id="not-a-mapping"),
        pytest.param(
            lambda t: {k: v for k, v in t.classes.items() if k != "D"},
            InvalidParameter, _NOT_THE_NAMES, id="a-name-missing",
        ),
        pytest.param(
            lambda t: {**t.classes, "X": t.classes["A"]},
            InvalidParameter, _NOT_THE_NAMES, id="a-name-too-many",
        ),
        pytest.param(
            lambda t: {**t.classes, "D": t.classes["A"]},
            MismatchedModel,
            "class belongs to model 'abelian_product(n=3)', not "
            "'blowup(double_cover(abelian_product(n=3));E_1,E_2,E_3)'",
            id="D-on-the-base",
        ),
        pytest.param(
            lambda t: {**t.classes, "A": build_tower(5).classes["A"]},
            MismatchedModel,
            "class belongs to model 'abelian_product(n=5)', not 'abelian_product(n=3)'",
            id="A-of-another-tower",
        ),
        pytest.param(
            lambda t: {**t.classes, "R": DivisorClass(t.base.model_id, (1, 1))},
            MismatchedModel, "class has 2 coefficients, expected 3", id="R-too-short",
        ),
        pytest.param(
            lambda t: {**t.classes, "L": (1, 1, 0, 0, 0, 0)},
            TypeError, "expected a DivisorClass, got tuple", id="L-not-a-class",
        ),
    ],
)
def test_a_tower_refuses_classes_off_their_models(tower_3, classes, error, message):
    fields = {name: getattr(tower_3, name) for name in Tower._fields}
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Tower(**{**fields, "classes": classes(tower_3)})


def test_tower_model_of_refuses_a_foreign_class(tower_3):
    assert tower_3.model_of(tower_3.classes["L"]) is tower_3.base_blowup
    foreign = build_tower(5).classes["A"]
    with pytest.raises(MismatchedModel, match=re.escape(f"{foreign.model_id!r} is not a model")):
        tower_3.model_of(foreign)


def test_strict_transform_of_member():
    # Independent route: start from the declared base Gram, extend by three
    # orthogonal (-1)-classes, and evaluate (pullback(A) - 2(e1+e2+e3))^2
    # directly; cross-check against the sum of the two strict transforms.
    tower = build_tower(3)
    rho = tower.base_blowup_map
    bb = tower.base_blowup
    member = tower.classes["A"]
    one_dim = strict_transform(rho, member, (2, 2, 2))
    assert bb.self_int(one_dim) == 8 - 4 * 3  # == -4
    assert bb.self_int(one_dim) == -4
    summed = bb.curve("F'").cls + bb.curve("Gamma_n'").cls
    assert one_dim == summed
    assert bb.self_int(summed) == (-3) + (-3) + 2 * 1


def test_strict_transform_of_pulled_back_member(tower_5):
    headline = strict_transform(
        tower_5.cover_blowup_map,
        pullback(tower_5.cover_map, tower_5.classes["A"]),
        (2, 2, 2),
    )
    assert tower_5.cover_blowup.self_int(headline) == 4
    assert headline == tower_5.classes["D"]


def test_strict_transform_of_single_fiber(tower_3):
    f_strict = strict_transform(tower_3.base_blowup_map, tower_3.classes["F"], (1, 1, 1))
    assert tower_3.base_blowup.self_int(f_strict) == -3
    assert f_strict == tower_3.base_blowup.curve("F'").cls


def test_strict_transform_arity_checked(tower_3):
    with pytest.raises(InvalidParameter, match="need 3 multiplicities, got 2"):
        strict_transform(tower_3.base_blowup_map, tower_3.classes["F"], (1, 1))


def test_strict_transform_needs_blowup(tower_3):
    with pytest.raises(InvalidParameter, match="strict_transform needs a blow-up morphism"):
        strict_transform(tower_3.cover_map, tower_3.classes["F"], ())


def test_double_cover_scales_pairings(tower_3):
    cover, cover_map = tower_3.cover, tower_3.cover_map
    up_member = pullback(cover_map, tower_3.classes["A"])
    assert cover.self_int(up_member) == 16
    up_f = pullback(cover_map, tower_3.classes["F"])
    up_g = pullback(cover_map, tower_3.classes["G"])
    assert cover.pair(up_f, up_g) == 2  # 2 x F.G
    assert cover.self_int(up_f) == 0


def test_double_cover_rejects_foreign_branch_class():
    m3 = build_abelian_product(3)
    m5 = build_abelian_product(5)
    with pytest.raises(MismatchedModel):
        double_cover(m3, m5.basis_class("F"))


def test_pullback_of_zero_is_zero(tower_3):
    up = pullback(tower_3.base_blowup_map, DivisorClass(tower_3.base.model_id, (0, 0, 0)))
    assert up.is_zero


def test_pullback_rejects_wrong_model(tower_3):
    with pytest.raises(MismatchedModel):
        pullback(tower_3.base_blowup_map, tower_3.classes["L"])


def test_strict_transform_with_zero_multiplicities_is_pullback(tower_3):
    d = DivisorClass(tower_3.base.model_id, (2, -1, 3))
    assert strict_transform(tower_3.base_blowup_map, d, (0, 0, 0)) == pullback(
        tower_3.base_blowup_map, d
    )


def test_nodal_member_strict_transform_is_headline_class(tower_5):
    # The top model registers the strict transform of the nodal member;
    # with declared node multiplicity 2 it coincides with the verified class.
    assert tower_5.cover_blowup.curve("A_n'").cls == tower_5.classes["D"]


def test_tower_exceptional_bookkeeping(tower_3):
    assert tower_3.base_blowup.exceptional_labels == ("e_1", "e_2", "e_3")
    assert tower_3.cover_blowup.exceptional_labels == ("E_1", "E_2", "E_3")


_coeff = st.integers(min_value=-100, max_value=100)


@given(
    st.lists(_coeff, min_size=3, max_size=3),
    st.lists(_coeff, min_size=3, max_size=3),
)
def test_blow_up_preserves_pairing_of_pullbacks(c1, c2):
    tower = build_tower(5)
    d1 = DivisorClass(tower.base.model_id, c1)
    d2 = DivisorClass(tower.base.model_id, c2)
    up1 = pullback(tower.base_blowup_map, d1)
    up2 = pullback(tower.base_blowup_map, d2)
    assert tower.base_blowup.pair(up1, up2) == tower.base.pair(d1, d2)


@given(
    st.lists(_coeff, min_size=3, max_size=3),
    st.lists(_coeff, min_size=3, max_size=3),
)
def test_cover_scales_pairing_by_two(c1, c2):
    tower = build_tower(5)
    d1 = DivisorClass(tower.base.model_id, c1)
    d2 = DivisorClass(tower.base.model_id, c2)
    up1 = pullback(tower.cover_map, d1)
    up2 = pullback(tower.cover_map, d2)
    assert tower.cover.pair(up1, up2) == 2 * tower.base.pair(d1, d2)


@functools.cache
def _maps_under_test():
    """(base model, constructed model, morphism) for the three tower maps
    and a blow-up of the blown-up base, whose exceptional labels follow
    e_1, e_2, e_3."""
    tower = build_tower(5)
    again, again_map = blow_up(tower.base_blowup, {"x_1": {"F'": 1}, "x_2": {}})
    return [
        (tower.base, tower.base_blowup, tower.base_blowup_map),
        (tower.base, tower.cover, tower.cover_map),
        (tower.cover, tower.cover_blowup, tower.cover_blowup_map),
        (tower.base_blowup, again, again_map),
    ]


def test_blow_up_of_a_blow_up_accumulates_exceptional_labels():
    base, up, morphism = _maps_under_test()[-1]
    assert morphism.exceptional_labels == ("x_1", "x_2")
    assert up.exceptional_labels == ("e_1", "e_2", "e_3", "x_1", "x_2")
    assert up.basis == base.basis + ("x_1", "x_2")


@given(st.data())
def test_pullback_is_the_label_matrix_product(data):
    # reference: the dense 0/1 matrix sending each base label to the same
    # label upstairs and nothing to an exceptional class
    base, up, morphism = data.draw(st.sampled_from(_maps_under_test()))
    matrix = [[int(row == col) for col in base.basis] for row in up.basis]
    coeffs = data.draw(st.lists(_coeff, min_size=base.size, max_size=base.size))
    expected = tuple(sum(m * c for m, c in zip(row, coeffs)) for row in matrix)
    pulled = pullback(morphism, DivisorClass(base.model_id, coeffs))
    assert pulled == DivisorClass(up.model_id, expected)


@given(st.data())
def test_transfer_inverts_strict_transform(data):
    base, up, morphism = data.draw(
        st.sampled_from([entry for entry in _maps_under_test() if entry[2].kind == "blowup"])
    )
    k = len(morphism.exceptional_labels)
    coeffs = data.draw(st.lists(_coeff, min_size=base.size, max_size=base.size))
    d = DivisorClass(base.model_id, coeffs)
    mults = data.draw(st.lists(st.integers(0, 100), min_size=k, max_size=k))
    strict = strict_transform(morphism, d, mults)
    assert strict.model_id == up.model_id and len(strict.coeffs) == up.size
    assert blowup_section_transfer(morphism, strict, "cited")[:2] == (d, mults)


@pytest.mark.parametrize("n", [3, 5, 7, 11])
def test_one_dim_class_pairings(n):
    tower = build_tower(n)
    bb = tower.base_blowup
    one_dim = tower.classes["L"]
    assert bb.self_int(one_dim) == -4
    assert bb.pair(one_dim, bb.curve("F'").cls) == -2
    assert bb.pair(one_dim, bb.curve("Gamma_n'").cls) == -2


# -- every construction refuses a bad argument with a package error -------------


@functools.cache
def _fuzz_pool():
    """Right and wrong arguments: the models, maps and classes of two
    towers, classes of the wrong length, the towers, a forcing trace, a
    report and its document, and values of other types."""
    t3, t5 = build_tower(3), build_tower(5)
    models = [*t3.models, t5.base, t5.cover_blowup]
    maps = [t3.base_blowup_map, t3.cover_map, t3.cover_blowup_map, t5.cover_blowup_map]
    classes = [*t3.classes.values(), t5.classes["D"], DivisorClass(t3.base.model_id, (1, 0))]
    report = verify(3)
    others = [t3, t5, fixed_part_forcing(t3.base_blowup, t3.classes["L"]), report,
              report_to_dict(report)]
    return models, maps, classes, t3.classes, others


_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=4),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
_value = st.one_of(
    _junk,
    st.sampled_from(_fuzz_pool()[0]),
    st.sampled_from(_fuzz_pool()[1]),
    st.sampled_from(_fuzz_pool()[2]),
    st.sampled_from(_fuzz_pool()[4]),
)
_label = st.one_of(
    st.sampled_from(["e_1", "e_2", "E_1", "F", "G", "Gamma_n", "F'", "A_n", "x"]),
    st.integers(-1, 1),
    st.none(),
)
_mult = st.one_of(st.integers(-2, 3), _value)
_points = st.one_of(
    _value,
    st.dictionaries(
        _label, st.one_of(_value, st.dictionaries(_label, _mult, max_size=3)), max_size=3
    ),
)
_mults = st.one_of(_value, st.lists(_mult, max_size=4), st.lists(_mult, max_size=4).map(tuple))
_classes = st.one_of(
    _value,
    st.just(_fuzz_pool()[3]),
    st.builds(lambda name, new: {**_fuzz_pool()[3], name: new},
              st.sampled_from(["F", "G", "G_n", "R", "A", "L", "D", "X"]), _value),
)
_CALLS = st.one_of(
    st.tuples(st.just(blow_up), _value, _points),
    st.tuples(st.just(double_cover), _value, _value),
    st.tuples(st.just(pullback), _value, _value),
    st.tuples(st.just(strict_transform), _value, _value, _mults),
    st.tuples(
        st.just(MorphismMap), st.one_of(st.sampled_from(["blowup", "cover"]), _value),
        _value, _value, st.one_of(st.none(), _value),
    ),
    st.tuples(st.just(Tower), _value, _value, _value, _value, _classes),
)


def _drained(*args):
    doc, statuses = streamed_report(*args)
    return [*doc["instances"]], doc["summary"], statuses


_size = st.one_of(st.none(), st.integers(-1, 7), _value)
# outside dlv.constructions: the rules, the forcing and the pipeline
_RULE_CALLS = st.one_of(
    st.tuples(st.just(fixed_part_forcing), _value, _value),
    st.tuples(st.just(h0_unique_member), _value),
    st.tuples(st.just(format_class), _value, _value),
    st.tuples(st.just(certify_not_effective), _value, _value, _label),
    st.tuples(st.just(cover_section_split), _value, _value),
    st.tuples(st.just(blowup_section_transfer), _value, _value, _value),
    st.tuples(st.just(verify_instance), _size, _size, _value),
    st.tuples(st.just(report_to_dict), _value),
    st.tuples(st.just(render_report_text), _value),
    st.tuples(st.just(_drained), _size, _size, _size, _size),
)


@settings(max_examples=800, deadline=None)
@given(st.one_of(_CALLS, _RULE_CALLS))
def test_constructions_refuse_bad_arguments_with_a_package_error(call):
    # each call returns, raises a package error, or raises the TypeError of
    # an operand that is not a class, never another Python error
    fn, *args = call
    try:
        fn(*args)
    except DivisorLatticeError:
        pass
    except TypeError as exc:
        assert str(exc).startswith("expected a DivisorClass, got "), exc


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: fixed_part_forcing(5, t.classes["L"]),
         "fixed_part_forcing needs a SurfaceModel, got int"),
        (lambda t: h0_unique_member(5), "h0_unique_member needs a ForcingTrace, got int"),
        (lambda t: verify_instance(3, 1, tower=5), "verify_instance needs a Tower, got int"),
        (lambda t: report_to_dict(5), "report_to_dict needs a VerificationReport, got int"),
        (lambda t: format_class(5, t.classes["A"]), "format_class needs a SurfaceModel, got int"),
        (lambda t: certify_not_effective(5, t.classes["A"], "G"),
         "certify_not_effective needs a SurfaceModel, got int"),
        (lambda t: cover_section_split(5, t.classes["A"]),
         "cover_section_split needs a double-cover morphism"),
        (lambda t: blowup_section_transfer(5, t.classes["L"], "c"),
         "blowup_section_transfer needs a blow-up morphism"),
        (lambda t: render_report_text(5), "render_report_text needs a verification-report"),
        (lambda t: render_report_text({}), "render_report_text needs a verification-report"),
        (lambda t: verify_instance(3.0, 1, tower=t), "n must be an integer, got 3.0"),
    ],
    ids=["forcing", "h0", "verify-instance", "report-to-dict", "format-class", "certify",
         "cover-split", "transfer", "render-int", "render-dict", "float-n-with-a-tower"],
)
def test_a_wrong_argument_outside_the_constructions_is_refused_on_entry(tower_3, call, message):
    # each ended in a bare AttributeError or TypeError, or (a float n with a
    # tower of the same n) was verified
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}"):
        call(tower_3)
