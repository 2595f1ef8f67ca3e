import functools

import pytest
from hypothesis import given, strategies as st

from dlv import (
    InvalidParameter,
    MismatchedModel,
    PointSpec,
    blow_up,
    blowup_section_transfer,
    build_abelian_product,
    build_tower,
    double_cover,
    pullback,
    strict_transform,
)


def test_declared_gram_for_smallest_n():
    model = build_abelian_product(3)
    assert model.gram == ((0, 1, 4), (1, 0, 9), (4, 9, 0))
    assert model.kind == "abelian"
    assert model.curve_labels == ("F", "G", "Gamma_n")


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
        blow_up(model, [PointSpec("p", {"NotACurve": 1})])


def test_blow_up_needs_points():
    model = build_abelian_product(3)
    with pytest.raises(InvalidParameter):
        blow_up(model, [])


def test_blow_up_rejects_negative_multiplicity():
    with pytest.raises(InvalidParameter):
        PointSpec("p", {"F": -1})


@pytest.mark.parametrize("mult", [-1, 1.9, True, "1", None], ids=repr)
def test_point_spec_multiplicity_must_be_a_non_negative_int(mult):
    with pytest.raises(InvalidParameter):
        PointSpec("p", {"F": mult})


@pytest.mark.parametrize("label", [1, None, ("F",), b"F"], ids=repr)
def test_point_spec_curve_label_must_be_a_str(label):
    # a non-str label next to a str one used to raise a bare TypeError from the sort
    with pytest.raises(InvalidParameter):
        PointSpec("p", {label: 1, "F": 1})


@pytest.mark.parametrize("mult", [-1, 1.5, True, "1", None], ids=repr)
def test_strict_transform_multiplicity_must_be_a_non_negative_int(tower_3, mult):
    # True used to pass as 1, -1 put +1 on e_1 and 1.5 raised InvalidModel
    with pytest.raises(InvalidParameter, match="multiplicity at e_1"):
        strict_transform(tower_3.base_blowup_map, tower_3.classes["F"], (mult, 0, 0))


@pytest.mark.parametrize("given", [(("F", 1),), [("F", 1)], ()], ids=repr)
def test_point_spec_needs_a_mapping(given):
    with pytest.raises(InvalidParameter):
        PointSpec("p", given)


def test_point_spec_stores_sorted_pairs():
    spec = PointSpec("p", {"Gamma_n": 1, "F": 2})
    assert spec.declared_multiplicities == (("F", 2), ("Gamma_n", 1))
    assert spec.multiplicity("F") == 2 and spec.multiplicity("G") == 0
    assert PointSpec("q").declared_multiplicities == ()


def test_blow_up_label_collision_rejected(tower_3):
    with pytest.raises(InvalidParameter):
        blow_up(
            tower_3.base,
            [PointSpec("p", {})],
            exceptional_labels=("F",),
        )


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
    up = pullback(tower_3.base_blowup_map, tower_3.base.zero())
    assert up.is_zero


def test_pullback_rejects_wrong_model(tower_3):
    with pytest.raises(MismatchedModel):
        pullback(tower_3.base_blowup_map, tower_3.classes["L"])


def test_strict_transform_with_zero_multiplicities_is_pullback(tower_3):
    d = tower_3.base.divisor_class((2, -1, 3))
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
    d1 = tower.base.divisor_class(c1)
    d2 = tower.base.divisor_class(c2)
    up1 = pullback(tower.base_blowup_map, d1)
    up2 = pullback(tower.base_blowup_map, d2)
    assert tower.base_blowup.pair(up1, up2) == tower.base.pair(d1, d2)


@given(
    st.lists(_coeff, min_size=3, max_size=3),
    st.lists(_coeff, min_size=3, max_size=3),
)
def test_cover_scales_pairing_by_two(c1, c2):
    tower = build_tower(5)
    d1 = tower.base.divisor_class(c1)
    d2 = tower.base.divisor_class(c2)
    up1 = pullback(tower.cover_map, d1)
    up2 = pullback(tower.cover_map, d2)
    assert tower.cover.pair(up1, up2) == 2 * tower.base.pair(d1, d2)


@functools.cache
def _maps_under_test():
    """(base model, constructed model, morphism) for the three tower maps
    and a blow-up of the blown-up base, whose exceptional labels follow
    e_1, e_2, e_3."""
    tower = build_tower(5)
    again, again_map = blow_up(
        tower.base_blowup, [PointSpec("r_1", {"F'": 1}), PointSpec("r_2", {})], ("x_1", "x_2")
    )
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
    assert pullback(morphism, base.divisor_class(coeffs)) == up.divisor_class(expected)


@given(st.data())
def test_transfer_inverts_strict_transform(data):
    base, up, morphism = data.draw(
        st.sampled_from([entry for entry in _maps_under_test() if entry[2].kind == "blowup"])
    )
    k = len(morphism.exceptional_labels)
    d = base.divisor_class(data.draw(st.lists(_coeff, min_size=base.size, max_size=base.size)))
    mults = data.draw(st.lists(st.integers(0, 100), min_size=k, max_size=k))
    strict = strict_transform(morphism, d, mults)
    assert strict.model_id == up.model_id and len(strict.coeffs) == up.size
    assert blowup_section_transfer(morphism, strict) == (d, mults)


@pytest.mark.parametrize("n", [3, 5, 7, 11])
def test_one_dim_class_pairings(n):
    tower = build_tower(n)
    bb = tower.base_blowup
    one_dim = tower.classes["L"]
    assert bb.self_int(one_dim) == -4
    assert bb.pair(one_dim, bb.curve("F'").cls) == -2
    assert bb.pair(one_dim, bb.curve("Gamma_n'").cls) == -2
