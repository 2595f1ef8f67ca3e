import pytest

from dlv import (
    BoundTooLarge,
    DivisorClass,
    InvalidParameter,
    RegisteredCurve,
    RegistryTooLarge,
    SurfaceModel,
    UniqueMember,
    bilinearity_suite,
    enumerate_decompositions,
    enumeration_check,
    fixed_part_forcing,
    forcing_order_check,
    identity_suite,
    oracle_report_to_dict,
)
from dlv.schema import validate_document


def test_enumeration_of_doubled_multiple(tower_3):
    bb = tower_3.base_blowup
    found = enumerate_decompositions(bb, 2 * tower_3.classes["L"], 10)
    assert found == [{"F'": 2, "Gamma_n'": 2}]


def test_enumeration_of_single_curve(tower_3):
    bb = tower_3.base_blowup
    found = enumerate_decompositions(bb, bb.curve("F'").cls, 10)
    assert found == [{"F'": 1}]


def test_enumeration_misses_exceptional_class(tower_3):
    bb = tower_3.base_blowup
    e1 = bb.basis_class("e_1")
    assert enumerate_decompositions(bb, e1, 10) == []


def test_enumeration_grid_cap(tower_3):
    with pytest.raises(BoundTooLarge):
        enumerate_decompositions(tower_3.base_blowup, tower_3.classes["L"], 10**4)


def test_enumeration_agrees_with_forcing(tower_3):
    bb = tower_3.base_blowup
    for m in range(1, 5):
        target = m * tower_3.classes["L"]
        trace = fixed_part_forcing(bb, target)
        assert isinstance(trace.conclusion, UniqueMember)
        assert enumerate_decompositions(bb, target, 10) == [trace.conclusion.as_dict()]


def test_enumeration_check_suite():
    report = enumeration_check(n=3, m_cap=4, coeff_bound=10)
    assert report.ok
    assert report.trials == 4


def test_identity_suite_small_range():
    report = identity_suite([3, 5, 7], m_max_per_n=10)
    assert report.ok
    assert report.failures == ()
    # 7 per-n identities + 2 per (n, m)
    assert report.trials == 3 * (7 + 2 * 10)


def test_forcing_order_independence(tower_3, tower_5):
    for tower in (tower_3, tower_5):
        report = forcing_order_check(tower.base_blowup, tower.classes["L"], m_cap=5)
        assert report.ok
        # 3 registered curves -> 6 orders, 5 multiples
        assert report.trials == 30


def test_forcing_order_single_curve_registry():
    mid = "single"
    model = SurfaceModel(
        model_id=mid,
        basis=("a",),
        gram=((-2,),),
        curves=(RegisteredCurve("a", DivisorClass(mid, (1,)), ""),),
    )
    report = forcing_order_check(model, DivisorClass(mid, (1,)), m_cap=3)
    assert report.ok


def test_forcing_order_registry_cap(tower_3):
    model = tower_3.base_blowup
    for i in range(4):
        model = model.with_curve(f"extra_{i}", model.basis_class("e_1"), "padding")
    with pytest.raises(RegistryTooLarge):
        forcing_order_check(model, tower_3.classes["L"])


def test_bilinearity_suite_is_clean_and_reproducible():
    first = bilinearity_suite(trials=300, seed=42)
    second = bilinearity_suite(trials=300, seed=42)
    assert first.ok
    assert first == second
    assert first.seed == 42


@pytest.mark.parametrize("bad", [-1, 1.5, True, "10"], ids=repr)
@pytest.mark.parametrize("suite", ["bilinearity", "identity", "enumeration"])
def test_suite_sizes_must_be_non_negative_ints(tower_3, suite, bad):
    with pytest.raises(InvalidParameter):
        if suite == "bilinearity":
            bilinearity_suite(trials=bad)
        elif suite == "identity":
            identity_suite([3], m_max_per_n=bad)
        else:
            enumerate_decompositions(tower_3.base_blowup, tower_3.classes["L"], bad)


def test_empty_suites_are_valid(tower_3):
    assert bilinearity_suite(trials=0).trials == 0
    assert identity_suite([3], m_max_per_n=0).ok
    assert enumerate_decompositions(tower_3.base_blowup, tower_3.base_blowup.zero(), 0) == [{}]


def test_oracle_report_serialization():
    report = identity_suite([3], m_max_per_n=2)
    document = oracle_report_to_dict(report)
    validate_document(document)
    assert document["suite"] == "identity"
    assert document["failures"] == []


def test_identity_single_checks(tower_5, tower_7):
    # pipeline route vs closed form, two hand-evaluated spots
    base7 = tower_7.base
    target = 2 * tower_7.classes["A"] - tower_7.classes["R"]
    assert base7.pair(target, tower_7.classes["G_n"]) == 4 * 1 - 49  # == -45
    bb5 = tower_5.base_blowup
    residual = 3 * tower_5.classes["L"] - bb5.curve("F'").cls
    assert bb5.pair(residual, bb5.curve("Gamma_n'").cls) == -2 * 3 - 1  # == -7
