import random
import re

import pytest
from hypothesis import given, strategies as st

from dlv import (
    DivisorClass,
    Inconclusive,
    InvalidParameter,
    MismatchedModel,
    RegisteredCurve,
    SurfaceModel,
    UniqueMember,
    blowup_section_transfer,
    build_tower,
    certify_not_effective,
    cover_section_split,
    fixed_part_forcing,
    h0_unique_member,
    m_threshold,
    pullback,
)
from dlv.linsys import (
    NEF_RULE_CITATION,
    WITNESS_FAILED_CITATION,
    _first_all_negative,
    _ForcingPlan,
)
from dlv.schema import IntRuns
from stepwise_reference import _solve_exact, stepwise_forcing


# -- non-effectivity certificates ---------------------------------------------


def test_certificate_below_threshold(tower_5):
    base = tower_5.classes
    target = 3 * base["A"] - base["R"]
    pairing, record = certify_not_effective(tower_5.base, target, base["G_n"])
    assert pairing == 4 * (3 - 1) - 25  # == -17
    assert record == {
        "rule": "noneffectivity-on-abelian",
        "citation": NEF_RULE_CITATION,
        "values": {"target": list(target.coeffs), "witness": "Gamma_n", "pairing": -17},
    }


def test_certificate_refused_at_boundary(tower_3):
    base = tower_3.classes
    target = 4 * base["A"] - base["R"]
    pairing, record = certify_not_effective(tower_3.base, target, base["G_n"])
    assert pairing == 4 * (4 - 1) - 9  # == 3, the boundary
    assert record == {
        "rule": "noneffectivity-witness-failed",
        "citation": WITNESS_FAILED_CITATION,
        "values": {"witness": "Gamma_n", "pairing": 3},
    }
    # a pairing of exactly 0 certifies nothing either
    pairing, record = certify_not_effective(tower_3.base, base["G_n"], base["G_n"])
    assert pairing == 0
    assert record["rule"] == "noneffectivity-witness-failed"
    assert record["values"] == {"witness": "Gamma_n", "pairing": 0}


def test_certificate_for_negated_fiber(tower_3):
    pairing, record = certify_not_effective(
        tower_3.base, -tower_3.classes["F"], tower_3.classes["G_n"]
    )
    assert pairing == record["values"]["pairing"] == -4
    assert record["rule"] == "noneffectivity-on-abelian"


def test_certificate_needs_abelian_model(tower_3):
    bb = tower_3.base_blowup
    with pytest.raises(InvalidParameter, match="the nef witness rule needs an abelian model"):
        certify_not_effective(bb, -bb.curve("F'").cls, bb.curve("Gamma_n'").cls)


def test_certificate_needs_registered_witness(tower_3):
    strange = tower_3.base.divisor_class((1, 1, 1))
    with pytest.raises(InvalidParameter, match="the witness must be a registered curve"):
        certify_not_effective(tower_3.base, -tower_3.classes["F"], strange)


# -- cover section split ------------------------------------------------------


def test_cover_split_returns_both_summands(tower_3):
    member, half = tower_3.classes["A"], tower_3.classes["R"]
    first, second = cover_section_split(tower_3.cover_map, 2 * member)
    assert first == 2 * member
    assert second == 2 * member - half


def test_cover_split_of_half_branch_is_zero(tower_3):
    half = tower_3.classes["R"]
    first, second = cover_section_split(tower_3.cover_map, half)
    assert first == half
    assert second.is_zero


def test_cover_split_second_summand_pairing(tower_3):
    member, half, kernel = (
        tower_3.classes["A"],
        tower_3.classes["R"],
        tower_3.classes["G_n"],
    )
    _, second = cover_section_split(tower_3.cover_map, 1 * member)
    assert tower_3.base.pair(second, kernel) == 4 * 0 - 9  # == -9


def test_cover_split_needs_cover(tower_3):
    with pytest.raises(InvalidParameter, match="cover_section_split needs a double-cover"):
        cover_section_split(tower_3.base_blowup_map, tower_3.classes["A"])


@pytest.mark.parametrize("where", ["wrong model", "wrong length"])
def test_cover_split_needs_a_class_on_the_base(tower_3, where):
    # the message is about the given class, not about the half-branch class
    if where == "wrong model":
        m_cls = pullback(tower_3.cover_map, tower_3.classes["A"])
        message = re.escape(f"belongs to model {tower_3.cover.model_id!r}")
    else:
        m_cls = DivisorClass(tower_3.base.model_id, (1, 0))
        message = "has 2 coefficients, expected 3"
    with pytest.raises(MismatchedModel, match=message):
        cover_section_split(tower_3.cover_map, m_cls)


# -- blow-up section transfer -------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 5])
def test_transfer_from_top_surface(tower_3, m):
    down, orders = blowup_section_transfer(
        tower_3.cover_blowup_map, m * tower_3.classes["D"]
    )
    assert orders == [2 * m] * 3
    assert down == pullback(tower_3.cover_map, m * tower_3.classes["A"])


@pytest.mark.parametrize("m", [1, 3])
def test_transfer_from_blown_up_base(tower_3, m):
    down, orders = blowup_section_transfer(
        tower_3.base_blowup_map, m * tower_3.classes["L"]
    )
    assert orders == [2 * m] * 3
    assert down == m * tower_3.classes["A"]


def test_transfer_of_pure_pullback(tower_3):
    up_f = pullback(tower_3.base_blowup_map, tower_3.classes["F"])
    down, orders = blowup_section_transfer(tower_3.base_blowup_map, up_f)
    assert down == tower_3.classes["F"]
    assert orders == [0, 0, 0]


def test_transfer_rejects_positive_exceptional_part(tower_3):
    bb = tower_3.base_blowup
    bad = pullback(tower_3.base_blowup_map, tower_3.classes["F"]) + bb.basis_class("e_1")
    with pytest.raises(InvalidParameter, match="include a positive entry"):
        blowup_section_transfer(tower_3.base_blowup_map, bad)


def test_transfer_rejects_wrong_model(tower_3):
    with pytest.raises(MismatchedModel):
        blowup_section_transfer(tower_3.base_blowup_map, tower_3.classes["A"])


@pytest.mark.parametrize(
    "coeffs",
    [(1, 0, 0), (1, 0, 0, -1, -1), (1, 0, 0, -1, -1, -1, 0), (1, 0, 0, 0, 0, 0, -2)],
    ids=["base-size", "short", "one-extra", "extra-negative"],
)
def test_transfer_rejects_wrong_length(tower_3, coeffs):
    # a class on the blow-up's id with too few or too many coefficients
    d = DivisorClass(tower_3.base_blowup.model_id, coeffs)
    with pytest.raises(InvalidParameter, match="class does not fit the blow-up shape"):
        blowup_section_transfer(tower_3.base_blowup_map, d)


# -- fixed-component forcing --------------------------------------------------


def test_forcing_two_multiples(tower_3):
    trace = fixed_part_forcing(tower_3.base_blowup, 2 * tower_3.classes["L"])
    assert isinstance(trace.conclusion, UniqueMember)
    assert trace.conclusion.as_dict() == {"F'": 2, "Gamma_n'": 2}
    assert trace.steps[0].curve_label == "F'"
    assert trace.steps[0].pairing_value == -4
    assert trace.steps[1].pairing_value == -5


def test_forcing_single_multiple(tower_5):
    trace = fixed_part_forcing(tower_5.base_blowup, tower_5.classes["L"])
    assert isinstance(trace.conclusion, UniqueMember)
    assert trace.conclusion.as_dict() == {"F'": 1, "Gamma_n'": 1}
    assert [s.pairing_value for s in trace.steps] == [-2, -3]


def test_forcing_zero_class(tower_3):
    trace = fixed_part_forcing(tower_3.base_blowup, tower_3.base_blowup.zero())
    assert isinstance(trace.conclusion, UniqueMember)
    assert trace.conclusion.as_dict() == {}
    assert trace.steps == ()


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
def test_forcing_step_values_match_closed_forms(n, m):
    tower = build_tower(n)
    trace = fixed_part_forcing(tower.base_blowup, m * tower.classes["L"])
    assert isinstance(trace.conclusion, UniqueMember)
    assert trace.conclusion.as_dict() == {"F'": m, "Gamma_n'": m}
    pairings = [s.pairing_value for s in trace.steps]
    expected = []
    for k in range(m, 0, -1):
        expected += [-2 * k, -2 * k - 1]
    assert pairings == expected


def test_forcing_residual_chain(tower_3):
    start = 3 * tower_3.classes["L"]
    trace = fixed_part_forcing(tower_3.base_blowup, start)
    residual = start
    for step in trace.steps:
        residual = residual - tower_3.base_blowup.curve(step.curve_label).cls
        assert step.residual_after == residual
    assert residual.is_zero


def test_forcing_terminates_within_initial_measure(tower_3):
    # the measure of m*L over the registered curves is 2m
    for m in (1, 2, 6):
        trace = fixed_part_forcing(tower_3.base_blowup, m * tower_3.classes["L"])
        assert isinstance(trace.conclusion, UniqueMember)
        assert len(trace.steps) == 2 * m


def test_forcing_cap(tower_3):
    trace = fixed_part_forcing(tower_3.base_blowup, 5 * tower_3.classes["L"], step_cap=3)
    assert isinstance(trace.conclusion, Inconclusive)
    assert trace.conclusion.reason == "cap"
    assert len(trace.steps) == 3


@pytest.mark.parametrize("cap", [2.5, True, -1, "3"], ids=repr)
@pytest.mark.parametrize("start", ["L", "zero"])
def test_forcing_step_cap_must_be_a_non_negative_int(tower_3, cap, start):
    bb = tower_3.base_blowup
    d = tower_3.classes["L"] if start == "L" else bb.zero()
    with pytest.raises(InvalidParameter, match="step_cap"):
        fixed_part_forcing(bb, d, step_cap=cap)


def test_forcing_with_a_zero_cap_takes_no_step(tower_3):
    trace = fixed_part_forcing(tower_3.base_blowup, tower_3.classes["L"], step_cap=0)
    assert trace.conclusion == Inconclusive("cap")
    assert trace.runs == ()


def test_forcing_without_negative_pairing(tower_3):
    up_member = pullback(tower_3.base_blowup_map, tower_3.classes["A"])
    trace = fixed_part_forcing(tower_3.base_blowup, up_member)
    assert isinstance(trace.conclusion, Inconclusive)
    assert trace.conclusion.reason == "no forcing curve"


def test_forcing_outside_registry_cone(tower_3):
    bb = tower_3.base_blowup
    # -Gamma_n' pairs negatively with F' but has no positive coefficient
    # left to subtract, so the engine abstains instead of over-claiming.
    start = -bb.curve("Gamma_n'").cls
    assert bb.pair(start, bb.curve("F'").cls) < 0
    trace = fixed_part_forcing(bb, start)
    assert isinstance(trace.conclusion, Inconclusive)
    assert trace.conclusion.reason == "outside registry cone"


# -- run-length forcing against the stepwise reference -------------------------


def assert_matches_stepwise(model, start, step_cap=None):
    trace = fixed_part_forcing(model, start, step_cap=step_cap)
    steps, conclusion = stepwise_forcing(model, start, step_cap=step_cap)
    assert trace.conclusion == conclusion
    assert trace.steps == steps
    assert trace.step_pairings() == [s.pairing_value for s in steps]
    return trace


@pytest.mark.parametrize("n", range(3, 32, 2))
def test_forcing_matches_stepwise_on_the_tower(n):
    tower = build_tower(n)
    for m in range(1, m_threshold(n) + 2):
        start = m * tower.classes["L"]
        assert_matches_stepwise(tower.base_blowup, start)
        # a cap of m stops halfway through the 2m subtractions
        assert_matches_stepwise(tower.base_blowup, start, step_cap=m)


def _random_registry(rng, tag):
    size = rng.randint(2, 5)
    gram = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            gram[i][j] = gram[j][i] = rng.randint(-3, 0) if i == j else rng.randint(-1, 2)
    basis = tuple(f"b_{i}" for i in range(size))
    curves = []
    for label in range(rng.randint(2, 4)):
        coeffs = [rng.randint(-1, 2) for _ in range(size)]
        coeffs[0] += not any(coeffs)
        curves.append(RegisteredCurve(f"c_{label}", DivisorClass(tag, tuple(coeffs))))
    exceptional = tuple(rng.sample(basis, rng.randint(0, 2)))
    model = SurfaceModel(tag, basis, gram, tuple(curves), exceptional_labels=exceptional)
    start = [0] * size
    for curve in curves:
        times = rng.randint(0, 40)
        start = [s + times * c for s, c in zip(start, curve.cls.coeffs)]
    for label in exceptional:
        start[basis.index(label)] += rng.choice([0, 0, 0, 1, -1])
    return model, DivisorClass(tag, tuple(start))


def test_forcing_matches_stepwise_on_random_registries():
    jumped = unique = 0
    for trial in range(2400):
        rng = random.Random(f"registry:{trial}")
        model, start = _random_registry(rng, f"random({trial})")
        cap = rng.choice([None, None, rng.randint(0, 30)])
        trace = assert_matches_stepwise(model, start, step_cap=cap)
        jumped += any(run.repeats > 1 for run in trace.runs)
        unique += isinstance(trace.conclusion, UniqueMember)
    # the sample must exercise the jump and every way a run can end
    assert jumped > 500 and unique > 200


def test_forcing_jumps_over_repeated_cycles():
    tower = build_tower(61)
    m = m_threshold(61)
    trace = fixed_part_forcing(tower.base_blowup, m * tower.classes["L"])
    assert m == 931
    assert trace.conclusion.as_dict() == {"F'": m, "Gamma_n'": m}
    assert len(trace.step_pairings()) == 2 * m
    assert len(trace.runs) <= 5


def test_first_failure_is_not_an_interval_end():
    # a competitor wins for 2 <= k <= 4 only, so the curve that beats it
    # stays chosen for k in {0, 1} and again from 5 on; the run must stop at
    # 2, although a bisection between the valid ends 0 and 6 would not
    wins = [(1, -1), (-5, 1)]  # 1 - k < 0 and k - 5 < 0
    assert _first_all_negative(wins) == 2
    assert [k for k in range(8) if all(a + b * k < 0 for a, b in wins)] == [2, 3, 4]
    assert _first_all_negative([(-3, 0), (-1, 1)]) == 0
    assert _first_all_negative([(0, 0)]) is None
    assert _first_all_negative([(1, -1), (-2, 1)]) is None  # k >= 2 and k <= 1


def test_cone_solve_matches_rational_elimination():
    # the inputs cover unique integer solutions and all three ways to have
    # none: dependent columns, an inconsistent system, a non-integral one
    rng = random.Random("cone")
    for trial in range(500):
        size = rng.randint(1, 4)
        columns = [
            tuple(rng.randint(-3, 3) for _ in range(size)) for _ in range(rng.randint(1, size))
        ]
        columns = [c for c in columns if any(c)]
        rhs = [0] * size
        for column in columns:
            times = rng.randint(-3, 3)
            rhs = [r + times * c for r, c in zip(rhs, column)]
        if rng.random() < 0.5:
            rhs[rng.randrange(size)] += rng.randint(-2, 2)
        tag = f"cone({trial})"
        model = SurfaceModel(
            tag,
            tuple(f"b_{i}" for i in range(size)),
            [[0] * size for _ in range(size)],
            tuple(RegisteredCurve(f"c_{j}", DivisorClass(tag, c)) for j, c in enumerate(columns)),
        )
        assert _ForcingPlan.of(model).represent(tuple(rhs)) == _solve_exact(columns, tuple(rhs))


# -- section counts -----------------------------------------------------------


def test_h0_of_forced_multiple(tower_3):
    trace = fixed_part_forcing(tower_3.base_blowup, 3 * tower_3.classes["L"])
    h0, records = h0_unique_member(trace)
    assert h0 == 1
    rules = [app["rule"] for app in records]
    assert rules == ["fixed-component-forcing", "unique-member-section-count"]


def test_h0_of_zero_class(tower_3):
    trace = fixed_part_forcing(tower_3.base_blowup, tower_3.base_blowup.zero())
    h0, records = h0_unique_member(trace)
    assert h0 == 1
    assert [app["rule"] for app in records] == ["trivial-class"]


def test_h0_unknown_without_certificate(tower_3):
    up_member = pullback(tower_3.base_blowup_map, tower_3.classes["A"])
    trace = fixed_part_forcing(tower_3.base_blowup, up_member)
    h0, records = h0_unique_member(trace)
    assert h0 is None
    assert [app["rule"] for app in records] == ["fixed-component-forcing"]  # the refusal


@given(st.integers(min_value=1, max_value=30))
def test_forcing_decomposition_closed_form(m):
    tower = build_tower(3)
    trace = fixed_part_forcing(tower.base_blowup, m * tower.classes["L"])
    assert isinstance(trace.conclusion, UniqueMember)
    assert trace.conclusion.as_dict() == {"F'": m, "Gamma_n'": m}


@pytest.mark.parametrize("n", [3, 21])
def test_the_forcing_record_keeps_the_runs_of_its_pairings(n):
    tower = build_tower(n)
    for m in range(1, m_threshold(n) + 2):
        trace = fixed_part_forcing(tower.base_blowup, m * tower.classes["L"])
        record = h0_unique_member(trace)[1][0]["values"]["step_pairings"]
        expected = trace.step_pairings()
        assert type(record) is IntRuns and type(expected) is list
        assert len(record._runs) == len(trace.runs) <= 5
        assert len(record) == len(expected) == 2 * m
        assert list(record) == expected and record == expected and expected == record
        assert [record[i] for i in range(-2 * m, 2 * m)] == expected * 2
        assert record[m:] == expected[m:]


def test_an_inconclusive_record_counts_its_steps_without_pairings(tower_3):
    trace = fixed_part_forcing(tower_3.base_blowup, 5 * tower_3.classes["L"], step_cap=3)
    h0, (record,) = h0_unique_member(trace)
    assert h0 is None
    assert record["values"] == {
        "start": list(trace.start.coeffs), "inconclusive": "cap", "steps_taken": 3
    }
