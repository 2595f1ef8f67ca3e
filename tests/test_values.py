"""Value semantics of the package's value classes.

Each is immutable, its ``==`` and ``hash`` read its compared fields and
nothing else, and its ``repr`` is the dataclass text of its fields.
"""

import copy as copy_module
import pickle

import pytest

from dlv import (
    DivisorClass,
    Inconclusive,
    MorphismMap,
    RegisteredCurve,
    SurfaceModel,
    Tower,
    build_tower,
    fixed_part_forcing,
    verify,
)
from dlv.linsys import (
    ForcingRun,
    ForcingStep,
    ForcingTrace,
    UniqueMember,
    _ForcingPlan,
)
from dlv.oracle import OracleReport, forcing_order_check
from dlv.pipeline import VerificationReport


def _values():
    tower = build_tower(3)
    classes = tower.classes
    trace = fixed_part_forcing(tower.base_blowup, 3 * classes["L"])
    return {
        DivisorClass: classes["A"],
        RegisteredCurve: tower.base.curves[0],
        SurfaceModel: tower.base_blowup,
        MorphismMap: tower.cover_map,
        Tower: tower,
        UniqueMember: trace.conclusion,
        Inconclusive: Inconclusive("cap"),
        ForcingStep: trace.steps[0],
        ForcingRun: trace.runs[0],
        ForcingTrace: trace,
        _ForcingPlan: tower.base_blowup._forcing_plan,
        OracleReport: OracleReport("identity", 2, ["a failure"], 7),
        VerificationReport: verify(3),
    }


# each class: its fields in constructor order, then the names left out of
# ``==`` and ``hash``
FIELDS = {
    DivisorClass: (("model_id", "coeffs"), ()),
    RegisteredCurve: (("label", "cls"), ()),
    SurfaceModel: (
        ("model_id", "basis", "gram", "curves", "kind", "exceptional_labels"),
        ("_basis_index", "_forcing_plan"),
    ),
    MorphismMap: (("kind", "source", "target", "branch_half"), ()),
    Tower: (("n", "base_blowup_map", "cover_map", "cover_blowup_map", "classes"), ("classes",)),
    UniqueMember: (("decomposition",), ()),
    Inconclusive: (("reason",), ()),
    ForcingStep: (("curve_label", "pairing_value", "residual_after"), ()),
    ForcingRun: (("curves", "pairings", "shifts", "repeats"), ()),
    ForcingTrace: (("start", "runs", "conclusion"), ()),
    _ForcingPlan: (("rows", "meets", "columns", "solver"), ()),
    OracleReport: (("suite", "trials", "failures", "seed"), ()),
    VerificationReport: (("n", "m_max", "instances", "summary"), ()),
}


def test_every_value_class_is_covered():
    assert len(FIELDS) == 13
    assert set(_values()) == set(FIELDS)


def _clone(value, names, /, **changes):
    """A copy of ``value`` with ``names`` copied over and ``changes`` set,
    made without its constructor, so nothing is checked or recomputed."""
    copy = object.__new__(type(value))
    for name in names:
        object.__setattr__(copy, name, changes.get(name, getattr(value, name)))
    return copy


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    value = _values()[cls]
    fields, ignored = FIELDS[cls]
    names = (*fields, *[name for name in ignored if name not in fields])
    assert type(value) is cls

    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)

    text = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__qualname__}({text})"

    compared = tuple(getattr(value, name) for name in fields if name not in ignored)
    same = _clone(value, names)
    assert same == value and not same != value
    assert value.__eq__(compared) is NotImplemented
    assert value.__eq__(object()) is NotImplemented
    try:
        hash(compared)
    except TypeError:  # a compared field holds a dict
        expected = None
        with pytest.raises(TypeError):
            hash(value)
    else:
        expected = hash(value)
        assert hash(same) == expected
    assert copy_module.copy(value) == value
    for copy in (copy_module.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copy) is cls
        assert copy == value
    for name in names:
        other = _clone(value, names, **{name: object()})
        if name in ignored:
            assert other == value and hash(other) == expected
        else:
            assert other != value


def test_reprs_are_the_dataclass_text():
    assert repr(DivisorClass("x", (1, 0))) == "DivisorClass(model_id='x', coeffs=(1, 0))"
    assert repr(Inconclusive("cap")) == "Inconclusive(reason='cap')"


def test_with_curve_copies_without_the_forcing_plan():
    tower = build_tower(3)
    model = tower.base_blowup
    fixed_part_forcing(model, tower.classes["L"])
    plan = model._forcing_plan
    assert plan is not None
    copy = model.with_curve("L", tower.classes["L"])
    assert copy._forcing_plan is None
    assert model._forcing_plan is plan
    assert copy.curves == (*model.curves, RegisteredCurve("L", tower.classes["L"]))
    assert copy != model


def test_forcing_order_check_forces_each_variant_from_no_plan(monkeypatch):
    import dlv.oracle as oracle_mod

    tower = build_tower(3)
    model = tower.base_blowup
    fixed_part_forcing(model, tower.classes["L"])
    assert model._forcing_plan is not None
    seen = []
    real = oracle_mod.fixed_part_forcing

    def recording(variant, target):
        seen.append((variant is model, variant._forcing_plan))
        return real(variant, target)

    monkeypatch.setattr(oracle_mod, "fixed_part_forcing", recording)
    report = forcing_order_check(model, tower.classes["L"], m_cap=2)
    assert not report.failures
    assert len(seen) == report.trials > 0
    assert seen == [(False, None)] * len(seen)
