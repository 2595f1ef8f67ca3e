import gc
import json
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, strategies as st

from dlv import (
    BEYOND_THRESHOLD,
    FAILED,
    DivisorClass,
    Inconclusive,
    MorphismMap,
    RegisteredCurve,
    SurfaceModel,
    Tower,
    UniqueMember,
    VERIFIED,
    InvalidParameter,
    SchemaViolation,
    canonical_json,
    m_threshold,
    render_report_text,
    report_to_dict,
    streamed_report,
    sweep_to_dict,
    verify,
    verify_instance,
)
from dlv.linsys import ForcingRun, ForcingTrace
from dlv.pipeline import VerificationReport
from dlv.schema import REPORT_SCHEMA, IntRuns, validate_document, write_json


def brute_force_threshold(n):
    # independent route: walk m upward until the witness pairing turns
    # non-negative
    m = 1
    while 4 * ((m + 1) - 1) - n * n < 0:
        m += 1
    return m


@pytest.mark.parametrize("n,expected", [(3, 3), (5, 7), (9, 21)])
def test_threshold_frozen_values(n, expected):
    assert m_threshold(n) == expected
    assert brute_force_threshold(n) == expected


@given(st.integers(min_value=1, max_value=200).map(lambda k: 2 * k + 1))
def test_threshold_matches_brute_force(n):
    t = m_threshold(n)
    assert t == brute_force_threshold(n)
    assert 4 * (t - 1) - n * n < 0
    assert 4 * t - n * n >= 0


class _Int(int):
    pass


@pytest.mark.parametrize("bad", [2, 4, 1, 0, -5, pytest.param(_Int(3), id="int-subclass")])
def test_threshold_rejects_bad_n(bad):
    with pytest.raises(InvalidParameter):
        m_threshold(bad)


def test_verified_instance_mid_range(tower_5):
    result = verify_instance(tower_5, 3)
    assert result["status"] == VERIFIED
    assert result["d_n_squared"] == 4
    assert result["a_n_squared"] == 8
    assert result["certificate_value"] == -17
    assert result["h0"] == 1


def test_boundary_instance(tower_3):
    result = verify_instance(tower_3, 4)
    assert result["status"] == BEYOND_THRESHOLD
    assert result["certificate_value"] == 3
    assert result["h0"] == "unknown"
    # the blown-up-base forcing is still spot-checked, flagged by scope
    scoped = [
        app
        for app in result["certificate_chain"]
        if app["values"].get("scope") == "Y'-only"
    ]
    assert scoped
    assert any(
        app["rule"] == "noneffectivity-witness-failed" for app in result["certificate_chain"]
    )


@pytest.mark.parametrize("m", [1, m_threshold(3) + 1], ids=["verified", "beyond"])
def test_inconclusive_forcing_yields_failed(monkeypatch, tower_3, m):
    # below and beyond the threshold the one forcing of the instance must
    # reach a unique member; an inconclusive one is an internal contradiction
    from dlv import FAILED, ForcingTrace, Inconclusive

    def inconclusive(model, start):
        return ForcingTrace(start=start, runs=(), conclusion=Inconclusive("no forcing curve"))

    monkeypatch.setattr("dlv.pipeline.fixed_part_forcing", inconclusive)
    result = verify_instance(tower_3, m)
    assert result["status"] == FAILED
    assert result["h0"] == "unknown"
    chain = result["certificate_chain"]
    (forcing,) = [a for a in chain if a["rule"] == "fixed-component-forcing"]
    assert forcing["values"]["inconclusive"] == "no forcing curve"
    (failed,) = [a for a in chain if a["rule"] == "internal-check-failed"]
    assert failed["values"]["details"] == [
        "blown-up-base forcing did not conclude a unique member"
    ]


def test_first_instance(tower_3):
    result = verify_instance(tower_3, 1)
    assert result["status"] == VERIFIED
    assert result["h0"] == 1


def test_instance_rejects_bad_m(tower_3):
    with pytest.raises(InvalidParameter):
        verify_instance(tower_3, 0)
    with pytest.raises(InvalidParameter):
        verify_instance(tower_3, -2)
    with pytest.raises(InvalidParameter):
        verify_instance(tower_3, _Int(1))


def test_instance_certificate_chain_order(tower_3):
    result = verify_instance(tower_3, 2)
    rules = [app["rule"] for app in result["certificate_chain"]]
    assert rules == [
        "blowup-section-transfer",
        "cover-section-split",
        "noneffectivity-on-abelian",
        "blowup-section-transfer",
        "fixed-component-forcing",
        "unique-member-section-count",
    ]


@pytest.mark.parametrize("n,instances,verified", [(3, 4, 3), (5, 8, 7)])
def test_report_counts(n, instances, verified):
    report = verify(n)
    assert len(report.instances) == instances
    assert sum(1 for r in report.instances if r["status"] == VERIFIED) == verified
    beyond = [r for r in report.instances if r["status"] == BEYOND_THRESHOLD]
    assert len(beyond) == 1
    assert beyond[0]["m"] == m_threshold(n) + 1


def test_report_certificate_values_follow_closed_form():
    report = verify(7)
    for r in report.instances:
        assert r["certificate_value"] == 4 * (r["m"] - 1) - 49
        assert r["a_n_squared"] == 8
        assert r["d_n_squared"] == 4
        if r["status"] == VERIFIED:
            assert r["h0"] == 1
            assert r["certificate_value"] < 0
        else:
            assert r["certificate_value"] >= 0


def test_large_threshold_report_shape():
    report = verify(21)
    assert m_threshold(21) == 111
    assert len(report.instances) == 112
    assert sum(1 for r in report.instances if r["status"] == VERIFIED) == 111


def test_m_max_override():
    report = verify(5, m_max=2)
    assert len(report.instances) == 3
    assert all(r["status"] == VERIFIED for r in report.instances)


@pytest.mark.parametrize("bad", [True, 0, -1, 2.0, pytest.param(_Int(2), id="int-subclass")])
def test_m_max_must_be_a_positive_int(bad):
    # a bool is an int in Python, but a report with "m_max": true breaks the
    # schema, so it is rejected like any other non-integer
    with pytest.raises(InvalidParameter):
        verify(3, m_max=bad)


def test_sweep_reports_are_n_independent_in_d_squared():
    reports = [verify(n) for n in (3, 5, 7)]
    assert len(reports) == 3
    for report in reports:
        assert all(r["d_n_squared"] == 4 for r in report.instances)
        assert all(r["a_n_squared"] == 8 for r in report.instances)


def test_report_json_is_deterministic():
    a = canonical_json(report_to_dict(verify(5)))
    b = canonical_json(report_to_dict(verify(5)))
    assert a == b
    parsed = json.loads(a)
    assert parsed["schema"] == "verification-report"
    assert parsed["n"] == 5
    assert [i["m"] for i in parsed["instances"]] == list(range(1, 9))


@pytest.mark.parametrize("m", [2, m_threshold(3) + 1], ids=["verified", "beyond"])
def test_an_instance_equals_itself_verified_again(tower_3, m):
    # its forcing record's step pairings are a new IntRuns each time
    a, b = verify_instance(tower_3, m), verify_instance(tower_3, m)
    (forcing,) = [
        app for app in a["certificate_chain"] if app["rule"] == "fixed-component-forcing"
    ]
    assert type(forcing["values"]["step_pairings"]) is IntRuns
    assert a == b and not a != b


def test_a_report_equals_itself_verified_again():
    assert verify(5) == verify(5)


def test_report_json_validates_against_schema():
    document = report_to_dict(verify(3))
    validate_document(document)
    sweep_document = sweep_to_dict([verify(n) for n in (3, 5)])
    validate_document(sweep_document)


def test_schema_rejects_malformed_document():
    document = report_to_dict(verify(3))
    document["instances"][0]["status"] = "Maybe"
    with pytest.raises(SchemaViolation, match=r"^\$\.instances\[0\]\.status: "):
        validate_document(document)
    with pytest.raises(jsonschema.ValidationError):  # the reference agrees
        jsonschema.validate(document, REPORT_SCHEMA)


def test_text_rendering_contains_the_numbers():
    report = verify(3)
    text = render_report_text(report_to_dict(report))
    assert "n=3" in text
    assert "Verified" in text
    assert "BeyondThreshold" in text
    for r in report.instances:
        assert str(r["certificate_value"]) in text
    assert report.summary in text


def test_sweep_text_rendering():
    text = "\n".join(render_report_text(report_to_dict(verify(n))) for n in (3, 5))
    assert "n=3" in text and "n=5" in text


def test_internal_contradiction_yields_failed():
    from dlv import FAILED, build_tower

    t = build_tower(3)
    # tamper with one declared Gram entry so a closed form breaks
    bad_base = _with_gram(t.base, {(0, 2): 5})
    result = verify_instance(_tampered(t, base=bad_base), 1)
    assert result["status"] == FAILED
    assert any(
        app["rule"] == "internal-check-failed" for app in result["certificate_chain"]
    )
    assert result["h0"] == "unknown"


def _with_gram(model, entries):
    """``model`` with the Gram entries ``{(i, j): value}`` set, symmetrically."""
    gram = [list(row) for row in model.gram]
    for (i, j), value in entries.items():
        gram[i][j] = gram[j][i] = value
    return SurfaceModel(
        model.model_id, model.basis, gram, model.curves, model.kind, model.exceptional_labels
    )


def _tampered(tower, classes=(), branch_half=None, **models):
    """``tower`` with some of its four models, its branch half and some
    named classes replaced, and its three maps rebuilt onto the models."""
    base, base_blowup, cover, cover_blowup = [
        models.get(name, getattr(tower, name))
        for name in ("base", "base_blowup", "cover", "cover_blowup")
    ]
    return Tower(
        tower.n,
        MorphismMap("blowup", base_blowup, base),
        MorphismMap("cover", cover, base, branch_half or tower.cover_map.branch_half),
        MorphismMap("blowup", cover_blowup, cover),
        {**tower.classes, **dict(classes)},
    )


def _top_orders_off(t):
    # exceptional classes of square -4 carry a class of square 4 that
    # vanishes to order 1, not 2, at each node
    up = _with_gram(t.cover_blowup, {(3, 3): -4, (4, 4): -4, (5, 5): -4})
    return _tampered(t, {"D": DivisorClass(up.model_id, (1, 0, 1, -1, -1, -1))}, cover_blowup=up)


def _top_lands_elsewhere(t):
    # the pullback of -A, less the same exceptional part, also has square 4
    return _tampered(t, {"D": DivisorClass(t.cover_blowup.model_id, (-1, 0, -1, -2, -2, -2))})


def _split_by_another_half(t):
    # F + G + Gamma_n pairs with Gamma_n as R = F + G does, so only the
    # split's own check sees it
    return _tampered(t, branch_half=DivisorClass(t.base.model_id, (1, 1, 1)))


def _witness_off(t):
    # G.Gamma_n = n^2 + 1 leaves A^2 = 8 and moves the witness pairing by -1
    return _tampered(t, base=_with_gram(t.base, {(1, 2): 10}))


def _renamed_fiber(t):
    bb = t.base_blowup
    curves = (RegisteredCurve("Phi", bb.curve("F'").cls), *bb.curves[1:])
    renamed = SurfaceModel(
        bb.model_id, bb.basis, bb.gram, curves, bb.kind, bb.exceptional_labels
    )
    return _tampered(t, base_blowup=renamed)


def _headline_square_off(t):
    return _tampered(t, cover_blowup=_with_gram(t.cover_blowup, {(5, 5): -2}))


@pytest.mark.parametrize(
    "tamper, detail",
    [
        pytest.param(tamper, detail, id=tamper.__name__[1:])
        for tamper, detail in [
            (_top_orders_off, "top-surface vanishing orders [2, 2, 2] != [4, 4, 4]"),
            (_top_lands_elsewhere, "top-surface transfer does not land on the pulled-back multiple"),
            (_split_by_another_half, "cover split summands are not (M, M - R)"),
            (_witness_off, "witness pairing -6 != 4(m-1) - n^2 = -5"),
            (_renamed_fiber, "unexpected decomposition {'Phi': 2, \"Gamma_n'\": 2}"),
            (_headline_square_off, "headline self-intersection 0 != 4"),
        ]
    ],
)
def test_each_closed_form_check_fails_the_instance_alone(tower_3, tamper, detail):
    # one closed form broken, so the instance fails with its line alone
    result = verify_instance(tamper(tower_3), 2)
    assert result["status"] == FAILED
    assert result["h0"] == "unknown"
    (failed,) = [a for a in result["certificate_chain"] if a["rule"] == "internal-check-failed"]
    assert failed["values"]["details"] == [detail]


def _retained(n: int) -> int:
    """Bytes that ``verify(n)``'s report keeps allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = verify(n)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(report.instances) == m_threshold(n) + 1
    return retained


def test_a_report_keeps_memory_that_grows_with_its_instances_not_its_pairings():
    # from n = 41 to 61 the step pairings grow by (61/41)^4, about 4.9x, and
    # the instances by (61/41)^2, about 2.2x
    verify(3)  # imports and first-use caches, outside both measurements
    assert _retained(61) < 3 * _retained(41)


@pytest.mark.parametrize(
    "record",
    [
        ForcingRun((), (), (), 1),
        ForcingTrace(DivisorClass("x", (0,)), (), UniqueMember(())),
        UniqueMember(()),
        Inconclusive("cap"),
        VerificationReport(3, 3, (), "s"),
    ],
    ids=lambda record: type(record).__name__,
)
def test_the_records_every_instance_keeps_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


# -- the one report builder ---------------------------------------------------


def test_the_streamed_report_is_the_bytes_of_the_cli(capsys):
    import io

    from dlv.cli import main

    doc, statuses = streamed_report(9, m=3)
    written = io.StringIO()
    write_json(doc, written)
    assert statuses == {VERIFIED: 1}
    assert main(["verify", "--n", "9", "--m", "3", "--format", "json"]) == 0
    assert written.getvalue() == capsys.readouterr().out


def test_the_streamed_report_refuses_m_max_with_m():
    # it built the one instance m = 3 and dropped m_max, where the CLI
    # refuses --m-max with --m
    with pytest.raises(InvalidParameter, match="^streamed_report takes m_max or m, not both$"):
        streamed_report(5, m_max=2, m=3)
    assert streamed_report(5, m_max=None, m=3)[0]["m_max"] == 3


@pytest.mark.parametrize("k", [0, 3, 7])
def test_a_checked_verify_refuses_a_tampered_instance(monkeypatch, k):
    # verify built its report without the self-check, so this returned
    import dlv.pipeline as pipeline_mod

    real = pipeline_mod.verify_instance

    def tampered(tower, m):
        doc = real(tower, m)
        if m == k + 1:
            doc["status"] = "Maybe"
        return doc

    monkeypatch.setattr(pipeline_mod, "verify_instance", tampered)
    monkeypatch.delenv("DLV_SCHEMA_CHECK", raising=False)
    assert verify(5).instances[k]["status"] == "Maybe"
    monkeypatch.setenv("DLV_SCHEMA_CHECK", "1")
    with pytest.raises(SchemaViolation) as caught:
        verify(5)
    assert str(caught.value).startswith(f"$.instances[{k}].status: 'Maybe' is not one of ")
