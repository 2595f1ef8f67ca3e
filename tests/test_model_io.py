import json

import pytest
from hypothesis import assume, given, strategies as st

from dlv import (
    DivisorClass,
    InvalidModel,
    RegisteredCurve,
    SurfaceModel,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from dlv.lattice import SURFACE_KINDS


@pytest.mark.parametrize("which", ["base", "base_blowup", "cover", "cover_blowup"])
def test_round_trip_through_file(tmp_path, tower_3, which):
    model = getattr(tower_3, which)
    path = tmp_path / f"{which}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model


def test_round_trip_through_dict(tower_5):
    model = tower_5.base
    assert model_from_dict(model_to_dict(model)) == model


def test_dict_shape(tower_3):
    data = model_to_dict(tower_3.base)
    assert data["schema"] == "surface-model"
    assert data["basis"] == ["F", "G", "Gamma_n"]
    assert data["gram"] == [[0, 1, 4], [1, 0, 9], [4, 9, 0]]
    assert data["kind"] == "abelian"
    assert [c["label"] for c in data["curves"]] == ["F", "G", "Gamma_n"]
    assert all("note" in c for c in data["curves"])


def test_loader_validates(tower_3):
    data = model_to_dict(tower_3.base)
    data["gram"][0][1] = 99  # break symmetry
    with pytest.raises(InvalidModel):
        model_from_dict(data)


@pytest.mark.parametrize("bad", [1.9, True, "1"])
@pytest.mark.parametrize("where", ["gram", "coeffs"])
def test_loader_rejects_values_that_are_not_ints(tower_3, where, bad):
    # each of these used to load as the int 1, the value it replaces
    data = model_to_dict(tower_3.base)
    if where == "gram":
        data["gram"][0][1] = bad
    else:
        data["curves"][0]["coeffs"][0] = bad
    with pytest.raises(InvalidModel):
        model_from_dict(data)


@pytest.mark.parametrize(
    "key", ["model_id", "basis", "gram", "curves", "kind", "label", "coeffs", "schema"]
)
def test_loader_names_a_missing_key(tower_3, key):
    # a missing key used to escape as a bare KeyError, and a missing schema
    # was accepted
    data = model_to_dict(tower_3.base)
    del (data["curves"][0] if key in ("label", "coeffs") else data)[key]
    with pytest.raises(InvalidModel, match=repr(key)):
        model_from_dict(data)


@pytest.mark.parametrize(
    "key, value",
    [
        ("schema", "verification-report"),
        ("schema", None),
        ("model_id", 7),
        ("basis", "FGX"),
        ("basis", [1, 2, 3]),
        ("gram", "abc"),
        ("gram", [[0, 1, 4], 5, [4, 9, 0]]),
        ("curves", {"F": [1, 0, 0]}),
        ("kind", ["abelian"]),
        ("provenance", "abc"),
        ("provenance", [1]),
        ("exceptional_labels", "e"),
    ],
    ids=repr,
)
def test_loader_rejects_a_field_of_the_wrong_type(tower_3, key, value):
    # "FGX" used to load as three labels and "abc" as three notes, and the
    # schema, the model id and non-str labels went unchecked
    data = model_to_dict(tower_3.base)
    data[key] = value
    with pytest.raises(InvalidModel, match=repr(key)):
        model_from_dict(data)


@pytest.mark.parametrize(
    "key, value", [("label", 5), ("coeffs", "100"), ("note", None)], ids=repr
)
def test_loader_rejects_a_curve_field_of_the_wrong_type(tower_3, key, value):
    data = model_to_dict(tower_3.base)
    data["curves"][0][key] = value
    with pytest.raises(InvalidModel, match=repr(key)):
        model_from_dict(data)


@pytest.mark.parametrize("where", ["model", "curve"])
def test_loader_needs_json_objects(tmp_path, tower_3, where):
    # a curve that is not an object used to raise a bare TypeError
    data = model_to_dict(tower_3.base)
    if where == "curve":
        data["curves"][0] = "F"
    else:
        data = [data]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidModel, match=f"a {where} must be an object"):
        load_model(path)


def test_saved_file_is_canonical_json(tmp_path, tower_3):
    from dlv import canonical_json

    path = tmp_path / "model.json"
    save_model(tower_3.base, path)
    assert path.read_text(encoding="utf-8") == canonical_json(model_to_dict(tower_3.base))


def test_large_entries_survive_round_trip():
    from dlv import build_abelian_product

    n = 10**6 + 1
    model = build_abelian_product(n)
    assert model_from_dict(model_to_dict(model)).gram[1][2] == n * n


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: SurfaceModel(5, ("a",), ((0,),)), "model_id"),
        (lambda: SurfaceModel("x", ("a",), ((0,),), provenance=(5,)), "provenance"),
        (lambda: RegisteredCurve(5, DivisorClass("x", (1,))), "label"),
        (lambda: RegisteredCurve("c", DivisorClass("x", (1,)), None), "note"),
        (lambda: RegisteredCurve("c", ("x", (1,))), "cls"),
    ],
    ids=["model_id", "provenance", "label", "note", "cls"],
)
def test_the_constructor_rejects_what_the_loader_rejects(build, key):
    # each of these used to build, and save_model wrote a file that
    # load_model then rejected
    with pytest.raises(InvalidModel, match=repr(key)):
        build()


_INTS = st.integers(-(10**30), 10**30)


@st.composite
def models(draw):
    size = draw(st.integers(1, 5))
    basis = draw(st.lists(st.text(max_size=6), min_size=size, max_size=size, unique=True))
    upper = {(i, j): draw(_INTS) for i in range(size) for j in range(i, size)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)]
    model_id = draw(st.text(max_size=12))
    curves = draw(
        st.lists(
            st.tuples(
                st.text(max_size=6),
                st.lists(_INTS, min_size=size, max_size=size).filter(any),
                st.text(max_size=10),
            ),
            max_size=3,
            unique_by=lambda curve: curve[0],
        )
    )
    fields = dict(
        curves=[RegisteredCurve(label, DivisorClass(model_id, c), note) for label, c, note in curves],
        kind=draw(st.sampled_from(SURFACE_KINDS)),
        provenance=draw(st.lists(st.text(max_size=10), max_size=3)),
        exceptional_labels=draw(st.lists(st.sampled_from(basis), max_size=size)),
    )
    try:
        return SurfaceModel(model_id, basis, gram, **fields)
    except InvalidModel:  # an abelian model with a negative curve
        assume(False)


@given(models())
def test_every_model_the_constructor_builds_loads_back(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    assert load_model(path) == model


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_MODEL_KEYS = ("model_id", "basis", "gram", "curves", "kind", "provenance", "exceptional_labels")


@given(st.sampled_from(_MODEL_KEYS + ("label", "coeffs", "note")), _JSON)
def test_adversarial_json_loads_as_built_or_is_an_invalid_model(tower_3, key, value):
    data = model_to_dict(tower_3.base)
    (data["curves"][0] if key in ("label", "coeffs", "note") else data)[key] = value
    try:
        model = model_from_dict(data)
    except InvalidModel:
        return
    assert model_to_dict(model) == data
