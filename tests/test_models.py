import json

import pytest
from hypothesis import given, strategies as st

from chargepage.models import (
    ChargeModel, GroupKind, ModelValidationError,
    UnknownModelError, catalog, catalog_names, charge_str, load_model,
    weight_multiplicities,
)

EXPECTED_K = {
    "u1-qubit": 2, "u1-qutrit": 3, "u1-2bosons": 3,
    "su2-qubit": 2, "su2-qutrit": 3, "su2-trimer": 8,
}


def test_catalog_local_dimensions():
    for name, k in EXPECTED_K.items():
        assert catalog(name).local_dim == k


def test_catalog_definitions():
    assert dict(catalog("u1-qubit").multiplicities) == {-1: 1, 1: 1}
    assert catalog("u1-qubit").group is GroupKind.U1
    assert dict(catalog("su2-qutrit").multiplicities) == {2: 1}
    assert catalog("su2-qutrit").group is GroupKind.SU2
    assert dict(catalog("su2-trimer").multiplicities) == {1: 2, 3: 1}
    assert dict(catalog("u1-2bosons").multiplicities) == {0: 1, 2: 2}


def test_unknown_catalog_name_lists_valid_names():
    with pytest.raises(UnknownModelError) as err:
        catalog("u1-qudit")
    for name in catalog_names():
        assert name in str(err.value)


def test_weight_multiplicities_su2_qubit():
    assert weight_multiplicities(catalog("su2-qubit")) == {-1: 1, 1: 1}


def test_weight_multiplicities_trimer():
    # a_{1/2}=2 and a_{3/2}=1 give the 1,3,3,1 weight pattern
    assert weight_multiplicities(catalog("su2-trimer")) == {-3: 1, -1: 3, 1: 3, 3: 1}


def test_weight_multiplicities_two_species_bosons():
    assert weight_multiplicities(catalog("u1-2bosons")) == {0: 1, 2: 2}


def u1_models():
    mult_maps = st.dictionaries(st.integers(-6, 6), st.integers(1, 3),
                                min_size=2, max_size=4)
    return mult_maps.map(lambda m: ChargeModel(GroupKind.U1, m))


def su2_models():
    mult_maps = st.dictionaries(st.integers(0, 5), st.integers(1, 3),
                                min_size=1, max_size=3)
    # k = sum (2j+1) a must reach 2; a lone {0: 1} is the only failure mode
    return mult_maps.filter(
        lambda m: sum((j2 + 1) * a for j2, a in m.items()) >= 2
    ).map(lambda m: ChargeModel(GroupKind.SU2, m))


@given(model=st.one_of(u1_models(), su2_models()))
def test_weight_multiplicities_sum_to_k(model):
    assert sum(weight_multiplicities(model).values()) == model.local_dim


@given(model=su2_models())
def test_su2_weights_symmetric_under_negation(model):
    weights = weight_multiplicities(model)
    assert weights == {-m2: a for m2, a in weights.items()}


def test_model_validation_errors():
    with pytest.raises(ModelValidationError):
        ChargeModel(GroupKind.U1, {})
    with pytest.raises(ModelValidationError):
        ChargeModel(GroupKind.U1, {0: 1, 2: 0})
    with pytest.raises(ModelValidationError):
        ChargeModel(GroupKind.U1, {3: 5})  # single local charge
    with pytest.raises(ModelValidationError):
        ChargeModel(GroupKind.SU2, {-1: 1})  # negative 2j
    with pytest.raises(ModelValidationError):
        ChargeModel(GroupKind.SU2, {0: 1})  # k = 1
    with pytest.raises(ModelValidationError):
        ChargeModel("SO3", {1: 1})


def test_mixed_parity_su2_model_is_allowed():
    model = ChargeModel(GroupKind.SU2, {1: 1, 2: 1})
    assert model.local_dim == 5
    assert weight_multiplicities(model) == {-2: 1, -1: 1, 0: 1, 1: 1, 2: 1}


def test_load_model_roundtrip(tmp_path):
    doc = {"group": "SU2", "multiplicities": {"1": 2, "3": 1}, "name": "trimer-like"}
    from_dict = load_model(doc)
    assert from_dict == ChargeModel(GroupKind.SU2, {1: 2, 3: 1}, name="trimer-like")
    assert from_dict.as_dict() == doc

    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_model(str(path)) == from_dict


def test_load_model_requires_fields():
    with pytest.raises(ModelValidationError):
        load_model({"group": "U1"})


@pytest.mark.parametrize("mult", [
    {"0": 1.5, "2": 1},
    {"0": True, "2": 1},
    {"0": 1, "2": None},
    {"0": 1, "2": [2]},
])
def test_non_integral_and_boolean_multiplicities_are_rejected(mult):
    with pytest.raises(ModelValidationError, match="must be an integer"):
        load_model({"group": "U1", "multiplicities": mult})


def test_charge_keys_are_not_truncated():
    with pytest.raises(ModelValidationError, match="charge key"):
        ChargeModel(GroupKind.U1, {0.5: 1, 2: 1})
    with pytest.raises(ModelValidationError, match="charge key"):
        ChargeModel(GroupKind.U1, {False: 1, 2: 1})


@pytest.mark.parametrize("mult, message", [
    ({"0.5": 1, "1": 1}, "charge key = '0.5' must be an integer"),
    ({"0": "two", "2": 1}, "multiplicity a[0] = 'two' must be an integer"),
], ids=["charge-key", "multiplicity"])
def test_non_integer_strings_name_their_field(mult, message):
    with pytest.raises(ModelValidationError) as err:
        load_model({"group": "U1", "multiplicities": mult})
    assert str(err.value) == message


def test_integral_numbers_and_strings_still_load():
    model = load_model({"group": "U1", "multiplicities": {"0": 1.0, "2": "2"}})
    assert model == ChargeModel(GroupKind.U1, {0: 1, 2: 2})


@pytest.mark.parametrize("text, message", [
    ('{"group": "U1", "multiplicities": [[0, 1], [2, 1]]}', "must be a JSON object"),
    ("5", "must be a JSON object"),
    ("[1, 2]", "must be a JSON object"),
    ('{"group": 5, "multiplicities": {"0": 1, "2": 1}}', "unknown group 5"),
    ('{"group": ["U1"], "multiplicities": {"0": 1, "2": 1}}', "unknown group"),
    ('{"group": "U1", "multiplicities": {"0": 1, "00": 2, "2": 1}}', "duplicate charge key 0"),
])
def test_malformed_model_files_are_rejected(tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelValidationError) as err:
        load_model(str(path))
    assert message in str(err.value)


def test_charge_str_prints_physical_values():
    assert charge_str(4) == "2"
    assert charge_str(-4) == "-2"
    assert charge_str(3) == "3/2"
    assert charge_str(-1) == "-1/2"
    assert charge_str(0) == "0"
