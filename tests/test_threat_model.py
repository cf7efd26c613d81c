import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from cpessim import threat_model as tm
from cpessim.scenario import ScenarioError, parse_threat, read_json


def test_all_presets_validate():
    for name in tm.PRESET_NAMES:
        model = tm.preset(name)
        assert tm.validate(model) == []


def test_unknown_preset_name():
    with pytest.raises(KeyError):
        tm.preset("nope")


def test_presets_are_shared_frozen_constants_in_their_order():
    assert tm.PRESET_NAMES == ("cross_layer_firmware", "load_changing", "time_delay",
                               "td_propagation")
    for name in tm.PRESET_NAMES:
        model = tm.preset(name)
        assert model is tm.preset(name) and model.name == name
        assert all(isinstance(getattr(model.adversary, f), frozenset)
                   for f in tm.ADVERSARY_FIELDS)
        assert all(isinstance(getattr(model.attack, f), frozenset) for f in tm.ATTACK_FIELDS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.adversary.knowledge = frozenset()


def test_cross_layer_firmware_fields():
    model = tm.preset("cross_layer_firmware")
    assert model.adversary.knowledge == {tm.Knowledge.OBLIVIOUS}
    assert model.adversary.access == {tm.Access.POSSESSION}
    assert model.adversary.resources == {tm.Resources.CLASS_I, tm.Resources.CLASS_II}
    assert model.attack.functional_level == {tm.FunctionalLevel.L1}
    assert model.attack.asset == {tm.Asset.FIELD_CONTROLLER}
    assert model.attack.technique == {tm.Technique.MODIFY_CONTROL_LOGIC}
    assert model.attack.premise == {tm.Premise.PHYSICAL_INVASIVE,
                                    tm.Premise.PHYSICAL_NON_INVASIVE,
                                    tm.Premise.CYBER_ASSET_CONTROL_COMMANDS}


def test_time_delay_preset_matches_case_study_row():
    model = tm.preset("time_delay")
    assert model.adversary.knowledge == {tm.Knowledge.OBLIVIOUS}
    assert model.adversary.access == {tm.Access.NON_POSSESSION}
    assert model.adversary.specificity == {tm.Specificity.TARGETED}
    assert model.adversary.resources == {tm.Resources.CLASS_I, tm.Resources.CLASS_II}
    assert model.attack.frequency == {tm.Frequency.ITERATIVE}
    assert model.attack.reproducibility == {tm.Reproducibility.MULTIPLE_TIMES}
    assert model.attack.functional_level == {tm.FunctionalLevel.L1}
    assert model.attack.asset == {tm.Asset.CONTROL_SERVER}
    assert model.attack.technique == {tm.Technique.WIRELESS_COMPROMISE, tm.Technique.MITM,
                                      tm.Technique.SPOOF_REPORTING, tm.Technique.DOS}
    assert model.attack.premise == {tm.Premise.CYBER_COMMUNICATIONS_PROTOCOLS}
    assert tm.validate(model) == []


def test_td_propagation_preset():
    model = tm.preset("td_propagation")
    assert model.adversary.knowledge == {tm.Knowledge.STRONG}
    assert model.attack.frequency == {tm.Frequency.NON_ITERATIVE}
    assert model.attack.reproducibility == {tm.Reproducibility.ONE_TIME}
    assert model.attack.functional_level == {tm.FunctionalLevel.L2}
    assert model.attack.asset == {tm.Asset.ENGINEERING_WORKSTATION}


def test_invasive_requires_possession():
    model = tm.preset("cross_layer_firmware")
    broken = tm.ThreatModel(
        name=model.name,
        adversary=tm.AdversaryModel(knowledge=model.adversary.knowledge,
                                    access={tm.Access.NON_POSSESSION},
                                    specificity=model.adversary.specificity,
                                    resources=model.adversary.resources),
        attack=model.attack)
    violations = tm.validate(broken)
    assert any("invasive requires possession" in v for v in violations)


def test_validate_is_pure():
    model = tm.preset("load_changing")
    assert tm.validate(model) == tm.validate(model) == []


# -- documents: tm.to_dict writes them, scenario.parse_threat reads them --------

def round_trip(model):
    return parse_threat(json.loads(json.dumps(tm.to_dict(model))), "")


def test_round_trip_presets():
    for name in tm.PRESET_NAMES:
        model = tm.preset(name)
        assert round_trip(model) == model


def test_document_schema_shape():
    doc = tm.to_dict(tm.preset("time_delay"))
    assert doc["schema_version"] == 1
    assert doc["adversary"]["knowledge"] == ["oblivious"]
    assert set(doc["attack"]) == {"frequency", "reproducibility", "functional_level",
                                  "asset", "technique", "premise"}


def test_missing_asset_field_is_parse_error():
    doc = tm.to_dict(tm.preset("time_delay"))
    del doc["attack"]["asset"]
    with pytest.raises(ScenarioError) as err:
        parse_threat(doc, "")
    assert err.value.location == "attack.asset"


def test_empty_attribute_set_is_parse_error():
    doc = tm.to_dict(tm.preset("time_delay"))
    doc["attack"]["technique"] = []
    with pytest.raises(ScenarioError) as err:
        parse_threat(doc, "")
    assert err.value.location == "attack.technique"


def test_unknown_enum_literal_names_field():
    doc = tm.to_dict(tm.preset("time_delay"))
    doc["attack"]["functional_level"] = ["l3"]
    with pytest.raises(ScenarioError) as err:
        parse_threat(doc, "")
    assert err.value.location == "attack.functional_level"
    assert "l3" in str(err.value)


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "threat.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError) as err:
        parse_threat(read_json(path), "")
    assert err.value.location == "$"


def _subset(enum_cls):
    members = list(enum_cls)
    return st.sets(st.sampled_from(members), min_size=1).map(frozenset)


adversaries = st.builds(tm.AdversaryModel,
                        knowledge=_subset(tm.Knowledge),
                        access=_subset(tm.Access),
                        specificity=_subset(tm.Specificity),
                        resources=_subset(tm.Resources))
attack_models = st.builds(tm.AttackModel,
                          frequency=_subset(tm.Frequency),
                          reproducibility=_subset(tm.Reproducibility),
                          functional_level=_subset(tm.FunctionalLevel),
                          asset=_subset(tm.Asset),
                          technique=_subset(tm.Technique),
                          premise=_subset(tm.Premise))
threat_models = st.builds(tm.ThreatModel,
                          name=st.text(min_size=1, max_size=20),
                          adversary=adversaries,
                          attack=attack_models,
                          notes=st.text(max_size=40))


@given(threat_models)
def test_round_trip_is_identity_on_valid_models(model):
    assert round_trip(model) == model


@given(threat_models)
def test_serialized_document_is_json(model):
    json.loads(json.dumps(tm.to_dict(model)))
