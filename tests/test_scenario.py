import json
import math

import pytest

from cpessim import presets
from cpessim.scenario import (ScenarioError, load_scenario, scenario_from_dict,
                              scenario_hash)


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "meta": {"name": "tiny", "horizon": 0.1, "dt_phys": 0.001},
        "grid": {
            "f_nom": 60.0,
            "machines": [{"id": "m1", "inertia_const": 5.0, "p_mech": 0.5}],
            "loads": [{"id": "lA", "demand": 0.5}],
        },
        "attacks": [],
        "metrics": [],
        "seed": 1,
    }
    doc.update(overrides)
    return doc


def test_all_preset_docs_parse_and_validate():
    for name in presets.PRESET_NAMES:
        sc = presets.preset_scenario(name)
        assert sc.horizon > 0
        assert sc.seed != 0
        assert sc.doc["threat"]["adversary"]  # validated at load; the run reads nothing of it
        assert sc.risk_inputs is not None


VARIANTS = {"case1_dia": ("default",), "case2_load": ("a", "b", "c", "d"),
            "case3_tda": ("delay_0", "delay_0_5", "delay_5", "delay_15"),
            "case4_td": ("breaker_open", "breaker_open_close", "breaker_triple",
                         "n1", "n11", "n2")}


def test_all_preset_variants_parse():
    assert presets.VARIANTS == VARIANTS
    for preset, variants in VARIANTS.items():
        for variant in variants:
            presets.preset_scenario(preset, variant)


def _containers(node):
    """Every list and object of a JSON document, the document first."""
    yield node
    for child in (node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            yield from _containers(child)


@pytest.mark.parametrize("preset, variant", [(p, v) for p, vs in VARIANTS.items() for v in vs])
def test_preset_docs_share_no_mutable_part(preset, variant):
    # case2_load's targets once came from the module's variant table itself,
    # and one governor object once served every machine of a document
    expected = json.dumps(presets.preset_doc(preset, variant))
    doc = presets.preset_doc(preset, variant)
    containers = list(_containers(doc))
    assert len({id(c) for c in containers}) == len(containers)
    for container in containers:
        if isinstance(container, list):
            container.append("changed")
        else:
            container["changed"] = True
    assert json.dumps(presets.preset_doc(preset, variant)) == expected


def test_unknown_preset_and_variant():
    with pytest.raises(KeyError):
        presets.preset_doc("case9")
    with pytest.raises(ValueError):
        presets.preset_doc("case2_load", "z")


def test_minimal_doc_parses():
    sc = scenario_from_dict(minimal_doc())
    assert sc.name == "tiny"
    grid = sc.build_grid()
    assert grid.machines[0].id == "m1"


def test_schema_version_checked():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(minimal_doc(schema_version=2))
    assert "schema_version" in str(err.value)


def test_missing_horizon_names_field():
    doc = minimal_doc()
    del doc["meta"]["horizon"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "meta.horizon" in str(err.value)


def test_negative_dt_names_field():
    doc = minimal_doc()
    doc["meta"]["dt_phys"] = -1.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "meta.dt_phys" in str(err.value)


def test_bad_load_demand_names_field():
    doc = minimal_doc()
    doc["grid"]["loads"][0]["demand"] = -5.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "grid.loads[0]" in str(err.value)


def test_unknown_attack_type():
    doc = minimal_doc(attacks=[{"type": "wormhole"}])
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "attacks[0].type" in str(err.value)


def test_load_change_target_must_resolve():
    doc = minimal_doc(attacks=[{"type": "load_change", "targets": ["nope"],
                                "delta": 0.5, "window": [[0.0, 0.05]]}])
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "attacks[0].targets" in str(err.value)


def test_link_attack_requires_network():
    doc = minimal_doc(attacks=[{"type": "dos", "tap": "link:l1",
                                "window": [[0.0, 0.05]]}])
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "tap" in str(err.value)


def test_dia_tap_must_name_plant():
    doc = minimal_doc(attacks=[{"type": "dia", "tap": "meas:ghost", "beta": 0.5,
                                "window": [[0.0, 0.05]]}])
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "meas" in str(err.value)


def test_kw_unit_conversion():
    doc = minimal_doc()
    doc["grid"]["unit"] = "kW"
    doc["grid"]["s_base_kw"] = 1000.0
    doc["grid"]["loads"][0]["demand"] = 300.0
    grid = scenario_from_dict(doc).build_grid()
    assert grid.loads[0].base_demand == pytest.approx(0.3)


def test_kw_grid_converts_machine_setpoint():
    doc = presets.preset_doc("case3_tda", "delay_0")
    doc["grid"]["machines"][0]["p_mech"] = 900  # kW, on s_base_kw 1000
    assert scenario_from_dict(doc).build_grid().machines[0].p_mech == 0.9


def test_bad_unit_rejected():
    doc = minimal_doc()
    doc["grid"]["unit"] = "MW"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "grid.unit" in str(err.value)


def test_invalid_risk_probability():
    doc = minimal_doc(risk={"probability": 5, "impacts": {}})
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "risk.probability" in str(err.value)


def test_metric_kind_checked():
    doc = minimal_doc(metrics=[{"kind": "psychic", "trace": "freq"}])
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "metrics[0].kind" in str(err.value)


def test_invalid_threat_section_is_scenario_error():
    doc = minimal_doc(threat={"schema_version": 1})
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "threat" in str(err.value)


def test_scenario_hash_is_stable_and_sensitive():
    doc = presets.preset_doc("case2_load", "a")
    h1 = scenario_hash(doc)
    h2 = scenario_hash(json.loads(json.dumps(doc)))
    assert h1 == h2
    doc["seed"] += 1
    assert scenario_hash(doc) != h1


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "line" in str(err.value)


def test_contingency_unknown_machine_is_scenario_error():
    doc = minimal_doc()
    doc["grid"]["contingencies"] = [{"t": 1.0, "machine": "ghost"}]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "contingencies" in str(err.value)


def test_outstation_unknown_asset_names_field():
    doc = presets.preset_doc("case3_tda", "delay_0")
    doc["network"]["nodes"][3]["app"]["asset"] = "ghost"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "network.nodes[3].app.asset" in str(err.value)


def test_dt_above_swing_limit_names_field():
    doc = minimal_doc()
    doc["meta"]["dt_phys"] = 0.02
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "meta.dt_phys" in str(err.value)


def test_missing_fast_source_field_names_field():
    doc = presets.preset_doc("case3_tda", "delay_0")  # kW grid: max_power is required
    del doc["grid"]["fast_sources"][0]["max_power"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "grid.fast_sources[0].max_power" in str(err.value)
    del doc["grid"]["fast_sources"][0]["id"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "grid.fast_sources[0].id" in str(err.value)


@pytest.mark.parametrize("key", ["machine", "emf", "r", "l"])
def test_missing_td_source_field_names_field(key):
    doc = presets.preset_doc("case4_td", "n1")
    del doc["grid"]["td_system"]["sources"][1][key]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert f"grid.td_system.sources[1].{key}" in str(err.value)


@pytest.mark.parametrize("preset, variant", [("case2_load", "a"), ("case4_td", "n1")])
def test_plants_only_on_aggregate_grid(preset, variant):
    doc = presets.preset_doc(preset, variant)
    doc["grid"]["plants"] = presets.preset_doc("case1_dia")["grid"]["plants"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "grid.plants" in str(err.value)


# -- operating point checked at load time ----------------------------------------------

def test_grid_without_machines_names_field():
    doc = minimal_doc()
    doc["grid"]["machines"] = []
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.location == "grid.machines"


def test_setpoint_above_coupling_names_machine():
    doc = minimal_doc()
    doc["grid"]["machines"].append({"id": "m2", "inertia_const": 5.0, "p_mech": 0.5})
    doc["grid"]["loads"][0]["demand"] = 9.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.location == "grid.machines[0]"
    assert "cannot transfer its setpoint 8.500 pu over coupling 3.333 pu" in str(err.value)


def _feeder_open(doc):
    doc["grid"]["breakers"][0]["closed"] = False


def _sources_dead(doc):
    for src in doc["grid"]["td_system"]["sources"]:
        src["emf"] = 0.0


@pytest.mark.parametrize("spoil", [_feeder_open, _sources_dead])
def test_td_without_nominal_boundary_transfer_names_field(spoil):
    doc = presets.preset_doc("case4_td", "n1")
    spoil(doc)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.location == "grid.td_system"


def test_td_dc_point_beyond_the_boundary_checks_names_field():
    # the DC point goes through the same checked 2x2 solve as every T&D step
    doc = presets.preset_doc("case4_td", "n1")
    doc["grid"]["td_system"]["feeder_r"] = 1e-14
    with pytest.raises(ScenarioError, match="condition estimate") as err:
        scenario_from_dict(doc)
    assert err.value.location == "grid.td_system"


def test_td_dc_point_of_a_large_feeder_conductance_loads():
    # condition 1.05e9 is inside the limit; the residual, about 6e-7 against
    # |Y||V| of 2e10, is checked relative to that scale and passes
    doc = presets.preset_doc("case4_td", "n1")
    doc["grid"]["td_system"]["feeder_r"] = 1e-10
    scenario_from_dict(doc)


def test_td_feeder_resistance_must_be_positive():
    doc = presets.preset_doc("case4_td", "n1")
    doc["grid"]["td_system"]["feeder_r"] = 0.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.location == "grid.td_system.feeder_r"


def test_non_descending_pool_thresholds_names_field():
    doc = presets.preset_doc("case1_dia")
    doc["risk"]["pool_thresholds"] = [10, 20, 5]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.location == "risk.pool_thresholds"


# -- duplicate ids -----------------------------------------------------------------------

PLANT = {"G": [[0.9]], "B": [[0.1]], "C": [[1.0]], "control_matrix": [[0.0]]}


@pytest.mark.parametrize("kind, item, key", [
    ("machines", {"id": "m1", "inertia_const": 5.0}, "id"),
    ("loads", {"id": "lA", "demand": 0.1}, "id"),
    ("breakers", {"id": "b1"}, "id"),
    ("fast_sources", {"id": "f1", "max_power": 0.1}, "id"),
    ("plants", dict(PLANT, name="p1"), "name")],
    ids=["machines", "loads", "breakers", "fast_sources", "plants"])
def test_duplicate_id_names_field(kind, item, key):
    doc = minimal_doc()
    items = doc["grid"].setdefault(kind, [])
    if not items:
        items.append(dict(item))
    items.append(dict(item))
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.location == f"grid.{kind}[1].{key}"


@pytest.mark.parametrize("kind, index, duplicate_of", [
    ("links", 1, "l_mgc"), ("nodes", 6, "out_load2")])
def test_duplicate_network_id_names_field(kind, index, duplicate_of):
    doc = presets.preset_doc("case3_tda", "delay_0")
    doc["network"][kind][index]["id"] = duplicate_of
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.location == f"network.{kind}[{index}].id"


def test_multi_output_plant_names_field():
    doc = minimal_doc()
    doc["grid"]["plants"] = [dict(PLANT, G=[[0.9, 0.0], [0.0, 0.5]], B=[[0.1], [0.0]],
                                  C=[[1.0, 0.0], [0.0, 1.0]])]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.location == "grid.plants[0].C"


# -- every field typed and located at load -----------------------------------------------

def _set(path, value):
    """Mutation that sets ``doc[path[0]][path[1]]...`` to ``value``."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _del(path):
    """Mutation that deletes ``doc[path[0]][path[1]]...``."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return mutate


def _append(path, value):
    """Mutation that appends ``value`` to the list at ``path``."""
    def mutate(doc):
        for key in path:
            doc = doc[key]
        doc.append(value)
    return mutate


def _isolate_out_crit(doc):
    """Link out_crit only to a new endpoint, out of the master's reach."""
    doc["network"]["nodes"].append({"id": "island"})
    doc["network"]["links"][5]["a"] = "island"


PRIORITIES = {"people_health_safety": 4, "uninterrupted_operation": 3,
              "equipment_damage_legal": 2, "financial_profit": 1}


@pytest.mark.parametrize("preset, variant, mutate, location", [
    ("case1_dia", None, _set(["grid", "machines", 0, "reactance"], "0.3"),
     "grid.machines[0].reactance"),
    ("case1_dia", None, _set(["grid", "machines", 0, "damping"], "x"),
     "grid.machines[0].damping"),
    ("case1_dia", None, _set(["grid", "f_nom"], "60"), "grid.f_nom"),
    ("case2_load", "a", _set(["grid", "f_nom"], 0.0), "grid.f_nom"),
    ("case1_dia", None, _set(["grid", "machines", 0, "inertia_const"], 0.0),
     "grid.machines[0].inertia_const"),
    ("case1_dia", None, _set(["grid", "p_loss"], "x"), "grid.p_loss"),
    ("case1_dia", None, _set(["grid", "machines", 0, "governor", "gain"], "0.4"),
     "grid.machines[0].governor.gain"),
    ("case1_dia", None, _set(["grid", "fast_sources", 0, "gain"], "0.4"),
     "grid.fast_sources[0].gain"),
    ("case3_tda", "delay_0", _set(["network", "poll_period"], "x"), "network.poll_period"),
    ("case3_tda", "delay_0", _set(["network", "poll_period"], -1.0), "network.poll_period"),
    ("case1_dia", None, _set(["grid", "machines", 0, "governor"], [0.4]),
     "grid.machines[0].governor"),
    ("case1_dia", None, _set(["grid", "machines", 0, "reactanse"], 0.3),
     "grid.machines[0].reactanse"),
    ("case3_tda", "delay_0", _set(["grid", "loads", 0, "sheddable"], "no"),
     "grid.loads[0].sheddable"),
    ("case3_tda", "delay_0", _set(["grid", "breakers", 0, "closed"], "false"),
     "grid.breakers[0].closed"),
    ("case2_load", "a", _set(["attacks", 0, "fraction"], "no"), "attacks[0].fraction"),
    ("case1_dia", None, _del(["metrics", 2, "command"]), "metrics[2].command"),
    ("case1_dia", None, _set(["metrics", 2, "band_pct"], "x"), "metrics[2].band_pct"),
    ("case1_dia", None, _set(["metrics", 1, "limits"], [1.05, 0.95]), "metrics[1].limits"),
    ("case1_dia", None, _set(["metrics", 1, "limits"], ["lo", 1.05]), "metrics[1].limits"),
    ("case1_dia", None, _set(["seed"], True), "seed"),
    ("case1_dia", None, _set(["grid", "fast_sources", 0, "time_constant"], -0.05),
     "grid.fast_sources[0].time_constant"),
    ("case4_td", "n1", _set(["grid", "td_system", "power_filter"], -0.05),
     "grid.td_system.power_filter"),
    ("case4_td", "n1", _set(["grid", "td_system", "pcc_shunt_c"], -0.2),
     "grid.td_system.pcc_shunt_c"),
    ("case3_tda", "delay_0", _set(["network", "links", 0, "jitter_ms"], -1.0),
     "network.links[0].jitter_ms"),
    # infinite jitter overflows the uniform draw, and an infinite poll period
    # schedules a poll at 0 * inf; the other infinite network times mean never
    ("case3_tda", "delay_0", _set(["network", "links", 0, "jitter_ms"], math.inf),
     "network.links[0].jitter_ms"),
    ("case3_tda", "delay_0", _set(["network", "poll_period"], math.inf), "network.poll_period"),
    # a master reads no grid asset, so an asset on it would be ignored
    ("case3_tda", "delay_0", _set(["network", "nodes", 0, "app", "asset"], "genset"),
     "network.nodes[0].app.asset"),
    ("case3_tda", "delay_0", _set(["network", "message_bytes"], 0), "network.message_bytes"),
    ("case3_tda", "delay_0", _set(["network", "commands", 0, "t"], -1.0),
     "network.commands[0].t"),
    ("case3_tda", "delay_0", _set(["network", "links", 0, "bandwidth"], 100.0),
     "network.links[0].bandwidth"),
    ("case4_td", "n1", _set(["grid", "breakers", 0, "schedule"], "open"),
     "grid.breakers[0].schedule"),
    ("case1_dia", None, _set(["risk", "probability"], 2.0), "risk.probability"),
    ("case1_dia", None, _set(["risk", "probability"], True), "risk.probability"),
    ("case1_dia", None, _set(["risk", "impacts", "financial_profit"], 2.7),
     "risk.impacts.financial_profit"),
    ("case1_dia", None, _set(["risk", "priorities"], dict(PRIORITIES, financial_profit="1")),
     "risk.priorities.financial_profit"),
    ("case1_dia", None, _set(["risk", "priorities"], dict(PRIORITIES, financial_profit=1.9)),
     "risk.priorities.financial_profit"),
    ("case1_dia", None, _set(["risk", "pool_threshold"], [70, 50, 30]), "risk.pool_threshold"),
    ("case1_dia", None, _set(["risk", "priorities"], [4, 3, 2, 1]), "risk.priorities"),
    ("case1_dia", None, _set(["threat", "notez"], "firmware"), "threat.notez"),
    ("case1_dia", None, _set(["threat", "attack", "asset"], "hmi"), "threat.attack.asset"),
    ("case1_dia", None, _set(["meta", "description"], 5), "meta.description"),
    ("case3_tda", "delay_0", _set(["network", "links", 0, "b"], "ghost"), "network.links[0].b"),
    ("case3_tda", "delay_0", _set(["network", "links", 0, "bandwidth_mbps"], 0.0),
     "network.links[0].bandwidth_mbps"),
    ("case3_tda", "delay_0", _set(["network", "links", 0, "loss_rate"], 1.5),
     "network.links[0].loss_rate"),
    ("case3_tda", "delay_0", _set(["network", "links", 0, "loss_rate"], -0.1),
     "network.links[0].loss_rate"),
    ("case3_tda", "delay_0", _append(["network", "links"], {
        "id": "l_again", "a": "router", "b": "mgc", "bandwidth_mbps": 100.0}),
     "network.links[7]"),
    ("case3_tda", "delay_0", _append(["network", "nodes"], {"id": "lonely"}), "network.nodes[8]"),
    ("case3_tda", "delay_0", _set(["network", "nodes", 1, "app"], {
        "kind": "outstation", "asset": "load1"}), "network.nodes[1].app"),
    ("case3_tda", "delay_0", _set(["network", "commands", 1, "asset"], "ghost"),
     "network.commands[1].asset"),
    ("case3_tda", "delay_0", _del(["network", "nodes", 0, "app"]), "network.commands[0]"),
    ("case3_tda", "delay_0", _set(["network", "nodes", 2, "app"], {"kind": "master"}),
     "network.nodes[2].app"),
    ("case3_tda", "delay_0", _isolate_out_crit, "network.nodes[6]"),
    ("case3_tda", "delay_0", _append(["network", "links"], {
        "id": "l_loop", "a": "router", "b": "router", "bandwidth_mbps": 100.0}),
     "network.links[7]"),
    ("case3_tda", "delay_0", _set(["network", "nodes", 5, "app", "asset"], "load1"),
     "network.nodes[5].app.asset"),
    ("case3_tda", "delay_0", _set(["network", "commands", 0, "action"], "shed"),
     "network.commands[0].action"),
    ("case3_tda", "delay_0", _set(["network", "commands", 1, "action"], "open_breaker"),
     "network.commands[1].action"),
    ("case3_tda", "delay_0", _set(["network", "commands", 0, "value"], 1.0),
     "network.commands[0].value"),
    ("case3_tda", "delay_0", _set(["network", "commands", 1, "asset"], "critical"),
     "network.commands[1].asset"),
    # an event time must be finite: at NaN or infinity the event would never fire
    ("case4_td", "n1", _set(["grid", "contingencies", 0, "t"], math.nan),
     "grid.contingencies[0].t"),
    ("case4_td", "n1", _set(["grid", "breakers", 0, "schedule"], [[math.inf, "open"]]),
     "grid.breakers[0].schedule"),
    ("case4_td", "breaker_open", _set(["attacks", 0, "schedule"], [[math.nan, "open"]]),
     "attacks[0].schedule"),
    ("case1_dia", None, _append(["attacks"], {"type": "control_dia", "tap": "ctrl:pv_loop",
                                              "schedule": [[-math.inf, 0.1]]}),
     "attacks[1].schedule"),
    # a plant tap's layer fits its attack, and each tap takes one attack
    ("case1_dia", None, _set(["attacks", 0, "tap"], "ctrl:pv_loop"), "attacks[0].tap"),
    ("case1_dia", None, _append(["attacks"], {"type": "control_dia", "tap": "meas:pv_loop",
                                              "window": [[0.0, 1.0]]}),
     "attacks[1].tap"),
    ("case1_dia", None, _append(["attacks"], {"type": "dia", "tap": "meas:pv_loop",
                                              "window": [[0.0, 1.0]]}),
     "attacks[1].tap"),
    # a windowed attack without its window would never act
    ("case1_dia", None, _del(["attacks", 0, "window"]), "attacks[0].window"),
    ("case1_dia", None, _set(["attacks", 0, "window"], []), "attacks[0].window"),
    # grid fields that the grid's tier never reads: no field loads and changes nothing
    ("case2_load", "a", _set(["grid", "fast_sources"], [
        {"id": "bess", "gain": 0.4, "max_power": 0.1}]), "grid.fast_sources"),
    ("case4_td", "n1", _set(["grid", "pcc_breaker"], "pcc"), "grid.pcc_breaker"),
    ("case1_dia", None, _set(["grid", "s_base_kw"], 1000.0), "grid.s_base_kw"),
    # a fast source without its cap would never inject, on a pu grid as on a kW grid
    ("case1_dia", None, _del(["grid", "fast_sources", 0, "max_power"]),
     "grid.fast_sources[0].max_power"),
    # unknown ids of boundary events
    ("case4_td", "n1", _set(["grid", "contingencies", 0, "machine"], "nope"),
     "grid.contingencies[0].machine"),
    ("case4_td", "breaker_open", _set(["attacks", 0, "breaker"], "nope"), "attacks[0].breaker"),
    # a grid's only machine: disconnecting it leaves no generation to swing
    ("case1_dia", None, _set(["grid", "contingencies"], [{"t": 0.5, "machine": "genset"}]),
     "grid.contingencies[0].machine"),
    # NaN (which JSON reads) in a float field; in a delay it stalls the network's queue
    ("case3_tda", "delay_5", _set(["attacks", 0, "delay"], math.nan), "attacks[0].delay"),
    ("case1_dia", None, _set(["grid", "machines", 0, "reactance"], math.nan),
     "grid.machines[0].reactance"),
    # a name that becomes part of an exported path is one plain path component
    ("case1_dia", None, _set(["grid", "plants", 0, "name"], "../../escape"),
     "grid.plants[0].name"),
    ("case1_dia", None, _set(["meta", "name"], "../escaped"), "meta.name"),
    ("case1_dia", None, _set(["meta", "name"], ".."), "meta.name"),
    ("case1_dia", None, _set(["meta", "name"], "."), "meta.name"),
    ("case1_dia", None, _set(["meta", "name"], ""), "meta.name"),
    ("case2_load", "a", _set(["grid", "machines", 1, "id"], "g\\2"), "grid.machines[1].id"),
    ("case3_tda", "delay_0", _set(["grid", "breakers", 0, "id"], "pcc/0"),
     "grid.breakers[0].id"),
    ("case3_tda", "delay_0", _set(["grid", "loads", 0, "id"], "load\0"), "grid.loads[0].id"),
    ("case1_dia", None, _set(["metrics", 0, "trace"], "../../../outside"), "metrics[0].trace"),
    ("case1_dia", None, _set(["metrics", 0, "trace"], ""), "metrics[0].trace"),
    # NaN or infinity inside a list of floats, at the key that holds it
    ("case1_dia", None, _set(["grid", "plants", 0, "G", 0, 0], math.nan), "grid.plants[0].G"),
    ("case1_dia", None, _set(["grid", "plants", 0, "B", 1, 0], math.nan), "grid.plants[0].B"),
    ("case1_dia", None, _set(["grid", "plants", 0, "C", 0, 1], math.nan), "grid.plants[0].C"),
    ("case1_dia", None, _set(["grid", "plants", 0, "control_matrix", 0, 0], math.nan),
     "grid.plants[0].control_matrix"),
    ("case1_dia", None, _set(["grid", "plants", 0, "noise_std", 0], math.nan),
     "grid.plants[0].noise_std"),
    ("case1_dia", None, _set(["grid", "plants", 0, "x0", 0], math.nan), "grid.plants[0].x0"),
    ("case1_dia", None, _set(["grid", "plants", 0, "u0", 0], math.nan), "grid.plants[0].u0"),
    ("case1_dia", None, _set(["grid", "plants", 0, "G", 1, 1], -math.inf), "grid.plants[0].G"),
    ("case1_dia", None, _set(["attacks", 0], {"type": "control_dia", "tap": "ctrl:pv_loop",
                                              "schedule": [[1.0, math.nan]]}),
     "attacks[0].schedule"),
    ("case1_dia", None, _set(["attacks", 0], {"type": "control_dia", "tap": "ctrl:pv_loop",
                                              "schedule": [[1.0, math.inf]]}),
     "attacks[0].schedule"),
], ids=lambda case: None if callable(case) or case is None else str(case))
def test_malformed_field_names_its_path(preset, variant, mutate, location):
    doc = presets.preset_doc(preset, variant)
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.location == location
