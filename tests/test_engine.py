import gc
import json
import math
import weakref
from array import array

import numpy as np
import pytest

from cpessim import cli, engine, presets
from cpessim.metrics import TimeSeries, csv_time_cells
from cpessim.physical import demand_total
from cpessim.scenario import ScenarioError, scenario_from_dict


def short(preset, variant=None, horizon=0.05, seed=None):
    doc = presets.preset_doc(preset, variant)
    doc["meta"]["horizon"] = horizon
    if seed is not None:
        doc["seed"] = seed
    return scenario_from_dict(doc)


def fingerprint(result):
    """Everything a run produces, as comparable bytes and JSON."""
    traces = {name: (s.t.tobytes(), s.v.tobytes()) for name, s in result.traces.items()}
    return (traces, json.dumps(result.event_log), json.dumps(result.attack_samples),
            json.dumps(engine.report_dict(result)), json.dumps(result.manifest))


def nadir(result):
    return float(np.min(result.traces["freq"].v))


def protection_actions(result):
    return {e["detail"]["action"] for e in result.event_log if e["event"] == "protection"}


# -- each tier records its own traces -------------------------------------------

def test_aggregate_tier_traces():
    traces = engine.run(short("case1_dia")).traces
    assert {"p_gen", "p_fast", "pv_loop_signal", "pv_loop_meas"} <= set(traces)
    assert not any(name.startswith("freq_") for name in traces)
    assert "v_pcc" not in traces


def test_multi_machine_tier_traces():
    traces = engine.run(short("case2_load", "a")).traces
    assert {"freq_g1", "freq_g2", "freq_g3"} <= set(traces)
    assert not {"p_gen", "p_fast", "v_pcc", "v_dist"} & set(traces)


def test_td_tier_traces():
    traces = engine.run(short("case4_td", "n1")).traces
    assert {"freq_g1", "v_pcc", "v_dist"} <= set(traces)
    assert not {"p_gen", "p_fast"} & set(traces)
    assert traces["v_pcc"].v[0] == 1.0 and traces["v_dist"].v[0] == 1.0


@pytest.mark.parametrize("preset, variant", [
    ("case1_dia", None), ("case2_load", "a"), ("case4_td", "n1")])
def test_trace_columns_are_fixed_when_the_run_is_built(preset, variant):
    sc = short(preset, variant)
    assert engine._Run(sc, None).trace_names == list(engine.run(sc).traces)


@pytest.mark.parametrize("preset, variant", [("case2_load", "a"), ("case4_td", "n11")])
def test_demand_total_runs_once_per_boundary(preset, variant, monkeypatch):
    # case2 a: the window edges at 4.0 s and 4.5 s; case4 n11: contingencies at 1.5 s and 1.6 s
    sc = presets.preset_scenario(preset, variant)
    calls = []
    real_demand_total = engine.demand_total

    def counted(grid):
        calls.append(None)
        return real_demand_total(grid)

    monkeypatch.setattr(engine, "demand_total", counted)
    run = engine._Run(sc, None)
    boundaries = len(run._boundary_schedule())
    assert boundaries == 2
    result = run.execute()
    assert len(calls) == 1 + boundaries  # the first row, then each boundary
    assert result.traces["demand_total"].v.size == run.n_steps + 1


@pytest.mark.parametrize("preset, variant", [
    ("case2_load", "a"), ("case3_tda", "delay_0"), ("case4_td", "n11")])
def test_finished_run_is_freed_without_the_cyclic_collector(preset, variant):
    # at full horizon, so the boundary schedule and the network's commands fire
    sc = presets.preset_scenario(preset, variant)
    gc.collect()
    gc.disable()
    try:
        run = engine._Run(sc, None)
        alive = weakref.ref(run)
        result = run.execute()
        del run
        assert alive() is None
    finally:
        gc.enable()
    assert result.traces["freq"].v.size == round(sc.horizon / sc.dt_phys) + 1


def test_unnamed_plants_each_inject_their_own_base_power():
    plant = {"G": [[0.9]], "B": [[0.1]], "C": [[1.0]], "control_matrix": [[0.0]]}
    doc = {
        "schema_version": 1,
        "meta": {"name": "two_plants", "horizon": 0.01, "dt_phys": 0.001},
        "grid": {"machines": [{"id": "m1", "inertia_const": 5.0}],
                 "loads": [{"id": "lA", "demand": 0.5}],
                 "plants": [dict(plant, power_base=0.05), dict(plant, power_base=0.07)]},
        "attacks": [], "metrics": [], "seed": 1,
    }
    traces = engine.run(scenario_from_dict(doc)).traces
    assert traces["plant0_power"].v[0] == 0.05
    assert traces["plant1_power"].v[0] == 0.07
    # the machine carries the demand the two plants leave
    assert traces["p_gen"].v[0] == 0.5 - (0.05 + 0.07)


def test_dia_and_control_dia_attack_their_own_taps():
    doc = presets.preset_doc("case1_dia")
    doc["meta"]["horizon"] = 0.01
    doc["attacks"][0]["window"] = [[0.0, 1.0]]
    doc["attacks"].append({"type": "control_dia", "tap": "ctrl:pv_loop",
                           "schedule": [[0.0, 0.3]], "window": [[0.005, 1.0]]})
    samples = engine.run(scenario_from_dict(doc)).attack_samples
    assert {s["tap"] for s in samples if s["t"] < 0.005} == {"meas:pv_loop"}
    assert {s["tap"] for s in samples if s["t"] >= 0.005} == {"meas:pv_loop", "ctrl:pv_loop"}
    assert {s["delta"][0] for s in samples if s["tap"] == "ctrl:pv_loop"} == {0.3}


def test_metric_requests_pass_only_their_own_options(monkeypatch):
    calls = []

    def wrap(name):
        real = getattr(engine, name)

        def called(series, *args, **kwargs):
            calls.append((name, args, sorted(kwargs)))
            return real(series, *args, **kwargs)
        monkeypatch.setattr(engine, name, called)

    wrap("voltage_stability")
    wrap("control_metrics")
    doc = presets.preset_doc("case1_dia")
    doc["meta"]["horizon"] = 0.05
    del doc["metrics"][1]["limits"]  # the control request holds no band_pct either
    engine.run(scenario_from_dict(doc))
    assert calls == [("voltage_stability", (), []), ("control_metrics", (), ["command"])]


def test_metric_on_unknown_trace_fails_before_the_run():
    doc = presets.preset_doc("case1_dia")
    doc["metrics"].append({"kind": "control", "trace": "ghost", "command": 1.0})
    sc = scenario_from_dict(doc)
    with pytest.raises(ScenarioError) as err:
        engine._Run(sc, None)
    assert err.value.location == f"metrics[{len(doc['metrics']) - 1}].trace"


# -- boundary schedule -------------------------------------------------------------

def boundary_doc():
    """Three machines, a sheddable load ``l1`` the network's master can shed,
    a load ``l2``, and breakers ``b1`` (closed) and ``b2`` (open), on 1 ms steps."""
    return {
        "schema_version": 1,
        "meta": {"name": "boundary", "horizon": 0.004, "dt_phys": 0.001},
        "grid": {
            "machines": [{"id": g, "inertia_const": 4.0, "p_mech": 0.1}
                         for g in ("g1", "g2", "g3")],
            "loads": [{"id": "l1", "demand": 0.1, "sheddable": True},
                      {"id": "l2", "demand": 0.1}],
            "breakers": [{"id": "b1"}, {"id": "b2", "closed": False}],
        },
        "network": {
            "nodes": [{"id": "master", "app": {"kind": "master"}},
                      {"id": "out_l1", "app": {"kind": "outstation", "asset": "l1"}}],
            "links": [{"id": "link", "a": "master", "b": "out_l1", "bandwidth_mbps": 100.0,
                       "prop_delay_ms": 0.1}],
            "poll_period": 0.0,
        },
        "attacks": [], "metrics": [], "seed": 1,
    }


def boundary_events(result):
    return [(e["t"], e["event"], e["node"], e["detail"]["action"]) for e in result.event_log
            if e["event"] in ("command_applied", "breaker", "contingency")]


def test_one_boundary_applies_every_kind_of_event_in_order(monkeypatch):
    doc = boundary_doc()
    grid = doc["grid"]
    # the shed command arrives at 1.32 ms, so it is staged for the 2 ms boundary
    doc["network"]["commands"] = [{"t": 0.0012, "asset": "l1", "action": "shed"}]
    grid["breakers"][0]["schedule"] = [[0.002, "open"]]
    grid["breakers"][1]["schedule"] = [[0.0015, "close"]]
    grid["contingencies"] = [{"t": 0.002, "machine": "g3"}, {"t": 0.0012, "machine": "g2"}]
    doc["attacks"] = [{"type": "breaker", "breaker": "b1", "schedule": [[0.002, "close"]]},
                      {"type": "load_change", "targets": ["l2"], "delta": 0.5,
                       "window": [[0.0015, 0.003]]}]
    run = engine._Run(scenario_from_dict(doc), None)
    assert sorted(run._boundary_schedule()) == [2, 3]  # the window's end is the only event at 3 ms
    rebuilds = []
    rebuild = run.tier.on_topology_change
    monkeypatch.setattr(run.tier, "on_topology_change",
                        lambda: rebuilds.append(run.grid.breaker("b1").closed) or rebuild())
    result = run.execute()
    assert boundary_events(result) == [
        (0.002, "command_applied", "l1", "shed"),
        (0.002, "breaker", "b2", "close"),  # 1.5 ms: before b1's actions at 2 ms
        (0.002, "breaker", "b1", "open"),  # a breaker's own schedule before its attacks
        (0.002, "breaker", "b1", "close"),
        (0.002, "contingency", "g2", "disconnect"),  # time order, not list order
        (0.002, "contingency", "g3", "disconnect"),
    ]
    assert rebuilds == [True]  # one rebuild, after every event of the boundary
    # l1 shed and l2 at +50% from the 2 ms boundary, l2 back at 3 ms
    assert result.traces["demand_total"].v.tolist() == [0.2, 0.2, 0.2, 0.1 + 0.05, 0.1]


@pytest.mark.parametrize("t, fired_at", [
    (-1.0, 0.0), (0.002, 0.002), (0.002 + 5e-13, 0.002), (0.002 + 2e-12, 0.003),
    (0.0039999, None), (0.004, None), (5.0, None)])
def test_boundary_event_fires_at_the_first_step_it_is_due(t, fired_at):
    # the run has steps 0-3 (0 to 3 ms); an event due at no step never fires
    for kind in ("breaker", "contingency"):
        doc = boundary_doc()
        if kind == "breaker":
            doc["grid"]["breakers"][0]["schedule"] = [[t, "open"]]
        else:
            doc["grid"]["contingencies"] = [{"t": t, "machine": "g3"}]
        result = engine.run(scenario_from_dict(doc))
        fired = [time for time, event, _, _ in boundary_events(result) if event == kind]
        assert fired == ([] if fired_at is None else [fired_at]), kind


def test_a_delivered_command_fires_at_the_first_step_after_it():
    # a command delivered at t fires at the first step k with k*dt > t
    run = engine._Run(scenario_from_dict(boundary_doc()), None)
    run.commands = [(0.002, "l1", "shed"), (0.002 - 1e-6, "l1", "unshed"),
                    (0.004, "l1", "shed")]  # the last at the horizon
    schedule = run._boundary_schedule()
    assert [(k, len(actions)) for k, actions in sorted(schedule.items())
            if k < run.n_steps] == [(2, 1), (3, 1)]
    assert [action.args for action in schedule[2] + schedule[3]] == [
        ("l1", "unshed"), ("l1", "shed")]


def test_boundary_entries_come_before_the_network_entries_of_their_step():
    # the 2 ms poll is dispatched in the step that the 2 ms boundary starts
    doc = boundary_doc()
    doc["network"]["poll_period"] = 0.002
    doc["grid"]["breakers"][0]["schedule"] = [[0.002, "open"]]
    log = engine.run(scenario_from_dict(doc)).event_log
    assert [(e["event"], e["node"]) for e in log if e["t"] == 0.002] == [
        ("breaker", "b1"), ("send", "master")]


def test_breaker_attack_merges_with_the_breaker_schedule():
    doc = boundary_doc()
    doc["grid"]["breakers"][1]["schedule"] = [[0.0005, "close"], [0.002, "close"]]
    doc["attacks"] = [{"type": "breaker", "breaker": "b2",
                       "schedule": [[0.001, "open"], [0.002, "open"], [0.003, "close"]]}]
    result = engine.run(scenario_from_dict(doc))
    assert [(t, action) for t, _, _, action in boundary_events(result)] == [
        (0.001, "close"), (0.001, "open"), (0.002, "close"), (0.002, "open"),
        (0.003, "close")]
    # at 2 ms the attack's open comes after the breaker's own close
    assert result.traces["breaker_b2"].v.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_contingencies_fire_in_time_order_whatever_their_list_order():
    doc = presets.preset_doc("case4_td", "n11")
    doc["grid"]["contingencies"].reverse()
    reversed_run = engine.run(scenario_from_dict(doc))
    n11 = engine.run(presets.preset_scenario("case4_td", "n11"))
    assert [(t, node) for t, event, node, _ in boundary_events(reversed_run)] \
        == [(1.5, "g2"), (1.6, "g3")]
    assert fingerprint(reversed_run)[:4] == fingerprint(n11)[:4]


def test_overlapping_load_changes_follow_a_per_step_reference():
    doc = boundary_doc()
    doc["meta"]["horizon"] = 0.008
    specs = [{"type": "load_change", "targets": ["l2"], "delta": 0.5,
              "window": [[0.0015, 0.004]]},
             {"type": "load_change", "targets": ["l2", "l1"], "delta": -0.05,
              "fraction": False, "window": [[0.001, 0.002], [0.003, math.inf]]}]
    traces = []
    for order in (specs, specs[::-1]):
        sc = scenario_from_dict(dict(doc, attacks=order))
        # the reference: before every recorded row, each load's offset is the sum
        # of the offsets of the specs active at t, in list order
        grid = sc.build_grid()
        expected = []
        for t in [0.0] + [k * sc.dt_phys for k in range(8)]:
            for load in grid.loads:
                load.delta_demand = 0.0
            for spec in sc.attacks:
                if spec.window.contains(t):
                    for load in map(grid.load, spec.targets):
                        load.delta_demand += (load.base_demand * spec.delta if spec.fraction
                                              else spec.delta)
            expected.append(demand_total(grid))
        traces.append(engine.run(sc).traces["demand_total"].v.tolist())
        assert traces[-1] == expected
    assert traces[0] == traces[1]  # offsets add, so the order of the specs does not matter
    # rows at 0, 0, 1, ..., 7 ms: the +50% on l2 alone at 2 ms, both specs at 3 ms
    assert traces[0] == pytest.approx([0.2, 0.2, 0.1, 0.25, 0.15, 0.1, 0.1, 0.1, 0.1],
                                      abs=1e-15)


# -- held columns and noise blocks ---------------------------------------------------

def test_held_columns_follow_a_per_row_reference(monkeypatch):
    # steps 0-3: b1 opens at step 0 and closes at step 3, b2 closes at step 0,
    # l1 is shed at step 1 (its command arrives at 0.12 ms), l2's +50% ends at step 3
    doc = boundary_doc()
    doc["grid"]["breakers"][0]["schedule"] = [[0.0, "open"], [0.003, "close"]]
    doc["grid"]["breakers"][1]["schedule"] = [[0.0, "close"]]
    doc["network"]["commands"] = [{"t": 0.0, "asset": "l1", "action": "shed"}]
    doc["attacks"] = [{"type": "load_change", "targets": ["l2"], "delta": 0.5,
                       "window": [[0.0, 0.003]]}]
    run = engine._Run(scenario_from_dict(doc), None)
    grid, record = run.grid, run.tier.record
    reference = []

    def recorded(rows):
        record(rows)
        reference.append([demand_total(grid), *[float(b.closed) for b in grid.breakers],
                          float(grid.load("l1").shed)])

    monkeypatch.setattr(run.tier, "record", recorded)
    traces = run.execute().traces
    held = ["demand_total", "breaker_b1", "breaker_b2", "shed_l1"]
    assert [traces[name].v.tolist() for name in held] == [list(c) for c in zip(*reference)]
    # a boundary at step k shows from row k + 1
    assert traces["breaker_b1"].v.tolist() == [1.0, 0.0, 0.0, 0.0, 1.0]
    assert traces["breaker_b2"].v.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]
    assert traces["shed_l1"].v.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
    assert traces["demand_total"].v.tolist() == pytest.approx([0.25, 0.25, 0.15, 0.15, 0.1],
                                                              abs=1e-15)


def test_case3_networked_open_moves_the_breaker_trace_at_the_next_row():
    sc = presets.preset_scenario("case3_tda", "delay_0")
    result = engine.run(sc)
    [opened] = [e["t"] for e in result.event_log
                if e["event"] == "breaker" and e["node"] == "pcc"]
    k = round(opened / sc.dt_phys)  # the step whose boundary applied the command
    pcc = result.traces["breaker_pcc"].v
    assert np.all(pcc[:k + 1] == 1.0) and np.all(pcc[k + 1:] == 0.0)


def three_plant_case1(horizon):
    """case1 with pv_loop (noise 0.2), pv_b (noise 0.05) and a noise-free pv_quiet."""
    doc = presets.preset_doc("case1_dia")
    doc["meta"]["horizon"] = horizon
    [plant] = doc["grid"]["plants"]
    doc["grid"]["plants"] += [dict(plant, name="pv_b", noise_std=[0.05]),
                              dict(plant, name="pv_quiet", noise_std=[0.0])]
    return scenario_from_dict(doc)


def test_noise_blocks_equal_one_scalar_draw_per_plant_and_step(monkeypatch):
    sc = three_plant_case1(horizon=1.2 * engine.NOISE_BLOCK * 0.001)
    result = engine.run(sc)

    def scalar_draws(draws):
        rng = engine.rng_for(sc.seed, "phys.noise")
        while True:  # each step, one draw per noisy plant in plant order
            for std in (0.2, 0.05):
                yield rng.normal(0.0, std)

    monkeypatch.setattr(engine, "_noise_draws", scalar_draws)
    reference = engine.run(sc)
    assert fingerprint(result) == fingerprint(reference)
    signals = [result.traces[f"{name}_signal"].v for name in ("pv_loop", "pv_b", "pv_quiet")]
    assert len(signals[0]) > engine.NOISE_BLOCK + 1
    assert not np.array_equal(signals[0], signals[1])


def test_noise_free_plants_draw_nothing():
    doc = presets.preset_doc("case1_dia")
    doc["meta"]["horizon"] = 0.05
    doc["grid"]["plants"][0]["noise_std"] = [0.0]
    run = engine._Run(scenario_from_dict(doc), None)
    run.execute()
    assert run.tier.rng_phys.bit_generator.state \
        == engine.rng_for(run.seed, "phys.noise").bit_generator.state


# -- case-study outcomes ------------------------------------------------------------

def test_case1_dia_moves_frequency_only_while_the_attack_runs():
    # the DIA window is [5, 15) s: beta 0.8 and a 40-unit sinusoid on the sensor
    result = engine.run(presets.preset_scenario("case1_dia"))
    reports = {r.kind: r for r in result.metric_reports}
    (governor,) = reports["frequency_stability"].intervals["governor"]
    assert governor[0] > 5.0 and governor[1] > 15.0
    voltage = reports["voltage_stability"]
    assert voltage.values["v_max"] == pytest.approx(1.125, abs=1e-3)
    assert all(5.0 <= a and b <= 15.1 for a, b in voltage.intervals["above"])
    assert reports["control"].values["settling_time"] > 15.0


@pytest.mark.parametrize("variant, expected", [
    ("a", 59.924), ("b", 59.881), ("c", 59.753), ("d", 59.676)])
def test_case2_load_nadir(variant, expected):
    assert nadir(engine.run(presets.preset_scenario("case2_load", variant))) \
        == pytest.approx(expected, abs=5e-4)


@pytest.mark.parametrize("variant, expected", [("n1", 59.704), ("n11", 59.187)])
def test_case4_td_contingency_nadir(variant, expected):
    assert nadir(engine.run(presets.preset_scenario("case4_td", variant))) \
        == pytest.approx(expected, abs=5e-4)


def test_case3_delay_0_stays_in_governor_band():
    result = engine.run(presets.preset_scenario("case3_tda", "delay_0"))
    assert protection_actions(result) <= {"none", "governor"}


def test_case3_delay_15_reaches_underfrequency_trip():
    result = engine.run(presets.preset_scenario("case3_tda", "delay_15"))
    assert "underfreq_trip" in protection_actions(result)


def test_case3_delay_0_5_sheds_load_without_tripping():
    result = engine.run(presets.preset_scenario("case3_tda", "delay_0_5"))
    actions = protection_actions(result)
    assert "load_shed" in actions and "underfreq_trip" not in actions
    assert nadir(result) == pytest.approx(59.378, abs=5e-4)


def test_case3_delay_5_reaches_underfrequency_trip():
    result = engine.run(presets.preset_scenario("case3_tda", "delay_5"))
    assert "underfreq_trip" in protection_actions(result)
    assert nadir(result) == pytest.approx(56.646, abs=5e-4)


@pytest.mark.parametrize("variant, delay", [("delay_0", 0.0), ("delay_0_5", 0.5),
                                            ("delay_5", 5.0), ("delay_15", 15.0)])
def test_case3_commands_apply_one_step_after_arrival(variant, delay):
    # each command arrives ~2.05 ms after it is sent and acts at the next 1 ms boundary
    log = engine.run(presets.preset_scenario("case3_tda", variant)).event_log
    [opened] = [e["t"] for e in log if e["event"] == "breaker" and e["node"] == "pcc"]
    [shed] = [e["t"] for e in log if e["event"] == "command_applied" and e["node"] == "load1"]
    assert opened == pytest.approx(10.003, abs=1e-9)
    assert shed == pytest.approx(10.103 + delay, abs=1e-9)
    assert not [e for e in log if e["event"] in ("command_lost", "command_rejected")]


def test_case4_td_n2_nadir():
    assert nadir(engine.run(presets.preset_scenario("case4_td", "n2"))) \
        == pytest.approx(59.187, abs=5e-4)


@pytest.mark.parametrize("preset, pool", [
    ("case1_dia", 4), ("case2_load", 4), ("case3_tda", 2), ("case4_td", 1)])
def test_risk_pool_per_case(preset, pool):
    assert engine.run(short(preset)).risk_report.pool == pool


# -- T&D boundary ----------------------------------------------------------------------

def boundary_matrix_from_scratch(cfg, grid, dt):
    """Nodal matrix of the T&D boundary for the live topology, from the circuit alone."""
    y11 = 0.0
    for src in cfg.sources:
        if grid.machine(src.machine).connected:
            y11 += dt / (2 * src.l + dt * src.r)
    y11 += 2 * cfg.pcc_shunt_c / dt
    y22 = 2 * cfg.shunt_c / dt + cfg.load_conductance
    if grid.breaker(cfg.feeder_breaker).closed:
        g_f = dt / (2 * cfg.feeder_l + dt * cfg.feeder_r)
        return np.array([[y11 + g_f, -g_f], [-g_f, y22 + g_f]])
    return np.array([[y11, 0.0], [0.0, y22]])


@pytest.mark.parametrize("variant, topologies", [
    ("breaker_triple", {(True, 3), (False, 3)}),
    ("n11", {(True, 3), (True, 2), (True, 1)})])
def test_td_boundary_matrix_follows_live_topology(variant, topologies, monkeypatch):
    sc = presets.preset_scenario("case4_td", variant)
    run = engine._Run(sc, None)
    cfg = run.grid.td_system
    seen = []
    mismatches = []
    real_nodal_solve = engine.nodal_solve

    def checked(b, i1, i2):
        grid = run.grid
        seen.append((grid.breaker(cfg.feeder_breaker).closed,
                     sum(m.connected for m in grid.machines)))
        if not np.array_equal(b.rows, boundary_matrix_from_scratch(cfg, grid, run.dt)):
            mismatches.append(len(seen))
        return real_nodal_solve(b, i1, i2)

    monkeypatch.setattr(engine, "nodal_solve", checked)
    monkeypatch.setattr(engine._TdTier, "state", lambda self: None)  # solve every step
    run.execute()
    assert len(seen) == run.n_steps
    assert set(seen) == topologies
    assert mismatches == []


CASE4_VARIANTS = ("breaker_open", "breaker_open_close", "breaker_triple", "n1", "n11", "n2")


@pytest.mark.parametrize("variant", CASE4_VARIANTS)
def test_td_steady_state_is_exact(variant):
    # every case4 event comes at 1.5 s (row 1,500): up to it the T&D kernel
    # must hold its start-up point bit-exactly, which keeps those CSV rows at "1.0"
    result = engine.run(presets.preset_scenario("case4_td", variant))
    for name in ("v_pcc", "v_dist"):
        trace = result.traces[name]
        assert trace.t[1500] == 1.5
        assert np.all(trace.v[:1501] == 1.0), name
        assert trace.v[1501] != 1.0, name


RESTARTS_FROM_SNAPSHOT = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3(b): a breaker-only rebuild restarts the source "
                        "currents from the start-up or contingency snapshot, and "
                        "perfbench/reference.json pins the reports that follow to 1e-9")


@pytest.mark.parametrize("variant", [
    pytest.param(v, marks=RESTARTS_FROM_SNAPSHOT) if v in ("breaker_open_close", "breaker_triple")
    else v for v in CASE4_VARIANTS])
def test_td_topology_change_keeps_live_state(variant):
    run = engine._Run(presets.preset_scenario("case4_td", variant), None)
    tier = run.tier
    step, rebuild = tier.step, tier.on_topology_change
    live = []
    changes = []

    def stepped(*args):
        step(*args)
        live[:] = [list(tier.i_src), tier.v2]

    def rebuilt():
        i_src, v2 = live
        rebuild()
        changes.append(tier.breaker.closed)
        for i, machine, before in zip(tier.i_src, tier.source_machines, i_src):
            assert i == (before if machine.connected else 0.0), machine.id
        assert tier.v2 == v2
        if not tier.breaker.closed:
            assert tier.i_f == 0.0

    tier.step, tier.on_topology_change = stepped, rebuilt
    run.execute()
    assert changes


def test_td_step_runs_without_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called on the T&D path")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    sc = presets.preset_scenario("case4_td", "n11")
    result = engine.run(sc)
    assert result.traces["v_pcc"].t[-1] == pytest.approx(sc.horizon)


# -- skipped steps -------------------------------------------------------------------

TIERS = (engine._AggregateTier, engine._MultiMachineTier, engine._TdTier)


def run_unskipped(sc, monkeypatch, run=engine.run):
    """``run(sc)`` with no step skipped: every tier's ``state()`` gives None."""
    with monkeypatch.context() as patch:
        for tier in TIERS:
            patch.setattr(tier, "state", lambda self: None)
        return run(sc)


def stepped_indices(monkeypatch):
    """The step index of every ``swing_step`` call from here on."""
    indices = []
    real_swing_step = engine.swing_step

    def counted(machine, p_elec, dt, step_index=None):
        indices.append(step_index)
        return real_swing_step(machine, p_elec, dt, step_index=step_index)

    monkeypatch.setattr(engine, "swing_step", counted)
    return indices


def test_skip_stops_at_a_boundary_and_resumes_after_it(monkeypatch):
    # breaker bx switches nothing the machines see: each of its boundaries
    # ends a skip, and the fixed point holds again after it
    doc = presets.preset_doc("case2_load", "a")
    doc["grid"]["breakers"] = [{"id": "bx", "schedule": [[1.0, "open"], [1.003, "close"]]}]
    sc = scenario_from_dict(doc)
    reference = run_unskipped(sc, monkeypatch)
    indices = stepped_indices(monkeypatch)
    result = engine.run(sc)
    assert fingerprint(result) == fingerprint(reference)
    stepped = set(indices)
    assert {0, 1000, 1003, 4000} <= stepped
    assert not {1, 999, 1001, 1002, 1500, 3999} & stepped
    assert result.traces["breaker_bx"].v[[1000, 1001, 1004]].tolist() == [1.0, 0.0, 1.0]


def test_command_staged_in_a_checked_step_is_applied_at_the_next(monkeypatch):
    # three balanced machines: step 0 is checked and leaves the state as it was,
    # but the shed command it dispatches applies at step 1
    doc = boundary_doc()
    doc["meta"]["horizon"] = 0.1
    doc["grid"]["loads"][1]["demand"] = 0.2
    indices = stepped_indices(monkeypatch)
    engine.run(scenario_from_dict(doc))
    assert indices == [0, 0, 0]  # without the command, step 0 starts a skip to the end
    doc["network"]["commands"] = [{"t": 0.0, "asset": "l1", "action": "shed"}]
    sc = scenario_from_dict(doc)
    result = engine.run(sc)
    assert fingerprint(result) == fingerprint(run_unskipped(sc, monkeypatch))
    assert result.traces["shed_l1"].v[:3].tolist() == [0.0, 0.0, 1.0]


def test_command_delivered_during_a_skip_applies_at_its_own_step(monkeypatch):
    # delay_0's 10.0 s PCC command arrives while the pinned grid is skipped
    sc = presets.preset_scenario("case3_tda", "delay_0")
    reference = run_unskipped(sc, monkeypatch)
    run = engine._Run(sc, None)
    assert 10.0 < run.commands[0][0] < 10.003
    stepped = []
    step = run.tier.step
    monkeypatch.setattr(run.tier, "step", lambda t, k, demand: stepped.append(k) or
                        step(t, k, demand))
    result = run.execute()
    assert fingerprint(result) == fingerprint(reference)
    [opened] = [e["t"] for e in result.event_log if e["event"] == "breaker"]
    k = round(opened / sc.dt_phys)  # the step whose boundary applied the command
    assert k in stepped and k - 1 not in stepped
    applied = [(i, e["t"]) for i, e in enumerate(result.event_log)
               if e["event"] in ("breaker", "command_applied")]
    assert applied == [(i, e["t"]) for i, e in enumerate(reference.event_log)
                       if e["event"] in ("breaker", "command_applied")]


def carried_values(tier):
    """(owner, attribute or index) of every value a tier's step carries forward."""
    cells = [(m, key) for m in tier.grid.machines for key in ("omega", "gov_power", "delta")]
    if isinstance(tier, engine._AggregateTier):
        return cells + [(tier, "pinned"), *[(fs, "power") for fs in tier.grid.fast_sources]]
    cells.append((tier, "theta"))
    if isinstance(tier, engine._TdTier):
        cells += [*[(tier.i_src, i) for i in range(len(tier.i_src))],
                  *[(tier, key) for key in ("i_f", "v1", "v2", "_p_norm")]]
    return cells


@pytest.mark.parametrize("preset, variant, tier_type", [
    ("case3_tda", "delay_0", engine._AggregateTier),
    ("case2_load", "a", engine._MultiMachineTier), ("case4_td", "n11", engine._TdTier)])
def test_state_holds_every_carried_value(preset, variant, tier_type):
    # a value the state leaves out could change while the state holds, and the
    # steps it changes in would be skipped
    tier = engine._Run(short(preset, variant), None).tier
    assert type(tier) is tier_type
    state = array("d", tier.state()).tobytes()
    for owner, key in carried_values(tier):
        if isinstance(key, int):
            owner[key] += 0.5
        else:
            value = getattr(owner, key)
            setattr(owner, key, (not value) if isinstance(value, bool) else value + 0.5)
        before, state = state, array("d", tier.state()).tobytes()
        assert state != before, (type(owner).__name__, key)


def test_state_change_the_row_does_not_record_is_not_skipped(monkeypatch):
    doc = {"schema_version": 1, "meta": {"name": "settling", "horizon": 0.2, "dt_phys": 0.001},
           "grid": {"machines": [{"id": "g", "inertia_const": 4.0, "p_mech": 0.31,
                                  "governor": {"gain": 1.0, "deadband": 0.036,
                                               "time_constant": 0.5}}],
                    "loads": [{"id": "l", "demand": 0.31}]},
           "attacks": [], "metrics": [], "seed": 1}
    sc = scenario_from_dict(doc)
    indices = stepped_indices(monkeypatch)
    engine.run(sc)
    assert len(indices) < sc.horizon / sc.dt_phys  # the start-up point is a fixed point

    def settling(sc):
        # a governor output below p_mech's last bit: every row is the same,
        # but each step shrinks the output, so no step repeats the state
        run = engine._Run(sc, None)
        run.grid.machines[0].gov_power = 1e-20
        return run.execute()

    assert 0.31 + 1e-20 == 0.31
    reference = run_unskipped(sc, monkeypatch, run=settling)
    indices.clear()
    result = settling(sc)
    assert indices == list(range(200))
    assert fingerprint(result) == fingerprint(reference)
    assert set(result.traces["p_gen"].v.tolist()) == {0.31}


def test_case1_asks_for_its_state_once(monkeypatch):
    sc = short("case1_dia", horizon=1.0)
    reference = run_unskipped(sc, monkeypatch)
    calls = []
    real_state = engine._AggregateTier.state

    def counted(self):
        calls.append(None)
        return real_state(self)

    monkeypatch.setattr(engine._AggregateTier, "state", counted)
    result = engine.run(sc)
    assert len(calls) == 1
    assert fingerprint(result) == fingerprint(reference)


def test_case2_skips_its_steady_start(monkeypatch):
    sc = presets.preset_scenario("case2_load", "a")
    indices = stepped_indices(monkeypatch)
    reference = run_unskipped(sc, monkeypatch)
    unskipped_calls = len(indices)
    indices.clear()
    result = engine.run(sc)
    assert len(indices) < 0.6 * unskipped_calls
    assert fingerprint(result) == fingerprint(reference)


# -- export ------------------------------------------------------------------------------

def test_metric_lines_put_every_value_in_one_column():
    lines = engine.metric_lines([{"kind": "cyber", "trace": "event_log",
                                  "values": {"packets_sent": 7, "per_flow_jitter": {"a->b": 8}},
                                  "intervals": {"governor": [(1.0, 2.0)]}}])
    assert [line[35:] for line in lines[1:4]] == ["7", "8", "[1.0000, 2.0000]"]


@pytest.mark.parametrize("preset, variant", [("case1_dia", None), ("case3_tda", "delay_0")])
def test_export_writes_each_artifact_once(preset, variant, tmp_path):
    sc = short(preset, variant, horizon=0.5)
    result = engine.run(sc)
    out = engine.export(result, tmp_path / "run", scenario_doc=sc.doc)
    assert sorted(p.name for p in out.iterdir()) == [
        "events.json", "manifest.json", "report.json", "report.txt", "scenario.json", "traces"]
    assert json.loads((out / "events.json").read_text()) == {
        "events": result.event_log, "attack_samples": result.attack_samples}


@pytest.mark.parametrize("preset, variant, units", [
    ("case1_dia", None, {"demand_total": "pu", "freq": "Hz", "p_fast": "pu", "p_gen": "pu",
                         "pv_loop_meas": "signal", "pv_loop_power": "pu",
                         "pv_loop_signal": "signal", "pv_loop_signal_pu": "pu"}),
    ("case2_load", "a", {"demand_total": "pu", "freq": "Hz", "freq_g1": "Hz", "freq_g2": "Hz",
                         "freq_g3": "Hz"}),
    ("case3_tda", "delay_0", {"breaker_pcc": "state", "demand_total": "pu", "freq": "Hz",
                              "p_fast": "pu", "p_gen": "pu", "shed_load1": "state",
                              "shed_load2": "state"}),
    ("case4_td", "n1", {"breaker_pcc": "state", "demand_total": "pu", "freq": "Hz",
                        "freq_g1": "Hz", "freq_g2": "Hz", "freq_g3": "Hz", "v_dist": "pu",
                        "v_pcc": "pu"})])
def test_manifest_keeps_the_unit_of_every_trace(preset, variant, units, tmp_path):
    sc = short(preset, variant)
    result = engine.run(sc)
    out = engine.export(result, tmp_path / "run", scenario_doc=sc.doc)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 2
    assert manifest["traces"] == [[name, units[name]] for name in sorted(units)]
    assert sorted(result.traces) == sorted(units)
    assert sorted(p.stem for p in (out / "traces").iterdir()) == sorted(result.traces)


def test_export_writes_a_trace_off_the_run_axis_from_its_own_axis(tmp_path):
    sc = short("case2_load", "a", horizon=0.05)
    result = engine.run(sc)
    axis = result.traces["freq"].t
    result.traces["late"] = TimeSeries(t=axis + 0.5, v=np.ones(len(axis)), name="late")
    out = engine.export(result, tmp_path / "run", scenario_doc=sc.doc)
    for name in ("late", "freq"):
        series = result.traces[name]
        assert (out / "traces" / f"{name}.csv").read_text() == \
            series.to_csv(csv_time_cells(series.t))


# -- determinism and batches ------------------------------------------------------------

@pytest.mark.parametrize("preset", ["case1_dia", "case3_tda"])
def test_same_seed_gives_same_bytes(preset):
    first = fingerprint(engine.run(short(preset, horizon=0.5)))
    assert fingerprint(engine.run(short(preset, horizon=0.5))) == first


def test_other_seed_changes_noisy_traces():
    a = engine.run(short("case1_dia", horizon=0.5), seed=1).traces["pv_loop_meas"].v
    b = engine.run(short("case1_dia", horizon=0.5), seed=2).traces["pv_loop_meas"].v
    assert a.tobytes() != b.tobytes()


def test_run_many_equals_run_member_by_member():
    scenarios = [short("case1_dia"), short("case2_load", "d"), short("case3_tda", "delay_0"),
                 short("case4_td", "breaker_triple")]
    batch = engine.run_many(scenarios)
    assert [fingerprint(r) for r in batch] == [fingerprint(engine.run(sc))
                                               for sc in scenarios]


def test_cli_batch_reports_every_scenario(tmp_path, capsys):
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    scenarios = [short("case2_load", "a"), short("case4_td", "n1")]
    for sc in scenarios:
        (scenario_dir / f"{sc.name}.json").write_text(json.dumps(sc.doc))
    rc = cli.main(["run", str(scenario_dir), "--batch", "--out", str(tmp_path / "out"),
                   "--json"])
    assert rc == cli.EXIT_OK
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == [json.loads(json.dumps(engine.report_dict(engine.run(sc))))
                       for sc in sorted(scenarios, key=lambda sc: sc.name)]
