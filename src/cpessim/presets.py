"""Built-in scenario presets for the four attack case studies.

Each preset is a complete scenario document (reduced-order, desk-scale
parameters chosen for this artifact) bundling the grid, optional network,
attack specs, the matching threat-model preset, and the case's risk inputs.
"""

from __future__ import annotations

from . import threat_model as tm
from .scenario import Scenario, scenario_from_dict


def preset_scenario(name: str, variant: str | None = None) -> Scenario:
    """Build a preset scenario; unknown names raise KeyError."""
    return scenario_from_dict(preset_doc(name, variant))


def preset_doc(name: str, variant: str | None = None) -> dict:
    """The raw scenario document for a preset (JSON-ready dict)."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    build, variants, default, _ = PRESETS[name]
    variant = variant or default
    if variant not in variants:
        raise ValueError(f"{name} variant must be one of {sorted(variants)}, "
                         f"got {variant!r}")
    return build(variant)


def _case1(variant: str) -> dict:
    return {
        "schema_version": 1,
        "meta": {
            "name": "case1_dia",
            "description": "Sensor-scaling attack on an inverter control loop "
                           "propagating into microgrid frequency",
            "horizon": 20.0,
            "dt_phys": 0.001,
        },
        "grid": {
            "f_nom": 60.0,
            "unit": "pu",
            "p_loss": 0.01,
            "machines": [{
                "id": "genset", "inertia_const": 5.0, "p_mech": 0.31,
                "v_internal": 1.0, "reactance": 0.3, "damping": 0.1,
                "governor": {"gain": 0.4, "deadband": 0.036, "time_constant": 0.2,
                             "max_boost": 0.5, "min_boost": -0.5},
            }],
            "loads": [
                {"id": "residential", "demand": 0.25},
                {"id": "industrial", "demand": 0.25},
            ],
            "fast_sources": [{"id": "bess", "gain": 0.4, "max_power": 0.1,
                              "time_constant": 0.05}],
            "plants": [{
                "name": "pv_loop",
                "G": [[0.95, 0.04], [0.0, 0.90]],
                "B": [[0.0], [0.1]],
                "C": [[1.0, 0.0]],
                "control_matrix": [[-0.8]],
                "noise_std": [0.2],
                "x0": [0.0, 0.0],
                "u0": [0.0],
                "operating_point": 400.0,
                "power_base": 0.2,
                "power_gain": 0.0025,
            }],
        },
        "attacks": [{
            "type": "dia", "tap": "meas:pv_loop", "beta": 0.8,
            "noise": {"kind": "sinusoid", "amplitude": 40.0, "freq_hz": 5.0},
            "window": [[5.0, 15.0]],
        }],
        "threat": tm.to_dict(tm.preset("cross_layer_firmware")),
        "risk": {
            "probability": 2,
            "impacts": {"people_health_safety": "low",
                        "uninterrupted_operation": "low",
                        "equipment_damage_legal": "low",
                        "financial_profit": "medium"},
        },
        "metrics": [
            {"kind": "frequency_stability", "trace": "freq"},
            {"kind": "voltage_stability", "trace": "pv_loop_signal_pu",
             "limits": [0.95, 1.05]},
            {"kind": "control", "trace": "pv_loop_signal", "command": 400.0},
        ],
        "seed": 101,
    }


_CASE2_VARIANTS = {
    "a": (["bus29"], 0.20),
    "b": (["bus29", "bus16"], 0.20),
    "c": (["bus29", "bus16"], 0.50),
    "d": (["bus29", "bus16", "bus23"], 0.50),
}


def _case2(variant: str) -> dict:
    targets, fraction = _CASE2_VARIANTS[variant]
    governor = {"gain": 1.0, "deadband": 0.036, "time_constant": 0.5,
                "max_boost": 0.5, "min_boost": -0.5}
    return {
        "schema_version": 1,
        "meta": {
            "name": f"case2_load_{variant}",
            "description": f"Load-changing attack: +{int(fraction * 100)}% on "
                           f"{len(targets)} load(s) for 0.5 s",
            "horizon": 8.0,
            "dt_phys": 0.001,
        },
        "grid": {
            "f_nom": 60.0,
            "unit": "pu",
            "p_loss": 0.01,
            "machines": [
                {"id": "g1", "inertia_const": 4.0, "p_mech": 0.35, "v_internal": 1.0,
                 "reactance": 0.3, "damping": 0.15, "governor": dict(governor)},
                {"id": "g2", "inertia_const": 3.5, "p_mech": 0.33, "v_internal": 1.0,
                 "reactance": 0.3, "damping": 0.15, "governor": dict(governor)},
                {"id": "g3", "inertia_const": 3.0, "p_mech": 0.33, "v_internal": 1.0,
                 "reactance": 0.3, "damping": 0.15, "governor": dict(governor)},
            ],
            "loads": [
                {"id": "bus29", "demand": 0.30},
                {"id": "bus16", "demand": 0.25},
                {"id": "bus23", "demand": 0.20},
                {"id": "base", "demand": 0.25},
            ],
        },
        "attacks": [{
            "type": "load_change", "targets": list(targets), "delta": fraction,
            "fraction": True, "window": [[4.0, 4.5]],
        }],
        "threat": tm.to_dict(tm.preset("load_changing")),
        "risk": {
            "probability": 2,
            "impacts": {"people_health_safety": "low",
                        "uninterrupted_operation": "medium",
                        "equipment_damage_legal": "low",
                        "financial_profit": "medium"},
        },
        "metrics": [{"kind": "frequency_stability", "trace": "freq"}],
        "seed": 202,
    }


_CASE3_DELAYS = {"delay_0": 0.0, "delay_0_5": 0.5, "delay_5": 5.0, "delay_15": 15.0}


def _case3(variant: str) -> dict:
    delay = _CASE3_DELAYS[variant]
    outstations = [("out_gen", "genset"), ("out_bess", "bess_meter"),
                   ("out_load1", "load1"), ("out_load2", "load2"),
                   ("out_crit", "critical"), ("out_pcc", "pcc")]
    nodes = [{"id": "mgc", "role": "endpoint", "app": {"kind": "master"}},
             {"id": "router", "role": "router"}]
    links = [{"id": "l_mgc", "a": "mgc", "b": "router",
              "bandwidth_mbps": 100.0, "prop_delay_ms": 1.0}]
    for node_id, asset in outstations:
        nodes.append({"id": node_id, "role": "endpoint",
                      "app": {"kind": "outstation", "asset": asset}})
        links.append({"id": f"l_{node_id[4:]}", "a": "router", "b": node_id,
                      "bandwidth_mbps": 100.0, "prop_delay_ms": 1.0})
    attacks = [{"type": "time_delay", "tap": "link:l_load1",
                "delay": delay, "window": [[0.0, 30.0]]}]
    return {
        "schema_version": 1,
        "meta": {
            "name": f"case3_tda_{variant}",
            "description": f"Islanding at t=10 s; load-shed command delayed "
                           f"{delay:g} s by a time-delay attack",
            "horizon": 30.0,
            "dt_phys": 0.001,
        },
        "grid": {
            "f_nom": 60.0,
            "unit": "kW",
            "s_base_kw": 1000.0,
            "p_loss": 0.0,
            "pcc_breaker": "pcc",
            "machines": [{
                "id": "genset", "inertia_const": 5.0, "p_mech": 900.0,
                "v_internal": 1.0, "reactance": 0.3,
                "governor": {"gain": 0.5, "deadband": 0.036, "time_constant": 0.3,
                             "max_boost": 0.1, "min_boost": -0.9},
            }],
            "loads": [
                {"id": "load1", "demand": 300.0, "sheddable": True},
                {"id": "load2", "demand": 700.0, "sheddable": True},
                {"id": "critical", "demand": 200.0},
            ],
            "fast_sources": [{"id": "bess_meter", "gain": 0.5, "max_power": 100.0,
                              "time_constant": 0.05}],
            "breakers": [{"id": "pcc", "closed": True}],
        },
        "network": {
            "nodes": nodes,
            "links": links,
            "poll_period": 0.1,
            "message_bytes": 292,
            "commands": [
                {"t": 10.0, "asset": "pcc", "action": "open_breaker"},
                {"t": 10.1, "asset": "load1", "action": "shed"},
            ],
        },
        "attacks": attacks,
        "threat": tm.to_dict(tm.preset("time_delay")),
        "risk": {
            "probability": 3,
            "impacts": {"people_health_safety": "low",
                        "uninterrupted_operation": "medium",
                        "equipment_damage_legal": "high",
                        "financial_profit": "low"},
        },
        "metrics": [
            {"kind": "frequency_stability", "trace": "freq"},
            {"kind": "cyber"},
        ],
        "seed": 303,
    }


_CASE4_VARIANTS = {  # variant -> (the breaker attack's schedule on pcc, contingencies)
    "breaker_open": (((1.5, "open"),), ()),
    "breaker_open_close": (((1.5, "open"), (1.75, "close")), ()),
    "breaker_triple": (((1.5, "open"), (1.75, "close"), (2.0, "open")), ()),
    "n1": ((), ((1.5, "g2"),)),
    "n11": ((), ((1.5, "g2"), (1.6, "g3"))),
    "n2": ((), ((1.5, "g2"), (1.5, "g3"))),
}


def _case4(variant: str) -> dict:
    schedule, contingencies = _CASE4_VARIANTS[variant]
    attacks = [{"type": "breaker", "breaker": "pcc",
                "schedule": [list(action) for action in schedule]}] if schedule else []
    governor = {"gain": 0.3, "deadband": 0.036, "time_constant": 0.4,
                "max_boost": 0.6, "min_boost": -0.6}
    return {
        "schema_version": 1,
        "meta": {
            "name": f"case4_td_{variant}",
            "description": f"T&D RL circuit over a nodal boundary; "
                           f"{variant} disturbance propagating across it",
            "horizon": 3.5,
            "dt_phys": 0.001,
        },
        "grid": {
            "f_nom": 60.0,
            "unit": "pu",
            "p_loss": 0.0,
            "machines": [
                {"id": "g1", "inertia_const": 6.0, "p_mech": 0.30, "v_internal": 1.0,
                 "reactance": 0.25, "damping": 0.15, "governor": dict(governor)},
                {"id": "g2", "inertia_const": 4.0, "p_mech": 0.20, "v_internal": 1.0,
                 "reactance": 0.25, "damping": 0.15, "governor": dict(governor)},
                {"id": "g3", "inertia_const": 4.0, "p_mech": 0.20, "v_internal": 1.0,
                 "reactance": 0.25, "damping": 0.15, "governor": dict(governor)},
            ],
            "loads": [{"id": "td_local", "demand": 0.30}],
            "breakers": [{"id": "pcc", "closed": True}],
            "contingencies": [{"t": t, "machine": m} for t, m in contingencies],
            "td_system": {
                "sources": [
                    {"machine": "g1", "emf": 1.4267, "r": 0.1, "l": 0.02},
                    {"machine": "g2", "emf": 1.4267, "r": 0.1, "l": 0.02},
                    {"machine": "g3", "emf": 1.4267, "r": 0.1, "l": 0.02},
                ],
                "feeder_breaker": "pcc",
                "feeder_r": 0.02,
                "feeder_l": 0.0033,
                "shunt_c": 0.5,
                "load_conductance": 8.0,
                "dist_demand": 0.4,
            },
        },
        "attacks": attacks,
        "threat": tm.to_dict(tm.preset("td_propagation")),
        "risk": {
            "probability": 3,
            "impacts": {"people_health_safety": "high",
                        "uninterrupted_operation": "high",
                        "equipment_damage_legal": "high",
                        "financial_profit": "low"},
        },
        "metrics": [
            {"kind": "frequency_stability", "trace": "freq"},
            {"kind": "voltage_stability", "trace": "v_pcc", "limits": [0.95, 1.05]},
            {"kind": "voltage_stability", "trace": "v_dist", "limits": [0.95, 1.05]},
        ],
        "seed": 404,
    }


# name -> (builder, variants in the order of its own table, default variant, description)
PRESETS = {
    "case1_dia": (_case1, ("default",), "default",
                  "Aggregate microgrid with an inverter control loop; combined "
                  "scaling+sinusoid data-integrity attack on its sensed voltage"),
    "case2_load": (_case2, tuple(_CASE2_VARIANTS), "a",
                   "Three-machine system; coordinated load-changing attack over a "
                   "0.5 s window, +20% or +50% on one to three loads"),
    "case3_tda": (_case3, tuple(_CASE3_DELAYS), "delay_5",
                  "Islanding microgrid with a polled control network; time-delay "
                  "attack on the load-shed command"),
    "case4_td": (_case4, tuple(_CASE4_VARIANTS), "breaker_triple",
                 "Transmission/distribution RL circuit over a nodal boundary; breaker "
                 "and contingency attacks"),
}
PRESET_NAMES = tuple(PRESETS)
VARIANTS = {name: variants for name, (_, variants, _, _) in PRESETS.items()}
