"""Declarative scenario documents: schema, parsing, and cross-validation.

A scenario is one JSON document with sections {meta, grid, network?, attacks,
threat?, risk?, metrics, seed}.  Parsing is strict: every error names the
offending field so the CLI can report it and exit with the input-error code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import risk as risk_mod
from . import threat_model as tm
from .attacks import (AttackSpec, AttackWindow, BreakerAttack, ControlDia,
                      DiaCombined, DoS, GaussianNoise, LoadChange,
                      SinusoidNoise, TimeDelay)
from .network import AppConfig, NetLink, NetNode, NodeRole
from .physical import (MAX_SWING_DT, Breaker, FastSource, FrequencyProtection,
                       Governor, GridModel, Load, LtiPlant, Machine, PlantFieldError,
                       apply_contingency, demand_total)

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario document problem; carries the field path for diagnostics."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass
class TdSource:
    machine: str     # machine id whose disconnection also removes this branch
    emf: float
    r: float
    l: float


@dataclass
class TdSystemConfig:
    """Two-group transmission/distribution circuit solved over a nodal boundary."""

    sources: list[TdSource]
    feeder_breaker: str
    feeder_r: float
    feeder_l: float
    shunt_c: float              # distribution-bus capacitance
    load_conductance: float
    dist_demand: float          # pu demand seen by the machines at nominal transfer
    pcc_shunt_c: float = 0.2    # boundary-bus capacitance (absorbs switching energy)
    power_filter: float = 0.05  # s, lag on the boundary power seen by the machines


@dataclass
class NetworkConfig:
    nodes: list[NetNode]
    links: list[NetLink]
    poll_period: float = 0.1
    poll_start: float = 0.0
    message_bytes: int = 292
    commands: list[dict] = field(default_factory=list)  # {t, asset, action, value?}


@dataclass
class Scenario:
    name: str
    horizon: float
    dt_phys: float
    grid: dict                           # raw grid section (engine builds fresh models)
    network: Optional[NetworkConfig]
    attacks: list[AttackSpec]
    threat: Optional[tm.ThreatModel]
    risk_inputs: Optional[dict]
    metrics_requested: list[dict]
    seed: int
    description: str = ""
    doc: dict = field(default_factory=dict)  # canonical source document

    def build_grid(self) -> GridModel:
        return build_grid(self.grid)

    def td_system(self) -> Optional[TdSystemConfig]:
        raw = self.grid.get("td_system")
        return _parse_td_system(raw) if raw else None

    def pcc_breaker(self) -> Optional[str]:
        return self.grid.get("pcc_breaker")


def scenario_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_scenario(path) -> Scenario:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("$", f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                                 f"{exc.msg}") from exc
    return scenario_from_dict(doc)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("$", "scenario must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError("schema_version",
                            f"expected {SCHEMA_VERSION}, got {doc.get('schema_version')!r}")

    meta = _require(doc, "meta", dict)
    name = _require(meta, "name", str, parent="meta")
    horizon = _positive(meta, "horizon", parent="meta")
    dt_phys = _positive(meta, "dt_phys", parent="meta")
    if dt_phys > MAX_SWING_DT:
        raise ScenarioError("meta.dt_phys", f"must be <= {MAX_SWING_DT} s (swing "
                                            f"integrator limit), got {dt_phys}")

    grid_doc = _require(doc, "grid", dict)
    grid = build_grid(grid_doc)  # validates; engine rebuilds per run

    network = None
    if doc.get("network") is not None:
        network = _parse_network(doc["network"])
        _check_outstations(network, grid)

    attacks = [_parse_attack(i, a) for i, a in enumerate(doc.get("attacks", []))]
    _check_taps(attacks, grid, grid_doc, network)

    threat = None
    if doc.get("threat") is not None:
        try:
            threat = tm.from_dict(doc["threat"])
        except tm.ThreatModelParseError as exc:
            raise ScenarioError(f"threat.{exc.location}", str(exc)) from exc
        violations = tm.validate(threat)
        if violations:
            raise ScenarioError("threat", "; ".join(violations))

    risk_inputs = None
    if doc.get("risk") is not None:
        risk_inputs = parse_risk(doc["risk"])

    metrics_requested = [_parse_metric(i, m) for i, m in enumerate(doc.get("metrics", []))]

    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        raise ScenarioError("seed", "must be an integer")

    return Scenario(name=name, horizon=horizon, dt_phys=dt_phys, grid=grid_doc,
                    network=network, attacks=attacks, threat=threat,
                    risk_inputs=risk_inputs, metrics_requested=metrics_requested,
                    seed=seed, description=meta.get("description", ""), doc=doc)


# ---------------------------------------------------------------------------
# Grid section
# ---------------------------------------------------------------------------

def build_grid(grid_doc: dict) -> GridModel:
    """Validate a grid section and build its models at the start-up operating
    point: the slack machine covers the demand (plus the nominal distribution
    demand of a T&D system, whose boundary transfer must be positive) that the
    other setpoints leave, and a lone machine with its PCC open or absent
    carries the demand net of the plants' base injection."""
    f_nom = grid_doc.get("f_nom", 60.0)
    unit = grid_doc.get("unit", "pu")
    if unit not in ("pu", "kW"):
        raise ScenarioError("grid.unit", f'must be "pu" or "kW", got {unit!r}')
    s_base_kw = grid_doc.get("s_base_kw", 1000.0)
    to_pu = (lambda v: v / s_base_kw) if unit == "kW" else (lambda v: v)

    machines = []
    for i, m in enumerate(grid_doc.get("machines", [])):
        loc = f"grid.machines[{i}]"
        gov = None
        if m.get("governor"):
            g = m["governor"]
            gov = Governor(gain=g.get("gain", 0.0),
                           deadband=g.get("deadband", 0.036),
                           time_constant=g.get("time_constant", 0.0),
                           min_boost=g.get("min_boost", float("-inf")),
                           max_boost=g.get("max_boost", float("inf")))
        try:
            machines.append(Machine(
                id=_require(m, "id", str, parent=loc),
                inertia_const=_positive(m, "inertia_const", parent=loc),
                p_mech=float(m.get("p_mech", 0.0)),
                omega=2 * 3.141592653589793 * f_nom,
                omega_sync=2 * 3.141592653589793 * f_nom,
                v_internal=m.get("v_internal", 1.0),
                v_recv=m.get("v_recv", 1.0),
                reactance=m.get("reactance", 0.3),
                governor=gov,
                damping=m.get("damping", 0.0)))
        except ValueError as exc:
            raise ScenarioError(loc, str(exc)) from exc
    if not machines:
        raise ScenarioError("grid.machines", "scenario needs at least one machine")

    loads = []
    for i, l in enumerate(grid_doc.get("loads", [])):
        loc = f"grid.loads[{i}]"
        try:
            loads.append(Load(id=_require(l, "id", str, parent=loc),
                              base_demand=to_pu(_number(l, "demand", parent=loc)),
                              sheddable=bool(l.get("sheddable", False))))
        except ValueError as exc:
            raise ScenarioError(loc, str(exc)) from exc

    fast_sources = []
    for i, f in enumerate(grid_doc.get("fast_sources", [])):
        loc = f"grid.fast_sources[{i}]"
        fast_sources.append(FastSource(
            id=_require(f, "id", str, parent=loc), gain=f.get("gain", 0.0),
            max_power=to_pu(_number(f, "max_power", parent=loc)) if unit == "kW"
            else f.get("max_power", 0.0),
            time_constant=f.get("time_constant", 0.02)))

    breakers = []
    for i, b in enumerate(grid_doc.get("breakers", [])):
        loc = f"grid.breakers[{i}]"
        try:
            breakers.append(Breaker(id=_require(b, "id", str, parent=loc),
                                    closed=bool(b.get("closed", True)),
                                    schedule=[(float(t), a) for t, a in b.get("schedule", [])]))
        except ValueError as exc:
            raise ScenarioError(loc, str(exc)) from exc

    plants = []
    for i, p in enumerate(grid_doc.get("plants", [])):
        loc = f"grid.plants[{i}]"
        wiring = {key: _number(p, key, parent=loc, default=0.0)
                  for key in ("operating_point", "power_base", "power_gain")}
        try:
            plants.append(LtiPlant(G=p["G"], B=p["B"], C=p["C"],
                                   control_matrix=p["control_matrix"],
                                   noise_std=p.get("noise_std", 0.0),
                                   x=p.get("x0", [0.0] * len(p["G"])),
                                   u=p.get("u0", [0.0] * len(p["control_matrix"])),
                                   name=p.get("name", f"plant{i}"), **wiring))
        except PlantFieldError as exc:
            raise ScenarioError(f"{loc}.{exc.field}", str(exc)) from exc
        except (KeyError, ValueError) as exc:
            raise ScenarioError(loc, str(exc)) from exc
    if plants and (len(machines) > 1 or grid_doc.get("td_system")):
        raise ScenarioError("grid.plants", "LTI plants run only on the single-machine "
                                           "aggregate tier")

    for kind, items, key in (("machines", machines, "id"), ("loads", loads, "id"),
                             ("breakers", breakers, "id"), ("fast_sources", fast_sources, "id"),
                             ("plants", plants, "name")):
        _check_unique(f"grid.{kind}", [getattr(x, key) for x in items], key)

    try:
        grid = GridModel(f_nom=f_nom, machines=machines, loads=loads,
                         breakers=breakers, plants=plants, fast_sources=fast_sources,
                         protection=build_protection(grid_doc),
                         p_loss=to_pu(grid_doc.get("p_loss", 0.0)))
    except ValueError as exc:
        raise ScenarioError("grid", str(exc)) from exc

    events = []
    for i, c in enumerate(grid_doc.get("contingencies", [])):
        loc = f"grid.contingencies[{i}]"
        events.append((_number(c, "t", parent=loc), _require(c, "machine", str, parent=loc)))
    try:
        apply_contingency(grid, events)
    except KeyError as exc:
        raise ScenarioError("grid.contingencies", str(exc)) from exc

    pcc = None
    if grid_doc.get("pcc_breaker"):
        try:
            pcc = grid.breaker(grid_doc["pcc_breaker"])
        except KeyError as exc:
            raise ScenarioError("grid.pcc_breaker", str(exc)) from exc

    td_cfg = _parse_td_system(grid_doc["td_system"]) if grid_doc.get("td_system") else None
    if td_cfg is not None:
        for i, src in enumerate(td_cfg.sources):
            try:
                grid.machine(src.machine)
            except KeyError as exc:
                raise ScenarioError(f"grid.td_system.sources[{i}].machine", str(exc)) from exc
        try:
            feeder = grid.breaker(td_cfg.feeder_breaker)
        except KeyError as exc:
            raise ScenarioError("grid.td_system.feeder_breaker", str(exc)) from exc
        balance_slack(grid, demand_total(grid) + td_cfg.dist_demand)
        td_operating_point(td_cfg, feeder.closed)
    elif len(machines) > 1:
        balance_slack(grid, demand_total(grid))
    elif pcc is None or not pcc.closed:
        machines[0].p_mech = demand_total(grid) - sum(p.power_base for p in plants)
    return grid


def _check_unique(section: str, ids: list[str], key: str) -> None:
    """Reject the first repeated id, at ``<section>[i].<key>``."""
    for i, ident in enumerate(ids):
        if ident in ids[:i]:
            raise ScenarioError(f"{section}[{i}].{key}", f"duplicate {key} {ident!r}")


def balance_slack(grid: GridModel, demand: float) -> None:
    """Give the first machine (the slack) the part of ``demand`` that the other
    setpoints leave uncovered; every setpoint must then fit under its
    machine's coupling."""
    machines = grid.machines
    total_pm = sum(m.p_mech for m in machines)
    machines[0].p_mech += demand - total_pm
    for i, m in enumerate(machines):
        if m.p_mech > m.coupling:
            raise ScenarioError(
                f"grid.machines[{i}]",
                f"machine {m.id!r} cannot transfer its setpoint {m.p_mech:.3f} pu "
                f"over coupling {m.coupling:.3f} pu")


def td_operating_point(cfg: TdSystemConfig, feeder_closed: bool
                       ) -> tuple[float, float, list[float], float]:
    """DC operating point of the T&D circuit, inductors shorted to their
    resistances and capacitors open: (v1, v2, source currents, feeder current).
    The nominal boundary transfer v1 * i_f must be positive, so the feeder
    must start closed."""
    if not feeder_closed:
        raise ScenarioError("grid.td_system", "nominal boundary transfer must be > 0; "
                                              "the feeder breaker starts open")
    g_f = 1.0 / cfg.feeder_r
    g_src = [1.0 / s.r for s in cfg.sources]
    y = np.array([[sum(g_src) + g_f, -g_f],
                  [-g_f, g_f + cfg.load_conductance]])
    i = np.array([sum(g * s.emf for g, s in zip(g_src, cfg.sources)), 0.0])
    v1, v2 = np.linalg.solve(y, i).tolist()
    i_src = [g * (s.emf - v1) for g, s in zip(g_src, cfg.sources)]
    i_f = (v1 - v2) / cfg.feeder_r
    if v1 * i_f <= 0:
        raise ScenarioError("grid.td_system", "nominal boundary transfer must be > 0")
    return v1, v2, i_src, i_f


def build_protection(grid_doc: dict) -> FrequencyProtection:
    """Frequency-protection bands of a grid section, without building the grid."""
    prot_doc = grid_doc.get("protection", {})
    try:
        return FrequencyProtection(
            f_nom=grid_doc.get("f_nom", 60.0),
            governor_deadband=prot_doc.get("governor_deadband", 0.036),
            shed_low=prot_doc.get("shed_low", 58.4),
            shed_high=prot_doc.get("shed_high", 59.5),
            underfreq_trip=prot_doc.get("underfreq_trip", 57.8),
            overfreq_trip=prot_doc.get("overfreq_trip", 62.2))
    except ValueError as exc:
        raise ScenarioError("grid.protection", str(exc)) from exc


def _parse_td_system(raw: dict) -> TdSystemConfig:
    sources = []
    for i, s in enumerate(_require(raw, "sources", list, parent="grid.td_system")):
        loc = f"grid.td_system.sources[{i}]"
        sources.append(TdSource(machine=_require(s, "machine", str, parent=loc),
                                emf=_number(s, "emf", parent=loc),
                                r=_positive(s, "r", parent=loc),
                                l=_positive(s, "l", parent=loc)))
    return TdSystemConfig(sources=sources,
                          feeder_breaker=_require(raw, "feeder_breaker", str,
                                                  parent="grid.td_system"),
                          feeder_r=_positive(raw, "feeder_r", parent="grid.td_system"),
                          feeder_l=_positive(raw, "feeder_l", parent="grid.td_system"),
                          shunt_c=_positive(raw, "shunt_c", parent="grid.td_system"),
                          load_conductance=_positive(raw, "load_conductance",
                                                     parent="grid.td_system"),
                          dist_demand=_number(raw, "dist_demand", parent="grid.td_system"),
                          pcc_shunt_c=_number(raw, "pcc_shunt_c",
                                              parent="grid.td_system", default=0.2),
                          power_filter=_number(raw, "power_filter",
                                               parent="grid.td_system", default=0.05))


# ---------------------------------------------------------------------------
# Network section
# ---------------------------------------------------------------------------

def _parse_network(raw: dict) -> NetworkConfig:
    if not isinstance(raw, dict):
        raise ScenarioError("network", "must be an object")
    nodes = []
    for i, n in enumerate(raw.get("nodes", [])):
        loc = f"network.nodes[{i}]"
        role = n.get("role", "endpoint")
        try:
            role = NodeRole(role)
        except ValueError:
            raise ScenarioError(f"{loc}.role", f"unknown role {role!r}")
        app = None
        if n.get("app"):
            try:
                app = AppConfig(kind=n["app"].get("kind", ""), asset=n["app"].get("asset"))
            except ValueError as exc:
                raise ScenarioError(f"{loc}.app", str(exc)) from exc
        nodes.append(NetNode(id=_require(n, "id", str, parent=loc), role=role, app=app,
                             processing_delay=n.get("processing_delay_ms", 0.0) * 1e-3))
    links = []
    for i, l in enumerate(raw.get("links", [])):
        loc = f"network.links[{i}]"
        try:
            links.append(NetLink(
                id=_require(l, "id", str, parent=loc),
                a=_require(l, "a", str, parent=loc),
                b=_require(l, "b", str, parent=loc),
                bandwidth=_positive(l, "bandwidth_mbps", parent=loc) * 1e6,
                prop_delay=_number(l, "prop_delay_ms", parent=loc, default=0.0) * 1e-3,
                jitter=_number(l, "jitter_ms", parent=loc, default=0.0) * 1e-3,
                loss_rate=_number(l, "loss_rate", parent=loc, default=0.0)))
        except ValueError as exc:
            raise ScenarioError(loc, str(exc)) from exc
    _check_unique("network.nodes", [n.id for n in nodes], "id")
    _check_unique("network.links", [l.id for l in links], "id")

    commands = []
    for i, c in enumerate(raw.get("commands", [])):
        loc = f"network.commands[{i}]"
        action = _require(c, "action", str, parent=loc)
        if action not in ("shed", "unshed", "open_breaker", "close_breaker"):
            raise ScenarioError(f"{loc}.action", f"unknown action {action!r}")
        commands.append({"t": _number(c, "t", parent=loc),
                         "asset": _require(c, "asset", str, parent=loc),
                         "action": action, "value": c.get("value")})

    return NetworkConfig(nodes=nodes, links=links,
                         poll_period=raw.get("poll_period", 0.1),
                         poll_start=raw.get("poll_start", 0.0),
                         message_bytes=raw.get("message_bytes", 292),
                         commands=commands)


# ---------------------------------------------------------------------------
# Attacks section
# ---------------------------------------------------------------------------

def _parse_window(i: int, raw) -> AttackWindow:
    loc = f"attacks[{i}].window"
    if raw is None:
        return AttackWindow(())
    if not isinstance(raw, list):
        raise ScenarioError(loc, "must be a list of [start, end] pairs")
    try:
        return AttackWindow(tuple((float(s), float(e)) for s, e in raw))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(loc, str(exc)) from exc


def _parse_attack(i: int, raw: dict) -> AttackSpec:
    loc = f"attacks[{i}]"
    kind = _require(raw, "type", str, parent=loc)
    window = _parse_window(i, raw.get("window"))
    try:
        if kind == "dia":
            noise = None
            nraw = raw.get("noise")
            if nraw:
                nkind = nraw.get("kind")
                if nkind == "gaussian":
                    noise = GaussianNoise(sigma=_number(nraw, "sigma", parent=f"{loc}.noise"))
                elif nkind == "sinusoid":
                    noise = SinusoidNoise(
                        amplitude=_number(nraw, "amplitude", parent=f"{loc}.noise"),
                        freq_hz=_number(nraw, "freq_hz", parent=f"{loc}.noise"))
                else:
                    raise ScenarioError(f"{loc}.noise.kind", f"unknown noise kind {nkind!r}")
            return DiaCombined(tap=_require(raw, "tap", str, parent=loc),
                               beta=raw.get("beta", 1.0), noise=noise, window=window)
        if kind == "control_dia":
            return ControlDia(tap=_require(raw, "tap", str, parent=loc),
                              schedule=tuple((float(t), float(v))
                                             for t, v in raw.get("schedule", [])),
                              window=window)
        if kind == "load_change":
            return LoadChange(targets=tuple(raw.get("targets", [])),
                              delta=_number(raw, "delta", parent=loc),
                              fraction=bool(raw.get("fraction", True)), window=window)
        if kind == "time_delay":
            return TimeDelay(tap=_require(raw, "tap", str, parent=loc),
                             delay=_number(raw, "delay", parent=loc), window=window)
        if kind == "dos":
            return DoS(tap=_require(raw, "tap", str, parent=loc), window=window)
        if kind == "breaker":
            return BreakerAttack(breaker=_require(raw, "breaker", str, parent=loc),
                                 schedule=tuple((float(t), a)
                                                for t, a in raw.get("schedule", [])))
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(loc, str(exc)) from exc
    raise ScenarioError(f"{loc}.type", f"unknown attack type {kind!r}")


def _check_outstations(network: NetworkConfig, grid: GridModel) -> None:
    """Every outstation must read an asset the engine's sensor lookup resolves."""
    assets = {x.id for x in (*grid.machines, *grid.loads, *grid.breakers,
                             *grid.fast_sources)}
    for i, node in enumerate(network.nodes):
        if node.app and node.app.kind == "outstation" and node.app.asset not in assets:
            raise ScenarioError(f"network.nodes[{i}].app.asset",
                                f"unknown grid asset {node.app.asset!r}")


def _check_taps(attacks, grid: GridModel, grid_doc: dict,
                network: Optional[NetworkConfig]) -> None:
    link_ids = {l.id for l in network.links} if network else set()
    plant_names = {p.name for p in grid.plants}
    for i, spec in enumerate(attacks):
        loc = f"attacks[{i}]"
        if isinstance(spec, (DiaCombined, ControlDia)):
            layer, _, channel = spec.tap.partition(":")
            if layer not in ("meas", "ctrl") or channel not in plant_names:
                raise ScenarioError(f"{loc}.tap",
                                    f"tap {spec.tap!r} does not resolve to a plant channel "
                                    f"(expected meas:<plant> or ctrl:<plant>)")
        elif isinstance(spec, (TimeDelay, DoS)):
            layer, _, link_id = spec.tap.partition(":")
            if layer != "link" or link_id not in link_ids:
                raise ScenarioError(f"{loc}.tap",
                                    f"tap {spec.tap!r} does not resolve to a network link")
        elif isinstance(spec, LoadChange):
            for target in spec.targets:
                try:
                    grid.load(target)
                except KeyError as exc:
                    raise ScenarioError(f"{loc}.targets", str(exc)) from exc
        elif isinstance(spec, BreakerAttack):
            try:
                grid.breaker(spec.breaker)
            except KeyError as exc:
                raise ScenarioError(f"{loc}.breaker", str(exc)) from exc


# ---------------------------------------------------------------------------
# Risk and metrics sections
# ---------------------------------------------------------------------------

def parse_risk(raw: dict) -> dict:
    """Risk inputs as keyword arguments of ``risk.risk``."""
    if not isinstance(raw, dict):
        raise ScenarioError("risk", "must be an object")
    prob = raw.get("probability")
    if prob not in (1, 2, 3):
        raise ScenarioError("risk.probability", f"must be 1, 2, or 3, got {prob!r}")
    try:
        priorities = (risk_mod.priorities_from_names(raw["priorities"])
                      if "priorities" in raw else risk_mod.CPES_PRIORITIES)
    except ValueError as exc:
        raise ScenarioError("risk.priorities", str(exc)) from exc
    try:
        impacts = risk_mod.impacts_from_names(_require(raw, "impacts", dict, parent="risk"))
    except (KeyError, ValueError) as exc:
        raise ScenarioError("risk.impacts", str(exc)) from exc
    try:
        thresholds = risk_mod.checked_thresholds(
            raw.get("pool_thresholds", risk_mod.DEFAULT_POOL_THRESHOLDS))
    except (TypeError, ValueError) as exc:
        raise ScenarioError("risk.pool_thresholds", str(exc)) from exc
    return {"probability": risk_mod.ThreatProbability(prob), "priorities": priorities,
            "impacts": impacts, "thresholds": thresholds}


_METRIC_KINDS = ("frequency_stability", "voltage_stability", "control", "cyber")


def _parse_metric(i: int, raw: dict) -> dict:
    loc = f"metrics[{i}]"
    kind = _require(raw, "kind", str, parent=loc)
    if kind not in _METRIC_KINDS:
        raise ScenarioError(f"{loc}.kind",
                            f"unknown metric kind {kind!r}; expected one of {_METRIC_KINDS}")
    if kind != "cyber" and not raw.get("trace"):
        raise ScenarioError(f"{loc}.trace", "physical metrics must name a trace")
    return dict(raw)


# ---------------------------------------------------------------------------
# Field helpers
# ---------------------------------------------------------------------------

def _require(doc: dict, key: str, typ, parent: str = "$"):
    if not isinstance(doc, dict) or key not in doc:
        raise ScenarioError(f"{parent}.{key}" if parent != "$" else key, "missing field")
    value = doc[key]
    if typ is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioError(f"{parent}.{key}", f"must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, typ):
        raise ScenarioError(f"{parent}.{key}",
                            f"must be {typ.__name__}, got {type(value).__name__}")
    return value


def _number(doc: dict, key: str, parent: str = "$", default=None) -> float:
    if key not in doc:
        if default is not None:
            return default
        raise ScenarioError(f"{parent}.{key}", "missing field")
    value = doc[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{parent}.{key}", f"must be a number, got {value!r}")
    return float(value)


def _positive(doc: dict, key: str, parent: str = "$") -> float:
    value = _number(doc, key, parent)
    if value <= 0:
        raise ScenarioError(f"{parent}.{key}", f"must be > 0, got {value}")
    return value
