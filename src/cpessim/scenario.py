"""Declarative scenario documents: schema, parsing, and cross-validation.

A scenario is one JSON document with sections {meta, grid, network?, attacks,
threat?, risk?, metrics, seed}.  Parsing is strict: every error is a
``ScenarioError`` that names the offending field, so the CLI can report it and
exit with the input-error code.  This module reads every input document: the
scenario with its ``threat`` and ``risk`` sections, the files ``cpessim threat
validate`` and ``cpessim risk`` take, and an export's ``events.json``.  Two
rules hold for every object read here:

- a key the object does not define is rejected as ``<path>.<key>: unknown
  field``, and every value must have its field's JSON type;
- an absent optional key takes the default of the model dataclass it fills
  (``physical``, ``network``, ``attacks`` and this module's own); the parser
  holds none of those defaults itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Optional

from . import risk as risk_mod
from . import threat_model as tm
from .attacks import (AttackSpec, AttackWindow, BreakerAttack, ControlDia, DiaCombined,
                      DoS, GaussianNoise, LoadChange, SinusoidNoise, TimeDelay)
from .network import (DEFAULT_MESSAGE_BYTES, AppConfig, NetLink, NetNode, NodeRole,
                      min_hop_path)
from .physical import (MAX_SWING_DT, Breaker, FastSource, FrequencyProtection,
                       Governor, GridModel, Load, LtiPlant, Machine, NodalBoundary,
                       PlantFieldError, SingularBoundaryError, TdSource, TdSystemConfig,
                       demand_total, event_schedule, float_sum, nodal_solve)

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Document problem at a field path; its text starts with the file, once known."""

    def __init__(self, location: str, message: str, file=None):
        self.location, self.message = location, message
        super().__init__(("" if file is None else f"{file}: ") + f"{location}: {message}")


@dataclass
class NetworkConfig:
    nodes: list[NetNode] = field(default_factory=list)
    links: list[NetLink] = field(default_factory=list)
    poll_period: float = 0.1  # s; 0 turns polling off
    poll_start: float = 0.0
    message_bytes: int = DEFAULT_MESSAGE_BYTES
    commands: list[dict] = field(default_factory=list)  # {t, asset, action}


@dataclass
class Scenario:
    name: str
    horizon: float
    dt_phys: float
    grid: dict                           # raw grid section (engine builds fresh models)
    network: Optional[NetworkConfig]
    attacks: list[AttackSpec]
    risk_inputs: Optional[dict]
    metrics_requested: list[dict]
    doc: dict                            # canonical source document
    seed: int = 0

    def build_grid(self) -> GridModel:
        return build_grid(self.grid)


def scenario_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def read_json(path, parse=lambda doc: doc):
    """The JSON document in the file at ``path``, through ``parse``.  Invalid
    JSON fails at ``$``; every ``ScenarioError`` names the file."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise ScenarioError("$", f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                                 f"{exc.msg}", path) from exc
    except ScenarioError as exc:
        raise ScenarioError(exc.location, exc.message, path) from exc


def load_scenario(path) -> Scenario:
    return read_json(path, scenario_from_dict)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("$", "scenario must be a JSON object")
    _check_version(doc, "", SCHEMA_VERSION)
    _check_keys(doc, "", "schema_version meta grid network attacks threat risk metrics seed")

    meta = _value(doc, "", "meta", "dict")
    _check_keys(meta, "meta", "name description horizon dt_phys")
    name = _value(meta, "meta", "name", "str", convert=_file_name)  # `run --batch` dir
    _value(meta, "meta", "description", "str", None)  # checked; nothing reads it
    horizon = _value(meta, "meta", "horizon", "float", convert=_positive)
    dt_phys = _value(meta, "meta", "dt_phys", "float", convert=_positive)
    if dt_phys > MAX_SWING_DT:
        raise ScenarioError("meta.dt_phys", f"must be <= {MAX_SWING_DT} s (swing "
                                            f"integrator limit), got {dt_phys}")

    grid_doc = _value(doc, "", "grid", "dict")
    grid = build_grid(grid_doc)  # validates; engine rebuilds per run

    network = None
    if doc.get("network") is not None:
        network = _parse_network(doc["network"])
        _check_network(network, grid)

    attacks = _value(doc, "", "attacks", "list", [],
                     _each("attacks", lambda loc, raw: _parse_attack(loc, raw, grid)))
    _check_taps(attacks, grid, network)

    if doc.get("threat") is not None:  # checked; nothing reads it after load
        violations = tm.validate(parse_threat(doc["threat"], "threat"))
        if violations:
            raise ScenarioError("threat", "; ".join(violations))

    risk_inputs = None
    if doc.get("risk") is not None:
        risk_inputs = parse_risk(doc["risk"])

    metrics_requested = _value(doc, "", "metrics", "list", [], _each("metrics", _parse_metric))
    seed = _value(doc, "", "seed", "int", Scenario.seed)

    return Scenario(name=name, horizon=horizon, dt_phys=dt_phys, grid=grid_doc,
                    network=network, attacks=attacks, risk_inputs=risk_inputs,
                    metrics_requested=metrics_requested, seed=seed, doc=doc)


# ---------------------------------------------------------------------------
# Grid section
# ---------------------------------------------------------------------------

def build_grid(grid_doc: dict) -> GridModel:
    """Validate a grid section and build its models at the start-up operating
    point: the slack machine covers the demand (plus the nominal distribution
    demand of a T&D system, whose boundary transfer must be positive) that the
    other setpoints leave, and a lone machine with its PCC open or absent
    carries the demand net of the plants' base injection."""
    _check_keys(grid_doc, "grid", "f_nom unit s_base_kw p_loss machines loads fast_sources "
                                  "breakers plants protection contingencies pcc_breaker td_system")
    unit = _value(grid_doc, "grid", "unit", "str", "pu")
    if unit not in ("pu", "kW"):
        raise ScenarioError("grid.unit", f'must be "pu" or "kW", got {unit!r}')
    if unit == "pu" and "s_base_kw" in grid_doc:
        raise ScenarioError("grid.s_base_kw", 'only a "kW" grid reads it')
    s_base_kw = _value(grid_doc, "grid", "s_base_kw", "float", 1000.0, _positive)
    to_pu = (lambda v: v / s_base_kw) if unit == "kW" else float
    f_nom = _value(grid_doc, "grid", "f_nom", "float", GridModel.f_nom, _positive)
    omega = 2 * math.pi * f_nom

    def machine(loc, raw):
        return _read(Machine, raw, loc, "id inertia_const p_mech v_internal v_recv reactance "
                                        "damping governor",
                     id=_file_name, inertia_const=_positive, p_mech=to_pu, omega=omega,
                     omega_sync=omega,
                     governor=lambda g: _read(Governor, g, f"{loc}.governor",
                                              "gain deadband time_constant min_boost max_boost",
                                              time_constant=_non_negative))

    def section(key, read):
        return _value(grid_doc, "grid", key, "list", [], _each(f"grid.{key}", read))

    machines = section("machines", machine)
    if not machines:
        raise ScenarioError("grid.machines", "scenario needs at least one machine")
    loads = section("loads", lambda loc, raw: _read(
        Load, raw, loc, "id demand:base_demand sheddable", id=_file_name, base_demand=to_pu))
    fast_sources = section("fast_sources", lambda loc, raw: _read(
        FastSource, raw, loc, "id gain max_power time_constant", max_power=to_pu,
        time_constant=_non_negative))
    breakers = section("breakers", lambda loc, raw: _read(Breaker, raw, loc, "id closed schedule",
                                                          id=_file_name, schedule=event_schedule))
    plants = [_read(LtiPlant, raw, f"grid.plants[{i}]", "name G B C control_matrix noise_std "
                    "x0:x u0:u operating_point power_base power_gain",
                    name=_file_name if isinstance(raw, dict) and "name" in raw else f"plant{i}")
              for i, raw in enumerate(_value(grid_doc, "grid", "plants", "list", []))]
    for kind, items, key in (("machines", machines, "id"), ("loads", loads, "id"),
                             ("breakers", breakers, "id"), ("fast_sources", fast_sources, "id"),
                             ("plants", plants, "name")):
        _check_unique(f"grid.{kind}", [getattr(x, key) for x in items], key)

    p_loss = _value(grid_doc, "grid", "p_loss", "float", GridModel.p_loss, to_pu)
    grid = GridModel(f_nom=f_nom, machines=machines, loads=loads, breakers=breakers,
                     plants=plants, fast_sources=fast_sources, p_loss=p_loss,
                     protection=build_protection(grid_doc))
    grid.td_system = td_cfg = _value(grid_doc, "grid", "td_system", "dict", None,
                                     lambda raw: _parse_td_system(raw, grid))
    for key in ("plants", "fast_sources", "pcc_breaker"):
        if grid_doc.get(key) and (len(machines) > 1 or td_cfg is not None):
            raise ScenarioError(f"grid.{key}", "only the single-machine aggregate tier "
                                               "reads it")

    def contingency(loc, raw):
        _check_keys(raw, loc, "t machine")
        return (_value(raw, loc, "t", "float", convert=_finite),
                _value(raw, loc, "machine", "str", convert=contingency_machine))

    def contingency_machine(machine_id):
        if len(machines) == 1:  # the aggregate tier would swing on without generation
            raise ValueError(f"the grid's only machine {machine_id!r} cannot be disconnected")
        return grid.machine(machine_id).id

    grid.contingencies = section("contingencies", contingency)
    grid.pcc = _value(grid_doc, "grid", "pcc_breaker", "str", None, grid.breaker)
    if td_cfg is not None:
        balance_slack(grid, demand_total(grid) + td_cfg.dist_demand)
        td_operating_point(td_cfg, grid.breaker(td_cfg.feeder_breaker).closed)
    elif len(machines) > 1:
        balance_slack(grid, demand_total(grid))
    elif grid.pcc is None or not grid.pcc.closed:
        machines[0].p_mech = demand_total(grid) - float_sum(p.power_base for p in plants)
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
    total_pm = float_sum(m.p_mech for m in machines)
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
    i1 = float_sum(g * s.emf for g, s in zip(g_src, cfg.sources))
    try:
        v1, v2 = nodal_solve(NodalBoundary(float_sum(g_src) + g_f, -g_f,
                                           -g_f, g_f + cfg.load_conductance), i1, 0.0)
    except SingularBoundaryError as exc:
        raise ScenarioError("grid.td_system", f"no DC operating point: {exc}") from None
    i_src = [g * (s.emf - v1) for g, s in zip(g_src, cfg.sources)]
    i_f = (v1 - v2) / cfg.feeder_r
    if v1 * i_f <= 0:
        raise ScenarioError("grid.td_system", "nominal boundary transfer must be > 0")
    return v1, v2, i_src, i_f


def build_protection(grid_doc: dict) -> FrequencyProtection:
    """Frequency-protection bands of a grid section, without building the grid."""
    return _read(FrequencyProtection, _value(grid_doc, "grid", "protection", "dict", {}),
                 "grid.protection", "governor_deadband shed_low shed_high underfreq_trip "
                 "overfreq_trip",
                 f_nom=_value(grid_doc, "grid", "f_nom", "float", GridModel.f_nom))


def _parse_td_system(raw: dict, grid: GridModel) -> TdSystemConfig:
    return _read(TdSystemConfig, raw, "grid.td_system", "sources feeder_breaker feeder_r "
                 "feeder_l shunt_c load_conductance dist_demand pcc_shunt_c power_filter",
                 sources=_each("grid.td_system.sources", lambda loc, src: _read(
                     TdSource, src, loc, "machine emf r l", r=_positive, l=_positive,
                     machine=lambda m: grid.machine(m).id)),
                 feeder_breaker=lambda b: grid.breaker(b).id,
                 feeder_r=_positive, feeder_l=_positive, shunt_c=_positive,
                 load_conductance=_positive, pcc_shunt_c=_non_negative,
                 power_filter=_non_negative)


# ---------------------------------------------------------------------------
# Network section
# ---------------------------------------------------------------------------

def _parse_network(raw: dict) -> NetworkConfig:
    net = _read(NetworkConfig, raw, "network", "nodes links poll_period poll_start "
                "message_bytes commands", nodes=_each("network.nodes", _parse_node),
                links=_each("network.links", _parse_link),
                commands=_each("network.commands", _parse_command),
                poll_period=lambda v: _non_negative(_finite(v)), poll_start=_non_negative,
                message_bytes=_positive)
    _check_unique("network.nodes", [n.id for n in net.nodes], "id")
    _check_unique("network.links", [l.id for l in net.links], "id")
    return net


def _parse_node(loc: str, raw: dict) -> NetNode:
    return _read(NetNode, raw, loc, "id role app processing_delay_ms:processing_delay",
                 role=NodeRole, processing_delay=_ms,
                 app=lambda app: _read(AppConfig, app, f"{loc}.app", "kind asset"))


def _parse_link(loc: str, raw: dict) -> NetLink:
    return _read(NetLink, raw, loc, "id a b bandwidth_mbps:bandwidth prop_delay_ms:prop_delay "
                 "jitter_ms:jitter loss_rate",
                 bandwidth=lambda mbps: _positive(mbps) * 1e6, prop_delay=_ms,
                 jitter=lambda ms: _ms(_finite(ms)), loss_rate=_probability)


_COMMAND_TARGETS = {"shed": "load", "unshed": "load",
                    "open_breaker": "breaker", "close_breaker": "breaker"}


def _parse_command(loc: str, raw: dict) -> dict:
    _check_keys(raw, loc, "t asset action")
    action = _value(raw, loc, "action", "str")
    if action not in _COMMAND_TARGETS:
        raise ScenarioError(f"{loc}.action", f"unknown action {action!r}")
    return {"t": _value(raw, loc, "t", "float", convert=_non_negative),
            "asset": _value(raw, loc, "asset", "str"), "action": action}


# ---------------------------------------------------------------------------
# Attacks section
# ---------------------------------------------------------------------------

_ATTACKS = {"dia": (DiaCombined, "tap beta noise window"),
            "control_dia": (ControlDia, "tap schedule window"),
            "load_change": (LoadChange, "targets delta fraction window"),
            "time_delay": (TimeDelay, "tap delay window"),
            "dos": (DoS, "tap window"),
            "breaker": (BreakerAttack, "breaker schedule")}
_NOISES = {"gaussian": (GaussianNoise, "sigma"), "sinusoid": (SinusoidNoise, "amplitude freq_hz")}


def _parse_attack(loc: str, raw: dict, grid: GridModel) -> AttackSpec:
    return _tagged(_ATTACKS, "type", loc, raw, window=AttackWindow,
                   noise=lambda noise: _tagged(_NOISES, "kind", f"{loc}.noise", noise),
                   targets=lambda ids: [grid.load(i).id for i in ids],
                   breaker=lambda b: grid.breaker(b).id, schedule=event_schedule)


def _tagged(table: dict, tag: str, loc: str, raw: dict, **parsed):
    """Read the object whose ``tag`` key picks its (class, keys) in ``table``."""
    kind = _value(raw, loc, tag, "str")
    if kind not in table:
        raise ScenarioError(f"{loc}.{tag}", f"unknown {tag} {kind!r}; expected one of "
                                            f"{tuple(table)}")
    cls, keys = table[kind]
    return _read(cls, raw, loc, f"{tag} {keys}", **parsed)


def _check_network(net: NetworkConfig, grid: GridModel) -> None:
    """The topology must route every packet the run sends: each link joins
    two different known nodes, once; each endpoint has a link; the one master,
    bound to no asset, reaches every outstation; each outstation is bound to
    its own known grid asset; and each command goes to a bound outstation,
    with an action that fits its asset's kind (a load's shed or unshed, a
    breaker's open or close) and, for a shed, a sheddable load."""
    adjacency = {n.id: [] for n in net.nodes}
    for i, link in enumerate(net.links):
        for end in "ab":
            if getattr(link, end) not in adjacency:
                raise ScenarioError(f"network.links[{i}].{end}",
                                    f"unknown node {getattr(link, end)!r}")
        if link.a == link.b:
            raise ScenarioError(f"network.links[{i}]", f"link joins {link.a!r} to itself")
        if link.b in adjacency[link.a]:
            raise ScenarioError(f"network.links[{i}]",
                                f"parallel link between {link.a!r} and {link.b!r}")
        adjacency[link.a].append(link.b)
        adjacency[link.b].append(link.a)

    masters = [n.id for n in net.nodes if n.app and n.app.kind == "master"]
    kinds = {"load": {x.id for x in grid.loads}, "breaker": {x.id for x in grid.breakers}}
    sheddable = {x.id for x in grid.loads if x.sheddable}
    assets = {x.id for x in (*grid.machines, *grid.fast_sources)}.union(*kinds.values())
    bound = {}  # asset -> the outstation that reads it
    for i, node in enumerate(net.nodes):
        loc = f"network.nodes[{i}]"
        if node.role is NodeRole.ENDPOINT and not adjacency[node.id]:
            raise ScenarioError(loc, f"endpoint {node.id!r} has no links")
        if node.app is None:
            continue
        if node.role is not NodeRole.ENDPOINT:
            raise ScenarioError(f"{loc}.app", "apps run only on endpoints")
        if node.app.kind == "master" and node.id != masters[0]:
            raise ScenarioError(f"{loc}.app", f"second master; {masters[0]!r} is the master")
        if node.app.kind == "master" and node.app.asset is not None:
            raise ScenarioError(f"{loc}.app.asset", "a master app is bound to no grid asset")
        if node.app.kind == "outstation":
            asset = node.app.asset
            if asset not in assets:
                raise ScenarioError(f"{loc}.app.asset", f"unknown grid asset {asset!r}")
            if asset in bound:
                raise ScenarioError(f"{loc}.app.asset", f"asset {asset!r} is already "
                                                        f"bound to outstation {bound[asset]!r}")
            bound[asset] = node.id
        if masters:  # a network without a master sends nothing
            try:
                min_hop_path(adjacency, masters[0], node.id)
            except ValueError as exc:
                raise ScenarioError(loc, str(exc)) from exc
    for i, cmd in enumerate(net.commands):
        if not masters:
            raise ScenarioError(f"network.commands[{i}]", "commands need a master app")
        if cmd["asset"] not in bound:
            raise ScenarioError(f"network.commands[{i}].asset",
                                f"no outstation is bound to asset {cmd['asset']!r}")
        kind = _COMMAND_TARGETS[cmd["action"]]
        if cmd["asset"] not in kinds[kind]:
            raise ScenarioError(f"network.commands[{i}].action",
                                f"{cmd['action']!r} needs a {kind}; "
                                f"{cmd['asset']!r} is not one")
        if cmd["action"] == "shed" and cmd["asset"] not in sheddable:
            raise ScenarioError(f"network.commands[{i}].asset",
                                f"load {cmd['asset']!r} is not sheddable")


def _check_taps(attacks, grid: GridModel, network: Optional[NetworkConfig]) -> None:
    link_ids = {l.id for l in network.links} if network else set()
    plant_taps = set()
    for i, spec in enumerate(attacks):
        loc = f"attacks[{i}].tap"
        if isinstance(spec, (DiaCombined, ControlDia)):
            layer = "meas" if isinstance(spec, DiaCombined) else "ctrl"
            if spec.tap not in {f"{layer}:{p.name}" for p in grid.plants}:
                raise ScenarioError(loc, f"tap {spec.tap!r} does not resolve to a plant "
                                         f"channel (expected {layer}:<plant>)")
            if spec.tap in plant_taps:
                raise ScenarioError(loc, f"second attack on tap {spec.tap!r}")
            plant_taps.add(spec.tap)
        elif isinstance(spec, (TimeDelay, DoS)):
            layer, _, link_id = spec.tap.partition(":")
            if layer != "link" or link_id not in link_ids:
                raise ScenarioError(loc, f"tap {spec.tap!r} does not resolve to a network link")


# ---------------------------------------------------------------------------
# Threat, risk and metrics sections
# ---------------------------------------------------------------------------

def parse_threat(raw: dict, loc: str) -> tm.ThreatModel:
    """The threat model document at ``loc``: a scenario's ``threat`` section,
    or, at the empty ``loc``, the file ``cpessim threat validate`` takes.
    Every attribute is a non-empty list of its enum's values."""
    _check_version(raw, loc, tm.SCHEMA_VERSION)

    def section(cls, key, enums):
        return lambda raw: _read(cls, raw, _at(loc, key), " ".join(enums),
                                 **{name: _members(e) for name, e in enums.items()})

    return _read(tm.ThreatModel, raw, loc, "schema_version name adversary attack notes",
                 name=_non_empty, adversary=section(tm.AdversaryModel, "adversary",
                                                    tm.ADVERSARY_FIELDS),
                 attack=section(tm.AttackModel, "attack", tm.ATTACK_FIELDS))


def parse_risk(raw: dict, named: bool = False) -> dict:
    """Risk inputs at ``risk`` as keyword arguments of ``risk.risk``.  A
    ``named`` document, the file ``cpessim risk`` takes, may also give the
    report's ``name``."""
    _check_keys(raw, "risk", "probability priorities impacts pool_thresholds" + " name" * named)

    def per_objective(key, cls, typ, convert=None):
        def read(values):
            _check_keys(values, f"risk.{key}", [obj.value for obj in risk_mod.OBJECTIVES])
            return cls({obj: _value(values, f"risk.{key}", obj.value, typ, convert=convert)
                        for obj in risk_mod.OBJECTIVES})
        return read

    inputs = {"probability": _value(raw, "risk", "probability", "int",
                                    convert=risk_mod.ThreatProbability),
              "priorities": _value(raw, "risk", "priorities", "dict", risk_mod.CPES_PRIORITIES,
                                   per_objective("priorities", risk_mod.PrioritySet, "int")),
              "impacts": _value(raw, "risk", "impacts", "dict", convert=per_objective(
                  "impacts", risk_mod.ImpactVector, None, _impact)),
              "thresholds": _value(raw, "risk", "pool_thresholds", "list",
                                   risk_mod.DEFAULT_POOL_THRESHOLDS, _thresholds)}
    if named:
        inputs["name"] = _value(raw, "risk", "name", "str", "")
    return inputs


def parse_events(raw: dict) -> list:
    """The event log of an export's ``events.json``."""
    _check_keys(raw, "", "events attack_samples")
    return _value(raw, "", "events", "list")


_METRIC_KEYS = {"frequency_stability": "trace", "voltage_stability": "trace limits",
                "control": "trace command band_pct", "cyber": ""}


def _parse_metric(loc: str, raw: dict) -> dict:
    kind = _value(raw, loc, "kind", "str")
    if kind not in _METRIC_KEYS:
        raise ScenarioError(f"{loc}.kind", f"unknown metric kind {kind!r}; expected one "
                                           f"of {tuple(_METRIC_KEYS)}")
    _check_keys(raw, loc, "kind " + _METRIC_KEYS[kind])
    if kind != "cyber":  # `cpessim metrics` reads traces/<trace>.csv
        _value(raw, loc, "trace", "str", convert=_file_name)
    if kind == "control":
        _value(raw, loc, "command", "float")
        _value(raw, loc, "band_pct", "float", None, _positive)
    elif kind == "voltage_stability":
        _value(raw, loc, "limits", "list", None, _limits)
    return dict(raw)


# ---------------------------------------------------------------------------
# Field readers
# ---------------------------------------------------------------------------

_JSON_TYPES = {"float": ((int, float), "a number"), "int": (int, "an integer"),
               "str": (str, "a string"), "bool": (bool, "a boolean"),
               "list": (list, "a list"), "tuple": (list, "a list"),
               "frozenset": (list, "a list"), "dict": (dict, "an object")}
_REQUIRED = object()


def _read(cls, doc: dict, loc: str, keys: str, **parsed):
    """Build the model dataclass ``cls`` from the JSON object ``doc`` at ``loc``.

    ``keys`` lists, space-separated, every key ``doc`` may hold; ``key:field``
    fills a field of another name, and a key that fills no field is the
    caller's to read.  Each field's key must have the JSON type of the field's
    annotation (``float`` takes an int but not a bool, a ``list``, ``tuple``
    or ``frozenset`` takes a JSON list).  A callable in ``parsed`` converts the
    key's value and may reject it with a ``ValueError`` (or the ``KeyError`` of
    a grid lookup); any other value in ``parsed`` stands in for an absent key
    or fills a field that has no key.  Otherwise an absent key leaves the field
    its dataclass default.  Init-only fields (``LtiPlant.G``) count as fields,
    and annotations are read as text: the model modules postpone their
    evaluation.
    """
    fields = {f.name: f for f in cls.__dataclass_fields__.values() if f.init}
    keys = {key: name or key for key, _, name in (e.partition(":") for e in keys.split())}
    _check_keys(doc, loc, keys)
    kwargs = {name: v for name, v in parsed.items() if name in fields and not callable(v)}
    for key, name in keys.items():
        f = fields.get(name)
        if f is None:
            continue
        if key in doc:
            convert = parsed.get(name)
            kwargs[name] = _value(doc, loc, key, f.type.partition("[")[0],
                                  convert=convert if callable(convert) else None)
        elif name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ScenarioError(_at(loc, key), "missing field")
    try:
        return cls(**kwargs)
    except PlantFieldError as exc:  # located at the key that fills the field
        key = next((k for k, name in keys.items() if name == exc.field), exc.field)
        raise ScenarioError(f"{loc}.{key}", str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(loc, str(exc)) from exc


def _value(doc: dict, loc: str, key: str, typ: Optional[str], default=_REQUIRED,
           convert=None):
    """``doc[key]`` checked against the JSON type named ``typ`` (a key of
    ``_JSON_TYPES``; any other name checks nothing) and passed through
    ``convert``; ``default`` when the key is absent."""
    where = _at(loc, key)
    if not isinstance(doc, dict):
        raise ScenarioError(loc or "$", "must be an object")
    if key not in doc:
        if default is _REQUIRED:
            raise ScenarioError(where, "missing field")
        return default
    value = doc[key]
    if typ in _JSON_TYPES:
        pytype, what = _JSON_TYPES[typ]
        if not isinstance(value, pytype) or (isinstance(value, bool) and typ != "bool"):
            raise ScenarioError(where, f"must be {what}, got {value!r}")
        if typ == "float":
            value = float(value)
            if math.isnan(value):  # JSON's NaN; infinity stays, e.g. an unbounded cap
                raise ScenarioError(where, "must be a number, got NaN")
    if convert is None:
        return value
    try:
        return convert(value)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # KeyError: an unknown grid id
        raise ScenarioError(where, str(exc)) from exc


def _check_keys(doc: dict, loc: str, keys) -> None:
    """Reject a ``doc`` that is not an object or holds a key not in ``keys``."""
    if not isinstance(doc, dict):
        raise ScenarioError(loc or "$", "must be an object")
    allowed = keys.split() if isinstance(keys, str) else keys
    for key in doc:
        if key not in allowed:
            raise ScenarioError(_at(loc, key), "unknown field")


def _check_version(doc: dict, loc: str, expected: int) -> None:
    version = _value(doc, loc, "schema_version", None)
    if version != expected:
        raise ScenarioError(_at(loc, "schema_version"), f"expected {expected}, got {version!r}")


def _at(loc: str, key: str) -> str:
    """Path of ``key`` inside the object at ``loc`` (the document when empty)."""
    return f"{loc}.{key}" if loc else key


def _each(loc: str, read):
    """Converter of a JSON list: ``read(f"{loc}[i]", item)`` for every item."""
    return lambda items: [read(f"{loc}[{i}]", item) for i, item in enumerate(items)]


def _positive(value):
    if not value > 0:
        raise ValueError(f"must be > 0, got {value}")
    return value


def _non_negative(value):
    if not value >= 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _probability(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"must be in [0, 1], got {value}")
    return value


def _finite(value: float) -> float:
    """Reject infinity: no event fires there; a period or jitter there breaks the event times."""
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _file_name(value: str) -> str:
    """A name that becomes part of an exported path (a trace file, a batch
    run's directory), or names a trace file to read back, must stay one
    plain path component."""
    if value in ("", ".", "..") or any(c in value for c in "/\\\0"):
        raise ValueError(f"must be one plain path component: no '/', '\\' or NUL, "
                         f"and not '', '.' or '..', got {value!r}")
    return value


def _ms(value: float) -> float:
    """A non-negative time in milliseconds, in seconds."""
    return _non_negative(value) * 1e-3


def _limits(value: list) -> list:
    if len(value) != 2 or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                  for v in value) or not value[0] < value[1]:
        raise ValueError(f"must be two numbers [lo, hi] with lo < hi, got {value!r}")
    return value


def _non_empty(value: str) -> str:
    if not value:
        raise ValueError("must not be empty")
    return value


def _members(enum_cls):
    """Converter of a non-empty JSON list of ``enum_cls`` values to a frozenset."""
    def convert(values: list) -> frozenset:
        if not values:
            raise ValueError("must be a non-empty list")
        return frozenset(map(enum_cls, values))
    return convert


def _impact(value) -> "risk_mod.Impact":
    """``"low"``, ``"medium"`` or ``"high"`` in any case, or the level 1-3."""
    if isinstance(value, str) and value.upper() in risk_mod.Impact.__members__:
        return risk_mod.Impact[value.upper()]
    if type(value) is int and value in (1, 2, 3):
        return risk_mod.Impact(value)
    raise ValueError(f'must be "low", "medium", "high" or an integer 1-3, got {value!r}')


def _thresholds(values: list) -> tuple[int, int, int]:
    if not all(type(v) is int for v in values):
        raise ValueError(f"must be a list of integers, got {values!r}")
    return risk_mod.checked_thresholds(values)
