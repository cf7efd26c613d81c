"""Co-simulation engine: one virtual clock over the physical solver and the
event-driven network.

The coupling runs one way.  An outstation's report carries no grid value, and
every network event is pushed at start-up or inside a dispatch, so the
network's whole run depends only on its config and its own RNG stream.  It is
therefore run once, to the horizon, before the first step, and the grid sees
it only through the commands it delivers.  If an outstation ever reports a
grid value, this design must change: the network would then have to be
dispatched step by step alongside the grid.

Each macro-step of ``dt_phys`` applies its boundary (the commands delivered
during the previous step, then the breaker actions, contingencies and
load-attack window edges), all resolved to steps when the run is built, and
advances the physical models.

Each step's row is written by the tier's ``record(rows)``: the system
frequency, then the tier's own columns.  Loads, breakers and sheds change only
at a boundary, where the total demand is summed; these held columns are kept
as one ``(first row, values)`` stretch from the start and one from each
boundary, and written into the trace matrix once the run ends.  One RNG stream
per subsystem is derived from the master seed by fixed labels, so attaching a
network never perturbs the physical noise draws.

A step is a pure function of the tier's ``state()`` (every float it carries to
the next step, the load angle as the Newton guess among them), the held demand
and the held grid; plant loops, whose noise and attacks change every step, make
the aggregate tier give ``None``, and it is never checked.  Every
``CHECK_EVERY`` steps the loop compares the state before and after one step,
bit for bit.  If they match, every step up to the next boundary repeats that
step's row: the rows are copied and the loop goes on at that boundary.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
import os
import tempfile
from array import array
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import risk as risk_mod
from .attacks import (BreakerAttack, ControlDia, DiaCombined, LoadChange,
                      apply_control_dia, apply_dia, apply_load_change)
from .metrics import (MetricReport, TimeSeries, control_metrics, csv_time_cells,
                      cyber_metrics, frequency_stability, voltage_stability)
from .network import NetworkSim, log_entry
from .physical import (GridModel, NodalBoundary, demand_total, disconnect_machine,
                       group_step, lti_step, nodal_solve, protection_changes,
                       protection_check, solve_load_angle, swing_step)
from .scenario import (Scenario, ScenarioError, build_protection, scenario_hash,
                       td_operating_point)

CHECK_EVERY = 32  # steps from one fixed-point check to the next
MANIFEST_SCHEMA = 2  # traces/<name>.csv holds "t,<name>" rows; the manifest keeps the units


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent deterministic stream for (seed, label)."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF] + list(label.encode())
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass
class RunResult:
    scenario_name: str
    seed: int
    traces: dict[str, TimeSeries]
    event_log: list[dict]
    attack_samples: list[dict]
    metric_reports: list[MetricReport]
    risk_report: Optional[risk_mod.RiskReport]
    manifest: dict


def run(sc: Scenario, seed: Optional[int] = None) -> RunResult:
    """Execute one scenario deterministically; returns traces, logs, and reports."""
    return _Run(sc, seed).execute()


def run_many(scenarios) -> list[RunResult]:
    """Execute scenarios one after another; every run is fully isolated."""
    return [run(sc) for sc in scenarios]


class _Run:
    """Clock, boundary events, network glue and the traces every tier shares."""

    def __init__(self, sc: Scenario, seed: Optional[int]):
        self.sc = sc
        self.seed = sc.seed if seed is None else seed
        self.dt = sc.dt_phys
        self.grid: GridModel = sc.build_grid()
        self.log: list[dict] = []  # the boundary events, in the order they apply
        self.attack_samples: list[dict] = []
        self.n_steps = int(round(sc.horizon / self.dt))
        self._topology_dirty = False

        self.load_attacks = [a for a in sc.attacks if isinstance(a, LoadChange)]
        self._attacked_loads = list({target: self.grid.load(target) for spec in
                                     self.load_attacks for target in spec.targets}.values())

        # physical tier
        if self.grid.td_system is not None:
            self.tier = _TdTier(self.grid, self.dt)
        elif len(self.grid.machines) > 1:
            self.tier = _MultiMachineTier(self.grid, self.dt)
        else:  # build_grid rejects a grid without machines
            self.tier = _AggregateTier(sc, self.grid, self.dt, self.n_steps, self.seed,
                                       self.attack_samples)

        # trace columns, fixed for the run: the frequency and the tier's columns
        # are recorded every step, the others held from one boundary to the next
        self._shed_loads = [load for load in self.grid.loads if load.sheddable]
        tier_columns = self.tier.columns()
        columns = [("freq", "Hz"), ("demand_total", "pu"), *tier_columns,
                   *[(f"breaker_{b.id}", "state") for b in self.grid.breakers],
                   *[(f"shed_{load.id}", "state") for load in self._shed_loads]]
        self.trace_names = [name for name, _ in columns]
        self.trace_units = [unit for _, unit in columns]
        self._step_traces = [0, *range(2, 2 + len(tier_columns))]
        self._held_traces = [1, *range(2 + len(tier_columns), len(columns))]
        self._rows = array("d")  # the step columns row after row
        for i, req in enumerate(sc.metrics_requested):
            if req["kind"] != "cyber" and req["trace"] not in self.trace_names:
                raise ScenarioError(f"metrics[{i}].trace",
                                    f"trace {req['trace']!r} not produced by this "
                                    f"scenario (have {sorted(self.trace_names)})")

        # the network's whole run, to the end of the last step, ahead of the
        # grid (see the module docstring)
        self.net_log: list[dict] = []
        self.commands: list[tuple[float, str, str]] = []  # (dispatch time, asset, action)
        if sc.network is not None:
            cfg = sc.network
            net = NetworkSim(cfg.nodes, cfg.links, rng=rng_for(self.seed, "net"),
                             message_bytes=cfg.message_bytes)
            net.attach_attacks(sc.attacks)
            net.start_polling(cfg.poll_period, cfg.poll_start)
            for cmd in cfg.commands:  # scenario load ensures a master sends them
                net.push(cmd["t"], partial(net.send_command, cmd["asset"], cmd["action"]))
            net.run_until(self.n_steps * self.dt)
            self.net_log, self.commands = net.log, net.commands

    # -- grid/network glue ----------------------------------------------------

    def _apply_command(self, asset: str, action: str, t: float) -> None:
        if action in ("open_breaker", "close_breaker"):
            self._set_breaker(self.grid.breaker(asset), action == "close_breaker", t)
        else:  # shed or unshed; scenario load ensures a shed load is sheddable
            self.grid.load(asset).shed = action == "shed"
            self.log.append(log_entry(t, "command_applied", asset, None, {"action": action}))

    def _set_breaker(self, breaker, closed: bool, t: float) -> None:
        if breaker.closed == closed:
            return
        breaker.closed = closed
        self._topology_dirty = True
        self.log.append(log_entry(t, "breaker", breaker.id, None,
                                  {"action": "close" if closed else "open"}))

    def _disconnect(self, machine, t: float) -> None:
        if machine.connected:
            disconnect_machine(machine)
            self._topology_dirty = True
            self.log.append(log_entry(t, "contingency", machine.id, None, {"action": "disconnect"}))

    def _boundary_schedule(self) -> dict[int, list]:
        """Step index -> the scheduled actions due at it, called with its time:
        the commands delivered during the step before, in arrival order, then
        breaker actions in time order (at equal t, breakers in grid order, each
        one's own schedule before the ``breaker`` attacks on it, in list order),
        contingencies in time order, then all load attacks again if a window
        edge falls in the step.  A command delivered at t fires at the first
        step k with k*dt > t, an action or contingency at t at the first k with
        t <= k*dt + 1e-12, a window edge at the first k with edge <= k*dt."""
        grid, dt, steps = self.grid, self.dt, range(self.n_steps)
        timed = sorted([(t, partial(self._set_breaker, b, action == "close"))
                        for b in grid.breakers
                        for sched in [b.schedule, *(a.schedule for a in self.sc.attacks if
                                                    isinstance(a, BreakerAttack) and
                                                    a.breaker == b.id)]
                        for t, action in sched], key=lambda e: e[0])
        timed += sorted([(t, partial(self._disconnect, grid.machine(machine_id)))
                         for t, machine_id in grid.contingencies], key=lambda e: e[0])
        schedule: dict[int, list] = {}
        for t, asset, action in self.commands:
            k = bisect.bisect_right(steps, t, key=lambda k: k * dt)
            schedule.setdefault(k, []).append(partial(self._apply_command, asset, action))
        for t, action in timed:
            k = bisect.bisect_left(steps, t, key=lambda k: k * dt + 1e-12)
            schedule.setdefault(k, []).append(action)
        edges = {bisect.bisect_left(steps, edge, key=lambda k: k * dt)
                 for spec in self.load_attacks for iv in spec.window.intervals for edge in iv}
        for k in edges - {0}:  # the load attacks hold at t = 0 from the start
            schedule.setdefault(k, []).append(self._apply_load_attacks)
        schedule.pop(self.n_steps, None)  # due at no step of the run
        return schedule

    # -- main loop ------------------------------------------------------------

    def execute(self) -> RunResult:
        sc = self.sc
        n_steps, dt, grid = self.n_steps, self.dt, self.grid
        step, record, rows = self.tier.step, self.tier.record, self._rows
        apply_boundary = self._apply_boundary
        schedule = self._boundary_schedule()  # a local, so the run it binds is freed on return
        self._apply_load_attacks(0.0)
        demand = demand_total(grid)
        held = [(0, self._held_values(demand))]
        record(rows)

        check = 0 if self.tier.state() is not None else n_steps  # the next step checked
        steps = iter(range(n_steps))
        for k in steps:
            t = k * dt
            if k in schedule:
                apply_boundary(t, schedule[k])
                demand = demand_total(grid)
                held.append((k + 1, self._held_values(demand)))
            if k < check:
                step(t, k, demand)
                record(rows)
                continue
            before = array("d", self.tier.state()).tobytes()
            step(t, k, demand)
            record(rows)
            check = k + CHECK_EVERY
            if array("d", self.tier.state()).tobytes() != before:
                continue
            end = min((b for b in schedule if b > k), default=n_steps)  # the next boundary
            rows.extend(rows[-len(self._step_traces):] * (end - k - 1))
            for _ in zip(range(k + 1, end), steps):  # the loop goes on at step end
                pass

        # one trace matrix; every trace is a row of it, on one read-only time axis
        n_rows = n_steps + 1
        matrix = np.empty((len(self.trace_names), n_rows))
        matrix[self._step_traces] = np.frombuffer(rows).reshape(n_rows, -1).T
        rows = self._rows = None
        for (first, values), (end, _) in zip(held, held[1:] + [(n_rows, None)]):
            matrix[self._held_traces, first:end] = np.array(values)[:, None]
        t_axis = np.arange(n_rows) * dt
        t_axis.flags.writeable = False
        traces = {name: TimeSeries(t=t_axis, v=column, name=name)
                  for name, column in zip(self.trace_names, matrix)}
        # at equal t: the band change of the row at t, the boundary applied
        # after that row, then the network events dispatched in the step from t
        log = list(heapq.merge(self._log_protection(traces["freq"]), self.log, self.net_log,
                               key=lambda e: e["t"]))
        reports = compute_metrics(sc, traces, log)
        risk_report = None
        if sc.risk_inputs is not None:
            risk_report = risk_mod.risk(**sc.risk_inputs, name=sc.name)
        manifest = {
            "schema_version": MANIFEST_SCHEMA,
            "scenario_name": sc.name,
            "seed": self.seed,
            "scenario_sha256": scenario_hash(sc.doc),
            "package_version": __version__,
            "dt_phys": self.dt,
            "horizon": n_steps * self.dt,
            "traces": sorted(map(list, zip(self.trace_names, self.trace_units))),
        }
        return RunResult(scenario_name=sc.name, seed=self.seed, traces=traces,
                         event_log=log, attack_samples=self.attack_samples,
                         metric_reports=reports, risk_report=risk_report,
                         manifest=manifest)

    def _apply_boundary(self, t: float, actions) -> None:
        for action in actions:
            action(t)
        if self._topology_dirty:
            self.tier.on_topology_change()
            self._topology_dirty = False

    def _apply_load_attacks(self, t: float) -> None:
        """Every attacked load's offset at t: the sum of its active specs' offsets,
        added in list order."""
        for load in self._attacked_loads:
            load.delta_demand = 0.0
        for spec in self.load_attacks:
            apply_load_change(self.grid, t, spec)

    # -- recording ---------------------------------------------------------------

    def _held_values(self, demand: float) -> list[float]:
        """The held columns' values: the demand, then each breaker's and each
        sheddable load's state."""
        return [demand, *[1.0 if b.closed else 0.0 for b in self.grid.breakers],
                *[1.0 if load.shed else 0.0 for load in self._shed_loads]]

    def _log_protection(self, freq: TimeSeries) -> list[dict]:
        """The log entry of each protection band change of the finished trace,
        in time order."""
        p = self.grid.protection
        entries = []
        for k in protection_changes(freq.v, p).tolist():
            t, f = float(freq.t[k]), float(freq.v[k])
            entries.append(log_entry(t, "protection", "grid", None,
                                     {"action": protection_check(f, p).value, "frequency": f}))
        return entries


# ---------------------------------------------------------------------------
# Physical tiers.  Each advances the grid by one macro-step from the grid's
# start-up operating point, declares its trace columns once, and reacts to
# topology events.  Its ``record(rows)`` appends one row per step to the run's
# buffer: the system frequency, then its own columns.  A tier holds no
# reference back to its run, so a finished run's trace matrix is freed as soon
# as it returns.
# ---------------------------------------------------------------------------

NOISE_BLOCK = 4096  # noise draws turned into Python floats at a time


def _noise_draws(draws: np.ndarray):
    """The run's plant noise as Python floats, one after another."""
    for start in range(0, len(draws), NOISE_BLOCK):
        yield from draws[start:start + NOISE_BLOCK].tolist()


class _AggregateTier:
    """One equivalent machine, fast sources and sampled LTI control loops."""

    def __init__(self, sc: Scenario, grid: GridModel, dt: float, n_steps: int, seed: int,
                 attack_samples: list[dict]):
        self.grid = grid
        self.dt = dt
        self.rng_phys = rng_for(seed, "phys.noise")
        self.rng_attack = rng_for(seed, "attack")
        self.attack_samples = attack_samples
        # scenario load gives each tap at most one attack, of its layer's type
        attacks = {spec.tap: spec for spec in sc.attacks
                   if isinstance(spec, (DiaCombined, ControlDia))}
        # per control loop: (plant, whether it is noisy, meas-tap attack, ctrl-tap attack)
        self.loops = [(plant, plant.noise_std > 0, attacks.get(f"meas:{plant.name}"),
                       attacks.get(f"ctrl:{plant.name}")) for plant in grid.plants]
        # the whole run's plant noise, drawn before the first step: step after
        # step, one draw per noisy plant in plant order, the values one scalar
        # draw each would give.  Drawing it block by block inside the loop left
        # megabytes of the heap resident after the run.
        stds = [plant.noise_std for plant in grid.plants if plant.noise_std > 0]
        self._noise = _noise_draws(
            self.rng_phys.normal(0.0, stds, size=(n_steps, len(stds))).ravel())
        # last sensed value per plant; before the first sample, the true output
        self._meas = [self._signal(plant) for plant in grid.plants]
        self.fast_sources = [(fs, math.exp(-dt / fs.time_constant) if fs.time_constant > 0
                              else 0.0) for fs in grid.fast_sources]
        self.on_topology_change()

    @staticmethod
    def _signal(plant) -> float:
        """True (noise-free) output around the operating point."""
        return plant.operating_point + plant.output()

    @staticmethod
    def _power(plant) -> float:
        return plant.power_base + plant.power_gain * plant.x[0]

    def _advance_plants(self, t: float) -> None:
        noise_draws = self._noise
        for i, (plant, noisy, spec, cspec) in enumerate(self.loops):
            op = plant.operating_point
            noise = next(noise_draws) if noisy else 0.0
            x_next, y_dev = lti_step(plant, noise)
            y_att = op + y_dev
            if spec is not None:
                y_att, dy = apply_dia(y_att, t, spec, self.rng_attack)
                if dy != 0:
                    self.attack_samples.append({"t": t, "tap": spec.tap, "delta": [dy]})
            error = y_att - op
            u_cmd = [gain * error for gain in plant.control_matrix]
            if cspec is not None:
                for j, u_j in enumerate(u_cmd):
                    u_cmd[j], du = apply_control_dia(u_j, t, cspec)
                if du != 0:
                    self.attack_samples.append({"t": t, "tap": cspec.tap, "delta": [du]})
            plant.x = x_next
            plant.u = u_cmd
            self._meas[i] = y_att

    def step(self, t: float, k: int, demand: float) -> None:
        grid = self.grid
        machine = grid.machines[0]
        p_inject = 0.0
        for plant in grid.plants:
            p_inject += self._power(plant)
        pinned = self.pinned
        f_now = grid.f_nom if pinned else machine.frequency
        p_fast = 0.0
        for fs, decay in self.fast_sources:
            p_fast += fs.step(f_now, grid.f_nom, decay)
        if pinned:
            machine.omega = machine.omega_sync
            machine.gov_power = 0.0
        else:
            p_elec = demand - p_inject - p_fast
            swing_step(machine, p_elec, self.dt, step_index=k)
        if self.loops:
            self._advance_plants(t)

    def columns(self) -> list[tuple[str, str]]:
        cols = [("p_gen", "pu")]
        if self.grid.fast_sources:
            cols.append(("p_fast", "pu"))
        for plant in self.grid.plants:
            cols += [(f"{plant.name}_signal", "signal"), (f"{plant.name}_meas", "signal")]
            if plant.operating_point:
                cols.append((f"{plant.name}_signal_pu", "pu"))
            cols.append((f"{plant.name}_power", "pu"))
        return cols

    def record(self, rows: array) -> None:
        grid = self.grid
        machine = grid.machines[0]
        rows.append(grid.f_nom if self.pinned else machine.frequency)
        rows.append(machine.p_mech + machine.gov_power)
        if grid.fast_sources:
            p_fast = 0.0
            for fs in grid.fast_sources:
                p_fast += fs.power
            rows.append(p_fast)
        for plant, meas in zip(grid.plants, self._meas):
            signal = self._signal(plant)
            rows.append(signal)
            rows.append(meas)
            if plant.operating_point:
                rows.append(signal / plant.operating_point)
            rows.append(self._power(plant))

    def state(self) -> Optional[list]:
        m = self.grid.machines[0]
        return None if self.loops else [m.omega, m.gov_power, m.delta, self.pinned,
                                        *[fs.power for fs in self.grid.fast_sources]]

    def on_topology_change(self) -> None:
        pcc = self.grid.pcc  # a closed PCC pins the frequency to f_nom
        self.pinned = pcc is not None and pcc.closed


class _MultiMachineTier:
    """Machines swinging against a common load bus balanced each step."""

    def __init__(self, grid: GridModel, dt: float):
        self.grid = grid
        self.dt = dt
        self.theta = 0.0
        for m in grid.machines:
            m.delta = math.asin(m.p_mech / m.coupling)

    def step(self, t: float, k: int, demand: float) -> None:
        machines = self.grid.machines
        self.theta = solve_load_angle(machines, demand, self.theta)
        for m in machines:
            swing_step(m, m.coupling * math.sin(m.delta - self.theta), self.dt,
                       step_index=k)

    def columns(self) -> list[tuple[str, str]]:
        return [(f"freq_{m.id}", "Hz") for m in self.grid.machines]

    def state(self) -> list:
        return [*[x for m in self.grid.machines for x in (m.omega, m.gov_power, m.delta)],
                self.theta]

    def record(self, rows: array) -> None:
        """The inertia-weighted system frequency, then each machine's."""
        at = len(rows)
        rows.append(0.0)  # set once every machine's frequency is read
        h_total = weighted = 0.0
        for m in self.grid.machines:
            f = m.frequency
            rows.append(f)
            if m.connected:
                h_total += m.inertia_const
                weighted += m.inertia_const * f
        # inertia_const > 0: h_total is 0 iff no machine is connected
        rows[at] = weighted / h_total if h_total else 0.0

    def on_topology_change(self) -> None:
        pass


class _TdTier(_MultiMachineTier):
    """Transmission sources and a distribution feeder over a nodal boundary,
    feeding the lagged boundary transfer to the multi-machine swing.

    The circuit's state is plain floats: the source currents ``i_src``, the
    feeder current ``i_f`` and the bus voltages ``v1`` (boundary) and ``v2``
    (distribution).  Each step forms every live RL branch's trapezoidal
    history current once, solves the nodal boundary for both bus voltages and
    gives the branches their new currents through ``group_step``.
    Everything that changes only with the topology (the 2x2 boundary,
    factored when it is built, and the per-branch companion constants) is
    built in ``_rebuild_companions``, which restarts the source currents from
    the snapshot ``on_topology_change`` takes when a source loses its machine.
    """

    def __init__(self, grid: GridModel, dt: float):
        super().__init__(grid, dt)
        self.cfg = cfg = grid.td_system
        self.breaker = grid.breaker(cfg.feeder_breaker)
        self.source_machines = [grid.machine(src.machine) for src in cfg.sources]
        self.v1, self.v2, i_src, self.i_f = td_operating_point(cfg, self.breaker.closed)
        self.v1_nom = self.v1
        self.v2_nom = self.v2
        self.p_pcc0 = self.v1 * self.i_f
        self._p_norm = 1.0  # filtered boundary power, per unit of nominal transfer
        self._decay = math.exp(-dt / cfg.power_filter) if cfg.power_filter > 0 else 0.0
        # boundary-bus capacitors: absorb the mismatch current at topology changes
        self._g_c1 = 2 * cfg.pcc_shunt_c / dt
        self._g_c2 = 2 * cfg.shunt_c / dt
        self._trans_states = i_src
        self._rebuild_companions()

    def _rebuild_companions(self) -> None:
        cfg = self.cfg
        dt = self.dt
        # init/contingency snapshot: stale after a breaker-only rebuild; references rely on it
        self.i_src = list(self._trans_states)
        # trapezoidal companion of each live source branch:
        # (index, history gain, conductance, 2 emf)
        self._live_sources = []
        y11 = 0.0
        for idx, (src, machine) in enumerate(zip(cfg.sources, self.source_machines)):
            if machine.connected:
                alpha = dt * src.r / (2 * src.l)
                gamma = dt / (2 * src.l + dt * src.r)
                self._live_sources.append((idx, (1 - alpha) / (1 + alpha), gamma,
                                           2 * src.emf))
                y11 += gamma
        self._gammas = [gamma for _, _, gamma, _ in self._live_sources]
        y11 += self._g_c1
        y22 = self._g_c2 + cfg.load_conductance
        if self.breaker.closed:
            alpha_f = dt * cfg.feeder_r / (2 * cfg.feeder_l)
            gamma_f = dt / (2 * cfg.feeder_l + dt * cfg.feeder_r)
            self._feeder = ((1 - alpha_f) / (1 + alpha_f), gamma_f)
        else:  # an open feeder conducts nothing, so its current stays exactly 0.0
            self._feeder = (0.0, 0.0)
        gamma_f = self._feeder[1]
        self._gammas.append(gamma_f)
        self.boundary = NodalBoundary(y11 + gamma_f, -gamma_f, -gamma_f, y22 + gamma_f)

    def on_topology_change(self) -> None:
        machines = self.source_machines
        if any(not machines[idx].connected for idx, _, _, _ in self._live_sources):
            self._trans_states = [i if machine.connected else 0.0
                                  for i, machine in zip(self.i_src, machines)]
        if not self.breaker.closed:
            self.i_f = 0.0
        self._rebuild_companions()

    def step(self, t: float, k: int, demand: float) -> None:
        cfg = self.cfg
        v1, v2, i_src, i_f = self.v1, self.v2, self.i_src, self.i_f
        hist = []
        i1 = i_src_total = 0.0
        for idx, hist_gain, gamma, two_emf in self._live_sources:
            i_state = i_src[idx]
            i_src_total += i_state
            h = hist_gain * i_state + gamma * (two_emf - v1)
            hist.append(h)
            i1 += h
        i1 += self._g_c1 * v1 + (i_src_total - i_f)
        i2 = self._g_c2 * v2 + (i_f - cfg.load_conductance * v2)
        hist_gain_f, gamma_f = self._feeder
        h = hist_gain_f * i_f + gamma_f * (v1 - v2)
        hist.append(h)
        i1 -= h
        i2 += h
        self.v1, self.v2 = v1_new, v2_new = nodal_solve(self.boundary, i1, i2)
        u = [v1_new] * len(self._live_sources) + [v2_new - v1_new]
        *currents, self.i_f = group_step(hist, self._gammas, u)
        for (idx, _, _, _), i_new in zip(self._live_sources, currents):
            i_src[idx] = i_new
        p_pcc = v1_new * self.i_f

        # machines see the (lagged, bounded) boundary transfer on top of local load
        p_target = min(max(p_pcc / self.p_pcc0, -1.0), 3.0)
        self._p_norm = p_target + (self._p_norm - p_target) * self._decay
        super().step(t, k, demand + cfg.dist_demand * self._p_norm)

    def columns(self) -> list[tuple[str, str]]:
        return super().columns() + [("v_pcc", "pu"), ("v_dist", "pu")]

    def state(self) -> list:
        return [*super().state(), *self.i_src, self.i_f, self.v1, self.v2, self._p_norm]

    def record(self, rows: array) -> None:
        super().record(rows)
        rows.append(self.v1 / self.v1_nom)
        rows.append(self.v2 / self.v2_nom)


# ---------------------------------------------------------------------------
# Metrics assembly
# ---------------------------------------------------------------------------

def compute_metrics(sc: Scenario, traces: dict[str, TimeSeries],
                    event_log: list[dict]) -> list[MetricReport]:
    """Evaluate every requested metric from traces and the event log."""
    protection = build_protection(sc.grid)
    reports = []
    for req in sc.metrics_requested:
        kind = req["kind"]
        if kind == "cyber":
            reports.append(_cyber_report(sc, event_log))
            continue
        series = traces[req["trace"]]  # a run checks its requests when it is built
        # the request's own options only: metrics.py holds every default
        options = {k: v for k, v in req.items() if k not in ("kind", "trace")}
        if kind == "frequency_stability":
            reports.append(frequency_stability(series, protection))
        elif kind == "voltage_stability":
            reports.append(voltage_stability(series, **options))
        elif kind == "control":
            reports.append(control_metrics(series, **options))
    return reports


def _cyber_report(sc: Scenario, event_log: list[dict]) -> MetricReport:
    """The cyber report over the path of every flow that sends a packet."""
    paths = {}
    if sc.network is not None:
        topo = NetworkSim(sc.network.nodes, sc.network.links,
                          message_bytes=sc.network.message_bytes)
        flows = {(e["node"], e["detail"]["dst"]) for e in event_log if e["event"] == "send"}
        paths = {f"{src}->{dst}": (topo.baseline_delay(src, dst), topo.links_on(src, dst))
                 for src, dst in sorted(flows)}
    return cyber_metrics(event_log, sc.horizon, paths)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def export(result: RunResult, out_dir, scenario_doc: dict) -> Path:
    """Write one run's traces, event log, reports, manifest and scenario under out_dir."""
    out = Path(out_dir)
    written = {f"{name}.csv" for name in result.traces}
    stale = sorted(p.name for p in (out / "traces").glob("*.csv") if p.name not in written)
    if stale:  # deletes nothing: the directory may hold another run's results
        raise ValueError(f"{out / 'traces'} holds another run's traces: {', '.join(stale)}")
    (out / "traces").mkdir(parents=True, exist_ok=True)
    t_cells = {}  # id of a time axis -> its CSV column; a run's traces share one axis
    for name, series in sorted(result.traces.items()):
        if id(series.t) not in t_cells:
            t_cells[id(series.t)] = csv_time_cells(series.t)
        _write_atomic(out / "traces" / f"{name}.csv", series.to_csv(t_cells[id(series.t)]))
    del t_cells  # 2 MB on a 30,000-step run, not to be held while the event log is encoded
    _write_atomic(out / "events.json",
                  json.dumps({"events": result.event_log,
                              "attack_samples": result.attack_samples}, separators=(",", ":")))
    report = report_dict(result)
    _write_atomic(out / "report.json", json.dumps(report, indent=2))
    _write_atomic(out / "report.txt", report_text(report))
    _write_atomic(out / "manifest.json", json.dumps(result.manifest, indent=2))
    _write_atomic(out / "scenario.json",
                  json.dumps(scenario_doc, indent=2, sort_keys=True))
    return out


def report_dict(result: RunResult) -> dict:
    return {
        "scenario": result.scenario_name,
        "seed": result.seed,
        "metrics": [r.to_dict() for r in result.metric_reports],
        "risk": (risk_mod.report_to_dict(result.risk_report)
                 if result.risk_report else None),
    }


def report_text(report: dict) -> str:
    """``report.txt``, which ``cpessim run`` also prints."""
    lines = [f"scenario: {report['scenario']}", f"seed: {report['seed']}", "",
             *metric_lines(report["metrics"])]
    if report.get("risk"):
        lines += risk_lines(report["risk"])
    return "\n".join(lines)


def risk_lines(risk: dict) -> list[str]:
    """A ``risk.report_to_dict`` as the ``[risk]`` text block, ending in a blank line."""
    return ["[risk]", f"  damage {risk['damage']}  risk {risk['risk']}  pool {risk['pool']}",
            *[f"  {obj:<32} {score}" for obj, score in risk["per_objective_scores"].items()],
            ""]


def metric_lines(metrics: list[dict]) -> list[str]:
    """Each ``MetricReport.to_dict()`` as text lines, ending in a blank line."""
    lines = []
    for m in metrics:
        lines.append(f"[{m['kind']}] trace={m['trace']}")
        for key, value in m["values"].items():
            if isinstance(value, dict):
                for sub, sval in value.items():
                    lines.append(f"  {key + '.' + sub:<32} {sval}")
            else:
                lines.append(f"  {key:<32} {value}")
        for label, intervals in m["intervals"].items():
            pretty = ", ".join(f"[{a:.4f}, {b:.4f}]" for a, b in intervals)
            lines.append(f"  intervals.{label:<22} {pretty}")
        lines.append("")
    return lines
