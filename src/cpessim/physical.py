"""Reduced-order power-system dynamics.

Two fidelity tiers are supported by the engine on top of these primitives:
an aggregate microgrid (one equivalent machine plus fast sources and loads,
balanced through the total-demand equation) and a multi-machine system where
each machine swings against a common load bus through its transfer reactance.
The integrated transmission/distribution scenarios add a circuit of RL
branches and bus capacitors, each replaced by its trapezoidal companion and
coupled by a nodal boundary solve.

Every step kernel (``lti_step``, ``swing_step``, ``group_step``,
``nodal_solve``, ``solve_load_angle``, ``demand_total`` and
``FastSource.step``) is plain left-to-right arithmetic on Python floats:
sums accumulate into one local in a fixed order (rows through ``_dot``,
build-time totals through ``float_sum``), and the one linear system, the
2x2 nodal boundary, is factored with partial pivoting when its
``NodalBoundary`` is built and solved by substitution.  ``swing_step`` is one
RK4 body on locals for every kind of governor; ``group_step`` gives RL
branch currents from their companion history currents and the solved
voltages.  No BLAS, LAPACK, fused multiply-add or compensated summation
touches a step, so the same seed gives the same bytes on every host and
Python version.  NumPy only checks shapes and conditioning and sorts a
finished frequency trace into the protection bands.  Their precedence is
written once, in ``protection_bands``; ``protection_check`` and
``protection_changes`` read it from there.

Conventions: omega in rad/s, frequency in Hz, power in per-unit on the grid
base, angles in radians.  The swing inertia constant (seconds) is named
``inertia_const`` and the discrete-plant feedback matrix ``control_matrix``
to keep the two conventional uses of "H" apart.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

MAX_SWING_DT = 0.010  # s; keep the fixed-step integrator well inside its stability margin
NODAL_RESIDUAL_TOL = 1e-9  # of |Y||V| + |I|, row by row
NODAL_COND_LIMIT = 1e12
_TWO_PI = 2 * math.pi


class IntegrationDivergedError(RuntimeError):
    """Swing integration produced a non-finite state."""

    def __init__(self, step_index, detail: str):
        self.step_index = step_index
        super().__init__(f"integration diverged at step {step_index}: {detail}")


class SingularBoundaryError(RuntimeError):
    """Nodal boundary matrix is singular or too ill-conditioned to trust."""


# ---------------------------------------------------------------------------
# Discrete-time LTI plant (sampled control loop)
# ---------------------------------------------------------------------------

class PlantFieldError(ValueError):
    """A malformed LTI plant field; ``field`` names it."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


@dataclass
class LtiPlant:
    """x(k+1) = G x(k) + B u(k);  y(k) = C x(k) + e(k);  u(k+1) = control_matrix y(k).

    A single-output plant held as Python floats: ``GB`` is the tuple of the
    rows of [G B] (``G`` and ``B`` are taken only at construction), ``C`` the
    one output row, ``control_matrix`` the feedback column (one gain per
    input), ``noise_std`` the standard deviation of e, and ``x`` and ``u``
    lists of floats (zeros when not given).  Matrices may be given as nested
    sequences or arrays, and ``noise_std`` as a number or a one-element
    sequence; their shapes are checked, and a ``C`` with more than one row is
    rejected.

    The feedback update is applied by the engine at the step boundary, after
    any measurement-tap attack has altered y.  On the aggregate grid the
    controller acts on the absolute sensed signal (``operating_point`` plus
    the deviation y), and the first state modulates an injected power
    ``power_base + power_gain * x[0]``.
    """

    G: InitVar[Sequence]
    B: InitVar[Sequence]
    C: Sequence
    control_matrix: Sequence
    noise_std: float | Sequence = 0.0
    x: Optional[list] = None
    u: Optional[list] = None
    name: str = "plant"
    operating_point: float = 0.0
    power_base: float = 0.0
    power_gain: float = 0.0
    GB: tuple = field(init=False)

    def __post_init__(self, G, B):
        g = np.atleast_2d(np.asarray(G, dtype=float))
        b = np.atleast_2d(np.asarray(B, dtype=float))
        c = np.atleast_2d(np.asarray(self.C, dtype=float))
        cm = np.atleast_2d(np.asarray(self.control_matrix, dtype=float))
        std = np.atleast_1d(np.asarray(self.noise_std, dtype=float))
        x = np.atleast_1d(np.asarray(np.zeros(len(g)) if self.x is None else self.x, dtype=float))
        u = np.atleast_1d(np.asarray(np.zeros(len(cm)) if self.u is None else self.u, dtype=float))
        n, l = x.shape[0], u.shape[0]
        if l == 0:  # G's check below already needs at least one state
            raise PlantFieldError("u", f"plant {self.name!r}: needs at least one input")
        checks = [
            ("G", g.shape, (n, n)),
            ("B", b.shape, (n, l)),
            ("C", c.shape, (1, n)),  # single output
            ("control_matrix", cm.shape, (l, 1)),
            ("noise_std", std.shape, (1,)),
            ("u", u.shape, (l,)),
        ]
        for label, got, want in checks:
            if got != want:
                raise PlantFieldError(label, f"plant {self.name!r}: {label} has shape {got}, "
                                             f"expected {want}")
        for label, values in (("G", g), ("B", b), ("C", c), ("control_matrix", cm),
                              ("noise_std", std), ("x", x), ("u", u)):
            if not np.isfinite(values).all():  # would only show as a diverged run
                raise PlantFieldError(label, f"plant {self.name!r}: {label} must be finite")
        if std[0] < 0:
            raise PlantFieldError("noise_std", f"plant {self.name!r}: noise_std must be >= 0")
        self.GB = tuple(tuple(gr + br) for gr, br in zip(g.tolist(), b.tolist()))
        self.C = tuple(c[0].tolist())
        self.control_matrix = tuple(cm[:, 0].tolist())
        self.noise_std = float(std[0])
        self.x = x.tolist()
        self.u = u.tolist()

    def output(self) -> float:
        """Noise-free output C x(k)."""
        return _dot(self.C, self.x)


def _dot(row: Sequence[float], vec: Sequence[float]) -> float:
    """row[0]*vec[0] + row[1]*vec[1] + ... in plain left-to-right float
    arithmetic: no fused multiply-add and no compensated ``sum``, so the
    result is the same on every host."""
    acc = row[0] * vec[0]
    for i in range(1, len(row)):
        acc += row[i] * vec[i]
    return acc


def float_sum(values: Iterable[float]) -> float:
    """0.0 + values[0] + values[1] + ... left to right: what ``sum`` gives on
    Python 3.10 and 3.11, on every version (3.12's ``sum`` of floats is
    compensated, so its last bits differ)."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


def lti_step(plant: LtiPlant, noise: float = 0.0) -> tuple[list[float], float]:
    """One sample: returns (x(k+1), y(k)) with y(k) = C x(k) + noise.

    The caller draws the noise and owns the state and feedback update.
    """
    xu = plant.x + plant.u
    return [_dot(row, xu) for row in plant.GB], plant.output() + noise


# ---------------------------------------------------------------------------
# Swing dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Governor:
    """Proportional droop on frequency deviation beyond a deadband.

    ``time_constant`` adds a first-order actuator lag; at 0 the droop is
    instantaneous.  ``min_boost``/``max_boost`` bound the mechanical-power
    correction (headroom of the prime mover).
    """

    gain: float = 0.0          # pu per Hz
    deadband: float = 0.036    # Hz
    time_constant: float = 0.0  # s
    min_boost: float = -math.inf
    max_boost: float = math.inf

    def target(self, f: float, f_nom: float) -> float:
        dev = f_nom - f
        if abs(dev) <= self.deadband:
            return 0.0
        dev -= math.copysign(self.deadband, dev)
        return min(max(self.gain * dev, self.min_boost), self.max_boost)


@dataclass
class Machine:
    """Classical-model synchronous machine (constant internal voltage behind reactance)."""

    id: str
    inertia_const: float            # H, seconds
    p_mech: float = 0.0             # Pm, pu (scheduled setpoint)
    delta: float = 0.0              # rotor angle, rad
    omega: float = 2 * math.pi * 60.0   # rad/s
    omega_sync: float = 2 * math.pi * 60.0
    v_internal: float = 1.0         # Vs, pu
    v_recv: float = 1.0             # Vr at the receiving bus, pu
    reactance: float = 0.3          # X, pu
    governor: Optional[Governor] = None
    gov_power: float = 0.0          # governor actuator output, pu
    damping: float = 0.0            # optional damping torque coefficient, pu
    connected: bool = True
    coupling: float = field(init=False)  # peak transfer Vs*Vr/X to the bus; 0 if disconnected

    def __post_init__(self):
        if self.reactance <= 0:
            raise ValueError(f"machine {self.id!r}: reactance must be > 0")
        self.coupling = self.v_internal * self.v_recv / self.reactance if self.connected else 0.0

    @property
    def f_nom(self) -> float:
        return self.omega_sync / (2 * math.pi)

    @property
    def frequency(self) -> float:
        return self.omega / (2 * math.pi)


def swing_step(machine: Machine, p_elec: float, dt: float, step_index=None) -> Machine:
    """Advance rotor angle/speed one fixed step with classical 4th-order Runge-Kutta.

    Updates ``machine.delta``, ``omega`` and ``gov_power`` in place and returns
    the same ``Machine``; on divergence it raises and leaves the state as it was.
    ``p_elec`` is the electrical power (pu), held for the whole step.  The
    governor, when configured, adds its droop boost (``Governor.target``,
    inlined) to the scheduled mechanical power: through its actuator state
    when it has a lag, directly when it has none.  Each stage's rates are
    added into ``k1 + 2*k2 + 2*k3 + k4`` as they come, left to right.
    """
    if dt <= 0 or dt > MAX_SWING_DT:
        raise ValueError(f"dt must be in (0, {MAX_SWING_DT}] s, got {dt}")
    w_sync = machine.omega_sync
    accel_gain = w_sync / (2.0 * machine.inertia_const)
    f_nom = w_sync / _TWO_PI
    p_mech, damping = machine.p_mech, machine.damping
    gov = machine.governor
    if gov is not None:
        gain, deadband, lag = gov.gain, gov.deadband, gov.time_constant
        min_boost, max_boost = gov.min_boost, gov.max_boost
    d0, w0, g0 = machine.delta, machine.omega, machine.gov_power
    half = 0.5 * dt
    w, gp = w0, g0
    sum_d = sum_w = sum_g = -0.0  # -0.0 + x is x, signed zeros included
    for to_next, weight in ((half, 1.0), (half, 2.0), (dt, 2.0), (None, 1.0)):
        rate_d = w - w_sync
        boost = rate_g = 0.0
        if gov is not None:
            dev = f_nom - w / _TWO_PI
            if abs(dev) <= deadband:
                target = 0.0
            else:
                dev -= math.copysign(deadband, dev)
                target = gain * dev  # min(max(target, min_boost), max_boost), sans calls
                if target < min_boost:
                    target = min_boost
                if target > max_boost:
                    target = max_boost
            if lag > 0:
                boost = gp
                rate_g = (target - gp) / lag
            else:
                boost = target
        p_acc = p_mech + boost - p_elec
        if damping:
            p_acc -= damping * rate_d / w_sync
        rate_w = accel_gain * p_acc
        sum_d += weight * rate_d
        sum_w += weight * rate_w
        sum_g += weight * rate_g
        if to_next is None:
            break
        w = w0 + to_next * rate_w
        gp = g0 + to_next * rate_g
    sixth = dt / 6.0
    delta = d0 + sixth * sum_d
    omega = w0 + sixth * sum_w
    if gov is None:
        gp = 0.0
    elif lag > 0:
        gp = g0 + sixth * sum_g
    else:
        gp = gov.target(omega / _TWO_PI, f_nom)

    if not (math.isfinite(delta) and math.isfinite(omega) and math.isfinite(gp)):
        raise IntegrationDivergedError(
            step_index, f"machine {machine.id!r} delta={delta} omega={omega}")
    machine.delta = delta
    machine.omega = omega
    machine.gov_power = gp
    return machine


# ---------------------------------------------------------------------------
# Loads, breakers, protection
# ---------------------------------------------------------------------------

@dataclass
class Load:
    id: str
    base_demand: float          # pu (converted from kW at scenario load if declared so)
    delta_demand: float = 0.0   # attack-controlled offset
    sheddable: bool = False
    shed: bool = False

    def __post_init__(self):
        if self.base_demand < 0:
            raise ValueError(f"load {self.id!r}: base_demand must be >= 0")

    @property
    def demand(self) -> float:
        return 0.0 if self.shed else self.base_demand + self.delta_demand


@dataclass
class Breaker:
    id: str
    closed: bool = True
    schedule: list = field(default_factory=list)  # [(time_s, "open"|"close"), ...]

    def __post_init__(self):
        self.schedule = event_schedule(self.schedule, ("open", "close"))


def event_schedule(schedule, actions=None) -> list[tuple[float, object]]:
    """``(t, value)`` pairs at finite float times, in time order (an event at
    NaN or infinity would never fire); each value one of ``actions`` if given,
    and a float value finite."""
    sched = [(float(t), value) for t, value in schedule]
    times = [t for t, _ in sched]
    if not all(map(math.isfinite, times)) or times != sorted(times):
        raise ValueError(f"event times must be finite and sorted, got {times}")
    for _, value in sched:
        if actions is not None and value not in actions:
            raise ValueError(f"unknown action {value!r}; expected one of {actions}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"event values must be finite, got {value}")
    return sched


class ProtectionAction(Enum):
    NONE = "none"
    GOVERNOR = "governor"
    LOAD_SHED = "load_shed"
    UNDERFREQ_TRIP = "underfreq_trip"
    OVERFREQ_TRIP = "overfreq_trip"


@dataclass(frozen=True)
class FrequencyProtection:
    """Frequency bands of the corrective-mechanism ladder (60 Hz system defaults)."""

    f_nom: float = 60.0
    governor_deadband: float = 0.036
    shed_low: float = 58.4
    shed_high: float = 59.5
    underfreq_trip: float = 57.8
    overfreq_trip: float = 62.2

    def __post_init__(self):
        if not (self.underfreq_trip < self.shed_low < self.shed_high
                < self.f_nom < self.overfreq_trip):
            raise ValueError("protection thresholds must satisfy "
                             "underfreq_trip < shed_low < shed_high < f_nom < overfreq_trip")


def protection_check(f: float, p: FrequencyProtection) -> ProtectionAction:
    """The band ``protection_bands`` puts one frequency sample in, or ``NONE``."""
    for action, mask in protection_bands(np.array([f]), p).items():
        if mask[0]:
            return action
    return ProtectionAction.NONE


def protection_bands(v: np.ndarray,
                     p: FrequencyProtection) -> dict[ProtectionAction, np.ndarray]:
    """Per-sample masks of the protection bands.  This is the one place their
    precedence is written: trips, then the shed band, then the governor band,
    so each sample is in at most one band.  A sample in none of them (NaN
    included) is ``NONE``."""
    over = v >= p.overfreq_trip
    under = (v <= p.underfreq_trip) & ~over
    taken = over | under
    shed = (p.shed_low <= v) & (v <= p.shed_high) & ~taken
    governor = (np.abs(v - p.f_nom) > p.governor_deadband) & ~(taken | shed)
    return {ProtectionAction.GOVERNOR: governor, ProtectionAction.LOAD_SHED: shed,
            ProtectionAction.UNDERFREQ_TRIP: under, ProtectionAction.OVERFREQ_TRIP: over}


def protection_changes(v: np.ndarray, p: FrequencyProtection) -> np.ndarray:
    """Indices of the samples whose band differs from the previous sample's;
    sample 0 counts when its band is not ``NONE``."""
    masks = np.array(list(protection_bands(v, p).values()))
    return np.flatnonzero(np.diff(masks, axis=1, prepend=False).any(axis=0))


# ---------------------------------------------------------------------------
# Fast power sources (battery-style frequency support)
# ---------------------------------------------------------------------------

@dataclass
class FastSource:
    """Frequency-droop power source with a short lag and hard power cap."""

    id: str
    max_power: float            # pu, symmetric cap
    gain: float = 0.0           # pu per Hz
    time_constant: float = 0.02  # s
    power: float = 0.0          # current output, pu

    def step(self, f: float, f_nom: float, decay: float) -> float:
        """One step toward the capped droop target; ``decay`` is exp(-dt/time_constant)."""
        cap = self.max_power
        target = self.gain * (f_nom - f)  # min(max(target, -cap), cap), sans calls
        if target < -cap:
            target = -cap
        if target > cap:
            target = cap
        if self.time_constant <= 0:
            self.power = target
        else:
            self.power = target + (self.power - target) * decay
        return self.power


# ---------------------------------------------------------------------------
# T&D circuit: trapezoidal RL branches and the nodal boundary
# ---------------------------------------------------------------------------

@dataclass
class TdSource:
    machine: str     # machine id whose disconnection also removes this branch
    emf: float
    r: float
    l: float


@dataclass
class TdSystemConfig:
    """Transmission sources and a distribution feeder solved over a nodal boundary."""

    sources: list[TdSource]
    feeder_breaker: str
    feeder_r: float
    feeder_l: float
    shunt_c: float              # distribution-bus capacitance
    load_conductance: float
    dist_demand: float          # pu demand seen by the machines at nominal transfer
    pcc_shunt_c: float = 0.2    # boundary-bus capacitance (absorbs switching energy)
    power_filter: float = 0.05  # s, lag on the boundary power seen by the machines


def group_step(hist: Sequence[float], gamma: Sequence[float],
               u: Sequence[float]) -> list[float]:
    """New currents of a group of RL branches, each L di/dt = e - r i - u
    advanced by its trapezoidal companion: ``hist[k] - gamma[k] * u[k]``.

    ``gamma`` is dt / (2 L + dt r) and ``hist`` the history current
    (1 - a)/(1 + a) i + gamma (2 e - u) at the step's start, with
    a = dt r / (2 L); ``u`` is the voltage the branch works against at the
    step's end, as the nodal solve gave it.  This is the bilinear step of
    di/dt = -(r/L) i + (e - u)/L with u held at the mean of its two values.
    """
    return [h - g * x for h, g, x in zip(hist, gamma, u, strict=True)]


class NodalBoundary:
    """Nodal equations [[y11, y12], [y21, y22]] [v1, v2] = [i1, i2] of the
    two boundary buses, which the engine builds anew at every topology change.

    The matrix's conditioning is checked and it is factored once, here: rows
    swap only when |y21| > |y11| (the first row wins a tie), and the rows in
    that order, a, give the multiplier ``f = a10 / a00`` and the pivot
    ``u11 = a11 - f * a01``.  A condition number above ``NODAL_COND_LIMIT``
    or an exactly zero pivot raises ``SingularBoundaryError``.
    """

    def __init__(self, y11: float, y12: float, y21: float, y22: float):
        self.rows = ((y11, y12), (y21, y22))
        cond = np.linalg.cond(self.rows)
        if not np.isfinite(cond) or cond > NODAL_COND_LIMIT:
            raise SingularBoundaryError(f"boundary matrix condition estimate {cond:.3e} "
                                        f"exceeds {NODAL_COND_LIMIT:.0e}")
        swap = abs(y21) > abs(y11)
        (a00, a01), (a10, a11) = self.rows[::-1] if swap else self.rows
        if a00 == 0.0:
            raise SingularBoundaryError("zero pivot in column 0")
        f = a10 / a00
        u11 = a11 - f * a01
        if u11 == 0.0:
            raise SingularBoundaryError("zero pivot in column 1")
        self.factors = (swap, a00, a01, f, u11)


def nodal_solve(b: NodalBoundary, i1: float, i2: float) -> tuple[float, float]:
    """Solve the boundary's Y V = I for (v1, v2) by substitution through its
    factors; each solve checks every row's residual against NODAL_RESIDUAL_TOL
    of the row's |y1 v1| + |y2 v2| + |i| (a NaN or inf fails).  Y V = I is the
    standard nodal reading of the paper's ambiguously printed coupling."""
    swap, a00, a01, f, u11 = b.factors
    b0, b1 = (i2, i1) if swap else (i1, i2)
    v2 = (b1 - f * b0) / u11
    v1 = (b0 - a01 * v2) / a00
    for (y1, y2), i in zip(b.rows, (i1, i2)):
        yv1, yv2 = y1 * v1, y2 * v2
        residual, scale = abs(yv1 + yv2 - i), abs(yv1) + abs(yv2) + abs(i)
        if not residual <= NODAL_RESIDUAL_TOL * scale < math.inf:
            raise SingularBoundaryError(f"nodal residual {residual:.3e} exceeds "
                                        f"{NODAL_RESIDUAL_TOL:.0e} of {scale:.3e}")
    return v1, v2


# ---------------------------------------------------------------------------
# Grid container
# ---------------------------------------------------------------------------

@dataclass
class GridModel:
    f_nom: float = 60.0
    machines: list[Machine] = field(default_factory=list)
    loads: list[Load] = field(default_factory=list)
    breakers: list[Breaker] = field(default_factory=list)
    plants: list[LtiPlant] = field(default_factory=list)
    fast_sources: list[FastSource] = field(default_factory=list)
    protection: FrequencyProtection = field(default_factory=FrequencyProtection)
    p_loss: float = 0.0
    contingencies: list[tuple[float, str]] = field(default_factory=list)  # (time, machine id)
    td_system: Optional[TdSystemConfig] = None
    pcc: Optional[Breaker] = None   # a closed PCC pins an aggregate grid to f_nom

    def machine(self, machine_id: str) -> Machine:
        for m in self.machines:
            if m.id == machine_id:
                return m
        raise KeyError(f"unknown machine {machine_id!r}")

    def load(self, load_id: str) -> Load:
        for l in self.loads:
            if l.id == load_id:
                return l
        raise KeyError(f"unknown load {load_id!r}")

    def breaker(self, breaker_id: str) -> Breaker:
        for b in self.breakers:
            if b.id == breaker_id:
                return b
        raise KeyError(f"unknown breaker {breaker_id!r}")


def demand_total(grid: GridModel) -> float:
    """Total system demand: all load draws (attacked ones included) plus losses."""
    return float_sum(l.demand for l in grid.loads) + grid.p_loss


def disconnect_machine(machine: Machine) -> None:
    """A contingency: the machine's power and coupling are 0 for the rest of the run."""
    machine.connected = False
    machine.coupling = 0.0
    machine.p_mech = 0.0
    machine.gov_power = 0.0
    machine.governor = None


# ---------------------------------------------------------------------------
# Common-bus power balance for the multi-machine tier
# ---------------------------------------------------------------------------

def _balance_residual(pairs: list[tuple[float, float]], theta: float,
                      p_demand: float) -> float:
    """sum_i K_i sin(delta_i - theta) - p_demand over (K_i, delta_i) pairs,
    for the bisection fallback of ``solve_load_angle``."""
    acc = 0.0
    for k, d in pairs:
        acc += k * math.sin(d - theta)
    return acc - p_demand


def solve_load_angle(machines: Sequence[Machine], p_demand: float,
                     theta_guess: float = 0.0) -> float:
    """Angle of the common load bus such that the machine transfers sum to demand.

    Solves sum_i K_i sin(delta_i - theta) = p_demand by Newton iteration with a
    bisection fallback; K_i is each connected machine's peak transfer power.
    Each Newton iteration sums the transfers and their slope in one pass over
    the machines.
    """
    pairs = [(m.coupling, m.delta) for m in machines if m.connected]
    if not pairs:
        raise SingularBoundaryError("no connected machines to balance demand")
    k_total = 0.0
    for k, _ in pairs:
        k_total += k
    if p_demand > k_total:
        raise SingularBoundaryError(
            f"demand {p_demand:.4f} pu exceeds total transfer capability {k_total:.4f} pu")

    theta = theta_guess
    for _ in range(60):
        f = df = 0.0
        for k, d in pairs:
            x = d - theta
            f += k * math.sin(x)
            df += k * math.cos(x)
        df = -df
        if abs(df) < 1e-12:
            break
        step = (f - p_demand) / df
        theta -= step
        if abs(step) < 1e-13:
            return theta
    # Newton failed to settle; bracket around the mean rotor angle instead.
    center = float_sum(d for _, d in pairs) / len(pairs)
    lo, hi = center - math.pi / 2, center + math.pi / 2
    flo = _balance_residual(pairs, lo, p_demand)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _balance_residual(pairs, mid, p_demand)
        if abs(fm) < 1e-12:
            return mid
        if (flo > 0) == (fm > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
