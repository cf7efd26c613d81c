"""Attack operators, each bound to a tap and gated by an active window.

Injectors are pure transforms of (sample, time): outside their window every
operator is the identity, and degenerate parameters (beta = 1 with no noise,
zero delay, zero demand offset, empty schedules) are identities everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .physical import GridModel, event_schedule


@dataclass(frozen=True)
class AttackWindow:
    """Disjoint, sorted half-open intervals [start, end) of virtual seconds."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(s), float(e)) for s, e in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:  # a window without an interval would never act
            raise ValueError("window must hold at least one interval")
        for s, e in ivs:
            if not s < e:
                raise ValueError(f"window interval ({s}, {e}) must have start < end")
        for (s0, e0), (s1, e1) in zip(ivs, ivs[1:]):
            if s1 < e0:
                raise ValueError(f"window intervals ({s0}, {e0}) and ({s1}, {e1}) overlap "
                                 "or are out of order")

    def contains(self, t: float) -> bool:
        for s, e in self.intervals:
            if s <= t < e:
                return True
        return False


# --- noise variants for the combined data-integrity attack ---

@dataclass(frozen=True)
class GaussianNoise:
    sigma: float

    def sample(self, t: float, rng: np.random.Generator) -> float:
        return rng.normal(0.0, self.sigma)


@dataclass(frozen=True)
class SinusoidNoise:
    amplitude: float
    freq_hz: float

    def sample(self, t: float, rng: np.random.Generator) -> float:
        return self.amplitude * math.sin(2 * math.pi * self.freq_hz * t)


Noise = Union[None, GaussianNoise, SinusoidNoise]


@dataclass(frozen=True)
class DiaCombined:
    """Measurement-tap attack: y_a = beta * y + W inside the window."""

    tap: str                    # measurement channel, e.g. "meas:pv_loop"
    window: AttackWindow
    beta: float = 1.0
    noise: Noise = None

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")


@dataclass(frozen=True)
class ControlDia:
    """Control-tap attack: additive delta-u from a piecewise-constant schedule."""

    tap: str
    window: AttackWindow
    schedule: tuple[tuple[float, float], ...] = ()   # (from_time, delta_u)

    def __post_init__(self):
        sched = tuple((t, float(v)) for t, v in event_schedule(self.schedule))
        object.__setattr__(self, "schedule", sched)

    def delta_u(self, t: float) -> float:
        if not self.window.contains(t):
            return 0.0
        value = 0.0  # schedule gap inside the window means no offset
        for start, v in self.schedule:
            if t >= start:
                value = v
            else:
                break
        return value


@dataclass(frozen=True)
class LoadChange:
    """Demand manipulation on a set of loads, absolute or fractional."""

    targets: tuple[str, ...]
    delta: float
    window: AttackWindow
    fraction: bool = True       # True: delta of base demand; False: absolute pu offset

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.fraction and self.delta <= -1:
            raise ValueError("fractional delta must be > -1 so demand stays >= 0")


@dataclass(frozen=True)
class TimeDelay:
    """Delay attack on a link tap: packets sent inside the window arrive late."""

    tap: str
    delay: float                # seconds added to each arrival
    window: AttackWindow

    def __post_init__(self):
        if not self.delay >= 0:
            raise ValueError("delay must be >= 0")


@dataclass(frozen=True)
class DoS:
    """Drop-all attack on a link while the window is active."""

    tap: str
    window: AttackWindow


@dataclass(frozen=True)
class BreakerAttack:
    """Forced breaker actuations at scheduled times."""

    breaker: str
    schedule: tuple[tuple[float, str], ...] = ()

    def __post_init__(self):
        sched = tuple(event_schedule(self.schedule, ("open", "close")))
        object.__setattr__(self, "schedule", sched)


AttackSpec = Union[DiaCombined, ControlDia, LoadChange, TimeDelay, DoS, BreakerAttack]


def apply_dia(y: float, t: float, spec: DiaCombined,
              rng: np.random.Generator) -> tuple[float, float]:
    """Attack one scalar measurement: return (y_a, delta_y), where
    y_a = beta * y + W inside the window and delta_y = y_a - y is the
    manipulation (0.0 outside the window)."""
    if not spec.window.contains(t):
        return y, 0.0
    w = 0.0 if spec.noise is None else spec.noise.sample(t, rng)
    y_a = spec.beta * y + w
    return y_a, y_a - y


def apply_control_dia(u: float, t: float, spec: ControlDia) -> tuple[float, float]:
    """Attack one scalar control input: return (u_a, delta_u); the altered
    plant response follows from the plant step."""
    du = spec.delta_u(t)
    return u + du, du


def apply_load_change(grid: GridModel, t: float, spec: LoadChange) -> None:
    """Add the spec's demand offset to every target load if its window holds t.

    Offsets of overlapping specs add up; the caller zeroes every attacked
    load's offset before it applies the specs for a new time."""
    if not spec.window.contains(t):
        return
    for target in spec.targets:
        load = grid.load(target)  # KeyError at scenario load for unknown ids
        load.delta_demand += load.base_demand * spec.delta if spec.fraction else spec.delta
