import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpessim import attacks as atk
from cpessim.attacks import (AttackWindow, BreakerAttack, ControlDia, DiaCombined,
                             GaussianNoise, LoadChange, SinusoidNoise, TimeDelay)
from cpessim.physical import Breaker, GridModel, Load, LtiPlant, Machine


def grid_with_loads(*demands, sheddable=False):
    loads = [Load(f"l{i}", d, sheddable=sheddable) for i, d in enumerate(demands)]
    return GridModel(machines=[Machine(id="m", inertia_const=5, p_mech=0.0)],
                     loads=loads, breakers=[Breaker(id="pcc")])


WINDOW = AttackWindow(((0.0, 1.0),))


# -- windows -------------------------------------------------------------------

def test_window_contains_half_open():
    w = AttackWindow(((4.0, 4.5),))
    assert not w.contains(3.999)
    assert w.contains(4.0)
    assert w.contains(4.499)
    assert not w.contains(4.5)


def test_window_rejects_bad_intervals():
    with pytest.raises(ValueError):
        AttackWindow(((2.0, 1.0),))
    with pytest.raises(ValueError):
        AttackWindow(((0.0, 2.0), (1.0, 3.0)))


def test_window_multiple_intervals():
    w = AttackWindow(((0.0, 1.0), (2.0, 3.0)))
    assert w.contains(0.5)
    assert not w.contains(1.5)
    assert w.contains(2.5)


# -- combined DIA ----------------------------------------------------------------

def test_dia_beta_one_no_noise_is_identity():
    spec = DiaCombined(tap="meas:p", beta=1.0, window=AttackWindow(((0.0, 10.0),)))
    y_a, dy = atk.apply_dia(200.0, 5.0, spec, np.random.default_rng(0))
    assert y_a == 200.0
    assert dy == 0.0


def test_dia_outside_window_is_identity():
    spec = DiaCombined(tap="meas:p", beta=0.5,
                       noise=SinusoidNoise(10.0, 1.0),
                       window=AttackWindow(((2.0, 3.0),)))
    y_a, dy = atk.apply_dia(200.0, 1.0, spec, np.random.default_rng(0))
    assert y_a == 200.0 and dy == 0.0


def test_dia_scaling():
    spec = DiaCombined(tap="meas:p", beta=0.8, window=AttackWindow(((0.0, 1.0),)))
    y_a, dy = atk.apply_dia(200.0, 0.5, spec, np.random.default_rng(0))
    assert y_a == pytest.approx(160.0)
    assert dy == pytest.approx(-40.0)


def test_dia_sinusoid_is_deterministic():
    spec = DiaCombined(tap="meas:p", beta=1.0, noise=SinusoidNoise(5.0, 2.0),
                       window=AttackWindow(((0.0, 1.0),)))
    t = 0.125  # sin(2*pi*2*t) = sin(pi/2) = 1
    y_a, dy = atk.apply_dia(100.0, t, spec, np.random.default_rng(0))
    assert y_a == pytest.approx(105.0)


def test_dia_gaussian_sample_mean():
    spec = DiaCombined(tap="meas:p", beta=1.0, noise=GaussianNoise(1.0),
                       window=AttackWindow(((0.0, 1e9),)))
    rng = np.random.default_rng(42)
    n = 100_000
    deltas = np.array([atk.apply_dia(50.0, 0.0, spec, rng)[1] for _ in range(n)])
    assert abs(deltas.mean()) < 3.0 / math.sqrt(n)


def test_dia_requires_finite_beta():
    with pytest.raises(ValueError):
        DiaCombined(tap="meas:p", beta=float("inf"), window=WINDOW)


def test_dia_replay_from_logged_delta():
    spec = DiaCombined(tap="meas:p", beta=0.7, noise=SinusoidNoise(3.0, 5.0),
                       window=AttackWindow(((0.0, 10.0),)))
    for t in np.linspace(0, 12, 61):
        y = 120.0 + 10 * math.sin(t)
        y_a, dy = atk.apply_dia(y, float(t), spec, np.random.default_rng(0))
        assert y + dy == pytest.approx(y_a, rel=1e-12)


# -- control DIA ------------------------------------------------------------------

def test_control_dia_zero_schedule_identity():
    spec = ControlDia(tap="ctrl:p", schedule=((0.0, 0.0),),
                      window=AttackWindow(((0.0, 10.0),)))
    u_a, du = atk.apply_control_dia(0.5, 1.0, spec)
    assert u_a == 0.5 and du == 0.0


def test_control_dia_additive_offset():
    spec = ControlDia(tap="ctrl:p", schedule=((0.0, 0.2),),
                      window=AttackWindow(((0.0, 10.0),)))
    u_a, du = atk.apply_control_dia(0.5, 1.0, spec)
    assert u_a == pytest.approx(0.7)


def test_control_dia_schedule_gap_means_zero():
    spec = ControlDia(tap="ctrl:p", schedule=((5.0, 0.2),),
                      window=AttackWindow(((0.0, 10.0),)))
    assert atk.apply_control_dia(1.0, 2.0, spec)[1] == 0.0
    assert atk.apply_control_dia(1.0, 6.0, spec)[1] == pytest.approx(0.2)


def test_control_dia_superposition_on_plant():
    # linearity: the trajectory difference equals the delta-u forced response
    g = np.array([[0.9, 0.05], [0.0, 0.8]])
    b = np.array([[0.0], [0.2]])
    spec = ControlDia(tap="ctrl:p", schedule=((0.0, 0.3),),
                      window=AttackWindow(((0.0, 100.0),)))
    x_plain = np.zeros(2)
    x_attacked = np.zeros(2)
    u = 0.5
    for k in range(50):
        u_a, du = atk.apply_control_dia(u, float(k), spec)
        x_plain = g @ x_plain + b @ [u]
        x_attacked = g @ x_attacked + b @ [u_a]
    forced = np.zeros(2)
    for k in range(50):
        forced = g @ forced + b @ [0.3]
    assert np.allclose(x_attacked - x_plain, forced, atol=1e-12)


# -- load change --------------------------------------------------------------------

def test_load_change_fraction():
    grid = grid_with_loads(100.0)
    spec = LoadChange(targets=("l0",), delta=0.20, fraction=True,
                      window=AttackWindow(((4.0, 4.5),)))
    atk.apply_load_change(grid, 4.2, spec)
    assert grid.loads[0].demand == pytest.approx(120.0)
    grid.loads[0].delta_demand = 0.0  # a run zeroes every attacked load at a window edge
    atk.apply_load_change(grid, 4.5, spec)  # outside the window: adds nothing
    assert grid.loads[0].demand == pytest.approx(100.0)


def test_load_change_three_targets_sum():
    grid = grid_with_loads(100.0, 40.0, 60.0)
    spec = LoadChange(targets=("l0", "l1", "l2"), delta=0.50, fraction=True,
                      window=AttackWindow(((0.0, 1.0),)))
    atk.apply_load_change(grid, 0.5, spec)
    total = sum(l.demand for l in grid.loads)
    assert total == pytest.approx(1.5 * 200.0)


def test_load_change_absolute():
    grid = grid_with_loads(100.0)
    spec = LoadChange(targets=("l0",), delta=-30.0, fraction=False,
                      window=AttackWindow(((0.0, 1.0),)))
    atk.apply_load_change(grid, 0.0, spec)
    assert grid.loads[0].demand == pytest.approx(70.0)


def test_load_change_unknown_target():
    grid = grid_with_loads(100.0)
    spec = LoadChange(targets=("zz",), delta=0.5, window=AttackWindow(((0.0, 1.0),)))
    with pytest.raises(KeyError):
        atk.apply_load_change(grid, 0.5, spec)


def test_load_change_fraction_bound():
    with pytest.raises(ValueError):
        LoadChange(targets=("l0",), delta=-1.0, fraction=True, window=WINDOW)


# -- time delay -----------------------------------------------------------------------

def test_time_delay_rejects_negative():
    with pytest.raises(ValueError):
        TimeDelay(tap="link:l1", delay=-1.0, window=WINDOW)


def test_time_delay_rejects_nan():
    with pytest.raises(ValueError):
        TimeDelay(tap="link:l1", delay=math.nan, window=WINDOW)


# -- breaker ---------------------------------------------------------------------------

def test_breaker_attack_schedule_validation():
    with pytest.raises(ValueError):
        BreakerAttack(breaker="b", schedule=((2.0, "open"), (1.0, "close")))
    with pytest.raises(ValueError):
        BreakerAttack(breaker="b", schedule=((1.0, "toggle"),))
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            BreakerAttack(breaker="b", schedule=((t, "open"),))
        with pytest.raises(ValueError):
            ControlDia(tap="ctrl:p", schedule=((t, 0.1),), window=WINDOW)


# -- identity-outside-window properties ----------------------------------------------

windows = st.tuples(st.floats(0, 50, allow_nan=False),
                     st.floats(0.1, 50, allow_nan=False)).map(
    lambda p: AttackWindow(((p[0], p[0] + p[1]),)))


@given(windows,
       st.floats(-1e6, 1e6, allow_nan=False),
       st.floats(-5, 5, allow_nan=False),
       st.floats(0, 200, allow_nan=False))
@settings(max_examples=200)
def test_dia_identity_outside_window(window, y, beta, t):
    spec = DiaCombined(tap="meas:p", beta=beta,
                       noise=SinusoidNoise(3.0, 1.0), window=window)
    if not window.contains(t):
        y_a, dy = atk.apply_dia(y, t, spec, np.random.default_rng(0))
        assert y_a == y and dy == 0.0


@given(windows, st.floats(0, 200, allow_nan=False), st.floats(-2, 2, allow_nan=False))
@settings(max_examples=200)
def test_control_dia_identity_outside_window(window, t, offset):
    spec = ControlDia(tap="ctrl:p", schedule=((0.0, offset),), window=window)
    if not window.contains(t):
        assert atk.apply_control_dia(1.0, t, spec) == (1.0, 0.0)
