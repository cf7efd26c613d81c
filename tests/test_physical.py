import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpessim import engine, presets
from cpessim import physical as phys
from cpessim.physical import (Breaker, FastSource, FrequencyProtection, Governor,
                              GridModel, Load, LtiPlant, Machine, NodalBoundary,
                              ProtectionAction)

WS = 2 * math.pi * 60.0


def plant_1d(g, x0, b=0.0, c=1.0):
    return LtiPlant(G=[[g]], B=[[b]], C=[[c]], control_matrix=[[0.0]],
                    noise_std=[0.0], x=[x0], u=[0.0])


# -- LTI plant ---------------------------------------------------------------

def test_lti_identity_dynamics():
    p = LtiPlant(G=np.eye(2), B=np.zeros((2, 1)), C=[[1.0, 0.0]],
                 control_matrix=np.zeros((1, 1)), noise_std=[0.0],
                 x=[1.0, -2.0], u=[0.5])
    x_next, y = phys.lti_step(p)
    assert np.allclose(x_next, [1.0, -2.0])
    assert np.allclose(y, 1.0)


def test_lti_scalar_halving():
    p = plant_1d(0.5, 2.0)
    x_next, y = phys.lti_step(p)
    assert x_next[0] == pytest.approx(1.0)
    assert y == pytest.approx(2.0)


def test_lti_matches_matrix_power_closed_form():
    # x(k) = G^k x0 + sum_j G^(k-1-j) B u with constant u; spectral radius < 1
    rng = np.random.default_rng(7)
    g = rng.normal(size=(3, 3))
    g *= 0.9 / max(abs(np.linalg.eigvals(g)))
    b = rng.normal(size=(3, 1))
    u = np.array([0.3])
    p = LtiPlant(G=g, B=b, C=[[1.0, 0.0, 0.0]], control_matrix=np.zeros((1, 1)),
                 noise_std=0.0, x=rng.normal(size=3), u=u)
    x0 = np.array(p.x)
    k = 1000
    for _ in range(k):
        p.x, _ = phys.lti_step(p)
    expected = np.linalg.matrix_power(g, k) @ x0
    acc = np.zeros(3)
    gj = np.eye(3)
    for _ in range(k):
        acc = g @ acc + (b @ u)
    expected = expected + acc
    assert np.max(np.abs(np.array(p.x) - expected)) < 1e-10


def test_lti_decays_when_stable():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(3, 3))
    g *= 0.8 / max(abs(np.linalg.eigvals(g)))
    p = LtiPlant(G=g, B=np.zeros((3, 1)), C=[[1.0, 0.0, 0.0]],
                 control_matrix=np.zeros((1, 1)), noise_std=0.0,
                 x=[1.0, 1.0, 1.0], u=[0.0])
    for _ in range(1000):
        p.x, _ = phys.lti_step(p)
    assert np.linalg.norm(p.x) < 1e-12


def test_lti_dimension_mismatch_rejected_at_construction():
    with pytest.raises(ValueError):
        LtiPlant(G=np.eye(2), B=np.zeros((3, 1)), C=np.eye(2),
                 control_matrix=np.zeros((1, 2)), noise_std=[0.0, 0.0],
                 x=[0.0, 0.0], u=[0.0])
    with pytest.raises(ValueError):
        LtiPlant(G=np.eye(1), B=np.zeros((1, 1)), C=np.eye(1),
                 control_matrix=np.zeros((1, 1)), noise_std=[-0.1],
                 x=[0.0], u=[0.0])


def test_lti_noise_is_seeded():
    def run(seed):
        p = plant_1d(1.0, 0.0)
        p.noise_std = 0.5
        rng = np.random.default_rng(seed)
        return [phys.lti_step(p, rng.normal(0.0, p.noise_std))[1] for _ in range(10)]

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_lti_step_is_left_to_right_float_arithmetic():
    # the same bits on every host: no fused multiply-add, no compensated sum
    doc = presets.preset_doc("case1_dia")["grid"]["plants"][0]
    (g00, g01), (g10, g11) = doc["G"]
    (b0,), (b1,) = doc["B"]
    ((c0, c1),) = doc["C"]
    p = LtiPlant(G=doc["G"], B=doc["B"], C=doc["C"], control_matrix=doc["control_matrix"],
                 noise_std=0.0, x=[0.0, 0.0], u=[0.0])
    rng = np.random.default_rng(2024)
    for x0, x1, u0 in rng.normal(0.0, 100.0, size=(10_000, 3)).tolist():
        p.x, p.u = [x0, x1], [u0]
        x_next, y = phys.lti_step(p)
        assert all(type(v) is float for v in (*x_next, y))
        assert x_next == [g00 * x0 + g01 * x1 + b0 * u0, g10 * x0 + g11 * x1 + b1 * u0]
        assert y == c0 * x0 + c1 * x1


# -- electrical power: coupling * sin(delta), as the engine's tiers compute it --

def electrical_power(v_s, v_r, x, delta):
    m = Machine(id="m", inertia_const=5.0, p_mech=0.0, v_internal=v_s, v_recv=v_r,
                reactance=x)
    return m.coupling * math.sin(delta)


def test_electrical_power_zero_angle():
    assert electrical_power(1.0, 1.0, 0.5, 0.0) == 0.0


def test_electrical_power_quarter_cycle():
    assert electrical_power(1.0, 1.0, 0.5, math.pi / 2) == pytest.approx(2.0)


def test_electrical_power_thirty_degrees():
    # 1.05 * 1.0 * sin(pi/6) / 0.3, checked against independent evaluation
    assert electrical_power(1.05, 1.0, 0.3, math.pi / 6) == pytest.approx(1.75, rel=1e-12)


def test_electrical_power_rejects_bad_reactance():
    with pytest.raises(ValueError):
        Machine(id="m", inertia_const=5.0, p_mech=0.0, reactance=0.0)


# -- swing integration -----------------------------------------------------------

def machine(h=5.0, pm=0.5, delta=0.0, omega=WS, **kw):
    return Machine(id="m", inertia_const=h, p_mech=pm, delta=delta, omega=omega,
                   omega_sync=WS, **kw)


def test_swing_equilibrium_is_preserved():
    # two machines of peak transfer 2 pu each, balanced against their own 1.6 pu demand
    grid = GridModel(machines=[Machine(id=f"m{i}", inertia_const=5.0, p_mech=0.8,
                                       reactance=0.5, omega=WS, omega_sync=WS)
                               for i in range(2)])
    tier = engine._MultiMachineTier(grid, 1e-3)
    delta_star = math.asin(0.8 / 2.0)
    for k in range(10_000):
        tier.step(k * 1e-3, k, 1.6)
    for m in grid.machines:
        assert m.omega == pytest.approx(WS, abs=1e-9)
        assert m.delta == pytest.approx(delta_star, abs=1e-9)


def test_swing_initial_rocof():
    # constant 0.1 pu surplus with H = 5 s gives 0.1 * ws / (2*5) rad/s^2 = 0.6 Hz/s
    m = machine(h=5.0, pm=0.1)
    dt = 1e-3
    w0 = m.omega
    phys.swing_step(m, 0.0, dt)
    rocof_hz = (m.omega - w0) / (2 * math.pi) / dt
    assert rocof_hz == pytest.approx(0.6, rel=1e-6)


def rk4_damped_swing_error(dt, horizon=0.2, h=0.5, damping=100.0, pm=0.5, p_elec=0.2):
    """Max speed error of a damped machine under constant electrical power, relative
    to its settled deviation: omega - ws = x_inf (1 - exp(-lambda t)), with
    lambda = damping / (2 H) and x_inf = ws (pm - p_elec) / damping."""
    m = machine(h=h, pm=pm, damping=damping)
    n = int(round(horizon / dt))
    ts = np.arange(n + 1) * dt
    speeds = [m.omega - WS]
    for k in range(n):
        m = phys.swing_step(m, p_elec, dt, step_index=k)
        speeds.append(m.omega - WS)
    x_inf = WS * (pm - p_elec) / damping
    exact = x_inf * (1 - np.exp(-damping / (2 * h) * ts))
    return np.max(np.abs(np.array(speeds) - exact)) / x_inf


def test_swing_matches_linearized_closed_form():
    assert rk4_damped_swing_error(1e-3) < 1e-4


def test_swing_fourth_order_convergence():
    e1 = rk4_damped_swing_error(1e-3)
    e2 = rk4_damped_swing_error(5e-4)
    assert 8 < e1 / e2 < 32


def test_swing_rejects_bad_dt():
    m = machine()
    with pytest.raises(ValueError):
        phys.swing_step(m, 0.0, 0.02)
    with pytest.raises(ValueError):
        phys.swing_step(m, 0.0, 0.0)


def test_swing_divergence_carries_step_index():
    mm = machine(h=1e-6)
    with pytest.raises(phys.IntegrationDivergedError) as err:
        for k in range(10_000):
            # a huge surplus on a near-weightless rotor overflows to non-finite values
            mm = phys.swing_step(mm, -1e300, 1e-3, step_index=k)
    assert err.value.step_index is not None


def reference_swing_step(m: Machine, p_elec: float, dt: float) -> tuple[float, float, float]:
    """(delta, omega, gov_power) after one RK4 step written stage by stage:
    a rate function called at each stage, ``Governor.target`` for the droop,
    and the weighted sums k1 + 2*k2 + 2*k3 + k4 formed left to right."""
    accel_gain = m.omega_sync / (2.0 * m.inertia_const)
    gov = m.governor

    def rates(omega, gp):
        if gov is None:
            boost = dgp = 0.0
        elif gov.time_constant > 0:
            boost = gp
            dgp = (gov.target(omega / (2 * math.pi), m.f_nom) - gp) / gov.time_constant
        else:
            boost, dgp = gov.target(omega / (2 * math.pi), m.f_nom), 0.0
        p_acc = m.p_mech + boost - p_elec
        if m.damping:
            p_acc -= m.damping * (omega - m.omega_sync) / m.omega_sync
        return omega - m.omega_sync, accel_gain * p_acc, dgp

    half = 0.5 * dt
    w0, g0 = m.omega, m.gov_power
    k1 = rates(w0, g0)
    k2 = rates(w0 + half * k1[1], g0 + half * k1[2])
    k3 = rates(w0 + half * k2[1], g0 + half * k2[2])
    k4 = rates(w0 + dt * k3[1], g0 + dt * k3[2])
    d, w, g = (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i] for i in range(3))
    sixth = dt / 6.0
    omega = w0 + sixth * w
    if gov is None:
        gp = 0.0
    elif gov.time_constant > 0:
        gp = g0 + sixth * g
    else:
        gp = gov.target(omega / (2 * math.pi), m.f_nom)
    return m.delta + sixth * d, omega, gp


@pytest.mark.parametrize("governor", ["none", "lagged", "instantaneous"])
@pytest.mark.parametrize("damping", [0.0, 0.15])
def test_swing_step_equals_stagewise_rk4(governor, damping):
    rng = np.random.default_rng([len(governor), int(damping * 100)])
    deadband_hits = caps_hit = 0
    for i in range(300):
        gov = None
        if governor != "none":
            capped = i % 2 == 0
            lag = float(rng.uniform(0.05, 1.0)) if governor == "lagged" else 0.0
            gov = Governor(gain=float(rng.uniform(0.1, 2.0)), deadband=0.036, time_constant=lag,
                           min_boost=-0.05 if capped else -math.inf,
                           max_boost=0.05 if capped else math.inf)
        # every third state starts inside the deadband (0.2 rad/s is 0.032 Hz); an
        # angle or speed of 0 keeps the last bits of the first step's increment
        spread = 0.2 if i % 3 == 0 else 20.0
        m = machine(h=float(rng.uniform(0.5, 10.0)), pm=float(rng.uniform(0.0, 1.0)),
                    delta=0.0 if i % 2 else float(rng.uniform(-1.0, 1.0)),
                    omega=0.0 if i % 5 == 0 else WS + float(rng.uniform(-spread, spread)),
                    governor=gov, gov_power=float(rng.uniform(-0.1, 0.1)), damping=damping)
        p_elec = float(rng.uniform(0.0, 1.5))
        dt = float(rng.choice([1e-3, 5e-3, 1e-2]))
        for _ in range(5):
            if gov is not None:
                deviation = abs(m.f_nom - m.frequency) - gov.deadband
                deadband_hits += deviation <= 0
                caps_hit += gov.max_boost == 0.05 and gov.gain * deviation > 0.05
            expected = reference_swing_step(m, p_elec, dt)
            phys.swing_step(m, p_elec, dt)
            assert (m.delta, m.omega, m.gov_power) == expected
    if governor != "none":
        assert deadband_hits > 100 and caps_hit > 100


def test_governor_deadband_and_droop():
    gov = Governor(gain=1.0, deadband=0.036, max_boost=0.2)
    assert gov.target(60.0, 60.0) == 0.0
    assert gov.target(59.99, 60.0) == 0.0
    assert gov.target(59.9, 60.0) == pytest.approx(0.064)
    assert gov.target(59.0, 60.0) == 0.2  # capped
    assert gov.target(60.1, 60.0) == pytest.approx(-0.064)


# -- demand aggregation -----------------------------------------------------------

def test_demand_total_empty():
    assert phys.demand_total(GridModel(machines=[machine()])) == 0.0


def test_demand_total_with_attack_offset_and_losses():
    grid = GridModel(machines=[machine()],
                     loads=[Load("a", 100.0), Load("b", 250.0)],
                     p_loss=5.0)
    grid.loads[1].delta_demand = 50.0
    assert phys.demand_total(grid) == pytest.approx(405.0)


def test_demand_total_shed_contributes_zero():
    grid = GridModel(machines=[machine()],
                     loads=[Load("a", 100.0, sheddable=True)])
    grid.loads[0].shed = True
    assert phys.demand_total(grid) == 0.0


def test_demand_total_sums_left_to_right():
    # math.fsum, and Python 3.12's sum(), round this total to 1.0
    grid = GridModel(machines=[machine()], loads=[Load(f"l{i}", 0.1) for i in range(10)])
    assert phys.demand_total(grid) == 0.9999999999999999


def test_demand_total_matches_brute_force():
    rng = np.random.default_rng(11)
    loads = [Load(f"l{i}", float(rng.uniform(0, 10))) for i in range(20)]
    for l in loads[::3]:
        l.delta_demand = float(rng.uniform(-1, 5))
    grid = GridModel(machines=[machine()], loads=loads, p_loss=0.7)
    total = 0.7
    for l in loads:
        total += l.base_demand + l.delta_demand
    assert phys.demand_total(grid) == pytest.approx(total, rel=1e-12)


# -- RL branch companions -------------------------------------------------------------

def rl_companion(i, r, l, emf, u, dt):
    """(history current, conductance) of an RL branch's trapezoidal companion,
    L di/dt = emf - r i - u, at current i and voltage u."""
    alpha = dt * r / (2 * l)
    gamma = dt / (2 * l + dt * r)
    return (1 - alpha) / (1 + alpha) * i + gamma * (2 * emf - u), gamma


def test_group_static():
    # a branch at its DC point stays there
    r, l, emf, u = 0.05, 0.2, 1.1, 1.0
    i = (emf - u) / r
    for _ in range(1000):
        h, gamma = rl_companion(i, r, l, emf, u, 0.01)
        [i] = phys.group_step([h], [gamma], [u])
    assert i == pytest.approx((emf - u) / r, rel=1e-12)


def test_group_exponential_decay():
    i = 1.0
    for _ in range(100):
        h, gamma = rl_companion(i, 1.0, 1.0, 0.0, 0.0, 0.01)
        [i] = phys.group_step([h], [gamma], [0.0])
    assert i == pytest.approx(math.exp(-1.0), abs=1e-4)


def test_group_dimension_checks():
    with pytest.raises(ValueError):
        phys.group_step([1.0, 2.0], [0.1], [0.5, 0.5])
    with pytest.raises(ValueError):
        phys.group_step([1.0], [0.1], [0.5, 0.5])


# -- nodal boundary -----------------------------------------------------------------

def test_nodal_identity():
    assert phys.nodal_solve(NodalBoundary(1.0, 0.0, 0.0, 1.0), 1.0, 2.0) == (1.0, 2.0)


def test_nodal_two_by_two_hand_case():
    v1, v2 = phys.nodal_solve(NodalBoundary(2.0, -1.0, -1.0, 2.0), 1.0, 0.0)
    assert abs(v1 - 2.0 / 3.0) < 1e-12
    assert abs(v2 - 1.0 / 3.0) < 1e-12


def test_nodal_rejects_singular():
    with pytest.raises(phys.SingularBoundaryError, match="condition estimate"):
        NodalBoundary(1.0, 1.0, 1.0, 1.0)


def test_nodal_rejects_non_finite_residual():
    b = NodalBoundary(2.0, -1.0, -1.0, 2.0)
    phys.nodal_solve(b, 1.0, 0.0)
    with pytest.raises(phys.SingularBoundaryError, match="nodal residual nan"):
        phys.nodal_solve(b, math.nan, 0.0)


def test_nodal_residual_is_relative_to_the_row_scale():
    # a well-conditioned boundary in large units leaves an absolute residual
    # far above NODAL_RESIDUAL_TOL from rounding alone; the check scales with it
    y = 1e10 * np.array([[2.0, -1.0], [-1.0, 2.0]]) + np.array([[1.0, 0.0], [0.0, 3.0]])
    b = NodalBoundary(*y.ravel().tolist())
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        i = (1e10 * rng.normal(size=2)).tolist()
        v = phys.nodal_solve(b, *i)
        assert np.allclose(v, np.linalg.solve(y, i), rtol=1e-9, atol=0.0)
        worst = max(worst, float(np.max(np.abs(y @ v - i))))
    assert worst > phys.NODAL_RESIDUAL_TOL
    swap, a00, a01, f, u11 = b.factors
    b.factors = (swap, a00, a01, f, u11 * (1.0 + 1e-6))  # a solve off by 1e-6
    with pytest.raises(phys.SingularBoundaryError, match="nodal residual"):
        phys.nodal_solve(b, *i)


# -- protection ---------------------------------------------------------------------

def test_protection_regions():
    p = FrequencyProtection()
    assert phys.protection_check(60.0, p) is ProtectionAction.NONE
    assert phys.protection_check(59.87, p) is ProtectionAction.GOVERNOR
    assert phys.protection_check(55.75, p) is ProtectionAction.UNDERFREQ_TRIP
    assert phys.protection_check(59.0, p) is ProtectionAction.LOAD_SHED
    assert phys.protection_check(62.2, p) is ProtectionAction.OVERFREQ_TRIP
    assert phys.protection_check(57.8, p) is ProtectionAction.UNDERFREQ_TRIP


@given(st.floats(min_value=1e-3, max_value=200.0, allow_nan=False))
def test_protection_is_total_over_positive_frequencies(f):
    action = phys.protection_check(f, FrequencyProtection())
    assert action in ProtectionAction


def reference_band(f, p):
    """The band precedence written out for one sample: trips, then the shed
    band, then the governor band."""
    if f >= p.overfreq_trip:
        return ProtectionAction.OVERFREQ_TRIP
    if f <= p.underfreq_trip:
        return ProtectionAction.UNDERFREQ_TRIP
    if p.shed_low <= f <= p.shed_high:
        return ProtectionAction.LOAD_SHED
    if abs(f - p.f_nom) > p.governor_deadband:
        return ProtectionAction.GOVERNOR
    return ProtectionAction.NONE


def test_protection_bands_match_protection_check_per_sample():
    p = FrequencyProtection()
    edges = [p.underfreq_trip, p.shed_low, p.shed_high, p.overfreq_trip,
             p.f_nom - p.governor_deadband, p.f_nom + p.governor_deadband, p.f_nom]
    near = [np.nextafter(f, direction) for f in edges for direction in (-np.inf, np.inf)]
    v = np.array(edges + near + [math.nan, math.inf, -math.inf, 0.0]
                 + list(np.random.default_rng(5).uniform(55.0, 65.0, 2000)))
    bands = phys.protection_bands(v, p)
    for i, f in enumerate(v.tolist()):
        named = [action for action, mask in bands.items() if mask[i]]
        expected = reference_band(f, p)
        assert named == ([] if expected is ProtectionAction.NONE else [expected]), f
        assert phys.protection_check(f, p) is expected, f
    assert all(bands[action].any() for action in bands)


def test_protection_changes_are_the_per_sample_transitions():
    p = FrequencyProtection()
    edges = [p.underfreq_trip, p.shed_low, p.shed_high, p.overfreq_trip,
             p.f_nom - p.governor_deadband, p.f_nom + p.governor_deadband, p.f_nom]
    near = [np.nextafter(f, direction) for f in edges for direction in (-np.inf, np.inf)]
    special = np.array(edges + near + [math.nan, math.inf, -math.inf])
    rng = np.random.default_rng(23)
    traces = [np.full(40, p.f_nom), np.full(40, p.shed_low)]  # constant; off-nominal from 0
    for _ in range(300):
        n = int(rng.integers(1, 80))
        pick = rng.random(n) < 0.5
        traces.append(np.where(pick, rng.choice(special, n), rng.uniform(57.0, 63.0, n)))
    for v in traces:
        actions = [reference_band(f, p) for f in v.tolist()]
        before = [ProtectionAction.NONE] + actions[:-1]
        expected = [k for k, (a, b) in enumerate(zip(actions, before)) if a is not b]
        assert phys.protection_changes(v, p).tolist() == expected
    assert phys.protection_changes(traces[0], p).tolist() == []
    assert phys.protection_changes(traces[1], p).tolist() == [0]


def test_protection_threshold_ordering_enforced():
    with pytest.raises(ValueError):
        FrequencyProtection(shed_low=59.6, shed_high=59.5)


# -- contingencies and breakers -------------------------------------------------------

def test_disconnect_zeroes_machine():
    m = machine(pm=0.7)
    m.governor = Governor(gain=1.0)
    phys.disconnect_machine(m)
    assert not m.connected
    assert m.p_mech == 0.0
    assert m.coupling == 0.0


def test_breaker_schedule_must_be_sorted():
    with pytest.raises(ValueError):
        Breaker(id="b", schedule=[(2.0, "open"), (1.0, "close")])
    with pytest.raises(ValueError):
        Breaker(id="b", schedule=[(1.0, "flip")])
    with pytest.raises(ValueError):
        Breaker(id="b", schedule=[(math.nan, "open")])


def test_machine_coupling_is_set_when_built():
    assert machine(reactance=0.25, v_internal=1.1).coupling == 1.1 * 1.0 / 0.25
    assert Machine(id="off", inertia_const=5, connected=False).coupling == 0.0


# -- load-bus balance ------------------------------------------------------------------

def test_solve_load_angle_balances_demand():
    machines = [Machine(id=f"m{i}", inertia_const=5, p_mech=0.3,
                        delta=0.1 * i, reactance=0.3) for i in range(3)]
    demand = 0.9
    theta = phys.solve_load_angle(machines, demand)
    transfer = sum(m.coupling * math.sin(m.delta - theta) for m in machines)
    assert transfer == pytest.approx(demand, abs=1e-10)


def test_solve_load_angle_falls_back_to_bisection_on_a_flat_guess(monkeypatch):
    # cos(delta - guess) = cos(pi/2): Newton's slope is ~1e-16, so it stops at once
    guess = 0.2
    machines = [Machine(id="m", inertia_const=5, p_mech=0.3, reactance=0.3,
                        delta=guess + math.pi / 2)]
    residuals = []
    real_residual = phys._balance_residual
    monkeypatch.setattr(phys, "_balance_residual",
                        lambda *args: residuals.append(None) or real_residual(*args))
    theta = phys.solve_load_angle(machines, 0.3, guess)
    assert residuals  # only the bisection evaluates the residual on its own
    assert theta == 1.6806743817805743
    assert abs(machines[0].coupling * math.sin(machines[0].delta - theta) - 0.3) < 1e-12


def test_solve_load_angle_rejects_excess_demand():
    machines = [Machine(id="m", inertia_const=5, p_mech=0.3, reactance=0.3)]
    with pytest.raises(phys.SingularBoundaryError):
        phys.solve_load_angle(machines, 100.0)


def test_fast_source_caps_and_lags():
    fs = FastSource(id="b", gain=1.0, max_power=0.1, time_constant=0.0)
    assert fs.step(59.0, 60.0, 0.0) == pytest.approx(0.1)
    assert fs.step(61.0, 60.0, 0.0) == pytest.approx(-0.1)
    lagged = FastSource(id="b2", gain=1.0, max_power=1.0, time_constant=0.05)
    decay = math.exp(-1e-3 / 0.05)  # the lag's factor over one 1 ms step
    first = lagged.step(59.0, 60.0, decay)
    assert 0 < first < 1.0
    assert first == 1.0 + (0.0 - 1.0) * decay


# -- in-place kernels ----------------------------------------------------------------

def test_swing_step_advances_the_same_machine():
    m = machine(h=5.0, pm=0.1, delta=0.2)
    d0, w0 = m.delta, m.omega
    out = phys.swing_step(m, 0.0, 1e-3)
    assert out is m
    assert m.omega > w0 and m.delta > d0


def test_swing_divergence_leaves_machine_unchanged():
    m = machine(h=1e-6, pm=0.0, delta=0.1)
    before = (m.delta, m.omega, m.gov_power)
    with pytest.raises(phys.IntegrationDivergedError):
        phys.swing_step(m, math.inf, 1e-3, step_index=7)
    assert (m.delta, m.omega, m.gov_power) == before


def test_group_step_equals_companion_and_bilinear_formula():
    rng = np.random.default_rng(3)
    n = 4
    r = rng.uniform(0.01, 0.5, n)
    l = rng.uniform(0.05, 1.0, n)
    emf = rng.uniform(1.5, 2.5, n)
    # the branches as one group s' = A s + D [u, 1]
    a = np.diag(-r / l)
    d = np.column_stack([-1.0 / l, emf / l])
    eye = np.eye(n)
    s = rng.uniform(0.5, 2.0, n).tolist()
    u = 1.0
    for k, dt in enumerate([0.01, 0.01, 0.002, 0.002, 0.01, 0.001]):
        u_new = 1.0 + 0.1 * math.sin(k)
        hist, gamma = zip(*(rl_companion(i, rk, lk, ek, u, dt) for i, rk, lk, ek
                            in zip(s, r.tolist(), l.tolist(), emf.tolist())))
        new = phys.group_step(hist, gamma, [u_new] * n)
        assert new == [h - g * u_new for h, g in zip(hist, gamma)]
        bilinear = np.linalg.solve(eye - dt / 2 * a,
                                   (eye + dt / 2 * a) @ s + dt * (d @ [0.5 * (u + u_new), 1.0]))
        assert np.allclose(new, bilinear, rtol=1e-12, atol=0.0)
        s, u = new, u_new


def test_nodal_solve_matches_numpy():
    swapped = NodalBoundary(0.0, 1.0, 1.0, 0.0)
    assert swapped.factors[0] is True
    assert phys.nodal_solve(swapped, 2.0, 3.0) == (3.0, 2.0)
    assert NodalBoundary(1.0, 2.0, -1.0, 3.0).factors[0] is False  # a tie keeps row 0
    rng = np.random.default_rng(17)
    pivoted = 0
    for _ in range(1000):
        a = rng.normal(size=(2, 2))
        i = rng.normal(size=2)
        b = NodalBoundary(*a.ravel().tolist())
        pivoted += b.factors[0]
        v = phys.nodal_solve(b, *i.tolist())
        assert all(type(x) is float for x in v)
        assert np.allclose(v, np.linalg.solve(a, i), rtol=1e-12, atol=0.0)
    assert pivoted > 400


@pytest.mark.parametrize("rows, column", [((1.0, 2.0, 2.0, 4.0), 1), ((0.0, 1.0, 0.0, 2.0), 0)])
def test_nodal_rejects_zero_pivot(rows, column, monkeypatch):
    with pytest.raises(phys.SingularBoundaryError, match="condition estimate"):
        NodalBoundary(*rows)
    monkeypatch.setattr(np.linalg, "cond", lambda y: 1.0)  # the pivot check stands alone
    with pytest.raises(phys.SingularBoundaryError, match=f"zero pivot in column {column}"):
        NodalBoundary(*rows)


def test_nodal_checks_condition_once_per_boundary(monkeypatch):
    calls = []
    real_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda y: calls.append(1) or real_cond(y))
    y = np.array([[2.0, -1.0], [-1.0, 2.0]])
    b = NodalBoundary(*y.ravel().tolist())
    for k in range(3):
        assert np.allclose(y @ phys.nodal_solve(b, 1.0, float(k)), [1.0, float(k)])
    assert len(calls) == 1
    with pytest.raises(phys.SingularBoundaryError):
        NodalBoundary(1.0, 1.0, 1.0, 1.0)
    assert len(calls) == 2
