import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (TWO_BODY, aos_rk4_batch, closure_rk4_segment,
                      expression_rhs_batch, expression_rk4_block, gve_rhs_batch,
                      gve_rhs_scalar, j2_accel_batch, j2_accel_scalar)
from orbtour import ocp, propagate
from orbtour.constants import EARTH
from orbtour.dynamics import orbit_scalars
from orbtour.elements import (KeplerianState, MeeState, SpacecraftState,
                              kep_to_mee, mee_to_kep)
from orbtour.errors import SingularStateError
from orbtour.ocp import linearize_batch
from orbtour.propagate import (PropagatorConfig, _rhs_into, propagate_numeric,
                               rk4_batch, rk4_segment)

TAU = 2 * math.pi


def coast(kep: KeplerianState, duration: float, step: float, consts=EARTH,
          n_segments: int = 1) -> np.ndarray:
    state = SpacecraftState(kep_to_mee(kep), 235.0)
    seg = duration / n_segments
    return propagate_numeric(state, np.zeros((n_segments, 3)),
                             np.full(n_segments, seg), 277.0,
                             PropagatorConfig(step=step), consts)


def test_keplerian_closure_one_period():
    kep = KeplerianState(7000.0, 0.1, 1.0, 0.5, 0.3, 0.7)
    _, period, _ = orbit_scalars(7000.0)
    traj = coast(kep, period, 10.0, TWO_BODY)
    start, end = traj[0], traj[-1]
    assert np.max(np.abs(end[:5] - start[:5])) < 1e-9
    assert end[5] - start[5] == pytest.approx(TAU, abs=1e-8)


def test_shape_elements_exact_without_forcing():
    # with zero perturbation the first five element derivatives vanish
    # identically, so the integrator preserves them to rounding
    kep = KeplerianState(7200.0, 0.3, 1.2, 2.0, 4.0, 0.1)
    traj = coast(kep, 3 * 6000.0, 10.0, TWO_BODY, n_segments=3)
    assert np.max(np.abs(traj[:, :5] - traj[0, :5])) < 1e-12


def test_rk4_order_by_step_halving():
    kep = KeplerianState(7000.0, 0.1, 1.0, 0.5, 0.3, 0.0)
    _, period, _ = orbit_scalars(7000.0)
    errs = []
    for step in (40.0, 20.0, 10.0):
        traj = coast(kep, period, step, TWO_BODY)
        # after one period the longitude must advance exactly one turn
        errs.append(abs(traj[-1, 5] - traj[0, 5] - TAU))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.2)


def test_phase_error_per_orbit_small_at_default_step():
    kep = KeplerianState(7000.0, 0.1, 1.0, 0.5, 0.3, 0.0)
    _, period, _ = orbit_scalars(7000.0)
    traj = coast(kep, period, 10.0, TWO_BODY)
    assert abs(traj[-1, 5] - traj[0, 5] - TAU) / TAU < 1e-9


def test_secular_drift_matches_model_over_ten_orbits():
    from orbtour.dynamics import j2_secular_rates
    kep = KeplerianState(7000.0, 0.05, math.radians(97.4), 1.0, 0.4, 0.0)
    _, period, _ = orbit_scalars(7000.0)
    traj = coast(kep, 10 * period, 10.0, n_segments=400)
    k0 = mee_to_kep(MeeState.from_array(traj[0, :6]))
    k1 = mee_to_kep(MeeState.from_array(traj[-1, :6]))
    draan, _ = j2_secular_rates(kep.a, kep.e, kep.i)
    measured = ((k1.raan - k0.raan + math.pi) % TAU - math.pi) / (10 * period)
    assert measured == pytest.approx(draan, rel=0.01)


def test_tangential_thrust_raises_sma():
    kep = KeplerianState(7000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    state = SpacecraftState(kep_to_mee(kep), 235.0)
    controls = np.array([[0.0, 0.0126, 0.0]] * 20)
    traj = propagate_numeric(state, controls, np.full(20, 60.0), 277.0,
                             PropagatorConfig(step=10.0), TWO_BODY)
    smas = traj[:, 0] / (1.0 - traj[:, 1] ** 2 - traj[:, 2] ** 2)
    assert np.all(np.diff(smas) > 0.0)


def test_segment_shorter_than_step_is_integrated_exactly():
    kep = KeplerianState(7000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    state = SpacecraftState(kep_to_mee(kep), 235.0)
    short = propagate_numeric(state, np.zeros((1, 3)), np.array([4.0]), 277.0,
                              PropagatorConfig(step=10.0), EARTH)
    double = propagate_numeric(state, np.zeros((2, 3)), np.array([2.0, 2.0]),
                               277.0, PropagatorConfig(step=10.0), EARTH)
    assert np.max(np.abs(short[-1] - double[-1])) < 1e-10


def test_shape_validation():
    kep = KeplerianState(7000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    state = SpacecraftState(kep_to_mee(kep), 235.0)
    with pytest.raises(ValueError):
        propagate_numeric(state, np.zeros((2, 3)), np.array([1.0]), 277.0)
    with pytest.raises(ValueError):
        propagate_numeric(state, np.zeros((1, 3)), np.array([-1.0]), 277.0)


# ---------------------------------------------------------------------------
# fused right-hand sides against the unfused oracles
# ---------------------------------------------------------------------------

VE = 277.0 * EARTH.g0


def near_circular_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 7) states near 7000 km with small eccentricity, inclinations up
    to about 100 deg, unwrapped longitudes and a partly used tank."""
    chi = np.tan(rng.uniform(0.0, math.radians(100.0), n) / 2.0)
    node = rng.uniform(0.0, 2 * math.pi, n)
    return np.column_stack([
        rng.uniform(6800.0, 7200.0, n), rng.normal(0.0, 2e-3, n),
        rng.normal(0.0, 2e-3, n), chi * np.cos(node), chi * np.sin(node),
        rng.uniform(0.0, 40.0, n), rng.uniform(150.0, 235.0, n)])


def thrusts(rng: np.random.Generator, n: int, magnitude: float = 0.0126) -> np.ndarray:
    u = rng.normal(size=(n, 3))
    return magnitude * u / np.linalg.norm(u, axis=1)[:, None]


def oracle_rk4_step(y, u, dt: float, consts) -> np.ndarray:
    """One RK4 step of gve_rhs_scalar after j2_accel_scalar, the unfused
    composition the sequential kernel replaces."""
    def rhs(y):
        p, f, g, h, k, L, m = (float(c) for c in y)
        jr, jt, jn = j2_accel_scalar(p, f, g, h, k, L, consts.mu, consts.j2, consts.re)
        rates = gve_rhs_scalar(p, f, g, h, k, L, u[0] / m + jr, u[1] / m + jt,
                               u[2] / m + jn, consts.mu)
        return np.array([*rates, -math.sqrt(u[0]**2 + u[1]**2 + u[2]**2) / VE])

    y = np.asarray(y, dtype=float)
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("consts", [EARTH, TWO_BODY], ids=["j2", "two_body"])
@pytest.mark.parametrize("magnitude", [0.0, 0.0126], ids=["coast", "thrust"])
def test_fused_scalar_step_matches_unfused_oracle(consts, magnitude):
    rng = np.random.default_rng(17)
    states = near_circular_states(rng, 64)
    controls = thrusts(rng, 64, magnitude)
    for y, u in zip(states, controls):
        u = tuple(float(c) for c in u)
        fused = rk4_segment(tuple(y), u, 10.0, 10.0, VE, consts)
        np.testing.assert_allclose(fused, oracle_rk4_step(y, u, 10.0, consts),
                                   rtol=1e-12, atol=0.0)


def eccentric_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 7) states with eccentricities of 0.05-0.5 and p of 7500-12000 km,
    otherwise drawn like :func:`near_circular_states`."""
    y = near_circular_states(rng, n)
    e, peri = rng.uniform(0.05, 0.5, n), rng.uniform(0.0, 2 * math.pi, n)
    y[:, 0] = rng.uniform(7500.0, 12000.0, n)
    y[:, 1], y[:, 2] = e * np.cos(peri), e * np.sin(peri)
    return y


@pytest.mark.parametrize("consts", [EARTH, TWO_BODY], ids=["j2", "two_body"])
@pytest.mark.parametrize("duration", [7.3, 1234.5], ids=["1_substep", "124_substeps"])
def test_inline_kernel_equals_closure_oracle(consts, duration):
    # thrust-free, thrusting and thrusting with one zero component, from
    # near-circular and eccentric states; == lets a thrust-free step differ
    # from the oracle only in the sign of an element that is exactly zero
    rng = np.random.default_rng(37)
    states = np.vstack([near_circular_states(rng, 24), eccentric_states(rng, 24)])
    one_zero = thrusts(rng, 48)
    one_zero[np.arange(48), rng.integers(0, 3, 48)] = 0.0
    for controls in (np.zeros((48, 3)), thrusts(rng, 48), one_zero):
        for y, u in zip(states.tolist(), controls.tolist()):
            inline = rk4_segment(y, u, duration, 10.0, VE, consts)
            assert inline == closure_rk4_segment(y, u, duration, 10.0, VE, consts)


@pytest.mark.parametrize("consts", [EARTH, TWO_BODY], ids=["j2", "two_body"])
def test_propagate_numeric_equals_loop_over_closure_oracle(consts):
    rng = np.random.default_rng(41)
    y0 = near_circular_states(rng, 1)[0]
    controls = thrusts(rng, 40)
    controls[rng.random(40) < 0.6] = 0.0
    durations = rng.uniform(0.0, 400.0, 40)
    durations[3] = 0.0
    state = SpacecraftState(MeeState.from_array(y0[:6]), float(y0[6]))
    traj = propagate_numeric(state, controls, durations, 277.0,
                             PropagatorConfig(step=10.0), consts)
    rows = [tuple(y0)]
    for u, dur in zip(controls.tolist(), durations.tolist()):
        rows.append(closure_rk4_segment(rows[-1], u, dur, 10.0, VE, consts))
    assert np.array_equal(traj, np.array(rows))


@pytest.mark.parametrize("consts", [EARTH, TWO_BODY], ids=["j2", "two_body"])
def test_fused_batch_rhs_equals_unfused_oracle(consts):
    rng = np.random.default_rng(23)
    y = near_circular_states(rng, 256)
    u = thrusts(rng, 256)
    u[::4] = 0.0
    acc = u / y[:, 6:7] + j2_accel_batch(y[:, :6], consts.mu, consts.j2, consts.re)
    expected = gve_rhs_batch(y[:, :6], acc, consts.mu)
    cj2 = consts.mu * consts.j2 * consts.re * consts.re
    rates = np.empty((6, 256))
    _rhs_into(rates, *y.T.copy(), *u.T.copy(), consts.mu, cj2,
              np.empty((propagate._RHS_SCRATCH, 256)))
    assert np.array_equal(rates.T, expected)
    # the in-place kernel keeps every bit of the expression form
    oracle = np.array(expression_rhs_batch(*y.T.copy(), *u.T.copy(), consts.mu, cj2))
    assert np.array_equal(rates.view(np.uint64), oracle.view(np.uint64))


@pytest.mark.parametrize("nsteps", [1, 4])
def test_whole_batch_equals_whole_batch_oracle(nsteps):
    # a batch larger than any chunk of the ocp walks, coast and burn rows
    # mixed, integrated on one work array: the bits of the whole-batch
    # oracle and of the expression-form block
    rng = np.random.default_rng(29)
    n = 2 * ocp.BATCH_BLOCK + 1234
    y = near_circular_states(rng, n)
    u = thrusts(rng, n)
    u[::3] = 0.0
    duration = rng.uniform(1.0, 160.0, n)
    expected = aos_rk4_batch(y, u, duration, nsteps, VE, EARTH)
    blocks = expression_rk4_block(y, u, -np.linalg.norm(u, axis=1) / VE,
                                  duration / nsteps, nsteps, EARTH.mu,
                                  EARTH.mu * EARTH.j2 * EARTH.re * EARTH.re).T
    assert np.array_equal(blocks.view(np.uint64), expected.view(np.uint64))
    got = rk4_batch(y, u, duration / nsteps, nsteps, VE, EARTH)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


# ---------------------------------------------------------------------------
# singular states
# ---------------------------------------------------------------------------

def test_burning_the_tank_dry_raises():
    # 0.02 kg lasts about 4.3 s at 12.6 mN: the mid-step stage of the first
    # 10 s step already sees a negative mass
    state = SpacecraftState(kep_to_mee(KeplerianState(7000.0, 0.0, 1.0, 0.0, 0.0, 0.0)),
                            0.02)
    with pytest.raises(SingularStateError, match="mass"):
        propagate_numeric(state, np.array([[0.0, 0.0126, 0.0]]), np.array([10.0]),
                          277.0, PropagatorConfig(step=10.0))


def test_state_with_nonpositive_w_raises():
    # MeeState rejects open orbits, so the f = -1.5, L = 0 state (w = -0.5)
    # reaches the integrator through a plain namespace
    mee = SimpleNamespace(p=7000.0, f=-1.5, g=0.0, h=0.0, k=0.0, L=0.0)
    with pytest.raises(SingularStateError, match="w = "):
        propagate_numeric(SimpleNamespace(mee=mee, mass=235.0), np.zeros((1, 3)),
                          np.array([10.0]), 277.0)


def test_batch_row_with_nonpositive_w_raises():
    y = np.array([[7000.0, 0.0, 0.0, 0.1, 0.2, 0.3, 235.0],
                  [7000.0, -1.5, 0.0, 0.0, 0.0, 0.0, 235.0]])
    with pytest.raises(SingularStateError):
        rk4_batch(y, np.zeros((2, 3)), np.array([10.0, 10.0]), 1, VE, EARTH)
    # a bad row near the end of a large batch
    n = 2 * ocp.BATCH_BLOCK + 10
    y = np.tile(y[0], (n, 1))
    y[2 * ocp.BATCH_BLOCK + 5, 1:6] = [-1.5, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(SingularStateError):
        rk4_batch(y, np.zeros((n, 3)), np.full(n, 10.0), 1, VE, EARTH)
    # a bad stage in a later chunk of a linearization
    n = 2 * ocp.LINEARIZE_CHUNK + 10
    x = np.tile(y[0], (n, 1))
    x[ocp.LINEARIZE_CHUNK + 5, 1:6] = [-1.5, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(SingularStateError):
        linearize_batch(x, np.zeros((n, 3)), np.full(n, 10.0), np.ones(n, dtype=int),
                        277.0)
