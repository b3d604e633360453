import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cart_accel_j2, cart_rk4, cart_to_kep, gve_rhs_scalar,
                      j2_accel_scalar, lvlh_basis, mee_to_cartesian)
from orbtour.constants import EARTH, SECONDS_PER_YEAR
from orbtour.dynamics import j2_secular_rates, orbit_scalars
from orbtour.elements import (KeplerianState, MeeState, SpacecraftState,
                              kep_to_mee, mee_to_kep)
from orbtour.propagate import PropagatorConfig, propagate_numeric

TAU = 2 * math.pi


def make_state(kep: KeplerianState, mass: float = 235.0) -> SpacecraftState:
    return SpacecraftState(kep_to_mee(kep), mass=mass)


def element_rates(st_: SpacecraftState, ar: float, at: float, an: float) -> np.ndarray:
    m = st_.mee
    return np.array(gve_rhs_scalar(m.p, m.f, m.g, m.h, m.k, m.L, ar, at, an, EARTH.mu))


def j2_accel(st_: SpacecraftState) -> np.ndarray:
    m = st_.mee
    return np.array(j2_accel_scalar(m.p, m.f, m.g, m.h, m.k, m.L,
                                    EARTH.mu, EARTH.j2, EARTH.re))


# ---------------------------------------------------------------------------
# variational equations
# ---------------------------------------------------------------------------

def test_unperturbed_rates_keep_shape_elements():
    st_ = make_state(KeplerianState(7000.0, 0.1, 1.0, 0.5, 0.3, 2.0))
    rates = element_rates(st_, 0.0, 0.0, 0.0)
    assert np.all(rates[:5] == 0.0)
    m = st_.mee
    w = 1 + m.f * math.cos(m.L) + m.g * math.sin(m.L)
    assert rates[5] == pytest.approx(math.sqrt(EARTH.mu * m.p) * (w / m.p) ** 2,
                                     rel=1e-14)


def test_tangential_acceleration_on_circular_orbit():
    st_ = make_state(KeplerianState(7000.0, 0.0, 0.9, 0.5, 0.0, 1.2))
    at = 1e-6
    rates = element_rates(st_, 0.0, at, 0.0)
    m = st_.mee
    assert rates[0] == pytest.approx(2 * m.p * math.sqrt(m.p / EARTH.mu) * at,
                                     rel=1e-12)
    assert rates[3] == 0.0 and rates[4] == 0.0


def test_rates_match_cartesian_finite_difference():
    # oracle: independent two-body + J2 propagation in inertial axes
    kep = KeplerianState(7000.0, 0.0, math.radians(97.4), math.radians(158.0),
                         0.0, math.radians(37.0))
    st_ = make_state(kep)
    rates = element_rates(st_, *j2_accel(st_))

    r0, v0 = mee_to_cartesian(st_.mee)
    dt = 0.25
    plus = cart_rk4(np.concatenate([r0, v0]), dt / 50, 50)
    minus = cart_rk4(np.concatenate([r0, v0]), -dt / 50, 50)
    mee_p = kep_to_mee(cart_to_kep(plus[:3], plus[3:])).as_array()
    mee_m = kep_to_mee(cart_to_kep(minus[:3], minus[3:])).as_array()
    fd = (mee_p - mee_m) / (2 * dt)
    floors = np.array([1e-8, 1e-10, 1e-10, 1e-10, 1e-10, 1e-8])
    assert np.max(np.abs(rates - fd) / np.maximum(np.abs(fd), floors)) < 1e-6


# ---------------------------------------------------------------------------
# LVLH frame oracle and thrust
# ---------------------------------------------------------------------------

def test_lvlh_axis_aligned():
    basis = lvlh_basis(np.array([7000.0, 0, 0]), np.array([0, 7.5, 0]))
    assert np.allclose(basis[:, 0], [1, 0, 0])
    assert np.allclose(basis[:, 1], [0, 1, 0])
    assert np.allclose(basis[:, 2], [0, 0, 1])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_lvlh_orthonormal_right_handed(seed):
    rng = np.random.default_rng(seed)
    r = rng.uniform(-9000, 9000, 3)
    v = rng.uniform(-8, 8, 3)
    if np.linalg.norm(r) < 100 or np.linalg.norm(np.cross(r, v)) < 1.0:
        return
    basis = lvlh_basis(r, v)
    assert np.max(np.abs(basis.T @ basis - np.eye(3))) < 1e-12
    assert np.linalg.det(basis) == pytest.approx(1.0, abs=1e-12)


def test_lvlh_along_track_matches_velocity_on_circular_orbit():
    kep = KeplerianState(7000.0, 0.0, 1.1, 0.4, 0.0, 0.7)
    r, v = mee_to_cartesian(kep_to_mee(kep))
    basis = lvlh_basis(r, v)
    assert np.allclose(basis[:, 1], v / np.linalg.norm(v), atol=1e-12)


def test_lvlh_degenerate_rejected():
    with pytest.raises(ValueError):
        lvlh_basis(np.array([7000.0, 0, 0]), np.array([1.0, 0, 0]))


def test_constant_thrust_segment_mass_loss():
    # a segment at thrust T for dt burns T dt / (isp g0) of propellant
    st_ = make_state(KeplerianState(7000.0, 0.0, 1.0, 0.0, 0.0, 0.0), mass=235.0)
    thrust, dt, isp = 0.0126, 30.0, 277.0
    controls = np.array([[0.0, thrust, 0.0], [0.0, 0.0, 0.0]])
    traj = propagate_numeric(st_, controls, np.full(2, dt), isp,
                             PropagatorConfig(step=10.0), EARTH)
    loss = thrust * dt / (isp * EARTH.g0)
    assert loss == pytest.approx(0.004638420318960973 * dt, rel=1e-12)
    assert traj[0, 6] - traj[1, 6] == pytest.approx(loss, rel=1e-12)
    assert traj[2, 6] == traj[1, 6]  # no propellant without thrust


# ---------------------------------------------------------------------------
# oblateness models
# ---------------------------------------------------------------------------

def test_j2_equatorial_components_vanish():
    st_ = make_state(KeplerianState(7000.0, 0.0, 0.0, 0.0, 0.0, 0.8))
    ar, at, an = j2_accel(st_)
    assert at == 0.0 and an == 0.0
    r = 7000.0
    expected = -1.5 * EARTH.mu * EARTH.j2 * EARTH.re**2 / r**4
    assert ar == pytest.approx(expected, rel=1e-14)


def test_j2_matches_cartesian_rotation():
    kep = KeplerianState(7000.0, 0.0, math.radians(97.4), math.radians(158.0),
                         0.0, math.radians(45.0))
    st_ = make_state(kep)
    acc = j2_accel(st_)
    r, v = mee_to_cartesian(st_.mee)
    oracle = lvlh_basis(r, v).T @ cart_accel_j2(r)
    assert np.max(np.abs(acc - oracle)) < 1e-9 * max(np.max(np.abs(oracle)), 1e-12)


def test_secular_rate_zeros():
    # cos(pi/2) only vanishes to machine precision in floats
    draan, _ = j2_secular_rates(7000.0, 0.0, math.pi / 2)
    assert draan == pytest.approx(0.0, abs=1e-20)
    _, dargp = j2_secular_rates(7000.0, 0.0, math.acos(math.sqrt(1.0 / 5.0)))
    assert dargp == pytest.approx(0.0, abs=1e-20)


def test_secular_rate_sun_synchronous():
    # ~360 deg/year node drift at 500 km altitude, 97.40 deg
    draan, _ = j2_secular_rates(EARTH.re + 500.0, 0.0, math.radians(97.40))
    assert draan == pytest.approx(1.9905863862747832e-07, rel=1e-12)
    year_drift = draan * SECONDS_PER_YEAR
    assert math.degrees(year_drift) == pytest.approx(360.0, abs=0.6)


def test_cross_model_secular_consistency():
    """Integrating the instantaneous model over whole revolutions must
    reproduce the secular drift formulas (node on the circular reference
    orbit, perigee on an eccentric companion where it is defined)."""
    def measured_rates(kep, orbits=10):
        s0 = SpacecraftState(kep_to_mee(kep), 235.0)
        n_segs = 400
        period = TAU / math.sqrt(EARTH.mu / kep.a**3)
        seg = orbits * period / n_segs
        traj = propagate_numeric(s0, np.zeros((n_segs, 3)), np.full(n_segs, seg),
                                 277.0, PropagatorConfig(step=10.0), EARTH)
        # stop exactly at matched longitude phase: finish the last fraction
        # of a segment with a real propagation, not interpolation
        L_target = traj[0, 5] + orbits * TAU
        idx = int(np.searchsorted(traj[:, 5], L_target))
        frac = (L_target - traj[idx - 1, 5]) / (traj[idx, 5] - traj[idx - 1, 5])
        t_end = ((idx - 1) + frac) * seg
        s_mid = SpacecraftState(MeeState.from_array(traj[idx - 1, :6]), 235.0)
        y = propagate_numeric(s_mid, np.zeros((1, 3)), np.array([frac * seg]),
                              277.0, PropagatorConfig(step=10.0), EARTH)[-1]
        k0 = mee_to_kep(kep_to_mee(kep))
        k1 = mee_to_kep(MeeState.from_array(y[:6]))
        d_raan = (k1.raan - k0.raan + math.pi) % TAU - math.pi
        d_argp = (k1.argp - k0.argp + math.pi) % TAU - math.pi
        return d_raan / t_end, d_argp / t_end

    circ = KeplerianState(7000.0, 0.0, math.radians(97.4), math.radians(158.0),
                          0.0, 0.0)
    r_meas, _ = measured_rates(circ)
    r_model, _ = j2_secular_rates(circ.a, circ.e, circ.i)
    assert abs(r_meas - r_model) / abs(r_model) < 0.01

    ecc = KeplerianState(7000.0, 0.05, math.radians(97.4), math.radians(158.0),
                         math.radians(20.0), 0.0)
    r_meas, a_meas = measured_rates(ecc)
    r_model, a_model = j2_secular_rates(ecc.a, ecc.e, ecc.i)
    assert abs(r_meas - r_model) / abs(r_model) < 0.01
    assert abs(a_meas - a_model) / abs(a_model) < 0.01


# ---------------------------------------------------------------------------
# orbit scalars
# ---------------------------------------------------------------------------

def test_orbit_scalars_reference_values():
    _, period, _ = orbit_scalars(7000.0)
    assert period == pytest.approx(5828.516637686015, rel=1e-12)
    _, _, vc = orbit_scalars(6950.0)
    assert vc == pytest.approx(7.573148721235892, rel=1e-12)
    _, p1, _ = orbit_scalars(7000.0)
    _, p2, _ = orbit_scalars(28000.0)
    assert p2 / p1 == pytest.approx(8.0, rel=1e-12)


def test_mass_never_increases_under_thrust():
    st_ = make_state(KeplerianState(7000.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    controls = np.array([[0.0, 0.0126, 0.0]] * 5 + [[0.0, 0.0, 0.0]] * 5)
    traj = propagate_numeric(st_, controls, np.full(10, 30.0), 277.0,
                             PropagatorConfig(step=10.0), EARTH)
    assert np.all(np.diff(traj[:, 6]) <= 0.0)
