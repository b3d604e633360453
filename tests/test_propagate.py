import math

import numpy as np
import pytest

from conftest import TWO_BODY
from orbtour.constants import EARTH
from orbtour.dynamics import orbit_scalars
from orbtour.elements import (KeplerianState, MeeState, SpacecraftState,
                              kep_to_mee, mee_to_kep)
from orbtour.propagate import PropagatorConfig, propagate_numeric

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
