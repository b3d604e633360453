import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kep_to_cartesian, mee_to_cartesian
from orbtour.elements import KeplerianState, MeeState, kep_to_mee, mee_to_kep
from orbtour.errors import SingularStateError

TAU = 2 * math.pi


def angle_diff(a, b):
    return abs((a - b + math.pi) % TAU - math.pi)


def test_circular_equatorial_maps_to_trivial_vector():
    mee = kep_to_mee(KeplerianState(7000.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert mee.p == 7000.0
    assert mee.f == mee.g == mee.h == mee.k == 0.0
    assert mee.L == 0.0


def test_eccentric_orbit_direct_substitution():
    # argp + raan = 0 puts the whole eccentricity on the f component
    mee = kep_to_mee(KeplerianState(7000.0, 0.1, 0.3, 1.0, TAU - 1.0, 0.0))
    assert mee.p == pytest.approx(6930.0, abs=1e-9)
    assert mee.f == pytest.approx(0.1, abs=1e-12)
    assert mee.g == pytest.approx(0.0, abs=1e-12)


def test_sun_synchronous_case_vector():
    # frozen from an independent evaluation of the conversion formulas
    kep = KeplerianState(6950.0, 0.0, math.radians(97.3964),
                         math.radians(158.0), 0.0, 0.0)
    mee = kep_to_mee(kep)
    assert mee.p == pytest.approx(6950.0, rel=1e-12)
    assert mee.f == pytest.approx(0.0, abs=1e-12)
    assert mee.g == pytest.approx(0.0, abs=1e-12)
    assert mee.h == pytest.approx(-1.0553243677290234, rel=1e-12)
    assert mee.k == pytest.approx(0.42637872132543075, rel=1e-12)
    assert mee.L == pytest.approx(2.7576202181510405, rel=1e-12)


def test_inverse_circular_equatorial():
    kep = mee_to_kep(MeeState(7000.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    assert kep.a == pytest.approx(7000.0)
    assert kep.e == 0.0
    # degenerate split folds the longitude into the anomaly
    assert kep.ta == pytest.approx(1.0)


def test_inverse_recovers_sma_and_eccentricity():
    kep = mee_to_kep(MeeState(6930.0, 0.1, 0.0, 0.0, 0.0, 0.5))
    assert kep.a == pytest.approx(6930.0 / (1.0 - 0.01), rel=1e-14)
    assert kep.e == pytest.approx(0.1, abs=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_round_trip_identity(seed):
    from conftest import random_kep
    kep = random_kep(np.random.default_rng(seed))
    back = mee_to_kep(kep_to_mee(kep))
    assert back.a == pytest.approx(kep.a, rel=1e-9)
    assert back.e == pytest.approx(kep.e, abs=1e-9)
    assert back.i == pytest.approx(kep.i, abs=1e-9)
    for name in ("raan", "argp", "ta"):
        assert angle_diff(getattr(back, name), getattr(kep, name)) < 1e-9


def test_round_trip_thousand_random_states():
    from conftest import random_kep
    rng = np.random.default_rng(99)
    for _ in range(1000):
        kep = random_kep(rng)
        back = mee_to_kep(kep_to_mee(kep))
        assert abs(back.a - kep.a) / kep.a < 1e-9
        assert abs(back.e - kep.e) < 1e-9
        assert angle_diff(back.ta, kep.ta) < 1e-9


def test_singular_inputs_rejected():
    with pytest.raises(SingularStateError):
        kep_to_mee(KeplerianState(7000.0, 0.0, math.pi, 0.0, 0.0, 0.0))


def test_open_orbit_rejected():
    with pytest.raises(ValueError):
        MeeState(7000.0, 0.9, 0.5, 0.0, 0.0, 0.0)


def test_cartesian_paths_agree():
    from conftest import random_kep
    rng = np.random.default_rng(3)
    for _ in range(200):
        kep = random_kep(rng)
        r1, v1 = kep_to_cartesian(kep)
        r2, v2 = mee_to_cartesian(kep_to_mee(kep))
        assert np.allclose(r1, r2, rtol=0, atol=1e-8 * np.linalg.norm(r1))
        assert np.allclose(v1, v2, rtol=0, atol=1e-8 * np.linalg.norm(v1))
