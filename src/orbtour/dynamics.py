"""Averaged dynamics: secular oblateness rates and orbit scalars.

The instantaneous right-hand side (variational equations plus the J2
acceleration in the LVLH frame) lives in :mod:`orbtour.propagate`, fused
into its integrators; the secular rates here are the orbit-averaged form of
the same oblateness model, used for phasing and drift arithmetic.
"""
from __future__ import annotations

import math

from .constants import EARTH, TWO_PI, PhysicalConstants


# ---------------------------------------------------------------------------
# Oblateness: secular rates
# ---------------------------------------------------------------------------

def j2_secular_rates(a: float, e: float, i: float,
                     consts: PhysicalConstants = EARTH) -> tuple[float, float]:
    """Secular node and perigee drift rates (draan/dt, dargp/dt) [rad/s].

    The (re/p) ratio enters squared and the perigee rate is positive below
    the critical inclination: some published variants carry (re/p) to the
    first power and/or flip the perigee sign, but only the form used here
    reproduces the sun-synchronous geometry (~97.4 deg at 500 km altitude)
    and the averaged behaviour of the instantaneous J2 model, which the
    tests assert.
    """
    p = a * (1.0 - e**2)
    if p <= 0.0:
        raise ValueError("a(1 - e^2) must be positive")
    n = math.sqrt(consts.mu / a**3)
    ratio2 = (consts.re / p) ** 2
    cos_i = math.cos(i)
    draan = -1.5 * consts.j2 * ratio2 * n * cos_i
    dargp = 0.75 * consts.j2 * ratio2 * n * (5.0 * cos_i**2 - 1.0)
    return draan, dargp


# ---------------------------------------------------------------------------
# Orbit scalars
# ---------------------------------------------------------------------------

def orbit_scalars(a: float, consts: PhysicalConstants = EARTH) -> tuple[float, float, float]:
    """Mean motion [rad/s], period [s] and circular speed [km/s] at SMA ``a``."""
    if a <= 0.0:
        raise ValueError("semi-major axis must be positive")
    n = math.sqrt(consts.mu / a**3)
    return n, TWO_PI / n, math.sqrt(consts.mu / a)


def mean_longitude_rate(a: float, e: float, i: float,
                        consts: PhysicalConstants = EARTH) -> float:
    """Mean rate of the true longitude (n plus secular node/perigee drift),
    used for phasing arithmetic on near-circular orbits."""
    n = math.sqrt(consts.mu / a**3)
    draan, dargp = j2_secular_rates(a, e, i, consts)
    return n + draan + dargp
