"""Dynamics right-hand sides: variational equations and oblateness models.

All rates are expressed in the spacecraft LVLH frame (radial r, along-track
theta, cross-track phi).  Scalar helpers operating on plain floats are the
hot path for sequential propagation; batch variants operate on (N, ...)
arrays for vectorized finite differencing.
"""
from __future__ import annotations

import math

import numpy as np

from .constants import EARTH, TWO_PI, PhysicalConstants
from .errors import SingularStateError


# ---------------------------------------------------------------------------
# Gauss variational equations
# ---------------------------------------------------------------------------

def gve_rhs_scalar(p, f, g, h, k, L, ar, at, an, mu):
    """Element rates (dp, df, dg, dh, dk, dL) for one state, plain floats.

    Signs of the cross-track couplings follow the orientation stated in
    :mod:`orbtour.elements` (df carries -g*v/w*an, dg carries +f*v/w*an);
    the combination is validated against a Cartesian finite-difference
    oracle in the tests.
    """
    cosL = math.cos(L)
    sinL = math.sin(L)
    w = 1.0 + f * cosL + g * sinL
    if w <= 0.0:
        raise SingularStateError(f"w = {w} <= 0: radius diverges")
    s2 = 1.0 + h * h + k * k
    v = h * sinL - k * cosL
    sqpm = math.sqrt(p / mu)

    dp = 2.0 * p / w * sqpm * at
    df = sqpm * (ar * sinL + ((w + 1.0) * cosL + f) / w * at - g * v / w * an)
    dg = sqpm * (-ar * cosL + ((w + 1.0) * sinL + g) / w * at + f * v / w * an)
    dh = sqpm * s2 / (2.0 * w) * cosL * an
    dk = sqpm * s2 / (2.0 * w) * sinL * an
    dL = math.sqrt(mu * p) * (w / p) ** 2 + sqpm * v / w * an
    return dp, df, dg, dh, dk, dL


def gve_rhs_batch(mee: np.ndarray, accel: np.ndarray, mu: float) -> np.ndarray:
    """Vectorized element rates: ``mee`` (N, 6), ``accel`` (N, 3) -> (N, 6)."""
    p, f, g, h, k, L = (mee[:, j] for j in range(6))
    ar, at, an = accel[:, 0], accel[:, 1], accel[:, 2]
    cosL, sinL = np.cos(L), np.sin(L)
    w = 1.0 + f * cosL + g * sinL
    if np.any(w <= 0.0):
        raise SingularStateError("w <= 0 in batch evaluation")
    s2 = 1.0 + h * h + k * k
    v = h * sinL - k * cosL
    sqpm = np.sqrt(p / mu)

    out = np.empty_like(mee)
    out[:, 0] = 2.0 * p / w * sqpm * at
    out[:, 1] = sqpm * (ar * sinL + ((w + 1.0) * cosL + f) / w * at - g * v / w * an)
    out[:, 2] = sqpm * (-ar * cosL + ((w + 1.0) * sinL + g) / w * at + f * v / w * an)
    out[:, 3] = sqpm * s2 / (2.0 * w) * cosL * an
    out[:, 4] = sqpm * s2 / (2.0 * w) * sinL * an
    out[:, 5] = np.sqrt(mu * p) * (w / p) ** 2 + sqpm * v / w * an
    return out


# ---------------------------------------------------------------------------
# Oblateness models
# ---------------------------------------------------------------------------

def j2_accel_scalar(p, f, g, h, k, L, mu, j2, re):
    """Instantaneous J2 acceleration components (ar, at, an), plain floats."""
    cosL = math.cos(L)
    sinL = math.sin(L)
    w = 1.0 + f * cosL + g * sinL
    r = p / w
    s2 = 1.0 + h * h + k * k
    v = h * sinL - k * cosL
    coef = mu * j2 * re * re / r**4
    ar = -1.5 * coef * (1.0 - 12.0 * v * v / (s2 * s2))
    at = -12.0 * coef * v * (h * cosL + k * sinL) / (s2 * s2)
    an = -6.0 * coef * v * (1.0 - h * h - k * k) / (s2 * s2)
    return ar, at, an


def j2_accel_batch(mee: np.ndarray, mu: float, j2: float, re: float) -> np.ndarray:
    """Vectorized J2 acceleration: ``mee`` (N, 6) -> (N, 3)."""
    p, f, g, h, k, L = (mee[:, j] for j in range(6))
    cosL, sinL = np.cos(L), np.sin(L)
    w = 1.0 + f * cosL + g * sinL
    r = p / w
    s2 = 1.0 + h * h + k * k
    v = h * sinL - k * cosL
    coef = mu * j2 * re * re / r**4
    out = np.empty((mee.shape[0], 3))
    out[:, 0] = -1.5 * coef * (1.0 - 12.0 * v * v / (s2 * s2))
    out[:, 1] = -12.0 * coef * v * (h * cosL + k * sinL) / (s2 * s2)
    out[:, 2] = -6.0 * coef * v * (1.0 - h * h - k * k) / (s2 * s2)
    return out


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
