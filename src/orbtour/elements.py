"""Orbital state representations and conversions.

Two element sets are used:

* Keplerian (a, e, i, raan, argp, ta) for human-facing I/O and geometry.
* Modified equinoctial elements (p, f, g, h, k, L) for propagation and
  optimization, nonsingular for circular and equatorial orbits and for every
  inclination short of i = pi:

      p = a (1 - e^2)
      f = e cos(argp + raan)
      g = e sin(argp + raan)
      h = tan(i/2) cos(raan)
      k = tan(i/2) sin(raan)
      L = ta + argp + raan

The h/k pair carries (cos, sin) of the node in that order; that orientation
is the one for which the variational equations and the oblateness
acceleration in :mod:`orbtour.dynamics` hold (the test suite cross-checks
both against a Cartesian finite-difference oracle).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH, PhysicalConstants, wrap_angle
from .errors import SingularStateError

_SINGULARITY_MARGIN = 1e-12


@dataclass(frozen=True)
class KeplerianState:
    """Classical elements: a [km], e [-], i/raan/argp/ta [rad].

    Angles are normalized to [0, 2*pi) on construction (inclination to
    [0, pi]).
    """

    a: float
    e: float
    i: float
    raan: float
    argp: float
    ta: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0):
            raise ValueError(f"semi-major axis must be positive, got {self.a}")
        if not (0.0 <= self.e < 1.0):
            raise ValueError(f"eccentricity must be in [0, 1), got {self.e}")
        if not (-1e-12 <= self.i <= math.pi + 1e-12):
            raise ValueError(f"inclination must be in [0, pi], got {self.i}")
        object.__setattr__(self, "i", min(max(self.i, 0.0), math.pi))
        for name in ("raan", "argp", "ta"):
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))

    @property
    def radius(self) -> float:
        """Instantaneous orbital radius [km]."""
        p = self.a * (1.0 - self.e**2)
        return p / (1.0 + self.e * math.cos(self.ta))


@dataclass(frozen=True)
class MeeState:
    """Modified equinoctial elements.  L is *not* wrapped: propagation keeps
    the true longitude continuous and callers wrap only at I/O boundaries."""

    p: float
    f: float
    g: float
    h: float
    k: float
    L: float

    def __post_init__(self) -> None:
        if not (self.p > 0.0):
            raise ValueError(f"semi-latus rectum must be positive, got {self.p}")
        if self.f**2 + self.g**2 >= 1.0:
            raise ValueError("f^2 + g^2 must be < 1 for a closed orbit")

    def as_array(self) -> np.ndarray:
        return np.array([self.p, self.f, self.g, self.h, self.k, self.L])

    @classmethod
    def from_array(cls, arr) -> "MeeState":
        p, f, g, h, k, L = (float(x) for x in arr)
        return cls(p, f, g, h, k, L)


@dataclass(frozen=True)
class SpacecraftState:
    """Translational MEE state plus mass and mission-elapsed epoch."""

    mee: MeeState
    mass: float
    epoch: float = 0.0

    def __post_init__(self) -> None:
        if not (self.mass > 0.0):
            raise ValueError(f"mass must be positive, got {self.mass}")


def kep_to_mee(kep: KeplerianState) -> MeeState:
    """Convert classical elements to modified equinoctial elements.

    Raises :class:`SingularStateError` at i = pi, where tan(i/2) diverges.
    """
    if kep.i >= math.pi - _SINGULARITY_MARGIN:
        raise SingularStateError("i = pi is singular for equinoctial elements")

    p = kep.a * (1.0 - kep.e**2)
    lon_peri = kep.argp + kep.raan
    f = kep.e * math.cos(lon_peri)
    g = kep.e * math.sin(lon_peri)
    chi = math.tan(kep.i / 2.0)
    h = chi * math.cos(kep.raan)
    k = chi * math.sin(kep.raan)
    L = wrap_angle(kep.ta + kep.argp + kep.raan)
    return MeeState(p, f, g, h, k, L)


def mee_to_kep(mee: MeeState) -> KeplerianState:
    """Invert :func:`kep_to_mee`.

    For degenerate circular (f = g = 0) or equatorial (h = k = 0) states the
    split of L into raan/argp/ta is conventional: the undefined angles are
    set to zero and the remainder is folded into the true anomaly.
    """
    e2 = mee.f**2 + mee.g**2
    if e2 >= 1.0:
        raise ValueError("f^2 + g^2 >= 1: not a closed orbit")
    a = mee.p / (1.0 - e2)
    e = math.sqrt(e2)
    i = 2.0 * math.atan(math.hypot(mee.h, mee.k))

    raan = 0.0 if (mee.h == 0.0 and mee.k == 0.0) else math.atan2(mee.k, mee.h)
    if mee.f == 0.0 and mee.g == 0.0:
        argp = 0.0
        ta = mee.L - raan
    else:
        lon_peri = math.atan2(mee.g, mee.f)
        argp = lon_peri - raan
        ta = mee.L - lon_peri
    return KeplerianState(a, e, i, wrap_angle(raan), wrap_angle(argp), wrap_angle(ta))


def mee_to_cartesian(mee: MeeState, consts: PhysicalConstants = EARTH) -> tuple[np.ndarray, np.ndarray]:
    """ECI position [km] and velocity [km/s] of an equinoctial state."""
    p, f, g, h, k, L = mee.p, mee.f, mee.g, mee.h, mee.k, mee.L
    cosL, sinL = math.cos(L), math.sin(L)
    s2 = 1.0 + h * h + k * k
    alpha2 = h * h - k * k
    w = 1.0 + f * cosL + g * sinL
    r = p / w
    sqrt_mu_p = math.sqrt(consts.mu / p)

    pos = (r / s2) * np.array([
        cosL + alpha2 * cosL + 2.0 * h * k * sinL,
        sinL - alpha2 * sinL + 2.0 * h * k * cosL,
        2.0 * (h * sinL - k * cosL),
    ])
    vel = (sqrt_mu_p / s2) * np.array([
        -(sinL + alpha2 * sinL - 2.0 * h * k * cosL + g - 2.0 * f * h * k + alpha2 * g),
        -(-cosL + alpha2 * cosL + 2.0 * h * k * sinL - f + 2.0 * g * h * k + alpha2 * f),
        2.0 * (h * cosL + k * sinL + f * h + g * k),
    ])
    return pos, vel


def kep_to_cartesian(kep: KeplerianState, consts: PhysicalConstants = EARTH) -> tuple[np.ndarray, np.ndarray]:
    """ECI position/velocity via the perifocal route (independent of the
    equinoctial path; used as a conversion cross-check)."""
    p = kep.a * (1.0 - kep.e**2)
    r = p / (1.0 + kep.e * math.cos(kep.ta))
    cos_ta, sin_ta = math.cos(kep.ta), math.sin(kep.ta)
    pos_pf = np.array([r * cos_ta, r * sin_ta, 0.0])
    coef = math.sqrt(consts.mu / p)
    vel_pf = np.array([-coef * sin_ta, coef * (kep.e + cos_ta), 0.0])

    cO, sO = math.cos(kep.raan), math.sin(kep.raan)
    co, so = math.cos(kep.argp), math.sin(kep.argp)
    ci, si = math.cos(kep.i), math.sin(kep.i)
    rot = np.array([
        [cO * co - sO * so * ci, -cO * so - sO * co * ci, sO * si],
        [sO * co + cO * so * ci, -sO * so + cO * co * ci, -cO * si],
        [so * si, co * si, ci],
    ])
    return rot @ pos_pf, rot @ vel_pf
