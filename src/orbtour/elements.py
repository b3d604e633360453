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
acceleration in :mod:`orbtour.propagate` hold (the test suite cross-checks
both against a Cartesian finite-difference oracle).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import wrap_angle
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
