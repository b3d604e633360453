"""Shared fixtures and independent oracles for the test suite.

The Cartesian oracle here deliberately avoids the package's element
machinery: two-body + oblateness accelerations in inertial coordinates,
integrated directly, give an independent reference for the variational
equations and the oblateness model, whose LVLH components are read through
``lvlh_basis``.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from orbtour.constants import EARTH
from orbtour.elements import KeplerianState
from orbtour.ocp import linearize_batch
from orbtour.scenario import (Bundle, MissionScenario, PayloadSpec,
                              ScenarioConfig, SpacecraftSpec, sample_scenario)


#: Earth without oblateness: the J2 terms of the dynamics are exactly zero
TWO_BODY = dataclasses.replace(EARTH, j2=0.0)


def linearize_one(x, u, dt: float, substeps: int, isp: float, consts=EARTH,
                  u_scale: float | None = None):
    """Jacobians A (7,7), B (7,3) and offset c = f(x, u) - A x - B u of one
    discrete step, from a one-row :func:`orbtour.ocp.linearize_batch`."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    A, B, f = linearize_batch(x[None, :], u[None, :], np.array([dt]),
                              np.array([substeps]), isp, consts, u_scale=u_scale)
    return A[0], B[0], f[0] - A[0] @ x - B[0] @ u


def cart_accel_j2(r: np.ndarray, consts=EARTH) -> np.ndarray:
    """Oblateness acceleration in inertial axes [km/s^2]."""
    x, y, z = r
    rn = np.linalg.norm(r)
    coef = -1.5 * consts.j2 * consts.mu * consts.re**2 / rn**5
    zr2 = (z / rn) ** 2
    return coef * np.array([x * (1 - 5 * zr2), y * (1 - 5 * zr2), z * (3 - 5 * zr2)])


def cart_rhs(state: np.ndarray, consts=EARTH, j2: bool = True) -> np.ndarray:
    r, v = state[:3], state[3:]
    rn = np.linalg.norm(r)
    a = -consts.mu * r / rn**3
    if j2:
        a = a + cart_accel_j2(r, consts)
    return np.concatenate([v, a])


def cart_rk4(state: np.ndarray, dt: float, nsteps: int, consts=EARTH,
             j2: bool = True) -> np.ndarray:
    for _ in range(nsteps):
        k1 = cart_rhs(state, consts, j2)
        k2 = cart_rhs(state + dt / 2 * k1, consts, j2)
        k3 = cart_rhs(state + dt / 2 * k2, consts, j2)
        k4 = cart_rhs(state + dt * k3, consts, j2)
        state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


def lvlh_basis(position: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Rotation matrix whose columns are the LVLH unit vectors
    (e_r, e_theta, e_phi) expressed in inertial axes.

    e_r is the radial direction, e_phi the orbit normal r x v, and
    e_theta = e_phi x e_r completes the right-handed triad.
    """
    r = np.asarray(position, dtype=float)
    v = np.asarray(velocity, dtype=float)
    rn = np.linalg.norm(r)
    if rn == 0.0:
        raise ValueError("position vector must be nonzero")
    e_r = r / rn
    hvec = np.cross(r, v)
    hn = np.linalg.norm(hvec)
    if hn < 1e-12 * rn * max(np.linalg.norm(v), 1e-300):
        raise ValueError("position and velocity are parallel or velocity is zero")
    e_phi = hvec / hn
    e_theta = np.cross(e_phi, e_r)
    return np.column_stack([e_r, e_theta, e_phi])


def cart_to_kep(r: np.ndarray, v: np.ndarray, consts=EARTH) -> KeplerianState:
    """Classical elements from an inertial state (independent path)."""
    rn = float(np.linalg.norm(r))
    hv = np.cross(r, v)
    hn = float(np.linalg.norm(hv))
    evec = np.cross(v, hv) / consts.mu - r / rn
    e = float(np.linalg.norm(evec))
    p = hn**2 / consts.mu
    i = math.acos(min(max(hv[2] / hn, -1.0), 1.0))
    nodev = np.cross([0.0, 0.0, 1.0], hv)
    nn = float(np.linalg.norm(nodev))
    raan = math.atan2(nodev[1], nodev[0]) if nn > 1e-12 else 0.0
    hhat = hv / hn
    if e > 1e-12:
        ehat = evec / e
        argp = math.atan2(float(np.dot(np.cross(nodev / nn, ehat), hhat)),
                          float(np.dot(nodev / nn, ehat)))
        ta = math.atan2(float(np.dot(np.cross(ehat, r / rn), hhat)),
                        float(np.dot(ehat, r / rn)))
    else:
        argp = 0.0
        ta = math.atan2(float(np.dot(np.cross(nodev / nn, r / rn), hhat)),
                        float(np.dot(nodev / nn, r / rn)))
    a = p / (1 - e**2)
    tau = 2 * math.pi
    return KeplerianState(a, e, i, raan % tau, argp % tau, ta % tau)


def random_kep(rng: np.random.Generator, e_max: float = 0.9) -> KeplerianState:
    return KeplerianState(
        a=float(rng.uniform(6600.0, 9500.0)),
        e=float(rng.uniform(0.0, e_max)),
        i=float(rng.uniform(0.02, math.pi - 0.02)),
        raan=float(rng.uniform(0.0, 2 * math.pi)),
        argp=float(rng.uniform(0.0, 2 * math.pi)),
        ta=float(rng.uniform(0.0, 2 * math.pi)),
    )


def tiny_mission(da0: float = 6.0, da1: float = -5.0, di_deg: float = 0.02,
                 seed: int = 0) -> MissionScenario:
    """Hand-built two-bundle mission with short transfers (fast to refine)."""
    ins = KeplerianState(EARTH.re + 500.0, 0.0, math.radians(97.4),
                         math.radians(158.0), 0.0, 0.0)
    t0 = KeplerianState(ins.a + da0, 0.0, ins.i + math.radians(di_deg),
                        math.radians(30.0), 0.0, 1.0)
    t1 = KeplerianState(ins.a + da1, 0.0, ins.i - math.radians(di_deg),
                        math.radians(200.0), 0.0, 2.0)
    bundles = (
        Bundle((PayloadSpec("cubesat", 6.0, t0), PayloadSpec("cubesat", 6.5, t0)), t0),
        Bundle((PayloadSpec("smallsat", 25.0, t1),), t1),
    )
    return MissionScenario(spacecraft=SpacecraftSpec(), insertion=ins,
                           decommission_radius=EARTH.re + 460.0, bundles=bundles,
                           seed=seed)


@pytest.fixture(scope="session")
def small_scenario():
    cfg = ScenarioConfig(n_cubesats=3, n_pocketqubes=1, n_smallsats=0)
    return sample_scenario(cfg, seed=11)
