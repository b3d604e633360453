"""Shared fixtures and independent oracles for the test suite.

The Cartesian oracle here deliberately avoids the package's element
machinery: two-body + oblateness accelerations in inertial coordinates,
integrated directly, give an independent reference for the variational
equations and the oblateness model, whose LVLH components are read through
``lvlh_basis``.

The separate variational-equation and J2 functions below are the unfused
reference for the fused right-hand sides in :mod:`orbtour.propagate`, and
the whole-batch array-of-structs RK4 is the reference for the blocked
struct-of-arrays batch integrator.  The expression-form struct-of-arrays
block, which allocates a fresh array for every intermediate, is the
reference for the in-place one.  The closure-based sequential RK4 is the
reference for the inline one, and the linearization that offsets every
state component of every stage, integrated as one whole-grid batch, the
reference for the chunked one that skips the mass offsets of thrust-free
stages.  The plain enumeration of every visit order, priced by the batch
evaluator, is the reference for the exact dynamic program over (visited
set, last bundle); one order priced leg by leg from the closed-form dv,
with the rocket equation evaluated in full on every leg, the reference for
the batch pricing over leg-fraction tables; and the GA step drawing its
crossover with ``Generator.uniform`` the reference for the optimizer's.
The Cartesian conversions and the uniform permutation sampler serve
only the checks.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from orbtour.constants import EARTH, PhysicalConstants
from orbtour.elements import KeplerianState, MeeState
from orbtour.errors import SingularStateError
from orbtour.maneuvers import hohmann_dv, plane_change_dv
from orbtour.ocp import _FD_REL, _FD_STATE_SCALE, COAST_SUBSTEP, linearize_batch
from orbtour.optimizer import RATES, TOURNAMENT
from orbtour.propagate import rk4_batch
from orbtour.scenario import (Bundle, MissionScenario, PayloadSpec,
                              ScenarioConfig, SpacecraftSpec, sample_scenario)


#: Earth without oblateness: the J2 terms of the dynamics are exactly zero
TWO_BODY = dataclasses.replace(EARTH, j2=0.0)


def linearize_one(x, u, dt: float, substeps: int, isp: float, consts=EARTH,
                  u_scale: float | None = None):
    """Jacobians A (7,7), B (7,3) and offset c = f(x, u) - A x - B u of one
    discrete step, from a one-row :func:`orbtour.ocp.linearize_batch`, with
    the nominal step f(x, u) from :func:`orbtour.propagate.rk4_batch`."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    A, B = linearize_batch(x[None, :], u[None, :], np.array([dt]),
                           np.array([substeps]), isp, consts, u_scale=u_scale)
    f = rk4_batch(x[None, :], u[None, :], np.array([dt / substeps]), substeps,
                  isp * consts.g0, consts)[0]
    return A[0], B[0], f - A[0] @ x - B[0] @ u


# ---------------------------------------------------------------------------
# element-rate and oblateness oracles (unfused)
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


# ---------------------------------------------------------------------------
# whole-batch RK4 in array-of-structs layout (the blocked one's oracle)
# ---------------------------------------------------------------------------

def aos_rhs_batch(y: np.ndarray, u: np.ndarray, ve: float,
                  consts: PhysicalConstants) -> np.ndarray:
    """Vectorized 7-state right-hand side: y (B, 7), u (B, 3) -> (B, 7).

    Fused like :func:`orbtour.propagate.rk4_segment`: cos L, sin L, w, s^2 and v are computed
    once per call for both the J2 acceleration and the variational
    equations."""
    p, f, g, h, k, L, m = y.T
    cosL, sinL = np.cos(L), np.sin(L)
    w = 1.0 + f * cosL + g * sinL
    if np.any(w <= 0.0):
        raise SingularStateError("w <= 0 in batch evaluation")
    s2 = 1.0 + h * h + k * k
    v = h * sinL - k * cosL
    # every named (B,) array lives to the return and B holds 21 rows per
    # stage, so names are kept to those used twice
    coef = consts.mu * consts.j2 * consts.re * consts.re / (p / w)**4
    ar = u[:, 0] / m + -1.5 * coef * (1.0 - 12.0 * v * v / (s2 * s2))
    at = u[:, 1] / m + -12.0 * coef * v * (h * cosL + k * sinL) / (s2 * s2)
    an = u[:, 2] / m + -6.0 * coef * v * (1.0 - h * h - k * k) / (s2 * s2)
    sqpm = np.sqrt(p / consts.mu)
    node = sqpm * s2 / (2.0 * w)
    out = np.empty_like(y)
    out[:, 0] = 2.0 * p / w * sqpm * at
    out[:, 1] = sqpm * (ar * sinL + ((w + 1.0) * cosL + f) / w * at - g * v / w * an)
    out[:, 2] = sqpm * (-ar * cosL + ((w + 1.0) * sinL + g) / w * at + f * v / w * an)
    out[:, 3] = node * cosL * an
    out[:, 4] = node * sinL * an
    out[:, 5] = np.sqrt(consts.mu * p) * (w / p) ** 2 + sqpm * v / w * an
    out[:, 6] = -np.linalg.norm(u, axis=1) / ve
    return out


def aos_rk4_batch(y: np.ndarray, u: np.ndarray, duration: np.ndarray, nsteps: int,
                  ve: float, consts: PhysicalConstants) -> np.ndarray:
    """Integrate a batch of states over one constant-control segment each:
    y (B, 7), u (B, 3), duration (B,) -> (B, 7).  All rows share the same
    substep count (callers group rows accordingly)."""
    dt = (np.asarray(duration, dtype=float) / nsteps)[:, None]
    for _ in range(nsteps):
        k1 = aos_rhs_batch(y, u, ve, consts)
        k2 = aos_rhs_batch(y + 0.5 * dt * k1, u, ve, consts)
        k3 = aos_rhs_batch(y + 0.5 * dt * k2, u, ve, consts)
        k4 = aos_rhs_batch(y + dt * k3, u, ve, consts)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


# ---------------------------------------------------------------------------
# struct-of-arrays RK4 in expression form (the in-place kernel's oracle)
# ---------------------------------------------------------------------------

def expression_rhs_batch(p, f, g, h, k, L, m, ur, ut, un, mu: float, cj2: float):
    """Vectorized right-hand side of the six elements on (B,) arrays, one
    per element and control component; returns their six (B,) rates.

    Fused like :func:`orbtour.propagate.rk4_segment`: cos L, sin L, w, h^2, k^2, s^2, s^4 and
    v are computed once per call for both the J2 acceleration
    (``cj2 = mu * j2 * re^2``) and the variational equations.  The mass
    rate is constant per row, so :func:`expression_rk4_block` computes it once."""
    cosL, sinL = np.cos(L), np.sin(L)
    w = 1.0 + f * cosL + g * sinL
    if np.any(w <= 0.0):
        raise SingularStateError("w <= 0 in batch evaluation")
    hh, kk = h * h, k * k
    s2 = 1.0 + hh + kk
    s4 = s2 * s2
    v = h * sinL - k * cosL
    coef = cj2 / (p / w)**4
    ar = ur / m + -1.5 * coef * (1.0 - 12.0 * v * v / s4)
    at = ut / m + -12.0 * coef * v * (h * cosL + k * sinL) / s4
    an = un / m + -6.0 * coef * v * (1.0 - hh - kk) / s4
    sqpm = np.sqrt(p / mu)
    node = sqpm * s2 / (2.0 * w)
    return (2.0 * p / w * sqpm * at,
            sqpm * (ar * sinL + ((w + 1.0) * cosL + f) / w * at - g * v / w * an),
            sqpm * (-ar * cosL + ((w + 1.0) * sinL + g) / w * at + f * v / w * an),
            node * cosL * an,
            node * sinL * an,
            np.sqrt(mu * p) * (w / p) ** 2 + sqpm * v / w * an)


def expression_rk4_block(y, u, dm, dt, nsteps: int, mu: float, cj2: float) -> np.ndarray:
    """RK4 over one block of rows in struct-of-arrays layout: y (b, 7),
    u (b, 3), mass rate dm (b,) and step dt (b,) -> end states (7, b)."""
    p, f, g, h, k, L, m = y.T.copy()
    ur, ut, un = u.T.copy()
    half, sixth = 0.5 * dt, dt / 6.0
    dm_half, dm_full = half * dm, dt * dm
    dm_step = sixth * (dm + 2.0 * dm + 2.0 * dm + dm)
    for _ in range(nsteps):
        a1, b1, c1, d1, e1, l1 = expression_rhs_batch(p, f, g, h, k, L, m, ur, ut, un, mu, cj2)
        m2 = m + dm_half
        a2, b2, c2, d2, e2, l2 = expression_rhs_batch(
            p + half * a1, f + half * b1, g + half * c1, h + half * d1,
            k + half * e1, L + half * l1, m2, ur, ut, un, mu, cj2)
        a3, b3, c3, d3, e3, l3 = expression_rhs_batch(
            p + half * a2, f + half * b2, g + half * c2, h + half * d2,
            k + half * e2, L + half * l2, m2, ur, ut, un, mu, cj2)
        a4, b4, c4, d4, e4, l4 = expression_rhs_batch(
            p + dt * a3, f + dt * b3, g + dt * c3, h + dt * d3,
            k + dt * e3, L + dt * l3, m + dm_full, ur, ut, un, mu, cj2)
        p = p + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        f = f + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        g = g + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        h = h + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        k = k + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
        L = L + sixth * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        m = m + dm_step
    return np.stack((p, f, g, h, k, L, m))


# ---------------------------------------------------------------------------
# sequential RK4 with a nested right-hand side (the inline kernel's oracle)
# ---------------------------------------------------------------------------

def closure_rk4_segment(y, u, duration: float, max_step: float, ve: float,
                        consts: PhysicalConstants):
    """Integrate one constant-control segment; returns the end state tuple.

    The reference for :func:`orbtour.propagate.rk4_segment`: the same fused
    right-hand side as a nested function, called four times per step, that
    checks the mass and w at every evaluation and always adds the thrust
    terms and steps the mass.
    """
    if duration == 0.0:
        return tuple(y)
    nsteps = max(1, math.ceil(duration / max_step - 1e-12))
    dt = duration / nsteps
    half, sixth = 0.5 * dt, dt / 6.0
    ur, ut, un = float(u[0]), float(u[1]), float(u[2])
    dm = -math.sqrt(ur * ur + ut * ut + un * un) / ve
    dm_step = sixth * (dm + 2.0 * dm + 2.0 * dm + dm)
    mu = consts.mu
    cj2 = mu * consts.j2 * consts.re * consts.re
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def rhs(p, f, g, h, k, L, m):
        if m <= 0.0:
            raise SingularStateError("mass reached zero during propagation")
        cosL = cos(L)
        sinL = sin(L)
        w = 1.0 + f * cosL + g * sinL
        if w <= 0.0:
            raise SingularStateError(f"w = {w} <= 0: radius diverges")
        hh, kk = h * h, k * k
        s2 = 1.0 + hh + kk
        s4 = s2 * s2
        v = h * sinL - k * cosL
        r = p / w
        coef = cj2 / r**4
        ar = ur / m + -1.5 * coef * (1.0 - 12.0 * v * v / s4)
        at = ut / m + -12.0 * coef * v * (h * cosL + k * sinL) / s4
        an = un / m + -6.0 * coef * v * (1.0 - hh - kk) / s4
        sqpm = sqrt(p / mu)
        node = sqpm * s2 / (2.0 * w)
        return (2.0 * p / w * sqpm * at,
                sqpm * (ar * sinL + ((w + 1.0) * cosL + f) / w * at - g * v / w * an),
                sqpm * (-ar * cosL + ((w + 1.0) * sinL + g) / w * at + f * v / w * an),
                node * cosL * an,
                node * sinL * an,
                sqrt(mu * p) * (w / p) ** 2 + sqpm * v / w * an)

    p, f, g, h, k, L, m = (float(c) for c in y)
    for _ in range(nsteps):
        a1, b1, c1, d1, e1, l1 = rhs(p, f, g, h, k, L, m)
        m2 = m + half * dm
        a2, b2, c2, d2, e2, l2 = rhs(p + half * a1, f + half * b1, g + half * c1,
                                     h + half * d1, k + half * e1, L + half * l1, m2)
        a3, b3, c3, d3, e3, l3 = rhs(p + half * a2, f + half * b2, g + half * c2,
                                     h + half * d2, k + half * e2, L + half * l2, m2)
        a4, b4, c4, d4, e4, l4 = rhs(p + dt * a3, f + dt * b3, g + dt * c3,
                                     h + dt * d3, k + dt * e3, L + dt * l3, m + dt * dm)
        p += sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        f += sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        g += sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        h += sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        k += sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
        L += sixth * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        m += dm_step
    return p, f, g, h, k, L, m



# ---------------------------------------------------------------------------
# central differences with every state offset (the linearization's oracle)
# ---------------------------------------------------------------------------

def full_linearize_batch(x: np.ndarray, u: np.ndarray, dt: np.ndarray,
                         substeps: np.ndarray, isp: float,
                         consts: PhysicalConstants = EARTH,
                         u_scale: float | None = None,
                         skip_b: np.ndarray | None = None,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized central-difference Jacobians of the discrete dynamics at
    every node: x (N,7), u (N,3), dt (N,), substeps (N,) ints.

    ``skip_b`` marks stages whose control is structurally zero (coast); their
    B block is left zero and costs no evaluations.  One whole-grid batch
    takes 14 state-offset rows per stage and 6 control-offset rows per
    thrusting stage, integrated by :func:`aos_rk4_batch` one substep count
    at a time.  Returns (A (N,7,7), B (N,7,3)).

    The reference for :func:`orbtour.ocp.linearize_batch`, which walks the
    grid in chunks and leaves out the mass-offset rows of thrust-free
    stages.
    """
    N = x.shape[0]
    ve = isp * consts.g0
    if u_scale is None:
        u_scale = max(float(np.max(np.linalg.norm(u, axis=1), initial=0.0)), 1e-4)
    eps_x = _FD_REL * _FD_STATE_SCALE
    eps_u = _FD_REL * max(u_scale, 1e-4)
    if skip_b is None:
        skip_b = np.zeros(N, dtype=bool)
    nb = int(np.sum(~skip_b))

    # rows: 14 state offsets + 6 control offsets
    rows_x = []
    rows_u = []
    for jcomp in range(7):
        for sign in (+1.0, -1.0):
            xp = x.copy()
            xp[:, jcomp] += sign * eps_x[jcomp]
            rows_x.append(xp)
            rows_u.append(u)
    bsel = ~skip_b
    for jcomp in range(3):
        for sign in (+1.0, -1.0):
            up = u[bsel].copy()
            up[:, jcomp] += sign * eps_u
            rows_x.append(x[bsel])
            rows_u.append(up)

    big_x = np.concatenate(rows_x, axis=0)
    big_u = np.concatenate(rows_u, axis=0)
    base = np.concatenate([dt] * 14 + [dt[bsel]] * 6)
    sub = np.concatenate([substeps] * 14 + [substeps[bsel]] * 6)

    out = np.empty_like(big_x)
    for ns in np.unique(sub):
        rows = sub == ns
        out[rows] = aos_rk4_batch(big_x[rows], big_u[rows], base[rows], int(ns), ve,
                                  consts)

    A = np.empty((N, 7, 7))
    for jcomp in range(7):
        plus = out[2 * jcomp * N:(2 * jcomp + 1) * N]
        minus = out[(2 * jcomp + 1) * N:(2 * jcomp + 2) * N]
        A[:, :, jcomp] = (plus - minus) / (2.0 * eps_x[jcomp])
    B = np.zeros((N, 7, 3))
    off = 14 * N
    for jcomp in range(3):
        plus = out[off + 2 * jcomp * nb: off + (2 * jcomp + 1) * nb]
        minus = out[off + (2 * jcomp + 1) * nb: off + (2 * jcomp + 2) * nb]
        B[bsel, :, jcomp] = (plus - minus) / (2.0 * eps_u)
    return A, B


# ---------------------------------------------------------------------------
# Cartesian conversions
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# permutation helpers
# ---------------------------------------------------------------------------

def sample_uniform_permutations(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Uniform permutations of [0, n), shuffled as the optimizer's initial
    populations are, shape (count, n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.permuted(np.broadcast_to(np.arange(n), (count, n)), axis=1)


def lex_orders(n: int) -> np.ndarray:
    """Every permutation of [0, n) in lexicographic order, shape (n!, n):
    the plain enumeration that the exact dynamic program must agree with."""
    return np.array(list(itertools.permutations(range(n))),
                    dtype=np.int64).reshape(math.factorial(n), n)


def leg_dv(r0: float, i0: float, r1: float, i1: float, consts=EARTH) -> float:
    """Closed-form dv [km/s] of one leg between circular orbits: a Hohmann
    transfer and a plane change at the higher orbit's speed."""
    dv_d, dv_c = hohmann_dv(r0, r1, consts.mu)
    return dv_d + dv_c + plane_change_dv(i1 - i0, math.sqrt(consts.mu / max(r0, r1)))


def disposal_dv(r: float, scenario: MissionScenario, consts=EARTH) -> float:
    """dv [km/s] from a circular orbit of radius ``r`` to the disposal orbit."""
    r1 = scenario.decommission_radius
    return sum(hohmann_dv(r, r1, consts.mu)) if abs(r - r1) > 1e-9 else 0.0


def order_fuel(scenario: MissionScenario, order, consts=EARTH) -> float:
    """Total propellant [kg] of one visit order, one leg at a time, each leg
    burning ``m * (1 - exp(-dv/ve))`` from its closed-form dv: the reference
    for :meth:`orbtour.tour.TourEvaluator.fuel_batch`, bit for bit."""
    ve = scenario.spacecraft.thruster.exhaust_velocity(consts)
    m, fuel, here = scenario.initial_mass, 0.0, scenario.insertion
    for idx in order:
        bundle = scenario.bundles[idx]
        dv = leg_dv(here.a, here.i, bundle.target.a, bundle.target.i, consts)
        burn = m * (1.0 - np.exp(-dv / ve))
        m, fuel = m - (burn + bundle.mass), fuel + burn
        here = bundle.target
    return fuel + m * (1.0 - np.exp(-disposal_dv(here.a, scenario, consts) / ve))


def ga_step_uniform(perms: np.ndarray, cost: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """The GA step as a plain loop over islands and children, on Python
    lists: each island's first cheapest member, then for each child a
    tournament won by the first cheapest of its picks, order crossover,
    one insertion and one segment reversal, from the same block of
    uniforms.  The reference for :func:`orbtour.optimizer._ga_step`."""
    isl, pop, n = perms.shape
    rows = ((n + 1) ** 2, n * n, (n + 1) ** 2)
    uniform = rng.random((2 * TOURNAMENT + 3, isl, pop - 1))
    stepped = np.empty_like(perms)
    for s in range(isl):
        members, costs = perms[s].tolist(), cost[s].tolist()
        stepped[s, 0] = members[costs.index(min(costs))]
        for c in range(pop - 1):
            u = uniform[:, s, c].tolist()
            parents = []
            for slot in range(2):
                picks = [int(x * pop) for x in u[slot * TOURNAMENT:][:TOURNAMENT]]
                parents.append(members[min(picks, key=lambda p: costs[p])])
            acts = [int(x * (r / rate))
                    for x, r, rate in zip(u[2 * TOURNAMENT:], rows, RATES)]
            cross, move, turn = (a if a < r else 0 for a, r in zip(acts, rows))
            lo, hi = sorted(divmod(cross, n + 1))
            kept = parents[0][lo:hi]
            rest = [g for g in parents[1] if g not in kept]
            child = rest[:lo] + kept + rest[lo:]
            a, b = divmod(move, n)
            child.insert(b, child.pop(a))
            lo, hi = sorted(divmod(turn, n + 1))
            child[lo:hi] = child[lo:hi][::-1]
            stepped[s, c + 1] = child
    return stepped


# ---------------------------------------------------------------------------
# Cartesian two-body + J2 oracle
# ---------------------------------------------------------------------------

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


def mixed_stage_grid(rng: np.random.Generator, n: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A stage grid for the chunked walks: n random node states, about half
    of them coasts of 3-4 COAST_SUBSTEP (4 substeps) at zero thrust, the
    rest burns of 5-40 s (1 substep) at 20-100% of full thrust in random
    directions, and the first burn with its control exactly zero, as a
    burn-window stage can have.  Returns (x (n, 7), u (n, 3), dt (n,),
    coast (n,))."""
    x = np.column_stack([
        rng.uniform(6800.0, 7200.0, n), rng.normal(0.0, 2e-3, (n, 2)),
        rng.normal(0.0, 0.5, (n, 2)), rng.uniform(0.0, 40.0, n),
        rng.uniform(150.0, 235.0, n)])
    coast = rng.uniform(size=n) < 0.5
    u = rng.normal(size=(n, 3))
    u = 0.0126 * rng.uniform(0.2, 1.0, n)[:, None] * u / np.linalg.norm(u, axis=1)[:, None]
    u[coast] = 0.0
    u[np.flatnonzero(~coast)[0]] = 0.0
    dt = np.where(coast, rng.uniform(3 * COAST_SUBSTEP, 4 * COAST_SUBSTEP, n),
                  rng.uniform(5.0, 40.0, n))
    return x, u, dt, coast


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
