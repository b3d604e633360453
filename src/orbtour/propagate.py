"""Fixed-step numerical propagation of the coupled element/mass dynamics
under piecewise-constant LVLH thrust and the instantaneous oblateness
acceleration (``PhysicalConstants(j2=0.0)`` gives two-body motion).

The 7-state vector is [p, f, g, h, k, L, m]; thrust is a 3-vector in kN so
that u/m is directly the LVLH acceleration in km/s^2.  The true longitude is
left unwrapped so multi-revolution arcs stay continuous.

Two entry points: a scalar sequential integrator used for trajectory
rollouts, warm starts and verification, and a batch one-segment integrator
used for vectorized finite differencing.  Each has one fused right-hand
side: the J2 acceleration and the Gauss variational equations in the LVLH
frame share cos L, sin L, w, s^2 and v.  Every expression keeps the
operation order of the separate J2 and variational-equation functions the
tests hold as oracles, so fusing changed no result bit.  Both raise
:class:`~orbtour.errors.SingularStateError` where w <= 0 (the radius
diverges); the scalar one also raises once the mass is burnt to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH, PhysicalConstants
from .elements import SpacecraftState
from .errors import SingularStateError


@dataclass(frozen=True)
class PropagatorConfig:
    """Fixed-step 4th-order Runge-Kutta settings."""

    step: float = 10.0    # max internal step [s]

    def __post_init__(self) -> None:
        if self.step <= 0.0:
            raise ValueError("step must be positive")


def rk4_segment(y, u, duration: float, max_step: float, ve: float,
                consts: PhysicalConstants):
    """Integrate one constant-control segment; returns the end state tuple.

    The right-hand side is fused: each stage evaluation computes cos L,
    sin L, w, s^2, v and r once and feeds them to both the J2 acceleration
    and the variational equations, on plain floats throughout.
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


def propagate_numeric(state: SpacecraftState, controls: np.ndarray,
                      durations: np.ndarray, isp: float,
                      config: PropagatorConfig = PropagatorConfig(),
                      consts: PhysicalConstants = EARTH) -> np.ndarray:
    """Propagate through a piecewise-constant thrust schedule.

    ``controls`` (N, 3) LVLH thrust [kN] and ``durations`` (N,) [s] define N
    segments; returns the (N+1, 7) trajectory at segment boundaries, starting
    from ``state`` (with L unwrapped against the wrapped input).
    """
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    durations = np.atleast_1d(np.asarray(durations, dtype=float))
    if controls.shape != (durations.size, 3):
        raise ValueError("controls must be (N, 3) matching durations (N,)")
    if np.any(durations < 0.0):
        raise ValueError("segment durations must be non-negative")
    ve = isp * consts.g0
    m = state.mee
    y = (m.p, m.f, m.g, m.h, m.k, m.L, state.mass)
    out = np.empty((durations.size + 1, 7))
    out[0] = y
    for i, (u, dur) in enumerate(zip(controls, durations)):
        y = rk4_segment(y, u, float(dur), config.step, ve, consts)
        out[i + 1] = y
    return out


# ---------------------------------------------------------------------------
# batch integration for finite differencing
# ---------------------------------------------------------------------------

def _rhs_batch(y: np.ndarray, u: np.ndarray, ve: float,
               consts: PhysicalConstants) -> np.ndarray:
    """Vectorized 7-state right-hand side: y (B, 7), u (B, 3) -> (B, 7).

    Fused like :func:`rk4_segment`: cos L, sin L, w, s^2 and v are computed
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


def rk4_batch(y: np.ndarray, u: np.ndarray, duration: np.ndarray, nsteps: int,
              ve: float, consts: PhysicalConstants) -> np.ndarray:
    """Integrate a batch of states over one constant-control segment each:
    y (B, 7), u (B, 3), duration (B,) -> (B, 7).  All rows share the same
    substep count (callers group rows accordingly)."""
    dt = (np.asarray(duration, dtype=float) / nsteps)[:, None]
    for _ in range(nsteps):
        k1 = _rhs_batch(y, u, ve, consts)
        k2 = _rhs_batch(y + 0.5 * dt * k1, u, ve, consts)
        k3 = _rhs_batch(y + 0.5 * dt * k2, u, ve, consts)
        k4 = _rhs_batch(y + dt * k3, u, ve, consts)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y
