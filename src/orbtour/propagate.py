"""Fixed-step numerical propagation of the coupled element/mass dynamics
under piecewise-constant LVLH thrust and the instantaneous oblateness
acceleration (``PhysicalConstants(j2=0.0)`` gives two-body motion).

The 7-state vector is [p, f, g, h, k, L, m]; thrust is a 3-vector in kN so
that u/m is directly the LVLH acceleration in km/s^2.  The true longitude is
left unwrapped so multi-revolution arcs stay continuous.

Two entry points: a scalar sequential integrator used for trajectory
rollouts and verification, and a batch one-segment integrator used for
vectorized finite differencing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH, PhysicalConstants
from .dynamics import gve_rhs_scalar, j2_accel_scalar
from .elements import SpacecraftState
from .errors import SingularStateError


@dataclass(frozen=True)
class PropagatorConfig:
    """Fixed-step 4th-order Runge-Kutta settings."""

    step: float = 10.0    # max internal step [s]

    def __post_init__(self) -> None:
        if self.step <= 0.0:
            raise ValueError("step must be positive")


def _rhs(y, ur, ut, un, umag, ve, mu, j2, re):
    """Scalar 7-state right-hand side (plain floats)."""
    p, f, g, h, k, L, m = y
    if m <= 0.0:
        raise SingularStateError("mass reached zero during propagation")
    jr, jt, jn = j2_accel_scalar(p, f, g, h, k, L, mu, j2, re)
    ar, at, an = ur / m + jr, ut / m + jt, un / m + jn
    dp, df, dg, dh, dk, dL = gve_rhs_scalar(p, f, g, h, k, L, ar, at, an, mu)
    return (dp, df, dg, dh, dk, dL, -umag / ve)


def rk4_segment(y, u, duration: float, max_step: float, ve: float,
                consts: PhysicalConstants):
    """Integrate one constant-control segment; returns the end state tuple."""
    if duration == 0.0:
        return tuple(y)
    nsteps = max(1, math.ceil(duration / max_step - 1e-12))
    dt = duration / nsteps
    ur, ut, un = u
    umag = math.sqrt(ur * ur + ut * ut + un * un)
    mu, j2, re = consts.mu, consts.j2, consts.re
    y = tuple(y)
    for _ in range(nsteps):
        k1 = _rhs(y, ur, ut, un, umag, ve, mu, j2, re)
        y2 = tuple(y[i] + 0.5 * dt * k1[i] for i in range(7))
        k2 = _rhs(y2, ur, ut, un, umag, ve, mu, j2, re)
        y3 = tuple(y[i] + 0.5 * dt * k2[i] for i in range(7))
        k3 = _rhs(y3, ur, ut, un, umag, ve, mu, j2, re)
        y4 = tuple(y[i] + dt * k3[i] for i in range(7))
        k4 = _rhs(y4, ur, ut, un, umag, ve, mu, j2, re)
        y = tuple(y[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                  for i in range(7))
    return y


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
        y = rk4_segment(y, (u[0], u[1], u[2]), float(dur), config.step, ve, consts)
        out[i + 1] = y
    return out


# ---------------------------------------------------------------------------
# batch integration for finite differencing
# ---------------------------------------------------------------------------

def _rhs_batch(y: np.ndarray, u: np.ndarray, ve: float,
               consts: PhysicalConstants) -> np.ndarray:
    """Vectorized 7-state right-hand side: y (B, 7), u (B, 3) -> (B, 7)."""
    from .dynamics import gve_rhs_batch, j2_accel_batch

    m = y[:, 6]
    acc = u / m[:, None] + j2_accel_batch(y[:, :6], consts.mu, consts.j2, consts.re)
    out = np.empty_like(y)
    out[:, :6] = gve_rhs_batch(y[:, :6], acc, consts.mu)
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
