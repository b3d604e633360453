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
frame share cos L, sin L, w, s^2 and v, in the operation order of the
separate functions the tests hold as oracles.  The scalar integrator writes
it out for the four evaluations of a step, so each step runs in one Python
frame, and skips the thrust terms and mass updates of thrust-free segments.
Both raise :class:`~orbtour.errors.SingularStateError` where w <= 0 (the
radius diverges); the scalar one also raises once the mass is burnt to zero.

The batch integrator cuts its rows into fixed blocks of
:data:`BATCH_BLOCK` and integrates each block in struct-of-arrays layout,
one contiguous array per element and control component, with the per-row
constants (mass rate, step sizes) computed once per call.  The blocks run
on a thread pool created and joined inside each call, since numpy releases
the GIL in its loops.  Rows never interact and each keeps the operation
order of a whole-batch integration, so the result is bit-identical for any
block split and any thread count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH, PhysicalConstants
from .elements import SpacecraftState
from .errors import SingularStateError
from .parallel import available_cpus as _available_cpus


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

    Each step evaluates the fused right-hand side four times inline, on
    plain floats, raising where w <= 0.  The mass is checked once per step,
    at the stage-4 mass m + dt*dm, the smallest of the four under monotone
    rounding.  A thrust-free segment (``u`` all zero) skips the thrust
    terms and the mass updates.  The closure-based kernel in
    ``tests/conftest.py`` is the oracle: dropping ``0/m`` from ``0/m + a``
    can flip only the sign of an element that is exactly +-0 (two-body or
    equatorial states), so every result equals the oracle's under ``==``.
    """
    if duration == 0.0:
        return tuple(y)
    nsteps = max(1, math.ceil(duration / max_step - 1e-12))
    dt = duration / nsteps
    half, sixth = 0.5 * dt, dt / 6.0
    ur, ut, un = float(u[0]), float(u[1]), float(u[2])
    thrust = ur != 0.0 or ut != 0.0 or un != 0.0
    dm = -math.sqrt(ur * ur + ut * ut + un * un) / ve
    dm_step = sixth * (dm + 2.0 * dm + 2.0 * dm + dm)
    mu = consts.mu
    cj2 = mu * consts.j2 * consts.re * consts.re
    cos, sin, sqrt = math.cos, math.sin, math.sqrt
    p, f, g, h, k, L, m = (float(c) for c in y)
    m2 = m4 = m
    for _ in range(nsteps):
        # stage 1 is evaluated at (p, f, g, h, k, L, m), stages 2-4 at (ps,
        # fs, gs, hs, ks, Ls) and m2, m2, m4; stage j gives aj, bj, ... lj
        if thrust:
            m2, m4 = m + half * dm, m + dt * dm
        if m4 <= 0.0:
            raise SingularStateError("mass reached zero during propagation")
        cosL, sinL = cos(L), sin(L)
        w = 1.0 + f * cosL + g * sinL
        if w <= 0.0:
            raise SingularStateError(f"w = {w} <= 0: radius diverges")
        hh, kk = h * h, k * k
        s2 = 1.0 + hh + kk
        s4 = s2 * s2
        v, coef = h * sinL - k * cosL, cj2 / (p / w)**4
        ar = -1.5 * coef * (1.0 - 12.0 * v * v / s4)
        at = -12.0 * coef * v * (h * cosL + k * sinL) / s4
        an = -6.0 * coef * v * (1.0 - hh - kk) / s4
        if thrust:
            ar, at, an = ur / m + ar, ut / m + at, un / m + an
        sqpm = sqrt(p / mu)
        node = sqpm * s2 / (2.0 * w)
        b1 = sqpm * (ar * sinL + ((w + 1.0) * cosL + f) / w * at - g * v / w * an)
        c1 = sqpm * (-ar * cosL + ((w + 1.0) * sinL + g) / w * at + f * v / w * an)
        a1, d1, e1 = 2.0 * p / w * sqpm * at, node * cosL * an, node * sinL * an
        l1 = sqrt(mu * p) * (w / p) ** 2 + sqpm * v / w * an
        ps, fs, gs = p + half * a1, f + half * b1, g + half * c1
        hs, ks, Ls = h + half * d1, k + half * e1, L + half * l1
        cosL, sinL = cos(Ls), sin(Ls)
        w = 1.0 + fs * cosL + gs * sinL
        if w <= 0.0:
            raise SingularStateError(f"w = {w} <= 0: radius diverges")
        hh, kk = hs * hs, ks * ks
        s2 = 1.0 + hh + kk
        s4 = s2 * s2
        v, coef = hs * sinL - ks * cosL, cj2 / (ps / w)**4
        ar = -1.5 * coef * (1.0 - 12.0 * v * v / s4)
        at = -12.0 * coef * v * (hs * cosL + ks * sinL) / s4
        an = -6.0 * coef * v * (1.0 - hh - kk) / s4
        if thrust:
            ar, at, an = ur / m2 + ar, ut / m2 + at, un / m2 + an
        sqpm = sqrt(ps / mu)
        node = sqpm * s2 / (2.0 * w)
        b2 = sqpm * (ar * sinL + ((w + 1.0) * cosL + fs) / w * at - gs * v / w * an)
        c2 = sqpm * (-ar * cosL + ((w + 1.0) * sinL + gs) / w * at + fs * v / w * an)
        a2, d2, e2 = 2.0 * ps / w * sqpm * at, node * cosL * an, node * sinL * an
        l2 = sqrt(mu * ps) * (w / ps) ** 2 + sqpm * v / w * an
        ps, fs, gs = p + half * a2, f + half * b2, g + half * c2
        hs, ks, Ls = h + half * d2, k + half * e2, L + half * l2
        cosL, sinL = cos(Ls), sin(Ls)
        w = 1.0 + fs * cosL + gs * sinL
        if w <= 0.0:
            raise SingularStateError(f"w = {w} <= 0: radius diverges")
        hh, kk = hs * hs, ks * ks
        s2 = 1.0 + hh + kk
        s4 = s2 * s2
        v, coef = hs * sinL - ks * cosL, cj2 / (ps / w)**4
        ar = -1.5 * coef * (1.0 - 12.0 * v * v / s4)
        at = -12.0 * coef * v * (hs * cosL + ks * sinL) / s4
        an = -6.0 * coef * v * (1.0 - hh - kk) / s4
        if thrust:
            ar, at, an = ur / m2 + ar, ut / m2 + at, un / m2 + an
        sqpm = sqrt(ps / mu)
        node = sqpm * s2 / (2.0 * w)
        b3 = sqpm * (ar * sinL + ((w + 1.0) * cosL + fs) / w * at - gs * v / w * an)
        c3 = sqpm * (-ar * cosL + ((w + 1.0) * sinL + gs) / w * at + fs * v / w * an)
        a3, d3, e3 = 2.0 * ps / w * sqpm * at, node * cosL * an, node * sinL * an
        l3 = sqrt(mu * ps) * (w / ps) ** 2 + sqpm * v / w * an
        ps, fs, gs = p + dt * a3, f + dt * b3, g + dt * c3
        hs, ks, Ls = h + dt * d3, k + dt * e3, L + dt * l3
        cosL, sinL = cos(Ls), sin(Ls)
        w = 1.0 + fs * cosL + gs * sinL
        if w <= 0.0:
            raise SingularStateError(f"w = {w} <= 0: radius diverges")
        hh, kk = hs * hs, ks * ks
        s2 = 1.0 + hh + kk
        s4 = s2 * s2
        v, coef = hs * sinL - ks * cosL, cj2 / (ps / w)**4
        ar = -1.5 * coef * (1.0 - 12.0 * v * v / s4)
        at = -12.0 * coef * v * (hs * cosL + ks * sinL) / s4
        an = -6.0 * coef * v * (1.0 - hh - kk) / s4
        if thrust:
            ar, at, an = ur / m4 + ar, ut / m4 + at, un / m4 + an
        sqpm = sqrt(ps / mu)
        node = sqpm * s2 / (2.0 * w)
        b4 = sqpm * (ar * sinL + ((w + 1.0) * cosL + fs) / w * at - gs * v / w * an)
        c4 = sqpm * (-ar * cosL + ((w + 1.0) * sinL + gs) / w * at + fs * v / w * an)
        a4, d4, e4 = 2.0 * ps / w * sqpm * at, node * cosL * an, node * sinL * an
        l4 = sqrt(mu * ps) * (w / ps) ** 2 + sqpm * v / w * an
        p += sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        f += sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        g += sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        h += sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        k += sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
        L += sixth * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        if thrust:
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
    rows = [(m.p, m.f, m.g, m.h, m.k, m.L, state.mass)]
    for u, dur in zip(controls.tolist(), durations.tolist()):
        rows.append(rk4_segment(rows[-1], u, dur, config.step, ve, consts))
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# batch integration for finite differencing
# ---------------------------------------------------------------------------

#: rows per block of :func:`rk4_batch`; the block bounds depend on the row
#: count alone, never on the thread count
BATCH_BLOCK = 8192


def _rhs_batch(p, f, g, h, k, L, m, ur, ut, un, mu: float, cj2: float):
    """Vectorized right-hand side of the six elements on (B,) arrays, one
    per element and control component; returns their six (B,) rates.

    Fused like :func:`rk4_segment`: cos L, sin L, w, h^2, k^2, s^2, s^4 and
    v are computed once per call for both the J2 acceleration
    (``cj2 = mu * j2 * re^2``) and the variational equations.  The mass
    rate is constant per row, so :func:`rk4_batch` computes it once."""
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


def _rk4_block(y, u, dm, dt, nsteps: int, mu: float, cj2: float) -> np.ndarray:
    """RK4 over one block of rows in struct-of-arrays layout: y (b, 7),
    u (b, 3), mass rate dm (b,) and step dt (b,) -> end states (7, b)."""
    p, f, g, h, k, L, m = y.T.copy()
    ur, ut, un = u.T.copy()
    half, sixth = 0.5 * dt, dt / 6.0
    dm_half, dm_full = half * dm, dt * dm
    dm_step = sixth * (dm + 2.0 * dm + 2.0 * dm + dm)
    for _ in range(nsteps):
        a1, b1, c1, d1, e1, l1 = _rhs_batch(p, f, g, h, k, L, m, ur, ut, un, mu, cj2)
        m2 = m + dm_half
        a2, b2, c2, d2, e2, l2 = _rhs_batch(
            p + half * a1, f + half * b1, g + half * c1, h + half * d1,
            k + half * e1, L + half * l1, m2, ur, ut, un, mu, cj2)
        a3, b3, c3, d3, e3, l3 = _rhs_batch(
            p + half * a2, f + half * b2, g + half * c2, h + half * d2,
            k + half * e2, L + half * l2, m2, ur, ut, un, mu, cj2)
        a4, b4, c4, d4, e4, l4 = _rhs_batch(
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


def rk4_batch(y: np.ndarray, u: np.ndarray, duration: np.ndarray, nsteps: int,
              ve: float, consts: PhysicalConstants) -> np.ndarray:
    """Integrate a batch of states over one constant-control segment each:
    y (B, 7), u (B, 3), duration (B,) -> (B, 7).  All rows share the same
    substep count (callers group rows accordingly).

    The rows are cut into blocks of :data:`BATCH_BLOCK`, each integrated in
    struct-of-arrays layout so every element works on contiguous (b,)
    arrays that stay in cache.  The blocks are spread over a thread pool of
    ``min(available CPUs, blocks)`` threads that lives only for this call;
    numpy releases the GIL inside its loops.  Every row keeps the operation
    order of the whole-batch integration, and the block bounds do not
    depend on the thread count, so any number of threads gives the same
    bits.  A :class:`~orbtour.errors.SingularStateError` raised in a block
    reaches the caller after every thread has finished.
    """
    dt = np.asarray(duration, dtype=float) / nsteps
    dm = -np.linalg.norm(u, axis=1) / ve
    mu = consts.mu
    cj2 = mu * consts.j2 * consts.re * consts.re
    out = np.empty((y.shape[0], 7))

    def run(a: int) -> None:
        b = a + BATCH_BLOCK
        out[a:b] = _rk4_block(y[a:b], u[a:b], dm[a:b], dt[a:b], nsteps, mu, cj2).T

    starts = range(0, y.shape[0], BATCH_BLOCK)
    threads = min(_available_cpus(), len(starts))
    if threads <= 1:
        for a in starts:
            run(a)
    else:
        # imported here: a program that never integrates a batch on more
        # than one thread does not load the thread pool's modules
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(threads) as pool:
            for _ in pool.map(run, starts):
                pass
    return out
