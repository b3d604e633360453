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

The batch integrator works in struct-of-arrays layout on one work array
it allocates per call, as wide as its batch: one contiguous row per
element, control component, per-row constant (mass rate, step sizes),
stage input, rate, rate sum and right-hand-side intermediate, every
operation written in place.  Rows never interact and each keeps the
operation order of the expression-form whole-batch integration, so a row's
result does not depend on the batch it is integrated in.  Its callers in
:mod:`orbtour.ocp` bound the batch, and with it the work array.
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
    y = (m.p, m.f, m.g, m.h, m.k, m.L, state.mass)
    out = np.empty((durations.size + 1, 7))
    out[0] = y
    for i, (u, dur) in enumerate(zip(controls.tolist(), durations.tolist()), 1):
        out[i] = y = rk4_segment(y, u, dur, config.step, ve, consts)
    return out


# ---------------------------------------------------------------------------
# batch integration for finite differencing
# ---------------------------------------------------------------------------

#: scratch rows of :func:`_rhs_into`
_RHS_SCRATCH = 13
#: rows of the work array of :func:`rk4_batch`: state, controls, per-row
#: constants, stage inputs, stage mass, rates, rate sums and right-hand-side
#: scratch
_WORK_ROWS = 7 + 3 + 6 + 6 + 1 + 6 + 6 + _RHS_SCRATCH


def _rhs_into(rate, p, f, g, h, k, L, m, ur, ut, un, mu: float, cj2: float,
              scratch) -> None:
    """Vectorized right-hand side of the six elements on (b,) arrays, one
    per element and control component, written into the six rows of
    ``rate``; ``scratch`` holds :data:`_RHS_SCRATCH` more (b,) rows.

    Fused like :func:`rk4_segment`: cos L, sin L, w, s^2, s^4 and v are
    computed once per call for both the J2 acceleration
    (``cj2 = mu * j2 * re^2``) and the variational equations.  Every value
    takes the operations of the expression form kept as the oracle in
    ``tests/conftest.py``, in the same order, one ufunc at a time into a
    preallocated row, so the bits are the same.  The mass rate is constant
    per row, so :func:`rk4_batch` computes it once."""
    cosL, sinL, w, v, s2, s4, coef, ar, at, an, sqpm, x, y = scratch
    rp, rf, rg, rh, rk, rL = rate
    np.cos(L, out=cosL)
    np.sin(L, out=sinL)
    np.multiply(f, cosL, out=w)
    w += 1.0
    np.multiply(g, sinL, out=x)
    w += x
    if np.any(w <= 0.0):
        raise SingularStateError("w <= 0 in batch evaluation")
    np.multiply(h, h, out=x)
    np.multiply(k, k, out=y)
    np.add(x, 1.0, out=s2)
    s2 += y
    np.subtract(1.0, x, out=x)   # 1 - h^2 - k^2
    x -= y
    np.multiply(s2, s2, out=s4)
    np.multiply(h, sinL, out=v)
    np.multiply(k, cosL, out=y)
    v -= y
    np.divide(p, w, out=coef)
    np.power(coef, 4, out=coef)
    np.divide(cj2, coef, out=coef)
    # an = un/m + -6 coef v (1 - h^2 - k^2) / s^4
    np.multiply(coef, -6.0, out=an)
    an *= v
    an *= x
    an /= s4
    np.divide(un, m, out=y)
    an += y
    # ar = ur/m + -1.5 coef (1 - 12 v v / s^4)
    np.multiply(v, 12.0, out=x)
    x *= v
    x /= s4
    np.subtract(1.0, x, out=x)
    np.multiply(coef, -1.5, out=ar)
    ar *= x
    np.divide(ur, m, out=y)
    ar += y
    # at = ut/m + -12 coef v (h cos L + k sin L) / s^4
    np.multiply(coef, -12.0, out=at)
    at *= v
    np.multiply(h, cosL, out=x)
    np.multiply(k, sinL, out=y)
    x += y
    at *= x
    at /= s4
    np.divide(ut, m, out=y)
    at += y
    np.divide(p, mu, out=sqpm)
    np.sqrt(sqpm, out=sqpm)
    node = s2                    # sqpm s^2 / (2 w), over s^2
    node *= sqpm
    np.multiply(w, 2.0, out=x)
    node /= x
    np.multiply(p, 2.0, out=rp)
    rp /= w
    rp *= sqpm
    rp *= at
    # sqpm (ar sin L + ((w + 1) cos L + f) / w at - g v / w an)
    np.multiply(ar, sinL, out=rf)
    np.add(w, 1.0, out=x)
    x *= cosL
    x += f
    x /= w
    x *= at
    rf += x
    np.multiply(g, v, out=x)
    x /= w
    x *= an
    rf -= x
    rf *= sqpm
    # sqpm (-ar cos L + ((w + 1) sin L + g) / w at + f v / w an)
    np.negative(ar, out=rg)
    rg *= cosL
    np.add(w, 1.0, out=x)
    x *= sinL
    x += g
    x /= w
    x *= at
    rg += x
    np.multiply(f, v, out=x)
    x /= w
    x *= an
    rg += x
    rg *= sqpm
    np.multiply(node, cosL, out=rh)
    rh *= an
    np.multiply(node, sinL, out=rk)
    rk *= an
    # sqrt(mu p) (w / p)^2 + sqpm v / w an
    np.multiply(p, mu, out=rL)
    np.sqrt(rL, out=rL)
    np.divide(w, p, out=x)
    x *= x
    rL *= x
    np.multiply(sqpm, v, out=x)
    x /= w
    x *= an
    rL += x


def rk4_batch(y: np.ndarray, u: np.ndarray, duration: np.ndarray, nsteps: int,
              ve: float, consts: PhysicalConstants) -> np.ndarray:
    """Integrate a batch of states over one constant-control segment each:
    y (B, 7), u (B, 3), duration (B,) -> (B, 7).  All rows share the same
    substep count (callers group rows accordingly).

    The rows are integrated in struct-of-arrays layout, in place on the
    rows of one work array (:data:`_WORK_ROWS`, B), so every element works
    on a contiguous (B,) array.  The rates of the four stages are summed
    into one set of six rows as k1 + 2 k2 + 2 k3 + k4, left to right, which
    is the operation order of the expression form.  The work array grows
    with B; the callers in :mod:`orbtour.ocp` bound B by
    :data:`~orbtour.ocp.BATCH_BLOCK`.
    """
    duration = np.asarray(duration, dtype=float)
    mu = consts.mu
    cj2 = mu * consts.j2 * consts.re * consts.re
    work = np.empty((_WORK_ROWS, y.shape[0]))
    state, stage, rate, total = work[:7], work[16:22], work[23:29], work[29:35]
    p, f, g, h, k, L, m, ur, ut, un, dt, half, sixth, dm_half, dm_full, dm_step = work[:16]
    ms = work[22]
    scratch = work[35:]
    state[:] = y.T
    work[7:10] = u.T
    np.divide(duration, nsteps, out=dt)
    np.multiply(dt, 0.5, out=half)
    np.divide(dt, 6.0, out=sixth)
    dm = -np.linalg.norm(u, axis=1) / ve
    np.multiply(half, dm, out=dm_half)
    np.multiply(dt, dm, out=dm_full)
    twice = scratch[0]
    np.multiply(dm, 2.0, out=twice)
    np.add(dm, twice, out=dm_step)
    dm_step += twice
    dm_step += dm
    dm_step *= sixth
    for _ in range(nsteps):
        _rhs_into(rate, p, f, g, h, k, L, m, ur, ut, un, mu, cj2, scratch)
        total[:] = rate
        np.add(m, dm_half, out=ms)
        for _ in range(2):
            np.multiply(rate, half, out=stage)
            stage += state[:6]
            _rhs_into(rate, *stage, ms, ur, ut, un, mu, cj2, scratch)
            np.multiply(rate, 2.0, out=stage)
            total += stage
        np.multiply(rate, dt, out=stage)
        stage += state[:6]
        np.add(m, dm_full, out=ms)
        _rhs_into(rate, *stage, ms, ur, ut, un, mu, cj2, scratch)
        total += rate
        total *= sixth
        state[:6] += total
        m += dm_step
    return state.T.copy()
