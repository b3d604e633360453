"""Discretized optimal-control problem construction and its batch work:
stage grids that mark their burn stages, aligned to a burn plan, the stage
defects of node states and the linearization of the discrete dynamics by
vectorized central finite differences.  Sequential rolls (warm starts,
tails, exit rollouts) live in :mod:`orbtour.scp`.

:func:`stage_defects` and :func:`linearize_batch` sort the stages by
substep count, most first, and cut them into chunks of at most
:data:`BATCH_BLOCK` rows.  A chunk is integrated in one walk: every row
takes the smallest count's steps, then the rows that need more continue,
one count level at a time, on a shrinking prefix of the chunk, so a chunk
costs as many lock-step RK4 steps as its largest count.  Every chunk's
result goes straight into the grid-sized output.  What they hold besides
that output is bounded by one chunk, not by the grid; since stages never
interact and a row keeps its bits across calls of
:func:`~orbtour.propagate.rk4_batch`, the bits do not depend on the chunk
split or on the walk.

The stage grid is nonuniform: burn windows (one per planned impulse, the
thruster's maximum on-time wide, centered on the impulse) are resolved by
several short stages, coast gaps by :data:`COAST_STAGES_PER_ORBIT` stages
per revolution.  A coast stage carries no control; it is only a multiple-
shooting node, and the coast flow in equinoctial elements is nearly linear
over a quarter orbit.  So four per orbit: a 1 deg plane change takes 2,880
stages instead of the 11,520 of forty per orbit, for the same fuel to 1e-4
kg.  At two per orbit the 1.25 deg plane change no longer converges.
Coasts are integrated at :data:`COAST_SUBSTEP` = 80 s, half the RK4 work
of 40 s for the same SCP iterations on every swept transfer; the budget
that sets it is the refiner-vs-verify consistency gate.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import EARTH, PhysicalConstants
from .maneuvers import BurnPlan, ThrusterSpec
from .propagate import rk4_batch

#: grid resolution (stages per burn window / per coast revolution)
BURN_STAGES = 4
COAST_STAGES_PER_ORBIT = 4
#: most stages of one grid, a memory guard and not a split: every maneuver
#: phase is one grid.  The 36,024-stage grid of a 5,000 -> 250 km de-orbit
#: (4,917 burns at 235 kg) refines in 22 s at a peak RSS of 112-115 MB on one
#: core of a 2-CPU x86-64 host; memory grows about linearly in the stages
STAGE_CAP = 50000
#: max internal integration substep on coast stages [s], for the stage
#: walks here and every sequential roll of :mod:`orbtour.scp`.  At 80 s the
#: refined arcs' terminal states stay within 1.2e-6 scaled of a 10 s RK4
#: re-propagation, 8x under verify's 1e-5 consistency gate; at 160 s they miss it
COAST_SUBSTEP = 80.0


@dataclass
class BurnWindow:
    """One thrust-allowed interval with the impulses it must realize."""

    start: float
    end: float
    dv: np.ndarray          # summed LVLH impulse [km/s]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class StageGrid:
    """Nonuniform time discretization that marks each stage once: by the
    index of the burn window it lies in, or -1 on a coast.  A burn stage may
    thrust up to ``thrust_kn``; a coast stage carries no control."""

    dt: np.ndarray                  # (N,) stage durations [s]
    window_of_stage: np.ndarray     # (N,) window index or -1
    thrust_kn: float                # thrust bound of every burn stage [kN]
    windows: list[BurnWindow] = field(default_factory=list)

    @property
    def n_stages(self) -> int:
        return self.dt.size

    def substeps(self) -> np.ndarray:
        """Internal integration substeps per stage (integration accuracy)."""
        return np.maximum(1, np.ceil(self.dt / COAST_SUBSTEP - 1e-12)).astype(int)


def burn_windows(plan: BurnPlan, thruster: ThrusterSpec) -> list[BurnWindow]:
    """Thrust windows of width t_on centered on each planned impulse.

    Windows that overlap (or violate the cooldown separation) after
    placement are merged with a warning and carry the summed impulse.
    """
    t_on = thruster.t_on
    wins: list[BurnWindow] = []
    for ev in plan.events:
        start = max(ev.epoch - 0.5 * t_on, 0.0)
        w = BurnWindow(start, start + t_on, np.asarray(ev.dv, dtype=float))
        if wins and w.start < wins[-1].end + thruster.t_cooldown:
            warnings.warn("burn windows overlap after quantization; merged",
                          stacklevel=2)
            prev = wins[-1]
            prev.end = max(prev.end, w.end)
            prev.dv = prev.dv + w.dv
        else:
            wins.append(w)
    return wins


def build_grid(plan: BurnPlan, thruster: ThrusterSpec,
               orbit_period: float) -> StageGrid:
    """Nonuniform stage grid covering a burn plan through its last window;
    :func:`with_tail` appends the trailing coast."""
    coast_dt = orbit_period / COAST_STAGES_PER_ORBIT
    wins = burn_windows(plan, thruster)

    dts: list[float] = []
    owner: list[int] = []
    cursor = 0.0
    for idx, w in enumerate(wins):
        gap = _coast_stages(w.start - cursor, coast_dt)
        dts.extend(gap)
        owner.extend([-1] * len(gap))
        d = w.duration / BURN_STAGES
        dts.extend([d] * BURN_STAGES)
        owner.extend([idx] * BURN_STAGES)
        cursor = w.end
    return StageGrid(dt=np.array(dts), window_of_stage=np.array(owner, dtype=np.int64),
                     thrust_kn=thruster.thrust_kn, windows=wins)


def _coast_stages(duration: float, coast_dt: float) -> list[float]:
    """Equal stage durations covering a coast, none longer than ``coast_dt``."""
    if duration <= 1e-9:
        return []
    n = max(1, math.ceil(duration / coast_dt - 1e-12))
    return [duration / n] * n


def with_tail(grid: StageGrid, tail: float, orbit_period: float,
              stage_cap: int = STAGE_CAP) -> StageGrid:
    """``grid`` followed by a trailing coast of ``tail`` seconds, cut into
    stages as :func:`build_grid` cuts a coast gap; a whole grid of more
    than ``stage_cap`` stages raises ValueError."""
    dts = _coast_stages(tail, orbit_period / COAST_STAGES_PER_ORBIT)
    n = grid.n_stages + len(dts)
    if n > stage_cap:
        raise ValueError(f"grid needs {n} stages, cap is {stage_cap}")
    return StageGrid(dt=np.concatenate([grid.dt, dts]),
                     window_of_stage=np.concatenate(
                         [grid.window_of_stage, np.full(len(dts), -1, dtype=np.int64)]),
                     thrust_kn=grid.thrust_kn, windows=grid.windows)


#: stages per chunk of :func:`stage_defects`, and so the most rows of one
#: :func:`~orbtour.propagate.rk4_batch` call in this module
BATCH_BLOCK = 8192


def _chunks(substeps: np.ndarray, size: int):
    """Stage indices in descending substep count (stage order within a
    count), cut into runs of at most ``size``."""
    order = np.argsort(-substeps, kind="stable")
    for a in range(0, order.size, size):
        yield order[a:a + size]


def _walk(y: np.ndarray, u: np.ndarray, step: np.ndarray, counts: np.ndarray,
          ve: float, consts: PhysicalConstants) -> np.ndarray:
    """End states of rows sorted by substep count, most first: every row
    takes ``step`` ``counts`` times.  One :func:`~orbtour.propagate.rk4_batch`
    call per distinct count continues the rows that need at least that
    many, a prefix, from where the last call left them.  Overwrites and
    returns ``y``."""
    done = 0
    for ns in np.unique(counts):
        n = int(np.count_nonzero(counts >= ns))
        y[:n] = rk4_batch(y[:n], u[:n], step[:n], int(ns) - done, ve, consts)
        done = int(ns)
    return y


def stage_defects(states: np.ndarray, controls: np.ndarray, grid: StageGrid,
                  isp: float, consts: PhysicalConstants = EARTH) -> np.ndarray:
    """Stage defects of node states (N+1, 7) under controls (N, 3): the end
    state of every stage integrated from its own node, minus the next node,
    in physical units (N, 7).  The stages are sorted by substep count and
    walked in chunks of at most :data:`BATCH_BLOCK`, each chunk in as many
    lock-step steps as its largest count, so the memory the walk holds
    besides its result does not grow with N."""
    ve = isp * consts.g0
    substeps = grid.substeps()
    step = grid.dt / substeps
    out = np.empty((grid.n_stages, 7))
    for i in _chunks(substeps, BATCH_BLOCK):
        out[i] = _walk(states[i], controls[i], step[i], substeps[i], ve,
                       consts) - states[i + 1]
    return out


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

#: characteristic scales for finite-difference steps on [p f g h k L m] and u
_FD_STATE_SCALE = np.array([7000.0, 1.0, 1.0, 1.0, 1.0, 1.0, 200.0])
_FD_REL = 6.0e-6
#: stages per chunk of :func:`linearize_batch`: at most 20 offset rows per
#: stage keep a chunk's :func:`~orbtour.propagate.rk4_batch` call within
#: :data:`BATCH_BLOCK` rows
LINEARIZE_CHUNK = BATCH_BLOCK // 20


def linearize_batch(x: np.ndarray, u: np.ndarray, dt: np.ndarray,
                    substeps: np.ndarray, isp: float,
                    consts: PhysicalConstants = EARTH, u_scale: float | None = None,
                    skip_b: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized central-difference Jacobians of the discrete dynamics at
    every node: x (N,7), u (N,3), dt (N,), substeps (N,) ints.

    ``skip_b`` marks stages whose control is structurally zero (coast); their
    B block is left zero and costs no evaluations.  A stage takes 14
    state-offset rows if it thrusts, 12 if not, and 6 control-offset rows
    if it is not in ``skip_b``.  Where a control row is exactly zero the
    mass enters only through ``0/m``, so the mass column is filled exactly,
    as its two rows would give it: ``A[:6, 6] = 0`` and
    ``A[6, 6] = ((m + e) - (m - e)) / (2e)``.

    The step sizes (from ``u_scale``, by default the largest thrust of the
    whole grid) and the thrust and ``skip_b`` masks are fixed over the
    whole grid first.  Then the stages, sorted by substep count, are cut
    into chunks of :data:`LINEARIZE_CHUNK`: a chunk's offset rows are built,
    sorted by substep count, integrated in one walk of as many lock-step
    steps as the chunk's largest count, scattered back and reduced straight
    into the preallocated A and B, so the memory in flight is bounded by one
    chunk.  Returns (A (N,7,7), B (N,7,3)).
    """
    N = x.shape[0]
    ve = isp * consts.g0
    if u_scale is None:
        u_scale = max(float(np.max(np.linalg.norm(u, axis=1), initial=0.0)), 1e-4)
    eps = _FD_REL * np.append(_FD_STATE_SCALE, [max(u_scale, 1e-4)] * 3)
    bsel = np.ones(N, dtype=bool) if skip_b is None else ~skip_b
    fire = np.any(u != 0.0, axis=1)

    A = np.zeros((N, 7, 7))
    B = np.zeros((N, 7, 3))
    step = dt / substeps
    for i in _chunks(substeps, LINEARIZE_CHUNK):
        # the stages of the +/- offset rows of each of the 10 inputs: every
        # stage for p..L, the thrusting ones for m, those with a B block for u
        stages = [i] * 6 + [i[fire[i]]] + [i[bsel[i]]] * 3
        idx = np.concatenate([s for s in stages for _ in range(2)])
        big = np.hstack([x[idx], u[idx]])
        off = 0
        for j, s in enumerate(stages):
            big[off:off + s.size, j] += eps[j]
            big[off + s.size:off + 2 * s.size, j] -= eps[j]
            off += 2 * s.size
        order = np.argsort(-substeps[idx], kind="stable")
        rows = idx[order]
        end = np.empty((idx.size, 7))
        end[order] = _walk(big[order, :7], big[order, 7:], step[rows], substeps[rows],
                           ve, consts)
        off = 0
        for j, s in enumerate(stages):
            jac, col = (A, j) if j < 7 else (B, j - 7)
            jac[s, :, col] = (end[off:off + s.size]
                              - end[off + s.size:off + 2 * s.size]) / (2.0 * eps[j])
            off += 2 * s.size
    m = x[~fire, 6]
    A[~fire, 6, 6] = ((m + eps[6]) - (m - eps[6])) / (2.0 * eps[6])
    return A, B
