"""Trajectory refinement by successive convexification (SCP).

Each transfer arc is re-optimized as a discrete optimal-control problem on
the nonuniform stage grid of :mod:`orbtour.ocp`: the dynamics are
linearized about the current iterate, the convex subproblem is solved once
with hard per-stage thrust balls, the step toward its solution is scaled so
the predicted state deviation stays within the trust radius, and the ratio
of actual to predicted merit reduction accepts or rejects it.  The radius
starts at :data:`TRUST_RADIUS` and only shrinks: a rejected step sets it to
half the step taken, so it bounds every step at the size where the linear
model still holds.  SCP stops when a step is predicted to lower the merit
by less than :data:`STOP_SHARE` of it, which moves no mission gate (10 km,
0.1 deg, 5% fuel) by a visible amount.

Candidates are scored by multiple shooting: a candidate's node states are
the current nodes plus the scaled state step, every stage is propagated
from its own node in batched RK4 calls, and its stage defect is the scaled
mismatch between that end state and the next node.  The merit is the
objective with the last node moved by the defects' first-order effect on
it, through the terminal maps that the condensed solver of
:mod:`orbtour.qp` forms in its one backward pass.  The linear model's
defects after a lam-scaled step are (1 - lam) times the current ones, and
an accepted iterate's defects enter the next subproblem as its dynamics
offset.  One sequential rollout of the returned controls runs at exit,
only after an accepted step, so the returned states are always a
trajectory of the returned controls; ``converged`` speaks of that rollout.

Every sequential roll of the refiner goes through :func:`roll_on`: the
lead coast before an arc, the coast fit that retimes a nodal plan, warm
starts and their tails, and the exit rollout.

States are scaled by the terminal reference magnitudes and controls by the
peak thrust before solving, and everything is reported back in physical
units.
"""
from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby

import numpy as np

from .constants import EARTH, PhysicalConstants
from .elements import MeeState, SpacecraftState, mee_to_kep
from .errors import SchemaError, json_fits, read_json_object
from .maneuvers import (ASC_NODE, BurnEvent, BurnPlan, DESC_NODE, ThrusterSpec,
                        TransferEstimate)
from .ocp import (BURN_STAGES, COAST_STAGES_PER_ORBIT, COAST_SUBSTEP, STAGE_CAP,
                  StageGrid, build_grid, linearize_batch, split_plan, stage_defects,
                  with_tail)
from .parallel import ordered_map
from .propagate import PropagatorConfig, propagate_numeric
from .qp import ConvexSubproblem, ReducedArcSolver
from .scenario import MissionScenario
from .tour import tour_plans

#: terminal weights on scaled [p f g h k L m] errors: orbit shape and plane
#: dominate, phase is soft, terminal mass is free
P_DIAG = (1e4, 1e4, 1e4, 1e4, 1e4, 1e2, 0.0)
#: control-energy weight in scaled units; regularization only, so the
#: terminal error always dominates the trade
R_SCALE = 1e-6
#: scale floors for near-zero reference components [p f g h k L m]
_SCALE_FLOOR = np.array([1.0, 1e-2, 1e-2, 1e-2, 1e-2, 1.0, 1.0])
#: trust region on the scaled state step: the initial radius, which no
#: later radius exceeds
TRUST_RADIUS = 0.1
#: a step whose actual-to-predicted reduction ratio is below RATIO_ACCEPT
#: is rejected and the radius becomes SHRINK times the step taken
SHRINK, RATIO_ACCEPT = 0.5, 0.25
#: the stop rule and the converged bound of :func:`scp_solve`
STOP_SHARE, STOP_FLOOR, ROLLOUT_SHARE = 1e-4, 1e-9, 1e-6
#: SCP iteration cap per arc
MAX_ITERATIONS = 50
#: impulse shortfall [kN*s] left after the last window above which the warm
#: start warns
SPILL_TOL = 1e-3


@dataclass
class OcpProblem:
    """One refinement problem: grid and boundary data."""

    x0: np.ndarray                # (7,) [p f g h k L m] at arc start
    grid: StageGrid
    x_ref: np.ndarray             # (7,) terminal reference
    isp: float
    consts: PhysicalConstants = field(default_factory=lambda: EARTH)
    t0: float = 0.0               # arc start epoch [s]
    label: str = "arc"

    def scales(self) -> tuple[np.ndarray, float]:
        sx = np.maximum(np.abs(self.x_ref), _SCALE_FLOOR)
        su = max(self.grid.thrust_kn, 1e-4)
        return sx, su


@dataclass
class RefinedArc:
    """Refined discrete trajectory for one arc."""

    states: np.ndarray            # (N+1, 7) physical units
    controls: np.ndarray          # (N, 3) [kN]
    dt: np.ndarray                # (N,) [s]
    t0: float
    iterations: int
    converged: bool
    objective: float
    x_ref: np.ndarray
    label: str = "arc"
    objective_history: list[float] = field(default_factory=list)

    @property
    def dv_total(self) -> float:
        """The arc's :func:`realized_dv` [km/s]."""
        return realized_dv(self.controls, self.dt, self.states)

    @property
    def terminal_error(self) -> dict:
        """Deviation of the achieved terminal orbit from the reference."""
        got = mee_to_kep(MeeState.from_array(self.states[-1, :6]))
        want = mee_to_kep(MeeState.from_array(self.x_ref[:6]))
        return {
            "da_km": got.a - want.a,
            "de": got.e - want.e,
            "di_deg": math.degrees(got.i - want.i),
        }


def realized_dv(controls: np.ndarray, dt: np.ndarray, states: np.ndarray) -> float:
    """Integrated |u|/m over the arc [km/s]."""
    mags = np.linalg.norm(controls, axis=1)
    m_mid = 0.5 * (states[:-1, 6] + states[1:, 6])
    return float(np.sum(mags * dt / m_mid))


def roll_on(x: np.ndarray, controls: np.ndarray, dt: np.ndarray, isp: float,
            consts: PhysicalConstants = EARTH) -> np.ndarray:
    """Sequential rollout from state x (7,) through stages of constant
    thrust ``controls`` (n, 3) [kN] and durations ``dt`` (n,) at
    :data:`~orbtour.ocp.COAST_SUBSTEP`; returns (n+1, 7) states, the first
    equal to x."""
    state = SpacecraftState(MeeState.from_array(x[:6]), mass=float(x[6]))
    return propagate_numeric(state, controls, dt, isp,
                             PropagatorConfig(step=COAST_SUBSTEP), consts)


def warm_start(grid: StageGrid, x0: np.ndarray, isp: float,
               consts: PhysicalConstants = EARTH) -> tuple[np.ndarray, np.ndarray]:
    """Initial trajectory realizing the burn windows' impulses as finite burns.

    Each window applies a constant thrust m*|dv|/duration along the
    impulse's LVLH direction, with m the mass where the window starts;
    forces above the window's bound are clipped and the impulse shortfall
    spills into the next window (a final shortfall above ``SPILL_TOL``
    warns).  Each coast gap and each window is one :func:`roll_on` run, so
    the states are the true nonlinear rollout of these controls and
    (states, controls) is dynamics-consistent from the start.

    Returns (states (N+1, 7), controls (N, 3) [kN]).
    """
    n = grid.n_stages
    controls = np.zeros((n, 3))
    states = np.empty((n + 1, 7))
    states[0] = x0

    owner = grid.window_of_stage
    carry = np.zeros(3)  # impulse shortfall spilled forward [km/s * kg]
    i = 0
    while i < n:
        # one run of stages i..j-1: a whole coast gap or a whole window
        w = owner[i]
        j = i + 1
        while j < n and owner[j] == w:
            j += 1
        if w >= 0:
            window = grid.windows[w]
            needed = states[i, 6] * np.asarray(window.dv) + carry
            force = needed / window.duration
            fmag = float(np.linalg.norm(force))
            bound = grid.thrust_kn
            if fmag > bound * (1.0 + 1e-9):
                force = force * (bound / fmag)
                applied = force * window.duration
                carry = needed - applied
                # an unrealized tail above the impulse-bit scale is reportable
                if (w == len(grid.windows) - 1
                        and float(np.linalg.norm(carry)) > SPILL_TOL):
                    warnings.warn("warm start could not realize the full impulse "
                                  "within the thrust bound", stacklevel=2)
            else:
                carry = np.zeros(3)
            controls[i:j] = force
        states[i:j + 1] = roll_on(states[i], controls[i:j], grid.dt[i:j], isp, consts)
        i = j
    return states, controls


def scp_solve(problem: OcpProblem, warm_states: np.ndarray,
              warm_controls: np.ndarray) -> RefinedArc:
    """Refine one arc from a dynamics-consistent warm start.

    Returns the last accepted iterate's controls with their sequential
    rollout as states.  ``objective_history`` holds the merit of the warm
    start and of each accepted iterate; ``objective`` is the true objective
    of the returned states.  SCP stops on a predicted reduction below
    ``max(STOP_SHARE * |J|, STOP_FLOOR)`` at merit J, and takes that last
    step if it lowers the merit.  At lam = 0 the predicted merit is J, so a
    shrinking radius drives the predicted reduction to zero and this rule
    ends the run; the radius needs no floor.  ``converged`` is True when
    SCP stopped before :data:`MAX_ITERATIONS` and ``objective`` is at most
    the last accepted merit plus :data:`ROLLOUT_SHARE` of it: lower is no
    fault.
    """
    grid = problem.grid
    sx, su = problem.scales()
    P = np.diag(P_DIAG)
    burn = grid.window_of_stage >= 0
    ball = np.where(burn, grid.thrust_kn, 0.0) / su
    z_ref = problem.x_ref / sx
    dt = grid.dt
    substeps = grid.substeps()
    consts = problem.consts

    def merit(states: np.ndarray, controls: np.ndarray,
              moved: np.ndarray | float = 0.0) -> float:
        # the objective with the last node moved by ``moved``, the defects'
        # first-order effect on it; with no defects, the true objective
        err = states[-1] / sx + moved - z_ref
        w = controls / su
        return float(0.5 * err @ P @ err + 0.5 * R_SCALE * np.sum(w * w))

    X = np.asarray(warm_states, dtype=float).copy()
    U = np.asarray(warm_controls, dtype=float).copy()
    D = np.zeros((grid.n_stages, 7))   # the warm start is a rollout
    J = merit(X, U)
    history = [J]
    radius = TRUST_RADIUS
    stopped, iterations, gamma, solver = False, 0, None, None
    for iterations in range(1, MAX_ITERATIONS + 1):
        if solver is None:
            A, B = linearize_batch(X[:-1], U, dt, substeps, problem.isp, consts,
                                   u_scale=su, skip_b=~burn)
            # scaled deviation dynamics with absolute scaled controls w=u/su:
            # z' = (A*) z + (B*)(w - w_bar) + d  ->  offset c = d - (B*) w_bar
            A *= sx[None, None, :] / sx[None, :, None]
            B *= su / sx[None, :, None]
            c = D - np.einsum("nij,nj->ni", B, U / su)
            z_ref_dev = (problem.x_ref - X[-1]) / sx
            sub = ConvexSubproblem(A=A, B=B, c=c, P=P, z_ref=z_ref_dev,
                                   r=R_SCALE, ball=ball)
            solver = ReducedArcSolver(sub)
            # the defects' first-order effect on the last node
            shift = np.einsum("kab,kb->a", solver.E, D)
            sol = solver.solve(warm=gamma)
            gamma = sol.gamma
        # trust region: the step is affine in the controls, so scaling the
        # control step keeps it ball-feasible and model-consistent; the
        # linear model's defects after a lam-scaled step are (1 - lam) d
        step_scale = float(np.max(np.abs(sol.states)))
        lam = 1.0 if step_scale <= radius else radius / step_scale
        W_step = U / su + lam * (sol.controls - U / su)
        U_new = W_step * su
        Z_lam = lam * sol.states
        err = Z_lam[-1] + (1.0 - lam) * shift - z_ref_dev
        J_pred = float(0.5 * err @ P @ err
                       + 0.5 * R_SCALE * np.sum(W_step * W_step))

        X_new = X + Z_lam * sx
        D_new = stage_defects(X_new, U_new, grid, problem.isp, consts) / sx
        # J stays the merit its iterate was accepted with, so the accepted
        # merits only fall
        J_new = merit(X_new, U_new, np.einsum("kab,kb->a", solver.E, D_new))
        pred_red = J - J_pred
        act_red = J - J_new

        if pred_red < max(STOP_SHARE * abs(J), STOP_FLOOR):
            if act_red > 0.0:
                X, U, J, D = X_new, U_new, J_new, D_new
                history.append(J)
            stopped = True
            break
        ratio = act_red / pred_red
        if ratio < RATIO_ACCEPT:
            radius = SHRINK * min(radius, step_scale)
            continue
        X, U, J, D = X_new, U_new, J_new, D_new
        history.append(J)
        # accepted: the linearization point moved; the old model goes
        # before the next linearization is built
        solver = sub = A = B = c = None

    if len(history) > 1:
        X = roll_on(problem.x0, U, dt, problem.isp, consts)
    objective = merit(X, U)
    return RefinedArc(states=X, controls=U, dt=dt, t0=problem.t0, iterations=iterations,
                      # one-sided: the rollout may land below its accepted merit
                      converged=stopped and objective <= J + ROLLOUT_SHARE * abs(J),
                      objective=objective,
                      x_ref=problem.x_ref.copy(), label=problem.label,
                      objective_history=history)


# ---------------------------------------------------------------------------
# tour-level refinement
# ---------------------------------------------------------------------------

@dataclass
class RefineOptions:
    stage_cap: int = STAGE_CAP


def _phase_groups(plan: BurnPlan) -> list[BurnPlan]:
    """Split a leg plan into maneuver phases: runs of plane (node) burns and
    of altitude burns."""
    return [BurnPlan(list(evts)) for _, evts in
            groupby(plan.events, lambda ev: ev.tag in (ASC_NODE, DESC_NODE))]


def _problems_for_leg(state0: SpacecraftState, plan: BurnPlan,
                      options: RefineOptions, x_ref_final: np.ndarray,
                      consts: PhysicalConstants,
                      label: str) -> list[tuple[BurnPlan, np.ndarray | None, str]]:
    """(sub-plan, terminal reference or None, label) triples for one leg:
    one per maneuver phase, or more where the stage cap splits a phase.

    A None reference means "pin to the warm rollout terminal": used for the
    interior pieces produced by phase grouping or stage-cap splitting, whose
    physical target is just the staircase state where the next piece starts.
    """
    groups = _phase_groups(plan)
    period = 2.0 * math.pi * math.sqrt(mee_to_kep(state0.mee).a**3 / consts.mu)
    pieces: list[tuple[BurnPlan, np.ndarray | None, str]] = []
    for gi, g in enumerate(groups):
        # enforce the stage cap by splitting long phases at coast midpoints;
        # the margin covers the phase-matching tail and per-gap rounding
        est_stages = (len(g.events) * (BURN_STAGES + 1)
                      + (g.duration / period + 2.5) * COAST_STAGES_PER_ORBIT)
        n_chunks = math.ceil(est_stages / (0.9 * options.stage_cap))
        chunks = split_plan(g, g.duration / n_chunks)
        for ci, chunk in enumerate(chunks):
            last = (gi == len(groups) - 1) and (ci == len(chunks) - 1)
            pieces.append((chunk, x_ref_final if last else None,
                           f"{label}/phase{gi}.{ci}"))
    return pieces


def refine_leg(leg: tuple[str, SpacecraftState, TransferEstimate, BurnPlan],
               thruster: ThrusterSpec, options: RefineOptions,
               consts: PhysicalConstants) -> list[RefinedArc]:
    """Refine one leg ``(label, state0, est, plan)`` of a tour: one
    RefinedArc per piece of :func:`_problems_for_leg`, chained on the leg
    timeline from ``state0``."""
    label, state0, est, plan = leg
    x_ref_final = np.concatenate([est.end_state.mee.as_array(),
                                  [est.end_state.mass]])
    pieces = _problems_for_leg(state0, plan, options, x_ref_final, consts, label)
    # chain on the leg timeline: each piece starts where the previous arc's
    # rollout (which extends past its last burn) ended; terminal pieces
    # anchor their endpoint phase to the leg's starting phase
    x_cursor = np.concatenate([state0.mee.as_array(), [state0.mass]])
    leg_u0 = (state0.mee.L - math.atan2(state0.mee.k, state0.mee.h))
    cursor = 0.0  # leg-relative time already covered
    arcs = []
    for chunk, x_ref, piece_label in pieces:
        arc_start = max(chunk.events[0].epoch - 0.5 * thruster.t_on, cursor)
        lead = arc_start - cursor
        rel_plan = chunk.shifted(-arc_start)
        arc = refine_arc(x_cursor, rel_plan, thruster, x_ref, options,
                         consts, isp=thruster.isp,
                         t0=state0.epoch + arc_start, label=piece_label,
                         lead_coast=lead, u_anchor=leg_u0)
        arcs.append(arc)
        x_cursor = arc.states[-1].copy()
        cursor = arc_start + float(arc.dt.sum())
    return arcs


def refine_tour(order, scenario: MissionScenario,
                options: RefineOptions = RefineOptions(),
                consts: PhysicalConstants = EARTH,
                jobs: int | None = 1) -> list[RefinedArc]:
    """Refine every leg of a visit order; returns one RefinedArc per solved
    piece, in leg order.

    Each leg starts from its analytic :func:`~orbtour.tour.tour_plans`
    state, not from the previous leg's arcs, so the legs are independent.
    They are refined by :func:`refine_leg` on up to ``jobs`` forked worker
    processes (None: every available CPU), most burns first; the arcs are
    bit-identical to a serial run's.

    Non-converged pieces are flagged on their arc; callers treat the tour as
    partially refined when any flag is down.
    """
    legs = [(f"leg{li}", state0, est, plan)
            for li, (state0, est, plan) in enumerate(tour_plans(scenario, order, consts))
            if plan.events]
    per_leg = ordered_map(
        partial(refine_leg, thruster=scenario.spacecraft.thruster,
                options=options, consts=consts),
        legs, jobs, weights=[len(plan.events) for _, _, _, plan in legs])
    return [arc for arcs in per_leg for arc in arcs]


def _retime_node_plan(plan: BurnPlan, x0: np.ndarray, isp: float,
                      consts: PhysicalConstants) -> BurnPlan:
    """Re-anchor a nodal plan's epochs to the propagated dynamics.

    The analytic plan spaces burns by the Keplerian half period, but the
    J2 argument-of-latitude rate differs enough (mean-vs-osculating SMA
    offset plus secular terms) to sweep burn phases off the nodes across
    hundreds of revolutions.  A short coast rollout measures the actual
    rate and the epochs are rebuilt onto true node crossings of the right
    parity (ascending first when the plan says so).
    """
    if not plan.events or any(ev.tag not in (ASC_NODE, DESC_NODE)
                              for ev in plan.events):
        return plan
    kep = mee_to_kep(MeeState.from_array(x0[:6]))
    period = 2.0 * math.pi * math.sqrt(kep.a**3 / consts.mu)
    # fit over a whole number of revolutions so the short-period terms
    # integrate out of the slope; phase errors must stay small across
    # hundreds of burn revolutions
    n_orbits, n_seg = 8, 256
    seg = n_orbits * period / n_seg
    traj = roll_on(x0, np.zeros((n_seg, 3)), np.full(n_seg, seg), isp, consts)
    t = np.arange(n_seg + 1) * seg
    u = traj[:, 5] - np.unwrap(np.arctan2(traj[:, 4], traj[:, 3]))
    u_rate, u0 = np.polyfit(t, u, 1)
    parity = 0 if plan.events[0].tag == ASC_NODE else 1
    t_first = ((parity * math.pi - u0) % (2.0 * math.pi)) / u_rate
    half = math.pi / u_rate
    events = [BurnEvent(t_first + k * half, ev.dv, ev.tag)
              for k, ev in enumerate(plan.events)]
    return BurnPlan(events)


def prepare_arc(x0: np.ndarray, plan: BurnPlan, thruster: ThrusterSpec,
                x_ref: np.ndarray | None, options: RefineOptions,
                consts: PhysicalConstants, isp: float, t0: float = 0.0,
                label: str = "arc", lead_coast: float = 0.0,
                u_anchor: float | None = None,
                ) -> tuple[OcpProblem, np.ndarray, np.ndarray]:
    """Build the refinement problem and warm start for one plan chunk.

    ``lead_coast`` seconds of coast are prepended numerically to ``x0``
    before the first window (phasing/idle time between chunks).  The warm
    start through the last window is rolled once and each trailing coast is
    rolled on from it, so the result equals a whole warm start on the final
    grid and its warnings appear once.  Interior chunks (``x_ref`` None)
    get a one-stage tail and pin to their own warm terminal.  Terminal
    chunks get a tail stretched, in up to three fits, to end at the anchor
    argument-of-latitude phase — the phase where the leg's ideal-element
    boundary state was defined — so the J2 short-period oscillations of the
    size and plane cancel between the leg endpoints.  Their reference keeps
    the target's a and i and takes every other element from the warm
    terminal.  Returns (problem, warm states, warm controls).
    """
    x0 = np.asarray(x0, dtype=float)
    if lead_coast > 0.0:
        x0 = roll_on(x0, np.zeros((1, 3)), np.array([lead_coast]), isp, consts)[-1]
    plan = _retime_node_plan(plan, x0, isp, consts)

    kep = mee_to_kep(MeeState.from_array(x0[:6]))
    period = 2.0 * math.pi * math.sqrt(kep.a**3 / consts.mu)
    prefix = build_grid(plan, thruster, period)
    W_prefix, U_prefix = warm_start(prefix, x0, isp, consts)
    n = prefix.n_stages

    def rolled_on(grid: StageGrid) -> tuple[np.ndarray, np.ndarray]:
        # the prefix's warm start rolled on through the grid's tail
        U = np.zeros((grid.n_stages, 3))
        U[:n] = U_prefix
        tail = roll_on(W_prefix[-1], U[n:], grid.dt[n:], isp, consts)
        return np.concatenate([W_prefix[:-1], tail]), U

    if x_ref is None:
        grid = with_tail(prefix, period / COAST_STAGES_PER_ORBIT, period,
                         options.stage_cap)
        W, U = rolled_on(grid)
        x_ref = W[-1].copy()
    else:
        u0 = (u_anchor if u_anchor is not None
              else (x0[5] - math.atan2(x0[4], x0[3]))) % (2.0 * math.pi)
        tail = 0.25 * period
        for _ in range(3):
            grid = with_tail(prefix, tail, period, options.stage_cap)
            W, U = rolled_on(grid)
            kep_w = mee_to_kep(MeeState.from_array(W[-1, :6]))
            u_n = (W[-1, 5] - kep_w.raan) % (2.0 * math.pi)
            gap = (u0 - u_n) % (2.0 * math.pi)
            if gap < 1e-4 or gap > 2.0 * math.pi - 1e-4:
                break
            tail += gap / math.sqrt(consts.mu / kep_w.a**3)
        # keep the target's size and plane (a, i); take the eccentricity
        # vector (f, g), node, phase and mass from the warm rollout: the
        # target's e = 0 is unreachable at the anchor phase, where J2 leaves
        # a short-period eccentricity, the node is untargeted by the
        # mission and the phase was resolved combinatorially
        kep_ref = mee_to_kep(MeeState.from_array(x_ref[:6]))
        chi = math.tan(kep_ref.i / 2.0)
        x_ref = W[-1].copy()
        x_ref[0] = kep_ref.a * (1.0 - kep_ref.e**2)
        x_ref[3:5] = chi * math.cos(kep_w.raan), chi * math.sin(kep_w.raan)
    problem = OcpProblem(x0=x0, grid=grid, x_ref=x_ref, isp=isp, consts=consts,
                         t0=t0, label=label)
    return problem, W, U


def refine_arc(x0: np.ndarray, plan: BurnPlan, thruster: ThrusterSpec,
               x_ref: np.ndarray | None, options: RefineOptions,
               consts: PhysicalConstants, isp: float, t0: float = 0.0,
               label: str = "arc", lead_coast: float = 0.0,
               u_anchor: float | None = None) -> RefinedArc:
    """Prepare and solve one plan chunk."""
    problem, W, U = prepare_arc(x0, plan, thruster, x_ref, options, consts,
                                isp, t0, label, lead_coast, u_anchor)
    return scp_solve(problem, W, U)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

#: arcs.json schema version; 2 added each arc's objective and its history
ARCS_VERSION = 2


def arc_to_dict(arc: RefinedArc) -> dict:
    return {
        "label": arc.label,
        "t0_s": arc.t0,
        "dt_s": arc.dt.tolist(),
        "states": arc.states.tolist(),
        "controls_lvlh_kN": arc.controls.tolist(),
        "dv_mps": arc.dv_total * 1000.0,
        "iterations": arc.iterations,
        "converged": arc.converged,
        "x_ref": arc.x_ref.tolist(),
        "objective": arc.objective,
        "objective_history": arc.objective_history,
    }


def arc_from_dict(d: dict) -> RefinedArc:
    """The arc of one arcs.json record; a scalar of the wrong JSON type
    raises a SchemaError that names the arc and the key.  ``dv_mps`` is not
    read: the arc derives its dv from its arrays."""
    history, t0 = d["objective_history"], d.get("t0_s", 0.0)
    for key, ok, kind in (("converged", json_fits(d["converged"], bool), "a bool"),
                          ("iterations", json_fits(d["iterations"], int), "an integer"),
                          ("objective", json_fits(d["objective"], float), "a number"),
                          ("t0_s", json_fits(t0, float), "a number"),
                          ("objective_history", type(history) is list and all(
                              json_fits(v, float) for v in history), "a list of numbers")):
        if not ok:
            raise SchemaError(f"arc {d.get('label', 'arc')!r}: {key} must be {kind}, "
                              f"got {json.dumps(d[key])}")
    return RefinedArc(
        states=np.array(d["states"]), controls=np.array(d["controls_lvlh_kN"]),
        dt=np.array(d["dt_s"]), t0=t0, iterations=d["iterations"],
        converged=d["converged"], objective=d["objective"],
        x_ref=np.array(d["x_ref"]), label=d.get("label", "arc"),
        objective_history=history)


def save_arcs(arcs: list[RefinedArc], path: str | os.PathLike) -> None:
    """Write the bytes of ``json.dump(record, fh, sort_keys=True)`` and a
    newline, one arc at a time: ``json.dumps`` runs CPython's C encoder,
    about twice as fast as ``json.dump``'s pure-Python one, and holds one
    arc's text in memory, not the whole file's."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"arcs": [')   # sorted keys: "arcs" before "version"
        for i, arc in enumerate(arcs):
            fh.write((", " if i else "") + json.dumps(arc_to_dict(arc), sort_keys=True))
        fh.write(f'], "version": {ARCS_VERSION}}}\n')


def load_arcs(path: str | os.PathLike,
              consts: PhysicalConstants = EARTH) -> list[RefinedArc]:
    """The arcs in ``path``.  Another record or version, a label that is not
    a string, a scalar of the wrong type (see :func:`arc_from_dict`), arrays
    that are not numbers of shape ``dt_s`` (N,), ``states`` (N+1, 7),
    ``controls_lvlh_kN`` (N, 3), ``x_ref`` (7,), an open first orbit or a
    ``dt_s`` outside [0, its period under ``consts``] raise a SchemaError."""
    data = read_json_object(path)
    if "arcs" not in data:
        raise SchemaError(f"{path} is not an arcs record")
    if data.get("version") != ARCS_VERSION:
        raise SchemaError(f"{path}: unsupported arcs schema version "
                          f"{data.get('version')!r}")
    try:
        arcs = [arc_from_dict(d) for d in data["arcs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed arc record: {exc}") from exc
    for arc in arcs:
        if not isinstance(arc.label, str):
            raise SchemaError(f"{path}: arc label {arc.label!r} is not a string")
        n = arc.dt.size
        for key, array, shape in (("dt_s", arc.dt, (n,)),
                                  ("states", arc.states, (n + 1, 7)),
                                  ("controls_lvlh_kN", arc.controls, (n, 3)),
                                  ("x_ref", arc.x_ref, (7,))):
            if array.shape != shape or array.dtype.kind not in "fi":
                raise SchemaError(f"{path}: arc {arc.label!r}: {key} must be "
                                  f"numbers of shape {shape}, got {array.dtype} "
                                  f"of shape {array.shape}")
        p, f, g = arc.states[0, :3]
        if not (p > 0.0 and f * f + g * g < 1.0):
            raise SchemaError(f"{path}: arc {arc.label!r}: states[0] is not a closed "
                              f"orbit (p = {p}, f^2 + g^2 = {f * f + g * g})")
        period = 2.0 * math.pi * math.sqrt((p / (1.0 - f * f - g * g))**3 / consts.mu)
        bad = arc.dt[~((arc.dt >= 0.0) & (arc.dt <= period))]
        if bad.size:
            raise SchemaError(f"{path}: arc {arc.label!r}: dt_s must lie in [0, "
                              f"{period:.1f}] s, one period of states[0], got {bad[0]}")
    return arcs
