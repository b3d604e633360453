import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from conftest import aos_rk4_batch, mixed_stage_grid, tiny_mission
from orbtour import scp
from orbtour.constants import EARTH
from orbtour.elements import (KeplerianState, MeeState, SpacecraftState, kep_to_mee,
                               mee_to_kep)
from orbtour.maneuvers import BurnPlan, ThrusterSpec, mht_estimate, nic_estimate
from orbtour.ocp import (BATCH_BLOCK, COAST_STAGES_PER_ORBIT, COAST_SUBSTEP, StageGrid,
                         build_grid, with_tail)
from orbtour.propagate import PropagatorConfig, propagate_numeric, rk4_batch, rk4_segment
from orbtour.scenario import ScenarioConfig, sample_scenario
from orbtour.scp import (OcpProblem, RefineOptions, prepare_arc, refine_arc, refine_leg,
                         refine_tour, save_arcs, load_arcs, scp_solve, stage_defects,
                         warm_start)
from orbtour.tour import brute_force, tour_cost, tour_plans
from orbtour.verify import STEP_S, repropagate_arc

TH = ThrusterSpec()


def x0_circ(a=6950.0, i_deg=97.3964):
    kep = KeplerianState(a, 0.0, math.radians(i_deg), math.radians(158.0), 0.0, 0.0)
    return np.concatenate([kep_to_mee(kep).as_array(), [235.0]])


def small_raise_arc():
    est, plan = mht_estimate(6950.0, 6958.0, 235.0, TH)
    x0 = x0_circ()
    end = KeplerianState(6958.0, 0.0, math.radians(97.3964), math.radians(158.0),
                         0.0, 0.0)
    x_ref = np.concatenate([kep_to_mee(end).as_array(), [est.end_state.mass]])
    return est, plan, x0, x_ref


def rollout(problem, controls):
    """Sequential rollout of ``controls`` over the problem's grid."""
    s0 = SpacecraftState(MeeState.from_array(problem.x0[:6]), float(problem.x0[6]))
    return propagate_numeric(s0, controls, problem.grid.dt, problem.isp,
                             PropagatorConfig(step=COAST_SUBSTEP), problem.consts)


def weak_raise_problem():
    """The small raise flown on 90% of its warm-start thrust: a
    dynamics-consistent start that leaves SCP several steps of work (the
    full warm start is already close to optimal)."""
    est, plan, x0, x_ref = small_raise_arc()
    problem, _, U = prepare_arc(x0, plan, TH, x_ref, RefineOptions(), EARTH,
                                isp=TH.isp)
    U = 0.9 * U
    return problem, rollout(problem, U), U


def plane_change_problem(deg):
    """A ``deg`` plane change at 7000 km onto 97.8964 deg, as prepared for
    SCP: (problem, warm states, warm controls)."""
    est, plan = nic_estimate(math.radians(deg), 7000.0, 235.0, TH)
    x0 = x0_circ(7000.0, 97.8964 - deg)
    end = KeplerianState(7000.0, 0.0, math.radians(97.8964), math.radians(158.0),
                         0.0, 0.0)
    x_ref = np.concatenate([kep_to_mee(end).as_array(), [est.end_state.mass]])
    return prepare_arc(x0, plan, TH, x_ref, RefineOptions(), EARTH, isp=TH.isp)


def test_pure_coast_converges_in_one_iteration():
    x0 = x0_circ()
    grid = with_tail(build_grid(BurnPlan([]), TH, 5800.0), 2000.0, 5800.0)
    W, U = warm_start(grid, x0, TH.isp)
    problem = OcpProblem(x0=x0, grid=grid, x_ref=W[-1].copy(), isp=TH.isp)
    arc = scp_solve(problem, W, U)
    assert arc.converged
    assert arc.iterations == 1
    assert np.all(arc.controls == 0.0)
    assert arc.dv_total == 0.0


def test_normalization_round_trip_identity():
    est, plan, x0, x_ref = small_raise_arc()
    problem, W, U = prepare_arc(x0, plan, TH, x_ref, RefineOptions(), EARTH,
                                isp=TH.isp)
    sx, su = problem.scales()
    states = W.copy()
    assert np.max(np.abs(states / sx * sx - states)) < 1e-12 * np.max(np.abs(states))
    assert np.max(np.abs(U / su * su - U)) <= 1e-12 * max(np.max(np.abs(U)), 1e-300)


def test_warm_start_terminal_close_to_target():
    # the multi-impulse warm start alone lands near the target orbit
    est, plan, x0, x_ref = small_raise_arc()
    problem, W, U = prepare_arc(x0, plan, TH, x_ref, RefineOptions(), EARTH,
                                isp=TH.isp)
    kep_end = mee_to_kep(MeeState.from_array(W[-1, :6]))
    assert abs(kep_end.a - 6958.0) < 5.0


def test_small_raise_refinement():
    est, plan, x0, x_ref = small_raise_arc()
    arc = refine_arc(x0, plan, TH, x_ref, RefineOptions(), EARTH, isp=TH.isp)
    assert arc.converged
    err = arc.terminal_error
    assert abs(err["da_km"]) < 10.0
    assert abs(err["di_deg"]) < 0.1
    assert abs(arc.dv_total - est.dv_total) / est.dv_total < 0.15
    # hard feasibility of the thrust bound at every stage
    norms = np.linalg.norm(arc.controls, axis=1)
    assert np.all(norms <= TH.thrust_kn + 1e-9)
    # returned states are the nonlinear rollout of the returned controls:
    # the exit rollout rolls them at COAST_SUBSTEP, so bit for bit
    s0 = SpacecraftState(MeeState.from_array(arc.states[0, :6]),
                         float(arc.states[0, 6]))
    re_roll = propagate_numeric(s0, arc.controls, arc.dt, TH.isp,
                                PropagatorConfig(step=COAST_SUBSTEP), EARTH)
    assert np.array_equal(re_roll, arc.states)


def test_warm_start_prefix_rolled_once_equals_full_roll(monkeypatch):
    # a nodal plan flown on half the thrust it was planned for: every
    # window clips, so the warm start warns, and a terminal piece's tail
    # needs refitting; an interior piece (no reference) gets one coast stage
    weak = dataclasses.replace(TH, thrust=0.5 * TH.thrust)
    est, plan = nic_estimate(math.radians(0.05), 7000.0, 235.0, TH)
    x0 = x0_circ(7000.0, 97.3)
    end = KeplerianState(7000.0, 0.0, math.radians(97.35), math.radians(158.0),
                         0.0, 0.0)
    x_ref = np.concatenate([kep_to_mee(end).as_array(), [est.end_state.mass]])
    build_grid_, with_tail_ = scp.build_grid, scp.with_tail

    def spy_build(plan, thruster, period):
        grids.append((plan, period))
        return build_grid_(plan, thruster, period)

    def spy_tail(grid, tail, period, stage_cap):
        tails.append(tail)
        return with_tail_(grid, tail, period, stage_cap)

    monkeypatch.setattr(scp, "build_grid", spy_build)
    monkeypatch.setattr(scp, "with_tail", spy_tail)
    for piece_ref in (x_ref, None):
        grids, tails = [], []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            problem, W, U = prepare_arc(x0, plan, weak, piece_ref, RefineOptions(),
                                        EARTH, isp=weak.isp)
        assert len(grids) == 1
        retimed, period = grids[0]
        if piece_ref is None:
            assert tails == [period / COAST_STAGES_PER_ORBIT]
        else:
            assert len(tails) >= 2
        assert sum("thrust bound" in str(w.message) for w in caught) == 1
        full = with_tail(build_grid(retimed, weak, period), tails[-1], period)
        with pytest.warns(UserWarning, match="thrust bound"):
            W_full, U_full = warm_start(full, x0, weak.isp)
        assert np.array_equal(problem.grid.dt, full.dt)
        assert problem.grid.thrust_kn == full.thrust_kn
        assert np.array_equal(problem.grid.window_of_stage, full.window_of_stage)
        assert np.array_equal(W, W_full)
        assert np.array_equal(U, U_full)


def test_accepted_objectives_monotone():
    arc = scp_solve(*weak_raise_problem())
    hist = arc.objective_history
    assert len(hist) >= 2
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


def test_iteration_cap_flags_nonconvergence(monkeypatch):
    problem, W, U = weak_raise_problem()
    monkeypatch.setattr(scp, "MAX_ITERATIONS", 1)
    arc = scp_solve(problem, W, U)
    assert not arc.converged
    assert arc.iterations == 1


def test_trust_radius_bounds_every_step_and_never_grows(monkeypatch):
    # at a trust radius of 1e-3 the weak raise's first QP step is scaled
    # down to the radius, and the model fits it so well that it is
    # accepted.  Every later candidate stays within that radius too: the
    # radius only shrinks.  A candidate's step is measured from the
    # iterate it steps from: the warm start, or the candidate accepted
    # just before the last linearization
    radius = 1e-3
    problem, W, U = weak_raise_problem()
    sx = problem.scales()[0]
    events = []
    score, linearize = scp.stage_defects, scp.linearize_batch

    def spy_score(states, *args):
        events.append(states.copy())
        return score(states, *args)

    def spy_linearize(*args, **kwargs):
        events.append(None)
        return linearize(*args, **kwargs)

    monkeypatch.setattr(scp, "stage_defects", spy_score)
    monkeypatch.setattr(scp, "linearize_batch", spy_linearize)
    monkeypatch.setattr(scp, "TRUST_RADIUS", radius)
    arc = scp_solve(problem, W, U)
    base, candidate, steps, accepted = W, None, [], []
    for states in events:
        if states is None:          # a linearization follows an accepted step
            if candidate is not None:
                base = candidate
                accepted.append(len(steps) - 1)
        else:
            candidate = states
            steps.append(float(np.max(np.abs((states - base) / sx))))
    assert arc.converged and len(steps) >= 3
    assert steps[0] == pytest.approx(radius, rel=1e-9) and accepted[0] == 0
    assert max(steps) <= radius * (1.0 + 1e-9)


def test_rejected_full_step_is_never_scored_twice(monkeypatch):
    # in the 0.75 deg plane change at 7000 km the second QP step fits well
    # inside the trust radius and is rejected at iteration 2; shrinking the
    # radius only once scored that same candidate again at iterations 3 to
    # 5.  A rejected step sets the radius to half the step taken, so the
    # third candidate is exactly half the second.  The radius only scales
    # the step, so each linearization's subproblem is solved once, not once
    # per iteration.  The run stops on its predicted reduction at iteration
    # 3, two below the cap, with the first step accepted
    problem, W, U = plane_change_problem(0.75)
    calls, candidates = [], []
    built, solved = [], []
    score, roll = scp.stage_defects, scp.propagate_numeric
    build, solve = scp.ReducedArcSolver, scp.ReducedArcSolver.solve

    def spy_score(states, controls, *args):
        calls.append(("score", hashlib.sha256(states.tobytes()
                                              + controls.tobytes()).hexdigest()))
        candidates.append(states.copy())
        return score(states, controls, *args)

    def spy_roll(state0, controls, *args):
        calls.append(("roll", controls.copy()))
        return roll(state0, controls, *args)

    def spy_build(sub):
        built.append(build(sub))
        return built[-1]

    def spy_solve(solver, *args, **kwargs):
        solved.append(solver)
        return solve(solver, *args, **kwargs)

    monkeypatch.setattr(scp, "stage_defects", spy_score)
    monkeypatch.setattr(scp, "propagate_numeric", spy_roll)
    monkeypatch.setattr(scp, "ReducedArcSolver", spy_build)
    monkeypatch.setattr(build, "solve", spy_solve)
    monkeypatch.setattr(scp, "MAX_ITERATIONS", 5)
    arc = scp_solve(problem, W, U)
    assert len(solved) == len(built) == 2
    assert solved == built
    scored = [h for kind, h in calls if kind == "score"]
    assert len(scored) == arc.iterations == 3
    assert len(set(scored)) == len(scored)
    assert len(arc.objective_history) == 2
    # candidates 2 and 3 step from the accepted first one along one QP step:
    # a full step inside the radius, then half of it
    sx = problem.scales()[0]
    full, half = ((c - candidates[0]) / sx for c in candidates[1:])
    assert np.max(np.abs(full)) < 0.5 * scp.TRUST_RADIUS
    assert np.max(np.abs(half - 0.5 * full)) < 1e-12
    # one sequential rollout, of the returned controls, after the last score
    assert calls[-1][0] == "roll"
    assert sum(kind == "roll" for kind, _ in calls) == 1
    assert np.array_equal(calls[-1][1], arc.controls)
    monkeypatch.undo()
    assert np.array_equal(arc.states, rollout(problem, arc.controls))


@pytest.mark.parametrize("deg, most, fuel_kg, da_km, di_deg", [
    (0.75, 4, 8.389331, 0.000788, -0.000571), (1.0, 7, 11.120610, 0.001287, -0.000585)])
def test_plane_changes_stop_once_no_step_can_move_a_gate(deg, most, fuel_kg, da_km,
                                                         di_deg):
    # under the stop rule pred_red < 1e-9 (1 + |J|), on 40 coast stages per
    # orbit, these transfers ran 8 and 23 iterations, their merit falling
    # under 0.1% after the first step.  The pins are that run's fuel, da and
    # di, re-propagated at 10 s; they are checked at verify's STEP_S.  Cutting
    # the tail, the coarser grid and the step may move them by at most
    # 1e-3 kg, 0.01 km and 1e-4 deg
    arc = scp_solve(*plane_change_problem(deg))
    assert arc.converged
    assert arc.iterations <= most
    traj = repropagate_arc(arc, PropagatorConfig(step=STEP_S), TH.isp)
    kep = mee_to_kep(MeeState.from_array(traj[-1, :6]))
    assert traj[0, 6] - traj[-1, 6] == pytest.approx(fuel_kg, abs=1e-3)
    assert kep.a - 7000.0 == pytest.approx(da_km, abs=0.01)
    assert math.degrees(kep.i - math.radians(97.8964)) == pytest.approx(di_deg, abs=1e-4)


@pytest.mark.parametrize("move, above", [(lambda last, ref: 2.0 * last - ref, True),
                                         (lambda last, ref: ref, False)],
                         ids=["error-doubled", "on-target"])
def test_converged_bounds_the_exit_rollout_objective_from_above(monkeypatch, move,
                                                                above):
    # converged describes the returned rollout: the stop fired and its true
    # objective is at most the last accepted merit plus ROLLOUT_SHARE of it.
    # A rollout that lands below the merit is no fault
    problem, W, U = weak_raise_problem()
    roll = scp.propagate_numeric

    def moved_roll(*args):
        traj = roll(*args)
        traj[-1] = move(traj[-1], problem.x_ref)
        return traj

    monkeypatch.setattr(scp, "propagate_numeric", moved_roll)
    arc = scp_solve(problem, W, U)
    assert len(arc.objective_history) > 1          # the exit rollout ran
    assert arc.iterations < scp.MAX_ITERATIONS      # the stop fired
    bound = arc.objective_history[-1] * (1.0 + scp.ROLLOUT_SHARE)
    assert (arc.objective > bound) is above
    assert arc.converged is not above


def test_returned_states_are_the_rollout_of_the_returned_controls(monkeypatch):
    # after accepted steps the states come from one exit rollout; with no
    # step accepted they are the warm start, itself a rollout
    rolls = []
    roll = scp.propagate_numeric

    def spy(*args):
        rolls.append(args[1])
        return roll(*args)

    monkeypatch.setattr(scp, "propagate_numeric", spy)
    est, plan, x0, x_ref = small_raise_arc()
    for problem, W, U in (weak_raise_problem(),
                          prepare_arc(x0, plan, TH, x_ref, RefineOptions(), EARTH,
                                      isp=TH.isp)):
        rolls.clear()
        arc = scp_solve(problem, W, U)
        assert arc.converged
        assert len(rolls) == (len(arc.objective_history) > 1)
        assert np.array_equal(arc.states, rollout(problem, arc.controls))
        sx, su = problem.scales()
        err = arc.states[-1] / sx - problem.x_ref / sx
        w = arc.controls / su
        assert arc.objective == pytest.approx(
            0.5 * err @ np.diag(scp.P_DIAG) @ err + 0.5 * scp.R_SCALE * np.sum(w * w),
            rel=1e-12)


def test_stage_defects_of_a_rollout_and_of_a_moved_node():
    problem, W, U = weak_raise_problem()
    grid, sx = problem.grid, problem.scales()[0]
    ve = TH.isp * EARTH.g0
    # a trajectory rolled by the batch integrator itself has no defect
    X = np.empty_like(W)
    X[0] = W[0]
    for i, ns in enumerate(grid.substeps()):
        X[i + 1] = rk4_batch(X[i:i + 1], U[i:i + 1], grid.dt[i:i + 1] / ns, int(ns), ve,
                             EARTH)[0]
    assert np.array_equal(stage_defects(X, U, grid, TH.isp), np.zeros((len(U), 7)))
    # the sequential warm rollout differs from it only by rounding
    d = stage_defects(W, U, grid, TH.isp)
    assert np.max(np.abs(d / sx)) < 1e-14
    # moving node j by delta changes exactly the defects of stages j - 1 and
    # j: by -delta, and to the one-stage defect of the scalar integrator
    for j in (1, int(np.flatnonzero(grid.window_of_stage >= 0)[2]), len(U) - 1):
        moved = W.copy()
        moved[j] += 1e-6 * sx
        got = stage_defects(moved, U, grid, TH.isp)
        want = np.subtract(rk4_segment(moved[j], U[j], float(grid.dt[j]), COAST_SUBSTEP,
                                       ve, EARTH), W[j + 1])
        assert np.max(np.abs(got[j] - want) / sx) < 1e-14
        assert np.max(np.abs(got[j - 1] - (d[j - 1] - 1e-6 * sx)) / sx) < 1e-14
        keep = np.ones(len(U), dtype=bool)
        keep[[j - 1, j]] = False
        assert np.array_equal(got[keep], d[keep])


def test_chunked_stage_defects_equal_whole_grid_oracle():
    # a grid like the chunked linearization check's, long enough for the
    # stage walk to chunk it: two chunks of 4-substep coasts and two of
    # 1-substep burns, each second one ragged
    rng = np.random.default_rng(43)
    n = 3 * BATCH_BLOCK + 37
    x, u, dt, coast = mixed_stage_grid(rng, n + 1)
    u, dt, coast = u[:n], dt[:n], coast[:n]
    grid = StageGrid(dt=dt, window_of_stage=np.where(coast, -1, 0),
                     thrust_kn=TH.thrust_kn)
    substeps = grid.substeps()
    assert np.array_equal(substeps, np.where(coast, 4, 1))
    for group in (coast, ~coast):
        assert BATCH_BLOCK < np.sum(group) < 2 * BATCH_BLOCK
    want = np.empty((n, 7))
    for ns in (1, 4):
        rows = substeps == ns
        want[rows] = aos_rk4_batch(x[:-1][rows], u[rows], dt[rows], ns,
                                   TH.isp * EARTH.g0, EARTH) - x[1:][rows]
    got = stage_defects(x, u, grid, TH.isp)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_a_grid_above_the_stage_cap_is_refused(tiny_refined):
    # the cap is a memory guard, not a split: a grid above it raises one
    # error naming its stage count and the cap
    scn, tour, arcs = tiny_refined
    cap = max(arc.dt.size for arc in arcs) - 1
    with pytest.raises(ValueError, match=rf"^grid needs \d+ stages, cap is {cap}$") as err:
        refine_tour(tour.order, scn, RefineOptions(stage_cap=cap))
    assert int(str(err.value).split()[2]) > cap


def test_each_maneuver_phase_refines_as_one_arc():
    # leg 1 of generated seed 11 puts a 2-burn raise after a 316.5-day
    # phasing coast, then a 24-burn plane change.  The stage-cap estimate
    # once counted that coast and split the raise into 1 + 1 burns and the
    # plane change into 1 + 23
    scn = sample_scenario(ScenarioConfig(), 11)
    leg = tour_plans(scn, brute_force(scn).order)[1]
    arcs = refine_leg(("leg1", *leg), scn.spacecraft.thruster, RefineOptions(), EARTH)
    assert [arc.label for arc in arcs] == ["leg1/phase0.0", "leg1/phase1.0"]


@pytest.fixture(scope="module")
def tiny_refined():
    scn = tiny_mission()
    tour = tour_cost(scn, [0, 1])
    return scn, tour, refine_tour(tour.order, scn)


def test_a_legs_arcs_chain(tiny_refined):
    # each leg's arcs start from its planned start mass and each later arc
    # from where the previous one ended: lead coasts burn nothing, and no
    # arc starts before the previous one ends
    scn, tour, arcs = tiny_refined
    starts = tour_plans(scn, tour.order)
    by_leg = {}
    for arc in sorted(arcs, key=lambda arc: arc.label):
        by_leg.setdefault(arc.label.split("/")[0], []).append(arc)
    assert by_leg
    for leg, leg_arcs in by_leg.items():
        state0 = starts[int(leg[3:])][0]
        assert leg_arcs[0].states[0, 6] == state0.mass
        assert leg_arcs[0].t0 >= state0.epoch
        for prev, arc in zip(leg_arcs, leg_arcs[1:]):
            assert arc.states[0, 6] == prev.states[-1, 6]
            assert arc.t0 >= prev.t0 + prev.dt.sum()


def test_tiny_mission_legs_realize_their_plane_changes(tiny_refined):
    # a terminal reference that kept the target's e = 0 was unreachable
    # after the J2 eccentricity of the lead coast: leg0 then reported
    # converged with its whole 0.02 deg plane change undone
    scn, tour, arcs = tiny_refined
    finals = {arc.label.split("/")[0]: arc for arc in arcs}
    start_i = scn.insertion.i
    for li, bundle in enumerate(tour.order):
        target_i = scn.bundles[bundle].target.i
        got = mee_to_kep(MeeState.from_array(finals[f"leg{li}"].states[-1, :6])).i
        assert abs(got - target_i) <= 0.1 * abs(target_i - start_i)
        start_i = target_i


def test_refine_tour_accuracy_and_dv_band(tmp_path, tiny_refined):
    scn, tour, arcs = tiny_refined
    assert all(a.converged for a in arcs)
    # every leg's final arc hits its injection tolerances
    finals = {}
    for arc in arcs:
        finals[arc.label.split("/")[0]] = arc
    for arc in finals.values():
        assert abs(arc.terminal_error["da_km"]) < 10.0
        assert abs(arc.terminal_error["di_deg"]) < 0.1
    # total refined dv within 15 percent of the analytical estimate
    analytic = sum(est.dv_total for est in tour.legs)
    refined = sum(a.dv_total for a in arcs)
    assert abs(refined - analytic) / analytic < 0.15
    # lossless round trip through the artifact schema
    save_arcs(arcs, tmp_path / "arcs.json")
    back = load_arcs(tmp_path / "arcs.json")
    assert len(back) == len(arcs)
    for got, want in zip(back, arcs):
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.controls, want.controls)
        assert np.array_equal(got.dt, want.dt)
        assert got.label == want.label
        assert got.objective == want.objective
        assert got.objective_history == want.objective_history
