import math
import tracemalloc

import numpy as np
import pytest

from conftest import TWO_BODY, full_linearize_batch, linearize_one, mixed_stage_grid
from orbtour import ocp, propagate
from orbtour.constants import EARTH
from orbtour.elements import KeplerianState, MeeState, SpacecraftState, kep_to_mee
from orbtour.maneuvers import (BurnEvent, BurnPlan, ThrusterSpec, mht_estimate)
from orbtour.ocp import (BURN_STAGES, COAST_STAGES_PER_ORBIT, COAST_SUBSTEP, StageGrid,
                         build_grid, burn_windows, linearize_batch, with_tail)
from orbtour.propagate import PropagatorConfig, propagate_numeric
from orbtour.scp import TRUST_RADIUS, OcpProblem, roll_on, warm_start

TH = ThrusterSpec()


def impulse(epoch, dv=(0.0, 1e-3, 0.0), tag="perigee"):
    return BurnEvent(epoch, dv, tag)


# ---------------------------------------------------------------------------
# burn-stage marks and the thrust bound
# ---------------------------------------------------------------------------

def test_empty_plan_is_pure_coast():
    grid = with_tail(build_grid(BurnPlan([]), TH, 5800.0), 600.0, 5800.0)
    assert grid.n_stages > 0
    assert np.all(grid.window_of_stage == -1)


def test_single_impulse_quantization():
    th = ThrusterSpec(t_on=20.0)
    grid = with_tail(build_grid(BurnPlan([impulse(100.0)]), th, 5800.0), 600.0, 5800.0)
    on = grid.window_of_stage >= 0
    assert np.count_nonzero(on) == BURN_STAGES
    assert grid.thrust_kn == th.thrust_kn
    # the burn stages are contiguous and span the window centered on the impulse
    idx = np.flatnonzero(on)
    assert np.all(np.diff(idx) == 1)
    assert grid.dt[on].sum() == pytest.approx(th.t_on, rel=1e-12)
    assert grid.dt[:idx[0]].sum() == pytest.approx(100.0 - 0.5 * th.t_on, rel=1e-12)


def test_mht_windows_recur_once_per_revolution():
    from orbtour.dynamics import orbit_scalars
    est, plan = mht_estimate(6950.0, 6960.0, 235.0, TH)
    wins = burn_windows(plan, TH)
    starts = np.array([w.start for w in wins])
    gaps = np.diff(starts)
    apsis_gaps = np.diff([ev.epoch for ev in plan.events])
    # first window is clipped at the horizon start; the rest track the plan
    assert np.allclose(gaps[1:], apsis_gaps[1:])
    # once per revolution within each apsis block (the raise-to-circularize
    # handover sits half a revolution apart)
    _, period, _ = orbit_scalars(6955.0)
    tags = [ev.tag for ev in plan.events]
    same_apsis = np.array([a == b for a, b in zip(tags, tags[1:])])
    assert np.all(np.abs(gaps[same_apsis] - period) < 0.01 * period)


def test_overlapping_windows_merge_with_warning():
    plan = BurnPlan([impulse(0.0), impulse(2.0)])
    with pytest.warns(UserWarning, match="merged"):
        wins = burn_windows(plan, TH)
    assert len(wins) == 1
    assert wins[0].dv.tolist() == [0.0, 2e-3, 0.0]


# ---------------------------------------------------------------------------
# stage grids
# ---------------------------------------------------------------------------

def test_grid_resolution_requirements():
    est, plan = mht_estimate(6950.0, 6960.0, 235.0, TH)
    period = 5800.0
    grid = with_tail(build_grid(plan, TH, period), 0.25 * period, period)
    # every window spans >= 4 stages at the peak bound
    for w in range(len(grid.windows)):
        assert np.count_nonzero(grid.window_of_stage == w) >= 4
    # coast resolution: at least COAST_STAGES_PER_ORBIT stages per revolution
    coast_dt = grid.dt[grid.window_of_stage == -1]
    assert np.max(coast_dt) <= period / COAST_STAGES_PER_ORBIT + 1e-9


def test_grid_cap_enforced():
    est, plan = mht_estimate(6950.0, 7000.0, 235.0, TH)
    with pytest.raises(ValueError, match="cap"):
        with_tail(build_grid(plan, TH, 5800.0), 0.25 * 5800.0, 5800.0, stage_cap=100)


# ---------------------------------------------------------------------------
# warm start
# ---------------------------------------------------------------------------

def x0_circular(a=6950.0, i_deg=97.3964, mass=235.0):
    kep = KeplerianState(a, 0.0, math.radians(i_deg), math.radians(158.0), 0.0, 0.0)
    return np.concatenate([kep_to_mee(kep).as_array(), [mass]])


def test_zero_plan_warm_start_is_coast():
    grid = with_tail(build_grid(BurnPlan([]), TH, 5800.0), 600.0, 5800.0)
    states, controls = warm_start(grid, x0_circular(), TH.isp)
    assert np.all(controls == 0.0)
    assert states[-1, 6] == states[0, 6]


def test_impulse_spread_to_constant_force():
    th = ThrusterSpec(t_on=60.0, thrust=12.6, cluster=4)
    plan = BurnPlan([BurnEvent(100.0, (0.0, 1e-3, 0.0), "perigee")])
    grid = with_tail(build_grid(plan, th, 5800.0), 0.25 * 5800.0, 5800.0)
    states, controls = warm_start(grid, x0_circular(), th.isp)
    on = np.linalg.norm(controls, axis=1) > 0.0
    force = np.linalg.norm(controls[on], axis=1)
    # m * dv / window: 235 kg * 1 m/s / 60 s = 3.9167 N
    assert np.allclose(force, 0.0039166666666667, rtol=1e-6)
    # impulse realized within 1e-6 relative
    impulse_applied = float(np.sum(force * grid.dt[on]))
    assert impulse_applied == pytest.approx(235.0 * 1e-3, rel=1e-6)


def test_warm_start_clips_and_spills():
    # an impulse too large for its window saturates and warns at the end
    plan = BurnPlan([BurnEvent(100.0, (0.0, 0.5, 0.0), "perigee")])
    grid = with_tail(build_grid(plan, TH, 5800.0), 0.25 * 5800.0, 5800.0)
    with pytest.warns(UserWarning, match="thrust bound"):
        states, controls = warm_start(grid, x0_circular(), TH.isp)
    assert np.max(np.linalg.norm(controls, axis=1)) <= TH.thrust_kn * (1 + 1e-9)


def test_warm_start_is_one_rollout_of_its_controls():
    """Two windows that clip, the second only because the first spills into
    it: the warm start's states are propagate_numeric of its own controls at
    COAST_SUBSTEP, bit for bit, and so is the warm start rolled on through a
    tail.  The refiner starts from zero stage defects on this."""
    plan = BurnPlan([BurnEvent(100.0, (0.0, 0.5, 0.0), "perigee"),
                     BurnEvent(3100.0, (0.0, 1e-4, 0.0), "perigee")])
    prefix = build_grid(plan, TH, 5800.0)
    x0 = x0_circular()

    def sequential(controls, dt):
        s0 = SpacecraftState(MeeState.from_array(x0[:6]), float(x0[6]))
        return propagate_numeric(s0, controls, dt, TH.isp,
                                 PropagatorConfig(step=COAST_SUBSTEP))

    with pytest.warns(UserWarning, match="thrust bound"):
        W, U = warm_start(prefix, x0, TH.isp)
    burn = prefix.window_of_stage >= 0
    assert np.allclose(np.linalg.norm(U[burn], axis=1), TH.thrust_kn, rtol=1e-12)
    assert np.all(U[~burn] == 0.0)
    assert np.array_equal(W, sequential(U, prefix.dt))

    grid = with_tail(prefix, 0.25 * 5800.0, 5800.0)
    n = prefix.n_stages
    U_full = np.concatenate([U, np.zeros((grid.n_stages - n, 3))])
    tail = roll_on(W[-1], U_full[n:], grid.dt[n:], TH.isp)
    assert np.array_equal(np.concatenate([W[:-1], tail]),
                          sequential(U_full, grid.dt))


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def test_keplerian_jacobian_structure():
    x = x0_circular()
    A, B, c = linearize_one(x, np.zeros(3), dt=30.0, substeps=1, isp=TH.isp,
                            consts=TWO_BODY)
    # shape elements are constants of unforced motion: identity rows
    for row in range(5):
        expected = np.zeros(7)
        expected[row] = 1.0
        assert np.allclose(A[row], expected, atol=1e-9)
    # the longitude row couples to the orbit geometry
    assert abs(A[5, 0]) > 0.0
    # structurally thrust-free stages skip the control block entirely
    A2, B2 = linearize_batch(x[None, :], np.zeros((1, 3)), np.array([30.0]),
                             np.array([1]), TH.isp, TWO_BODY,
                             skip_b=np.array([True]))
    assert np.all(B2 == 0.0)
    assert np.allclose(A2[0], A, atol=1e-12)


def test_mass_column_of_control_jacobian():
    x = x0_circular()
    u = np.array([0.0, 0.009, 0.0])
    dt = 30.0
    A, B, c = linearize_one(x, u, dt=dt, substeps=1, isp=TH.isp, consts=TWO_BODY)
    # d(m+)/d(u_t) = -dt * u_t/(|u| ve) to leading order
    ve = TH.isp * EARTH.g0
    assert B[6, 1] == pytest.approx(-dt / ve, rel=1e-6)
    assert abs(B[6, 0]) < 1e-6


def test_jacobian_matches_richardson_oracle():
    """Independent Richardson-extrapolated finite differences."""
    from orbtour.propagate import rk4_batch
    x = x0_circular()
    u = np.array([0.002, 0.009, 0.004])
    dt, sub = 20.0, 2
    A, B, c = linearize_one(x, u, dt=dt, substeps=sub, isp=TH.isp)
    ve = TH.isp * EARTH.g0

    def f(xx, uu):
        return rk4_batch(xx[None, :].copy(), uu[None, :], np.array([dt]), sub,
                         ve, EARTH)[0]

    scale = np.array([7000.0, 1, 1, 1, 1, 1, 200.0])
    worst = 0.0
    for j in range(7):
        h1 = 2e-5 * scale[j]
        d1 = (f(x + np.eye(7)[j] * h1, u) - f(x - np.eye(7)[j] * h1, u)) / (2 * h1)
        h2 = h1 / 2
        d2 = (f(x + np.eye(7)[j] * h2, u) - f(x - np.eye(7)[j] * h2, u)) / (2 * h2)
        col = (4 * d2 - d1) / 3.0  # Richardson extrapolation
        err = float(np.max(np.abs(A[:, j] - col)))
        worst = max(worst, err / (float(np.linalg.norm(col)) + 1e-12))
    assert worst < 1e-6

    # consistency offset: c = f(x,u) - A x - B u by definition
    assert np.allclose(c, f(x, u) - A @ x - B @ u, atol=1e-12)


def test_coarse_coast_stage_is_linear_within_the_trust_radius():
    # the coarsest stage of the grid, one coast stage of period /
    # COAST_STAGES_PER_ORBIT at 7000 km: the linear model A @ dx against
    # the nonlinear change of the stage's end state, for a scaled state
    # step of TRUST_RADIUS (the initial trust radius of SCP) and of a
    # tenth of it.  The model's error is a second-order remainder: measured
    # 0.53 and 0.052 of the change (0.11 and 0.0099 at 40 stages per orbit)
    x = x0_circular(7000.0, 97.8964)
    period = 2.0 * math.pi * math.sqrt(7000.0**3 / EARTH.mu)
    grid = StageGrid(dt=np.array([period / COAST_STAGES_PER_ORBIT]),
                     window_of_stage=np.full(1, -1), thrust_kn=TH.thrust_kn)
    sx = OcpProblem(x0=x, grid=grid, x_ref=x, isp=TH.isp).scales()[0]
    ns = grid.substeps()
    A, _ = linearize_batch(x[None], np.zeros((1, 3)), grid.dt, ns, TH.isp,
                           skip_b=np.array([True]))
    direction = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    for radius, bound in ((TRUST_RADIUS, 0.6), (0.1 * TRUST_RADIUS, 0.06)):
        dx = radius * direction * sx
        end = propagate.rk4_batch(np.vstack([x + dx, x]), np.zeros((2, 3)),
                                  np.repeat(grid.dt, 2), int(ns[0]),
                                  TH.isp * EARTH.g0, EARTH)
        change = (end[0] - end[1]) / sx
        model = A[0] @ dx / sx
        assert np.max(np.abs(model - change)) < bound * np.max(np.abs(change))


def test_coast_substep_keeps_a_coast_stage_within_the_error_budget():
    # one coast stage of a quarter orbit at 7000 km, integrated at
    # COAST_SUBSTEP by the batch stage walk and by the sequential roll,
    # against verify's 10 s step: the error must stay well inside the 1e-5
    # refiner-vs-verify consistency gate.  Measured 9.4e-9 scaled at 40 s,
    # 1.4e-7 at 80 s and 1.8e-6 at 160 s
    kep = KeplerianState(7000.0, 0.001, math.radians(97.4), math.radians(158.0), 0.0, 0.0)
    x = np.concatenate([kep_to_mee(kep).as_array(), [235.0]])
    period = 2.0 * math.pi * math.sqrt(7000.0**3 / EARTH.mu)
    grid = StageGrid(dt=np.array([period / COAST_STAGES_PER_ORBIT]),
                     window_of_stage=np.full(1, -1), thrust_kn=TH.thrust_kn)
    s0 = SpacecraftState(MeeState.from_array(x[:6]), float(x[6]))
    fine = propagate_numeric(s0, np.zeros((1, 3)), grid.dt, TH.isp,
                             PropagatorConfig(step=10.0))[-1]
    batch = propagate.rk4_batch(x[None].copy(), np.zeros((1, 3)), grid.dt,
                                int(grid.substeps()[0]), TH.isp * EARTH.g0, EARTH)[0]
    rolled = roll_on(x, np.zeros((1, 3)), grid.dt, TH.isp)[-1]
    scale = np.maximum(np.abs(x), 1e-2)
    for coarse in (batch, rolled):
        assert np.max(np.abs(coarse - fine) / scale) < 1e-6


def test_linearize_batch_agrees_with_single():
    # pin the control step size: the batch default derives it from the
    # whole batch, the single call from its own row
    x = np.vstack([x0_circular(), x0_circular(6960.0)])
    u = np.array([[0.0, 0.01, 0.0], [0.001, 0.0, 0.002]])
    dt = np.array([15.0, 25.0])
    A, B = linearize_batch(x, u, dt, np.array([1, 2]), TH.isp, u_scale=0.01)
    for row in range(2):
        A1, B1, c1 = linearize_one(x[row], u[row], float(dt[row]),
                                   int([1, 2][row]), TH.isp, u_scale=0.01)
        assert np.allclose(A[row], A1, atol=1e-12)
        assert np.allclose(B[row], B1, atol=1e-12)


@pytest.mark.parametrize("consts", [EARTH, TWO_BODY], ids=["j2", "two_body"])
def test_linearization_equals_every_offset_oracle(monkeypatch, consts):
    # coast stages, burn stages and one burn-window stage whose control is
    # exactly zero: its mass-offset rows go because u == 0, not because of
    # its thrust bound, and A and B keep the oracle's bits, zero signs too
    rng = np.random.default_rng(43)
    n = 40
    x = np.column_stack([
        rng.uniform(6800.0, 7200.0, n), rng.normal(0.0, 2e-3, (n, 2)),
        rng.normal(0.0, 0.5, (n, 2)), rng.uniform(0.0, 40.0, n),
        rng.uniform(150.0, 235.0, n)])
    u = rng.normal(size=(n, 3))
    u = 0.0126 * u / np.linalg.norm(u, axis=1)[:, None]
    skip_b = np.arange(n) < 24
    u[skip_b] = 0.0
    u[30] = 0.0
    dt = rng.uniform(5.0, 160.0, n)
    substeps = rng.integers(1, 4, n)
    rows = []
    batch = ocp.rk4_batch

    def counting(y, *args):
        rows.append(y.shape[0])
        return batch(y, *args)

    monkeypatch.setattr(ocp, "rk4_batch", counting)
    A, B = linearize_batch(x, u, dt, substeps, TH.isp, consts, skip_b=skip_b)
    A0, B0 = full_linearize_batch(x, u, dt, substeps, TH.isp, consts, skip_b=skip_b)
    assert np.array_equal(A.view(np.uint64), A0.view(np.uint64))
    assert np.array_equal(B.view(np.uint64), B0.view(np.uint64))
    # 14 rows per thrusting stage, 12 per thrust-free one, 6 per B block
    assert sum(rows) == 14 * n - 2 * 25 + 6 * 16

    # longer than a chunk: two chunks of 4-substep coasts and two of
    # 1-substep burns, each second one ragged, the step sizes taken from
    # the whole grid's largest thrust
    n = 2 * ocp.LINEARIZE_CHUNK + 37
    x, u, dt, coast = mixed_stage_grid(rng, n)
    substeps = np.where(coast, 4, 1)
    for group in (coast, ~coast):
        assert ocp.LINEARIZE_CHUNK < np.sum(group) < 2 * ocp.LINEARIZE_CHUNK
    A0, B0 = full_linearize_batch(x, u, dt, substeps, TH.isp, consts, skip_b=coast)
    rows.clear()
    A, B = linearize_batch(x, u, dt, substeps, TH.isp, consts, skip_b=coast)
    assert np.array_equal(A.view(np.uint64), A0.view(np.uint64))
    assert np.array_equal(B.view(np.uint64), B0.view(np.uint64))
    assert len(rows) == 4 and max(rows) <= ocp.BATCH_BLOCK
    assert sum(rows) == 12 * n + 2 * np.sum(np.any(u != 0.0, axis=1)) + 6 * np.sum(~coast)


def test_linearization_memory_is_flat_in_the_stage_count():
    # tracemalloc's peak over coast grids of one chunk and of four: only the
    # returned Jacobians grow with the grid, not the offset rows in flight
    def peak(n: int) -> int:
        x = np.tile([7000.0, 1e-3, 0.0, 0.1, 0.2, 0.3, 235.0], (n, 1))
        u, dt = np.zeros((n, 3)), np.full(n, 145.0)
        substeps, coast = np.full(n, 4), np.ones(n, dtype=bool)
        tracemalloc.start()
        try:
            linearize_batch(x, u, dt, substeps, TH.isp, skip_b=coast)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * ocp.LINEARIZE_CHUNK) < 1.5 * peak(ocp.LINEARIZE_CHUNK)
