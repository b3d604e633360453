import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize

from orbtour.qp import ConvexSubproblem, ReducedArcSolver


def random_subproblem(rng, N=5, ball=10.0, r_weight=1e-3, coast=()):
    """Small random instance: stable-ish dynamics, PSD weights."""
    A = np.stack([np.eye(7) + 0.05 * rng.standard_normal((7, 7)) for _ in range(N)])
    B = np.stack([0.3 * rng.standard_normal((7, 3)) for _ in range(N)])
    c = 0.01 * rng.standard_normal((N, 7))
    P = np.diag(rng.uniform(0.5, 3.0, 7))
    z_ref = rng.standard_normal(7)
    balls = np.full(N, float(ball))
    for i in coast:
        balls[i] = 0.0
    return ConvexSubproblem(A=A, B=B, c=c, P=P, z_ref=z_ref, r=r_weight, ball=balls)


def qp_objective(sub: ConvexSubproblem, Z: np.ndarray, W: np.ndarray) -> float:
    """Oracle: the subproblem's objective at states Z and controls W."""
    err = Z[-1] - sub.z_ref
    return float(0.5 * err @ sub.P @ err + 0.5 * sub.r * np.sum(W * W))


def linear_rollout(sub: ConvexSubproblem, W: np.ndarray) -> np.ndarray:
    """Oracle: the linear dynamics stepped stage by stage from z_0 = 0."""
    N = sub.n_stages
    Z = np.empty((N + 1, 7))
    Z[0] = 0.0
    for i in range(N):
        Z[i + 1] = sub.A[i] @ Z[i] + sub.B[i] @ W[i] + sub.c[i]
    return Z


def dense_kkt_solution(sub: ConvexSubproblem):
    """Oracle: stack the equality-constrained QP into one dense KKT system
    (valid when the inequality constraints are slack)."""
    N = sub.n_stages
    nz, nu = 7 * (N + 1), 3 * N
    H = np.zeros((nz + nu, nz + nu))
    g = np.zeros(nz + nu)
    H[7 * N:7 * N + 7, 7 * N:7 * N + 7] = sub.P
    g[7 * N:7 * N + 7] = -sub.P @ sub.z_ref
    for i in range(N):
        H[nz + 3 * i:nz + 3 * i + 3, nz + 3 * i:nz + 3 * i + 3] = sub.r * np.eye(3)
    # equality constraints: z_0 = 0; z_{i+1} - A z_i - B u_i = c_i
    ne = 7 * (N + 1)
    E = np.zeros((ne, nz + nu))
    d = np.zeros(ne)
    E[:7, :7] = np.eye(7)
    for i in range(N):
        r = 7 * (i + 1)
        E[r:r + 7, 7 * (i + 1):7 * (i + 2)] = np.eye(7)
        E[r:r + 7, 7 * i:7 * (i + 1)] = -sub.A[i]
        E[r:r + 7, nz + 3 * i:nz + 3 * i + 3] = -sub.B[i]
        d[r:r + 7] = sub.c[i]
    KKT = np.block([[H, E.T], [E, np.zeros((ne, ne))]])
    rhs = np.concatenate([-g, d])
    sol = np.linalg.solve(KKT, rhs)
    Z = sol[:nz].reshape(N + 1, 7)
    U = sol[nz:nz + nu].reshape(N, 3)
    return Z, U, qp_objective(sub, Z, U)


def slsqp_objective(sub: ConvexSubproblem) -> float:
    """Oracle: the ball-constrained QP over the controls, solved by SLSQP."""
    N = sub.n_stages

    def objective(u_flat):
        U = u_flat.reshape(N, 3)
        return qp_objective(sub, linear_rollout(sub, U), U)

    cons = [{"type": "ineq",
             "fun": (lambda u_flat, i=i:
                     sub.ball[i]**2 - np.sum(u_flat[3 * i:3 * i + 3]**2))}
            for i in range(N)]
    ref = minimize(objective, np.zeros(3 * N), method="SLSQP", constraints=cons,
                   options={"maxiter": 500, "ftol": 1e-14})
    return float(ref.fun)


def test_all_coast_returns_rollout():
    rng = np.random.default_rng(0)
    sub = random_subproblem(rng, N=6, coast=range(6))
    sol = ReducedArcSolver(sub).solve()
    assert np.all(sol.controls == 0.0)
    assert np.allclose(sol.states, linear_rollout(sub, sol.controls), atol=1e-12)
    err = sol.states[-1] - sub.z_ref
    assert qp_objective(sub, sol.states, sol.controls) == pytest.approx(
        0.5 * err @ sub.P @ err, rel=1e-12)


def test_terminal_maps_match_linear_rollout_oracle():
    """E[k] moves the last state by a change in stage k's end state, coast
    or burn; M's block for each burn stage k is E[k] B[k], and e0 is the
    last state of the zero-control rollout."""
    rng = np.random.default_rng(8)
    N = 7
    sub = random_subproblem(rng, N=N, ball=0.05, coast=(0, 2, 3, 6))
    solver = ReducedArcSolver(sub)
    W = np.zeros((N, 3))
    base = linear_rollout(sub, W)[-1]
    assert np.allclose(solver.e0, base, rtol=0.0, atol=1e-12)
    for k in range(N):
        for a in range(7):
            c = sub.c.copy()
            c[k, a] += 1.0
            moved = linear_rollout(dataclasses.replace(sub, c=c), W)[-1] - base
            assert np.allclose(moved, solver.E[k][:, a], rtol=0.0, atol=1e-12)
    assert solver.burn_idx.tolist() == [1, 4, 5]
    for t, k in enumerate(solver.burn_idx):
        block = solver.M[:, 3 * t:3 * t + 3]
        assert np.allclose(block, solver.E[k] @ sub.B[k], rtol=0.0, atol=1e-12)


def test_huge_control_penalty_drives_controls_to_zero():
    rng = np.random.default_rng(1)
    sub = random_subproblem(rng, N=5, r_weight=1e9)
    sub.P = 1e-6 * np.eye(7)
    sol = ReducedArcSolver(sub).solve(tol=1e-12)
    assert np.max(np.abs(sol.controls)) < 1e-6


def test_matches_dense_kkt_oracle_when_constraints_slack():
    rng = np.random.default_rng(2)
    for trial in range(3):
        sub = random_subproblem(rng, N=5, ball=1e6)
        want_Z, want_U, want_obj = dense_kkt_solution(sub)
        sol = ReducedArcSolver(sub).solve(tol=1e-12)
        assert qp_objective(sub, sol.states, sol.controls) == pytest.approx(
            want_obj, rel=1e-6, abs=1e-9)
        assert np.allclose(sol.controls, want_U, atol=1e-5)


def test_matches_slsqp_oracle_with_active_balls():
    rng = np.random.default_rng(3)
    sub = random_subproblem(rng, N=4, ball=0.05, r_weight=1e-3)
    sol = ReducedArcSolver(sub).solve(tol=1e-12)
    assert qp_objective(sub, sol.states, sol.controls) == pytest.approx(
        slsqp_objective(sub), rel=1e-5)
    norms = np.linalg.norm(sol.controls, axis=1)
    assert np.all(norms <= sub.ball + 1e-12)


def test_matches_slsqp_oracle_with_coast_stages():
    rng = np.random.default_rng(7)
    for coast, ball in (((), 1e6), ((1, 4), 0.03)):
        sub = random_subproblem(rng, N=6, ball=ball, r_weight=1e-3, coast=coast)
        sub.P = np.diag(rng.uniform(0.5, 2.0, 7))
        sol = ReducedArcSolver(sub).solve(tol=1e-13)
        assert qp_objective(sub, sol.states, sol.controls) == pytest.approx(
            slsqp_objective(sub), rel=1e-5, abs=1e-9)
        assert np.all(np.linalg.norm(sol.controls, axis=1) <= sub.ball + 1e-12)
        assert np.all(sol.controls[list(coast)] == 0.0)


def test_equality_residual_is_zero_and_balls_exact():
    # coast runs inside, at both ends (the shape of every refiner grid) and
    # none at all
    rng = np.random.default_rng(4)
    for coast in ((2, 3), (0, 1, 5, 6, 7), ()):
        sub = random_subproblem(rng, N=8, ball=0.02, coast=coast)
        sol = ReducedArcSolver(sub).solve(tol=1e-10)
        Z, U = sol.states, sol.controls
        for i in range(8):
            resid = Z[i + 1] - (sub.A[i] @ Z[i] + sub.B[i] @ U[i] + sub.c[i])
            assert np.max(np.abs(resid)) < 1e-9
        assert np.all(np.linalg.norm(U, axis=1) <= sub.ball + 1e-15)
        assert np.all(U[list(coast)] == 0.0)


def test_scaled_step_stays_feasible_and_linear():
    """The refiner's trust region: with the offset c = -B w_bar that the
    refiner uses, a step scaled by lam toward the solution moves the
    predicted deviation by exactly lam times, stays inside every ball, and
    the refiner's choice of lam keeps the deviation within the radius."""
    rng = np.random.default_rng(5)
    N = 6
    sub = random_subproblem(rng, N=N, ball=0.05, coast=(2,))
    dirs = rng.standard_normal((N, 3))
    w_bar = (dirs / np.linalg.norm(dirs, axis=1)[:, None]
             * rng.uniform(0.0, 1.0, N)[:, None] * sub.ball[:, None])
    sub.c = -np.einsum("nij,nj->ni", sub.B, w_bar)
    sol = ReducedArcSolver(sub).solve(tol=1e-13)
    W, Z = sol.controls, sol.states
    for lam in (1e-3, 0.25, 0.5, 1.0):
        W_lam = w_bar + lam * (W - w_bar)
        assert np.allclose(linear_rollout(sub, W_lam), lam * Z,
                           rtol=1e-12, atol=1e-14)
        assert np.all(np.linalg.norm(W_lam, axis=1) <= sub.ball + 1e-15)
    step_scale = float(np.max(np.abs(Z)))
    for radius in (1e-4, 0.1 * step_scale, step_scale, 10.0 * step_scale):
        lam = 1.0 if step_scale <= radius else radius / step_scale
        assert 0.0 < lam <= 1.0
        assert float(np.max(np.abs(lam * Z))) <= radius * (1.0 + 1e-15)


def test_weights_outside_the_closed_form_raise():
    rng = np.random.default_rng(9)
    sub = random_subproblem(rng, N=4, ball=0.05)
    # a dense symmetric terminal weight is inside the closed form
    L = rng.standard_normal((7, 7))
    sub.P = L @ L.T / 7.0 + 0.5 * np.eye(7)
    sol = ReducedArcSolver(sub).solve(tol=1e-13)
    assert qp_objective(sub, sol.states, sol.controls) == pytest.approx(
        slsqp_objective(sub), rel=1e-6)

    dense = sub.P
    sub.P = dense + np.triu(np.full((7, 7), 0.1), 1)
    with pytest.raises(ValueError, match="symmetric"):
        ReducedArcSolver(sub).solve()
    sub.P = dense
    sub.r = 0.0
    with pytest.raises(ValueError, match="positive"):
        ReducedArcSolver(sub).solve()


def test_warm_start_reduces_iterations():
    rng = np.random.default_rng(6)
    sub = random_subproblem(rng, N=6, ball=0.05)
    first = ReducedArcSolver(sub).solve(tol=1e-11)
    again = ReducedArcSolver(sub).solve(tol=1e-11, warm=first.gamma)
    assert again.iterations <= first.iterations
