"""Convex subproblem solver for the trajectory refiner.

The subproblem is a quadratic objective (terminal-state error plus control
energy) over linear time-varying dynamics, with a Euclidean norm ball on
each stage's control.  The objective couples stages only through the
terminal state, so condensing the dynamics leaves a 7-dimensional fixed
point in the terminal gradient: for a given gradient every burn stage's
control has a closed form (clipped onto its ball), and a semismooth Newton
iteration finds the gradient that reproduces itself.  Thrust-free stages
carry no unknowns; one forward pass over the stages gives the states.
The backward pass that condenses the dynamics keeps its terminal maps
E[k] = A[N-1]...A[k+1]; the refiner moves its merit's last node through
the same maps.

There is no state constraint: the refiner enforces its trust region by
scaling the returned step.  Outputs hold the hard guarantees exactly: the
returned controls are inside their balls by construction and the returned
states are the linear-dynamics rollout of those controls, so the equality
residual is zero to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: semismooth Newton iteration cap of :meth:`ReducedArcSolver.solve`
MAX_NEWTON = 100


@dataclass
class ConvexSubproblem:
    """min  0.5 (z_N - z_ref)' P (z_N - z_ref) + 0.5 r sum_i |w_i|^2
    s.t.  z_{i+1} = A_i z_i + B_i w_i + c_i,   z_0 = 0,
          ||w_i|| <= ball_i.

    All quantities are expected in scaled (normalized) units; states are
    deviations from the linearization trajectory.
    """

    A: np.ndarray            # (N, 7, 7)
    B: np.ndarray            # (N, 7, 3)
    c: np.ndarray            # (N, 7)
    P: np.ndarray            # (7, 7)
    z_ref: np.ndarray        # (7,)
    r: float                 # control weight
    ball: np.ndarray         # (N,)

    @property
    def n_stages(self) -> int:
        return self.A.shape[0]


@dataclass
class SubproblemSolution:
    states: np.ndarray       # (N+1, 7)
    controls: np.ndarray     # (N, 3)
    iterations: int
    gamma: np.ndarray        # (7,) terminal gradient P (z_N - z_ref)


class ReducedArcSolver:
    """Condensed control-space solve of a :class:`ConvexSubproblem`.

    The dynamics are condensed once into the terminal map
    z_N = M w_burn + e0, so only the burn-stage controls are unknowns.
    ``E[k] = A[N-1]...A[k+1]`` (N, 7, 7) maps a change in stage k's end
    state to the last state; M's block for burn stage k is E[k] B[k].  The
    per-stage closed form needs a positive control weight r, and the
    terminal-gradient fixed point needs a symmetric P; :meth:`solve` rejects
    anything else.  The refiner imposes its trust region by scaling the
    returned step: the step is affine in the controls, so any scaled step
    stays ball-feasible and linear-model-consistent, and a smaller radius
    needs no second solve.
    """

    def __init__(self, sub: ConvexSubproblem):
        self.sub = sub
        N = sub.n_stages
        self.burn_idx = np.flatnonzero(sub.ball > 1e-15)
        nb = self.burn_idx.size

        # terminal map z_N = M W_burn + e0 via backward products
        self.E = np.empty((N, 7, 7))
        E = np.eye(7)
        e0 = np.zeros(7)
        for k in range(N - 1, -1, -1):
            self.E[k] = E
            e0 = e0 + E @ sub.c[k]
            E = E @ sub.A[k]
        self.e0 = e0
        Mcols = self.E[self.burn_idx] @ sub.B[self.burn_idx]
        # M columns are grouped per burn stage: [stage0(u_r,u_t,u_n), ...]
        self.M = np.transpose(Mcols, (1, 0, 2)).reshape(7, nb * 3)

    def rollout(self, W: np.ndarray) -> np.ndarray:
        """States of the linear dynamics under controls W, from z_0 = 0."""
        sub = self.sub
        v = sub.c + np.einsum("kab,kb->ka", sub.B, W)
        Z = np.zeros((sub.n_stages + 1, 7))
        for k in range(sub.n_stages):
            Z[k + 1] = sub.A[k] @ Z[k] + v[k]
        return Z

    def _controls_for(self, gamma: np.ndarray, ball: np.ndarray) -> np.ndarray:
        """Per-stage minimizer for a fixed terminal gradient gamma:
        w_j = -M_j^T gamma / r, saturated onto its ball."""
        q = -(self.M.T @ gamma).reshape(-1, 3) / self.sub.r
        norms = np.linalg.norm(q, axis=1)
        scale = np.ones_like(norms)
        over = norms > ball
        scale[over] = ball[over] / norms[over]
        return q * scale[:, None]

    def solve(self, tol: float = 1e-11,
              warm: np.ndarray | None = None) -> SubproblemSolution:
        """Semismooth Newton on the 7-dim terminal-gradient fixed point.

        Stationarity of the condensed problem reads
            gamma = P (M W(gamma) + e0 - z_ref),
        with W(gamma) the ball-clipped per-stage closed form; the root is
        found to machine precision in a handful of Newton steps, starting
        from ``warm`` (a previous solution's gamma) when given.  Without
        burn stages the default start is the root, and the solve returns
        zero controls at its first residual check.
        """
        sub = self.sub
        if sub.r <= 0.0:
            raise ValueError("the condensed solver needs a positive control weight")
        if not np.array_equal(sub.P, sub.P.T):
            raise ValueError("the condensed solver needs a symmetric terminal "
                             "weight P")
        ball = sub.ball[self.burn_idx]
        P = sub.P

        def residual(gamma: np.ndarray) -> np.ndarray:
            W = self._controls_for(gamma, ball)
            zN = self.M @ W.ravel() + self.e0
            return gamma - P @ (zN - sub.z_ref)

        gamma = warm if warm is not None else P @ (self.e0 - sub.z_ref)
        phi = residual(gamma)
        it = 0
        for it in range(1, MAX_NEWTON + 1):
            scale = max(float(np.max(np.abs(gamma))), 1.0)
            if float(np.max(np.abs(phi))) < tol * scale:
                break
            # central-difference Jacobian of the 7-dim residual
            Jm = np.empty((7, 7))
            eps = 1e-7 * scale
            for k in range(7):
                dg = np.zeros(7)
                dg[k] = eps
                Jm[:, k] = (residual(gamma + dg) - residual(gamma - dg)) / (2 * eps)
            try:
                step = np.linalg.solve(Jm, -phi)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(Jm, -phi, rcond=None)[0]
            lam = 1.0
            base = float(np.linalg.norm(phi))
            for _ in range(30):
                cand = gamma + lam * step
                phi_c = residual(cand)
                if float(np.linalg.norm(phi_c)) < (1.0 - 1e-4 * lam) * base:
                    gamma, phi = cand, phi_c
                    break
                lam *= 0.5
            else:
                break  # no progress possible at this precision

        Wb = self._controls_for(gamma, ball)
        W = np.zeros((sub.n_stages, 3))
        W[self.burn_idx] = Wb
        return SubproblemSolution(states=self.rollout(W), controls=W,
                                  iterations=it, gamma=gamma)
