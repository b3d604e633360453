"""Acceptance criteria.

Each test exercises one numbered criterion at its stated tolerance and
prints one PASS line (pytest -s shows them; failures raise).  The expensive
reference transfers (the coplanar raise and the one-degree plane change) are
refined once per session and shared across criteria.
"""
import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import TWO_BODY, linearize_one, sample_uniform_permutations
from orbtour.constants import EARTH
from orbtour.dynamics import j2_secular_rates
from orbtour.elements import (KeplerianState, MeeState, SpacecraftState,
                              kep_to_mee, mee_to_kep)
from orbtour.maneuvers import ThrusterSpec, mht_estimate, nic_estimate
from orbtour.optimizer import OptimizerConfig, optimize
from orbtour.propagate import PropagatorConfig, propagate_numeric, rk4_batch
from orbtour.scenario import (ScenarioConfig, sample_scenario,
                              scenario_to_dict, sso_inclination)
from orbtour.scp import RefineOptions, refine_arc
from orbtour.tour import brute_force, heuristic_walks
from orbtour.verify import STEP_S, repropagate_arc

TH = ThrusterSpec()
TAU = 2 * math.pi


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def case1():
    """Coplanar raise 6950 -> 7000 km at the sun-synchronous inclination."""
    est, plan = mht_estimate(6950.0, 7000.0, 235.0, TH)
    kep0 = KeplerianState(6950.0, 0.0, math.radians(97.3964),
                          math.radians(158.0), 0.0, 0.0)
    x0 = np.concatenate([kep_to_mee(kep0).as_array(), [235.0]])
    end = KeplerianState(7000.0, 0.0, kep0.i, kep0.raan, 0.0, 0.0)
    x_ref = np.concatenate([kep_to_mee(end).as_array(), [est.end_state.mass]])
    arc = refine_arc(x0, plan, TH, x_ref, RefineOptions(), EARTH, isp=TH.isp,
                     label="case1")
    return est, arc


@pytest.fixture(scope="module")
def case4():
    """One-degree plane change at 7000 km."""
    est, plan = nic_estimate(math.radians(1.0), 7000.0, 235.0, TH)
    kep0 = KeplerianState(7000.0, 0.0, math.radians(96.8964),
                          math.radians(158.0), 0.0, 0.0)
    x0 = np.concatenate([kep_to_mee(kep0).as_array(), [235.0]])
    end = KeplerianState(7000.0, 0.0, math.radians(97.8964), kep0.raan, 0.0, 0.0)
    x_ref = np.concatenate([kep_to_mee(end).as_array(), [est.end_state.mass]])
    arc = refine_arc(x0, plan, TH, x_ref, RefineOptions(), EARTH, isp=TH.isp,
                     label="case4")
    return est, arc


def test_criterion_01_multi_burn_raise_cost():
    est, _ = mht_estimate(6950.0, 7000.0, 235.0, TH)
    dv = est.dv_total * 1000.0
    assert dv == pytest.approx(27.09, rel=0.02)
    report("1", f"raise 6950->7000 km costs {dv:.2f} m/s (27.09 ± 2%)")


def test_criterion_02_plane_change_costs():
    dv1 = nic_estimate(math.radians(0.25), 7000.0, 235.0, TH)[0].dv_total * 1000
    dv2 = nic_estimate(math.radians(1.0), 7000.0, 235.0, TH)[0].dv_total * 1000
    assert dv1 == pytest.approx(32.71, rel=0.02)
    assert dv2 == pytest.approx(132.72, rel=0.02)
    report("2", f"plane changes cost {dv1:.2f} / {dv2:.2f} m/s "
                "(32.71 / 132.72 ± 2%)")


def test_criterion_03_split_invariance():
    def direct_two_impulse(r0, r1, mu=EARTH.mu):
        # independent expression of the two-impulse transfer cost
        dv1 = abs(math.sqrt(2 * mu * r1 / (r0 * (r0 + r1))) - math.sqrt(mu / r0))
        dv2 = abs(math.sqrt(mu / r1) - math.sqrt(2 * mu * r0 / (r1 * (r0 + r1))))
        return dv1 + dv2

    rng = np.random.default_rng(1234)
    worst = 0.0
    worst_plan = 0.0
    for _ in range(1000):
        # separated pairs: at equal radii the cost cancels to zero and no
        # floating expression retains relative precision there
        r0 = float(rng.uniform(6900.0, 7600.0))
        r1 = r0 + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(5.0, 400.0))
        direct = direct_two_impulse(r0, r1)
        est, plan = mht_estimate(r0, r1, 235.0, TH)
        scale = max(direct, 1e-12)
        worst = max(worst, abs(est.dv_total - direct) / scale)
        # the per-burn split telescopes back to the same total (float sum
        # over hundreds of burns)
        worst_plan = max(worst_plan, abs(plan.dv_total - direct) / scale)
    assert worst <= 1e-12
    assert worst_plan <= 1e-9
    report("3", f"multi-burn dv equals the direct two-impulse transfer "
                f"(worst deviation {worst:.2e}; per-burn telescoping "
                f"{worst_plan:.2e} over 1000 pairs)")


def test_criterion_04_sun_synchronous_inclination():
    got = math.degrees(sso_inclination(7000.0))
    assert got == pytest.approx(97.3964, abs=0.5)
    report("4", f"i_sso(7000 km) = {got:.4f} deg (97.3964 ± 0.5)")


def test_criterion_05_cross_model_oblateness():
    """Ten-revolution propagation of the instantaneous model reproduces the
    secular node/perigee rates within 1% (perigee measured at e = 0.05,
    where the apsis is defined)."""
    kep = KeplerianState(7000.0, 0.05, math.radians(97.4), math.radians(158.0),
                         math.radians(20.0), 0.0)
    s0 = SpacecraftState(kep_to_mee(kep), 235.0)
    period = TAU / math.sqrt(EARTH.mu / kep.a**3)
    n_segs = 500
    seg = 10 * period / n_segs
    traj = propagate_numeric(s0, np.zeros((n_segs, 3)), np.full(n_segs, seg),
                             277.0, PropagatorConfig(step=10.0), EARTH)
    L_target = traj[0, 5] + 10 * TAU
    idx = int(np.searchsorted(traj[:, 5], L_target))
    frac = (L_target - traj[idx - 1, 5]) / (traj[idx, 5] - traj[idx - 1, 5])
    s_mid = SpacecraftState(MeeState.from_array(traj[idx - 1, :6]), 235.0)
    y = propagate_numeric(s_mid, np.zeros((1, 3)), np.array([frac * seg]),
                          277.0, PropagatorConfig(step=10.0), EARTH)[-1]
    t_end = ((idx - 1) + frac) * seg
    k1 = mee_to_kep(MeeState.from_array(y[:6]))
    for name, got, want in (
        ("node", ((k1.raan - kep.raan + math.pi) % TAU - math.pi) / t_end,
         j2_secular_rates(kep.a, kep.e, kep.i)[0]),
        ("perigee", ((k1.argp - kep.argp + math.pi) % TAU - math.pi) / t_end,
         j2_secular_rates(kep.a, kep.e, kep.i)[1]),
    ):
        assert abs(got - want) / abs(want) < 0.01, name
    report("5", "10-revolution propagation matches secular node and perigee "
                "rates within 1%")


def test_criterion_06_optimizer_matches_exhaustive():
    rng = np.random.default_rng(77)
    t_bf_max = 0.0
    hits = 0
    n_runs = 50
    for k in range(n_runs):
        n_pay = int(rng.integers(4, 9))
        cfg = ScenarioConfig(n_cubesats=n_pay - 1, n_pocketqubes=1,
                             n_smallsats=0, fixed_bundles=n_pay)
        scn = sample_scenario(cfg, seed=31000 + k)
        t0 = time.time()
        exact = brute_force(scn)
        t_bf_max = max(t_bf_max, time.time() - t0)
        best, _ = optimize(scn, OptimizerConfig(seed=k))
        if best.cost <= exact.cost + 1e-9:
            hits += 1
        assert best.cost >= exact.cost - 1e-9  # oracle lower-bounds heuristics
    assert hits / n_runs >= 0.95
    assert t_bf_max < 10.0
    report("6", f"optimizer matched the exact optimum in {hits}/{n_runs} "
               f"runs; worst exact n<=8 solve {t_bf_max:.2f} s")


def test_criterion_07_monte_carlo_fuel_statistics():
    fuels, feasible = [], []
    for k in range(100):
        scn = sample_scenario(ScenarioConfig(fixed_bundles=13), seed=42000 + k)
        best, _ = optimize(scn, OptimizerConfig(seed=k))
        fuels.append(best.fuel_total)
        feasible.append(best.feasible)
    mean = float(np.mean(fuels))
    assert 21.4 <= mean <= 32.0
    assert mean <= 35.0
    assert float(np.mean(feasible)) >= 0.95
    report("7", f"100 thirteen-transfer scenarios: mean best fuel "
                f"{mean:.2f} kg in [21.4, 32.0], "
                f"{100 * float(np.mean(feasible)):.0f}% within the 35 kg budget")


def test_criterion_08_refined_reference_transfers(case1, case4):
    est1, arc1 = case1
    est4, arc4 = case4
    for name, arc in (("case1", arc1), ("case4", arc4)):
        err = arc.terminal_error
        assert abs(err["da_km"]) <= 10.0, name
        assert abs(err["di_deg"]) <= 0.1, name
        norms = np.linalg.norm(arc.controls, axis=1)
        assert np.all(norms <= TH.thrust_kn + 1e-9), name
    dv4 = arc4.dv_total * 1000.0
    assert dv4 == pytest.approx(132.42, rel=0.02)
    for est, arc in ((est1, arc1), (est4, arc4)):
        assert abs(arc.dv_total - est.dv_total) / est.dv_total <= 0.15
    report("8", f"refined transfers: case1 |da|={abs(arc1.terminal_error['da_km']):.2f} km, "
                f"case4 |di|={abs(arc4.terminal_error['di_deg']):.4f} deg, "
                f"case4 dv {dv4:.2f} m/s (132.42 ± 2%), "
                "thrust bound never violated")


def test_criterion_09_refiner_internal_checks(case1):
    # finite-difference Jacobian agreement against a Richardson oracle
    kep = KeplerianState(6950.0, 0.0, math.radians(97.3964),
                         math.radians(158.0), 0.0, 0.3)
    x = np.concatenate([kep_to_mee(kep).as_array(), [235.0]])
    u = np.array([0.003, 0.008, 0.002])
    dt, sub = 20.0, 2
    A, B, c = linearize_one(x, u, dt=dt, substeps=sub, isp=TH.isp)
    ve = TH.isp * EARTH.g0

    def f(xx, uu):
        return rk4_batch(xx[None, :].copy(), uu[None, :], np.array([dt / sub]), sub,
                         ve, EARTH)[0]

    scale = np.array([7000.0, 1, 1, 1, 1, 1, 200.0])
    worst = 0.0
    for j in range(7):
        h1 = 2e-5 * scale[j]
        d1 = (f(x + np.eye(7)[j] * h1, u) - f(x - np.eye(7)[j] * h1, u)) / (2 * h1)
        d2 = (f(x + np.eye(7)[j] * h1 / 2, u) - f(x - np.eye(7)[j] * h1 / 2, u)) / h1
        col = (4 * d2 - d1) / 3.0
        worst = max(worst, float(np.max(np.abs(A[:, j] - col)))
                    / (float(np.linalg.norm(col)) + 1e-12))
    assert worst <= 1e-6

    # accepted iterations monotonically decrease the true objective
    _, arc1 = case1
    hist = arc1.objective_history
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))

    # a pure coast problem converges in one iteration
    from orbtour.maneuvers import BurnPlan
    from orbtour.ocp import build_grid, with_tail
    from orbtour.scp import OcpProblem, scp_solve, warm_start
    grid = with_tail(build_grid(BurnPlan([]), TH, 5800.0), 2000.0, 5800.0)
    W, U = warm_start(grid, x, TH.isp)
    coast = scp_solve(OcpProblem(x0=x, grid=grid, x_ref=W[-1].copy(), isp=TH.isp),
                      W, U)
    assert coast.converged and coast.iterations == 1
    assert np.all(coast.controls == 0.0)
    report("9", f"jacobian agreement {worst:.1e} <= 1e-6; accepted objectives "
                "monotone; coast problem converged in 1 iteration")


def test_criterion_10_verification_consistency(case1, case4):
    for name, (est, arc), (a_ref, i_ref) in (
        ("case1", case1, (7000.0, 97.3964)),
        ("case4", case4, (7000.0, 97.8964)),
    ):
        assert arc.converged, name
        traj = repropagate_arc(arc, PropagatorConfig(step=STEP_S), TH.isp)
        kep = mee_to_kep(MeeState.from_array(traj[-1, :6]))
        assert abs(kep.a - a_ref) <= 10.0, name
        assert abs(math.degrees(kep.i) - i_ref) <= 0.1, name
        fuel_numeric = float(traj[0, 6] - traj[-1, 6])
        assert fuel_numeric == pytest.approx(est.fuel_mass, rel=0.05), name
        # refiner states and the independent propagation agree
        scale = np.maximum(np.abs(arc.x_ref), 1e-2)
        assert np.max(np.abs((traj[-1] - arc.states[-1]) / scale)) < 1e-5, name

    # integrator order: halving the step shrinks the closure error ~16x
    kep = KeplerianState(7000.0, 0.1, 1.0, 0.5, 0.3, 0.0)
    s0 = SpacecraftState(kep_to_mee(kep), 235.0)
    period = TAU / math.sqrt(EARTH.mu / kep.a**3)
    errs = []
    for step in (40.0, 20.0, 10.0):
        traj = propagate_numeric(s0, np.zeros((1, 3)), np.array([period]),
                                 277.0, PropagatorConfig(step=step), TWO_BODY)
        errs.append(abs(traj[-1, 5] - traj[0, 5] - TAU))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert r1 == pytest.approx(16.0, rel=0.25)
    assert r2 == pytest.approx(16.0, rel=0.25)
    report("10", f"re-propagated transfers meet injection tolerances with fuel "
                 f"within 5%; step-halving error ratios {r1:.1f}, {r2:.1f}")


def test_criterion_11_sampling_statistics():
    perms = sample_uniform_permutations(4, 24000)
    keys = perms @ (4 ** np.arange(4))
    _, counts = np.unique(keys, return_counts=True)
    chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
    crit = float(stats.chi2.ppf(0.99, 23))
    assert counts.size == 24 and chi2 < crit

    report("11", f"uniformity chi2 {chi2:.1f} < {crit:.1f}")


def test_criterion_12_determinism():
    import json
    cfg = ScenarioConfig(fixed_bundles=6)
    s1 = json.dumps(scenario_to_dict(sample_scenario(cfg, 9)), sort_keys=True)
    s2 = json.dumps(scenario_to_dict(sample_scenario(cfg, 9)), sort_keys=True)
    assert s1 == s2
    scn = sample_scenario(cfg, 9)
    opt = OptimizerConfig(seed=4, generations=40)
    t1, tr1 = optimize(scn, opt)
    t2, tr2 = optimize(scn, opt)
    assert t1.order == t2.order and t1.fuel_total == t2.fuel_total
    assert np.array_equal(tr1.best_fuel, tr2.best_fuel)
    report("12", "scenario sampling and optimization are byte-stable under "
                 "fixed seeds (file-level reruns covered in the CLI tests)")


def test_criterion_seeding_interface_replaces_learned_tours():
    scn = sample_scenario(ScenarioConfig(fixed_bundles=8), seed=60)
    walks = heuristic_walks(scn)
    best_seed_cost = min(t.cost for t in walks.values())
    best, _ = optimize(scn, OptimizerConfig(seed=2),
                       seeds=list(walks.values()))
    assert best.cost <= best_seed_cost + 1e-12
    report("seeding", f"seeded search returned {best.cost:.3f} kg <= best "
                      f"injected candidate {best_seed_cost:.3f} kg")