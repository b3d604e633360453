"""The benchmark's three workloads.

Each workload builds its inputs in ``setup`` and then runs rounds of a fixed
size.  Only the calls into orbtour inside a round are timed; the checks that
follow them are not.  Timed calls go through module attributes
(``cli.main``, ``scp.refine_arc``, ...) so that the traced run's wrappers
see them, while the checks use names bound here at import, which the
wrappers never replace.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from orbtour import cli, optimizer, scenario, scp, tour, verify
from orbtour.constants import EARTH
from orbtour.elements import KeplerianState, SpacecraftState, kep_to_mee
from orbtour.maneuvers import ThrusterSpec, mht_estimate, nic_estimate
from orbtour.ocp import linearize_batch
from orbtour.propagate import PropagatorConfig, propagate_numeric
from orbtour.scenario import (Bundle, MissionScenario, PayloadSpec,
                              ScenarioConfig, SpacecraftSpec, save_scenario,
                              scenario_to_dict)
from orbtour.scenario import sample_scenario as sample_for_checks

import oracles
from hostclock import HostClock

#: injection gates on every delivered leg or transfer
TOL_SMA_KM = 10.0
TOL_INC_DEG = 0.1
#: share of the commanded plane change a leg may leave undone
PLANE_UNDONE_SHARE = 0.1
#: refiner-vs-re-propagation terminal agreement on the reference transfers
CONSISTENCY_TOL = 1e-5
#: refined dv of a reference transfer against its closed-form cost
DV_REL_TOL = 0.02

#: hand-built missions: (first target da [km], second target da [km], di [deg])
MISSIONS = {"tiny": (6.0, -5.0, 0.02), "wide": (20.0, -15.0, 0.05)}
#: plane change of the timed reference transfer [deg]; the acceptance
#: reference is 1 deg, whose 26-iteration refinement alone takes longer than
#: a run may (see README.md)
PLANE_CHANGE_DEG = 0.75
#: per round of ``tour_campaign``: 13-bundle scenarios in the montecarlo
#: call, then one scenario of ORACLE_BUNDLES for the exhaustive oracle
MC_SCENARIOS = 2
ORACLE_BUNDLES = 9
#: random orders the oracle must not lose to, per oracle instance
RANDOM_ORDERS = 256


@dataclass
class Round:
    """What one round did and found."""

    seconds: float = 0.0          # time inside timed calls, kernel samples excluded
    reference: list[float] = field(default_factory=list)   # kernel times [s]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)   # invariant violations
    notes: list[str] = field(default_factory=list)
    fuel: float = 0.0             # delivered propellant
    fuel_reference: float = 0.0   # independent reference for ``fuel``
    oracle_matches: int = 0
    oracle_instances: int = 0
    clock: HostClock | None = field(default=None, repr=False)

    def timed(self, fn, *args, **kwargs):
        """Call ``fn``, adding its time to ``seconds``; with a clock, the
        reference kernel samples it takes during the call go to ``reference``
        and their time is left out."""
        if self.clock is None:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
        n0, spent0 = len(self.clock.samples), self.clock.spent
        t0 = time.perf_counter()
        try:
            with self.clock.running():
                return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self.seconds += elapsed - (self.clock.spent - spent0)
            self.reference += self.clock.samples[n0:]

    def record(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "clock"}


def derive_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def warm_up() -> None:
    """Touch the propagator, the linearization and the tour pricer once, so
    first-call costs land in set-up rather than in the first round."""
    state = SpacecraftState(kep_to_mee(KeplerianState(7000.0, 0.0, 1.7, 0.0, 0.0, 0.0)),
                            mass=235.0)
    traj = propagate_numeric(state, np.zeros((4, 3)), np.full(4, 60.0), 277.0)
    linearize_batch(traj[:-1], np.full((4, 3), 1e-3), np.full(4, 60.0),
                    np.full(4, 2), 277.0)
    scn = sample_for_checks(ScenarioConfig(fixed_bundles=4), 0)
    tour.TourEvaluator(scn).cost_batch(np.array(list(itertools.permutations(range(4)))))


def mee_a_i(x) -> tuple[float, float]:
    """Semi-major axis [km] and inclination [deg] of [p f g h k ...]."""
    p, f, g, h, k = (float(v) for v in x[:5])
    return p / (1.0 - f * f - g * g), math.degrees(2.0 * math.atan(math.hypot(h, k)))


def injection_problems(label: str, a_km: float, i_deg: float, target_a: float,
                       target_i: float | None, start_i: float | None) -> list[str]:
    """Gate failures of one delivered orbit against its target; ``target_i``
    None means the inclination is not targeted."""
    out = []
    if abs(a_km - target_a) > TOL_SMA_KM:
        out.append(f"{label}: |da| {abs(a_km - target_a):.3f} km > {TOL_SMA_KM} km")
    if target_i is None:
        return out
    di = i_deg - target_i
    if abs(di) > TOL_INC_DEG:
        out.append(f"{label}: |di| {abs(di):.5f} deg > {TOL_INC_DEG} deg")
    commanded = target_i - start_i
    if commanded != 0.0 and abs(di) > PLANE_UNDONE_SHARE * abs(commanded):
        out.append(f"{label}: {abs(di):.5f} deg of a {commanded:+.5f} deg plane "
                   f"change left undone")
    return out


def build_mission(da0: float, da1: float, di_deg: float) -> MissionScenario:
    """Two bundles on short transfers from a 500 km, 97.4 deg insertion."""
    ins = KeplerianState(EARTH.re + 500.0, 0.0, math.radians(97.4),
                         math.radians(158.0), 0.0, 0.0)
    t0 = KeplerianState(ins.a + da0, 0.0, ins.i + math.radians(di_deg),
                        math.radians(30.0), 0.0, 1.0)
    t1 = KeplerianState(ins.a + da1, 0.0, ins.i - math.radians(di_deg),
                        math.radians(200.0), 0.0, 2.0)
    bundles = (
        Bundle((PayloadSpec("cubesat", 6.0, t0), PayloadSpec("cubesat", 6.5, t0)), t0),
        Bundle((PayloadSpec("smallsat", 25.0, t1),), t1),
    )
    return MissionScenario(spacecraft=SpacecraftSpec(), insertion=ins,
                           decommission_radius=EARTH.re + 460.0, bundles=bundles,
                           seed=0)


class MissionPipeline:
    """``solve --exact``, ``refine`` and ``verify`` through ``orbtour.cli.main``
    on two hand-built missions; an operation is one verified leg."""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed   # the missions are fixed references
        self.dir = work_dir

    def setup(self) -> None:
        for name, targets in MISSIONS.items():
            d = self.dir / name
            d.mkdir(parents=True, exist_ok=True)
            save_scenario(build_mission(*targets), d / "scenario.json")
        warm_up()

    def run_round(self, k: int, tracer, clock: HostClock | None = None) -> Round:
        rnd = Round(clock=clock)
        for name in MISSIONS:
            d = self.dir / name
            out = d / f"round{k}"
            out.mkdir()
            f = {"scenario": d / "scenario.json", "tour": out / "tour.json",
                 "arcs": out / "arcs.json", "report": out / "report.json"}
            commands = [
                ["solve", "--exact", "--scenario", f["scenario"], "--out", f["tour"]],
                ["refine", "--scenario", f["scenario"], "--tour", f["tour"],
                 "--out", f["arcs"]],
                ["verify", "--scenario", f["scenario"], "--tour", f["tour"],
                 "--arcs", f["arcs"], "--out", f["report"]],
            ]
            if tracer is not None:
                tracer.op = f"round{k}/{name}"
            codes = [rnd.timed(cli.main, [str(a) for a in argv]) for argv in commands]
            self._check(name, f, codes, rnd)
        return rnd

    @staticmethod
    def _check(name: str, f: dict, codes: list[int], rnd: Round) -> None:
        with open(f["scenario"], encoding="utf-8") as fh:
            scn = json.load(fh)
        model = oracles.TourModel.from_file_dict(scn)
        n_legs = model.n + 1
        rnd.attempted += n_legs
        try:
            with open(f["tour"], encoding="utf-8") as fh:
                tour_d = json.load(fh)
            with open(f["arcs"], encoding="utf-8") as fh:
                arcs = json.load(fh)["arcs"]
            with open(f["report"], encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError, KeyError) as exc:
            rnd.failed += n_legs
            rnd.notes.append(f"{name}: exit codes {codes}, no artifacts: {exc}")
            return
        order = tour_d["order"]
        if not oracles.is_permutation(order, model.n):
            rnd.problems.append(f"{name}: tour order {order} is not a permutation")
            rnd.failed += n_legs
            return
        cheapest = min(model.fuel(p) for p in itertools.permutations(range(model.n)))
        if model.fuel(order) > cheapest * (1.0 + 1e-12):
            rnd.problems.append(f"{name}: --exact order {order} is not the cheapest")
        leg_fuels = model.leg_fuels(order)
        for i, (leg, fuel) in enumerate(zip(tour_d["legs"], leg_fuels)):
            if oracles.rel_diff(leg["fuel_kg"], fuel) > oracles.PRICE_REL_TOL:
                rnd.problems.append(f"{name}: leg{i} fuel {leg['fuel_kg']!r} kg, "
                                    f"pricer {fuel!r} kg")

        th = scn["spacecraft"]["thruster"]
        thrust_kn = th["thrust_n"] * th["cluster"] * 1e-3
        ve = th["isp_s"] * oracles.G0
        unconverged = set()
        for arc in arcs:
            props = oracles.arc_properties(arc["states"], arc["controls_lvlh_kN"],
                                           arc["dt_s"], th["t_cooldown_s"], ve)
            rnd.problems += oracles.check_arc(f"{name}/{arc['label']}", props,
                                              thrust_kn, th["t_on_s"])
            if not arc["converged"]:
                unconverged.add(arc["label"].split("/")[0])

        legs = {leg["label"]: leg for leg in report["legs"]}
        start_i = scn["insertion"]["i_deg"]
        for i in range(n_legs):
            label = f"leg{i}"
            if i < model.n:
                target = scn["bundles"][order[i]]["target"]
                target_a, target_i = target["a_km"], target["i_deg"]
            else:
                target_a, target_i = scn["decommission_alt_km"] + oracles.RE, None
            leg = legs.get(label)
            if leg is None:
                why = [f"{name}/{label}: missing from report.json"]
            else:
                why = injection_problems(f"{name}/{label}", leg["achieved_a_km"],
                                         leg["achieved_i_deg"], target_a, target_i,
                                         start_i)
                if not (leg["pass_sma"] and leg["pass_inc"]):
                    why.append(f"{name}/{label}: report verdict failed")
                rnd.fuel += leg["fuel_numeric_kg"]
            if label in unconverged:
                why.append(f"{name}/{label}: an arc did not converge (refine exit "
                           f"{codes[1]})")
            if why:
                rnd.failed += 1
                rnd.notes.append("failed: " + "; ".join(why))
            rnd.fuel_reference += leg_fuels[i]
            if target_i is not None:
                start_i = target_i


@dataclass
class Transfer:
    name: str
    x0: np.ndarray
    x_ref: np.ndarray
    plan: object
    target_a: float         # [km]
    target_i: float         # [deg]
    start_i: float          # [deg]
    closed_form_dv: float   # [km/s]


def reference_transfer(name: str, est, plan, a0: float, i0_deg: float,
                       a1: float, i1_deg: float, closed_form_dv: float) -> Transfer:
    raan = math.radians(158.0)
    kep0 = KeplerianState(a0, 0.0, math.radians(i0_deg), raan, 0.0, 0.0)
    kep1 = KeplerianState(a1, 0.0, math.radians(i1_deg), raan, 0.0, 0.0)
    return Transfer(
        name=name,
        x0=np.concatenate([kep_to_mee(kep0).as_array(), [235.0]]),
        x_ref=np.concatenate([kep_to_mee(kep1).as_array(), [est.end_state.mass]]),
        plan=plan, target_a=a1, target_i=i1_deg, start_i=i0_deg,
        closed_form_dv=closed_form_dv)


def transfer_problems(tr: Transfer, arc, traj: np.ndarray, dv_kms: float) -> list[str]:
    """Gate failures of one refined and re-propagated reference transfer."""
    a_km, i_deg = mee_a_i(traj[-1])
    why = injection_problems(tr.name, a_km, i_deg, tr.target_a, tr.target_i,
                             tr.start_i)
    scale = np.maximum(np.abs(arc.x_ref), 1e-2)
    consistency = float(np.max(np.abs(traj[-1] - arc.states[-1]) / scale))
    if consistency >= CONSISTENCY_TOL:
        why.append(f"{tr.name}: refiner and re-propagation differ by "
                   f"{consistency:.2e} scaled")
    if abs(dv_kms - tr.closed_form_dv) > DV_REL_TOL * tr.closed_form_dv:
        why.append(f"{tr.name}: refined dv {dv_kms * 1e3:.2f} m/s vs closed form "
                   f"{tr.closed_form_dv * 1e3:.2f} m/s")
    if not arc.converged:
        why.append(f"{tr.name}: did not converge")
    return why


class ReferenceTransfers:
    """``refine_arc`` then ``repropagate_arc`` on the coplanar 6950 -> 7000 km
    raise and a plane change at 7000 km; an operation is one transfer."""

    def __init__(self, seed: int, work_dir: Path,
                 plane_change_deg: float = PLANE_CHANGE_DEG):
        self.seed = seed   # the transfers are fixed references
        self.plane_change_deg = plane_change_deg
        self.thruster = ThrusterSpec()
        self.transfers: list[Transfer] = []

    def setup(self) -> None:
        th = self.thruster
        i_sso, i_hi = 97.3964, 97.8964
        est, plan = mht_estimate(6950.0, 7000.0, 235.0, th)
        raise_ = reference_transfer("raise 6950->7000 km", est, plan,
                                    6950.0, i_sso, 7000.0, i_sso,
                                    oracles.hohmann_dv(6950.0, 7000.0))
        deg = self.plane_change_deg
        est, plan = nic_estimate(math.radians(deg), 7000.0, 235.0, th)
        plane = reference_transfer(
            f"plane change {deg} deg @ 7000 km", est, plan, 7000.0, i_hi - deg,
            7000.0, i_hi, oracles.plane_change_dv(math.radians(deg),
                                                  oracles.circular_speed(7000.0)))
        self.transfers = [raise_, plane]
        warm_up()

    def run_round(self, k: int, tracer, clock: HostClock | None = None) -> Round:
        rnd = Round(clock=clock)
        th = self.thruster
        ve = th.isp * oracles.G0
        for tr in self.transfers:
            if tracer is not None:
                tracer.op = f"round{k}/{tr.name}"
            rnd.attempted += 1
            t0 = rnd.seconds
            arc = rnd.timed(scp.refine_arc, tr.x0, tr.plan, th, tr.x_ref,
                            scp.RefineOptions(), EARTH, isp=th.isp, label=tr.name)
            traj = rnd.timed(verify.repropagate_arc, arc, PropagatorConfig(step=10.0),
                             th.isp)
            props = oracles.arc_properties(arc.states, arc.controls, arc.dt,
                                           th.t_cooldown, ve)
            rnd.problems += oracles.check_arc(tr.name, props, th.thrust_kn, th.t_on)

            why = transfer_problems(tr, arc, traj, props["dv_kms"])
            if why:
                rnd.failed += 1
                rnd.notes.append("failed: " + "; ".join(why))
            fuel = float(traj[0, 6] - traj[-1, 6])
            rnd.fuel += fuel
            rnd.fuel_reference += oracles.rocket_fuel(235.0, tr.closed_form_dv, ve)
            rnd.notes.append(
                f"{tr.name}: {arc.dt.size} stages, {arc.iterations} iterations "
                f"({len(arc.objective_history) - 1} accepted), dv "
                f"{props['dv_kms'] * 1e3:.2f} m/s (closed form "
                f"{tr.closed_form_dv * 1e3:.2f}), da "
                f"{mee_a_i(traj[-1])[0] - tr.target_a:+.3f} km, "
                f"fuel {fuel:.4f} kg, longest firing {props['longest_firing_s']:.3f} s, "
                f"shortest off {props['shortest_off_s']:.1f} s, mass residual "
                f"{props['mass_rel_err']:.1e}, {rnd.seconds - t0:.1f} s")
        return rnd


class TourCampaign:
    """``montecarlo --jobs 1 --bundles 13`` on seeded scenarios, then the
    exhaustive oracle and ``optimize`` on seeded 9-bundle scenarios; an
    operation is one scenario."""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.dir = work_dir

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        warm_up()

    def run_round(self, k: int, tracer, clock: HostClock | None = None) -> Round:
        rnd = Round(clock=clock)
        out = self.dir / f"mc{k}"
        mc_seed = derive_seed(self.seed, k, 13)
        argv = ["montecarlo", "--n", str(MC_SCENARIOS), "--bundles", "13",
                "--jobs", "1", "--seed", str(mc_seed), "--out-dir", str(out)]
        if tracer is not None:
            tracer.op = f"round{k}/montecarlo"
        code = rnd.timed(cli.main, argv)
        self._check_montecarlo(out, code, rnd)

        seed = derive_seed(self.seed, k, ORACLE_BUNDLES)

        def solve():
            scn = scenario.sample_scenario(
                ScenarioConfig(fixed_bundles=ORACLE_BUNDLES), seed)
            best, _ = optimizer.optimize(scn, optimizer.OptimizerConfig(seed=seed))
            return scn, tour.brute_force(scn), best

        if tracer is not None:
            tracer.op = f"round{k}/oracle"
        rnd.attempted += 1
        scn, oracle, best = rnd.timed(solve)
        self._check_oracle(scn, oracle, best, seed, rnd)
        return rnd

    @staticmethod
    def _check_montecarlo(out: Path, code: int, rnd: Round) -> None:
        rnd.attempted += MC_SCENARIOS
        try:
            with open(out / "montecarlo.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            rnd.failed += MC_SCENARIOS
            rnd.notes.append(f"montecarlo exit {code}, no montecarlo.csv: {exc}")
            return
        if len(rows) < MC_SCENARIOS:
            rnd.failed += MC_SCENARIOS - len(rows)
            rnd.notes.append(f"montecarlo exit {code}: {len(rows)} of {MC_SCENARIOS} rows")
        config = ScenarioConfig(fixed_bundles=13)
        for row in rows:
            idx = int(row["scenario"])
            model = oracles.TourModel.from_file_dict(
                scenario_to_dict(sample_for_checks(config, int(row["seed"]))))
            with open(out / f"tour_{idx:04d}.json", encoding="utf-8") as fh:
                tour_d = json.load(fh)
            if not oracles.is_permutation(tour_d["order"], model.n):
                rnd.problems.append(f"montecarlo scenario {idx}: order "
                                    f"{tour_d['order']} is not a permutation")
                continue
            priced = model.fuel(tour_d["order"])
            for what, value in (("montecarlo.csv", float(row["fuel_kg"])),
                                ("tour json", tour_d["totals"]["fuel_kg"])):
                if oracles.rel_diff(value, priced) > oracles.PRICE_REL_TOL:
                    rnd.problems.append(f"montecarlo scenario {idx}: {what} fuel "
                                        f"{value!r} kg, pricer {priced!r} kg")

    @staticmethod
    def _check_oracle(scn, oracle, best, seed: int, rnd: Round) -> None:
        model = oracles.TourModel.from_file_dict(scenario_to_dict(scn))
        label = f"9-bundle instance {seed}"
        for what, t in (("oracle", oracle), ("optimize", best)):
            if not oracles.is_permutation(t.order, model.n):
                rnd.problems.append(f"{label}: {what} order {t.order} is not a "
                                    f"permutation")
                return
        f_oracle = model.fuel(oracle.order)
        f_best = model.fuel(best.order)
        floor = f_oracle * (1.0 - 1e-12)
        if oracles.rel_diff(oracle.fuel_total, f_oracle) > oracles.PRICE_REL_TOL:
            rnd.problems.append(f"{label}: oracle fuel {oracle.fuel_total!r} kg, "
                                f"pricer {f_oracle!r} kg")
        if f_best < floor:
            rnd.problems.append(f"{label}: optimize beat the exhaustive oracle")
        for name, order in model.walks().items():
            if model.fuel(order) < floor:
                rnd.problems.append(f"{label}: walk {name} beats the oracle")
        rng = np.random.default_rng(seed)
        for _ in range(RANDOM_ORDERS):
            order = rng.permutation(model.n)
            if model.fuel(order) < floor:
                rnd.problems.append(f"{label}: random order {order.tolist()} beats "
                                    f"the oracle")
                break
        rnd.oracle_instances += 1
        rnd.oracle_matches += oracles.rel_diff(f_best, f_oracle) <= 1e-12
        rnd.fuel += f_best
        rnd.fuel_reference += f_oracle


WORKLOADS = {
    "mission_pipeline": MissionPipeline,
    "reference_transfers": ReferenceTransfers,
    "tour_campaign": TourCampaign,
}
