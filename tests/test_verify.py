import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import tiny_mission
from orbtour.constants import EARTH
from orbtour.elements import KeplerianState, kep_to_mee
from orbtour.ocp import COAST_SUBSTEP
from orbtour.propagate import PropagatorConfig
from orbtour.errors import SchemaError
from orbtour.scenario import Bundle, MissionScenario, PayloadSpec, SpacecraftSpec
from orbtour.scp import RefinedArc, load_arcs, refine_tour, roll_on
from orbtour.tour import tour_cost
import orbtour.verify
from orbtour.verify import (STEP_S, TOL_FUEL_FRACTION, repropagate_arc,
                            save_report, verify_trajectory)


@pytest.fixture(scope="module")
def refined_mission():
    scn = tiny_mission()
    tour = tour_cost(scn, [0, 1])
    arcs = refine_tour(tour.order, scn)
    return scn, tour, arcs


def test_coast_only_arc_repropagates_exactly():
    from orbtour.elements import SpacecraftState, MeeState
    from orbtour.propagate import propagate_numeric
    kep = KeplerianState(EARTH.re + 500.0, 0.0, math.radians(97.4),
                         math.radians(158.0), 0.0, 0.0)
    x0 = np.concatenate([kep_to_mee(kep).as_array(), [235.0]])
    n = 20
    controls = np.zeros((n, 3))
    dts = np.full(n, 30.0)
    s0 = SpacecraftState(MeeState.from_array(x0[:6]), 235.0)
    states = propagate_numeric(s0, controls, dts, 277.0,
                               PropagatorConfig(step=10.0), EARTH)
    arc = RefinedArc(states=states, controls=controls, dt=dts, t0=0.0,
                     iterations=1, converged=True, objective=0.0,
                     x_ref=states[-1].copy(), label="leg0/phase0.0")
    traj = repropagate_arc(arc, PropagatorConfig(step=10.0), isp=277.0)
    # no propellant use, and the verifier reproduces the stored trajectory
    assert traj[-1, 6] == traj[0, 6]
    assert np.max(np.abs(traj - states)) < 1e-12


def test_full_mission_verification(refined_mission):
    scn, tour, arcs = refined_mission
    report = verify_trajectory(arcs, tour, scn)
    assert len(report.legs) == 3  # two deployments + decommissioning
    for leg in report.legs:
        assert abs(leg.da_km) <= 10.0
        assert abs(leg.di_deg) <= 0.1
        assert leg.pass_sma and leg.pass_inc and leg.passed
        # refiner and verifier agree on the terminal state
        assert leg.consistency_err < 1e-5
    assert report.all_passed


def test_numeric_fuel_close_to_analytic(refined_mission):
    scn, tour, arcs = refined_mission
    report = verify_trajectory(arcs, tour, scn)
    for leg in report.legs:
        if leg.fuel_analytic_kg > 0.1:
            assert leg.fuel_numeric_kg == pytest.approx(leg.fuel_analytic_kg,
                                                        rel=0.15)


def test_tolerances_drive_pass_flags(refined_mission, monkeypatch):
    # the gates are read when the report is built: a tighter one fails
    # every leg on its own flag and leaves the other flags passing
    scn, tour, arcs = refined_mission
    monkeypatch.setattr(orbtour.verify, "TOL_SMA_KM", 1e-9)
    strict = verify_trajectory(arcs, tour, scn)
    assert not strict.all_passed
    assert not any(leg.pass_sma for leg in strict.legs)
    assert all(leg.pass_inc and leg.pass_fuel for leg in strict.legs)
    monkeypatch.undo()
    monkeypatch.setattr(orbtour.verify, "TOL_INC_DEG", 1e-12)
    strict = verify_trajectory(arcs, tour, scn)
    assert not strict.all_passed
    # the decommissioning leg has no inclination target
    assert not any(leg.pass_inc for leg in strict.legs[:scn.n_bundles])
    assert all(leg.pass_sma and leg.pass_fuel for leg in strict.legs)


def _save_mission(tmp_path, scn, tour, arcs, consts=EARTH) -> list[str]:
    """Write a mission's inputs; the ``verify`` arguments that read them."""
    from orbtour.cli import save_tour
    from orbtour.scenario import save_scenario
    from orbtour.scp import save_arcs
    paths = {n: tmp_path / f"{n}.json" for n in ("scenario", "tour", "arcs", "report")}
    save_scenario(scn, paths["scenario"], consts)
    save_tour(tour, paths["tour"])
    save_arcs(arcs, paths["arcs"])
    return ["verify", "--scenario", str(paths["scenario"]), "--tour",
            str(paths["tour"]), "--arcs", str(paths["arcs"]), "--out",
            str(paths["report"])]


def test_excess_fuel_fails_the_leg_and_verify(refined_mission, tmp_path):
    from orbtour.cli import main
    scn, tour, arcs = refined_mission
    assert all(leg.pass_fuel for leg in verify_trajectory(arcs, tour, scn).legs)
    # thrust on one coast stage of leg0's first arc: 1.5 times the allowed
    # extra fuel, and the leg's last arc, which sets its orbit, is untouched
    leg0_arcs = [a for a in arcs if a.label.startswith("leg0/")]
    assert len(leg0_arcs) > 1
    arc = leg0_arcs[0]
    stage = int(np.flatnonzero(np.all(arc.controls == 0.0, axis=1))[0])
    extra = 1.5 * TOL_FUEL_FRACTION * tour.legs[0].fuel_mass
    ve = scn.spacecraft.thruster.isp * EARTH.g0
    controls = arc.controls.copy()
    controls[stage, 0] = extra * ve / arc.dt[stage]
    heavy = [RefinedArc(**{**vars(a), "controls": controls}) if a is arc else a
             for a in arcs]
    assert main(_save_mission(tmp_path, scn, tour, heavy)) == 4
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["all_passed"] is False
    leg0 = data["legs"][0]
    assert leg0["pass_sma"] and leg0["pass_inc"] and not leg0["pass_fuel"]
    assert (leg0["fuel_numeric_kg"]
            > (1.0 + TOL_FUEL_FRACTION) * leg0["fuel_analytic_kg"])
    assert all(leg["pass_fuel"] for leg in data["legs"][1:])


def test_report_serialization(refined_mission, tmp_path):
    scn, tour, arcs = refined_mission
    report = verify_trajectory(arcs, tour, scn)
    save_report(report, tmp_path / "report.json", tmp_path / "report.csv")
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["all_passed"] == report.all_passed
    assert data["version"] == 4
    assert data["step_s"] == STEP_S
    assert len(data["legs"]) == 3
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3
    assert lines[0].startswith("label,target_a_km")
    # achieved_e is the achieved eccentricity; no duplicate de column
    assert all("de" not in leg and "achieved_e" in leg for leg in data["legs"])
    header = lines[0].split(",")
    assert "de" not in header and "achieved_e" in header
    assert {"peak_thrust_n", "pass_thrust"} <= set(header)
    assert all(leg["pass_thrust"] for leg in data["legs"])


def test_tripled_thrust_fails_the_thrust_gate(refined_mission, tmp_path):
    from orbtour.cli import main
    scn, tour, arcs = refined_mission
    thrust_n = scn.spacecraft.thruster.thrust_kn * 1000.0
    for leg in verify_trajectory(arcs, tour, scn).legs:
        assert leg.pass_thrust and 0.0 < leg.peak_thrust_n <= thrust_n * (1.0 + 1e-9)
    # the same impulse at three times the peak thrust: every burn stage's
    # thrust tripled and its duration cut to a third
    tampered = []
    for arc in arcs:
        burn = np.any(arc.controls != 0.0, axis=1)
        assert burn.any()
        tampered.append(RefinedArc(**{
            **vars(arc), "controls": np.where(burn[:, None], 3.0 * arc.controls,
                                              arc.controls),
            "dt": np.where(burn, arc.dt / 3.0, arc.dt)}))
    assert main(_save_mission(tmp_path, scn, tour, tampered)) == 4
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["all_passed"] is False
    assert len(data["legs"]) == 3
    for leg in data["legs"]:
        # the thrust gate alone fails: the orbit and fuel gates still pass
        assert not leg["pass_thrust"]
        assert leg["pass_sma"] and leg["pass_inc"] and leg["pass_fuel"]
        assert leg["peak_thrust_n"] > 2.9 * thrust_n


def _substeps(dt: np.ndarray, step: float) -> np.ndarray:
    """RK4 substeps of stages of length ``dt`` at ``step``, as rk4_segment."""
    return np.maximum(1, np.ceil(dt / step - 1e-12))


def test_step_is_accurate_and_finer_than_the_refiner(refined_mission, monkeypatch):
    scn, tour, arcs = refined_mission
    report = verify_trajectory(arcs, tour, scn)
    monkeypatch.setattr(orbtour.verify, "STEP_S", STEP_S / 4.0)
    fine = verify_trajectory(arcs, tour, scn)
    monkeypatch.undo()
    # the step's own error is far inside the 10 km and 0.1 deg gates, and
    # burn stages take one RK4 step at either step, so fuel is exact
    for leg, ref in zip(report.legs, fine.legs, strict=True):
        assert abs(leg.da_km - ref.da_km) <= 1e-4
        assert abs(leg.di_deg - ref.di_deg) <= 1e-8
        assert leg.fuel_numeric_kg == ref.fuel_numeric_kg
    # consistency_err compares the refiner with a different integration: on
    # every arc some coast stage takes other substeps than the refiner's
    for arc in arcs:
        coast = np.all(arc.controls == 0.0, axis=1)
        assert np.any(_substeps(arc.dt[coast], STEP_S)
                      != _substeps(arc.dt[coast], COAST_SUBSTEP)), arc.label


def test_arc_stages_are_checked_against_the_period_under_the_active_constants(
        tmp_path, monkeypatch):
    # one coast revolution of a 500 km orbit under mu / 4, in two stages: the
    # first, 8,000 s, is longer than the orbit's period about the Earth
    # (5,677 s) but within its period under these constants (11,354 s).  The
    # single bundle sits on the insertion orbit and the disposal orbit is
    # the same, so no leg burns and the coast arc alone makes leg0
    from orbtour.cli import main
    consts = dataclasses.replace(EARTH, mu=EARTH.mu / 4.0)
    orbit = KeplerianState(EARTH.re + 500.0, 0.0, math.radians(97.4),
                           math.radians(158.0), 0.0, 0.0)
    scn = MissionScenario(SpacecraftSpec(), orbit, orbit.a,
                          (Bundle((PayloadSpec("cubesat", 6.0, orbit),), orbit),))
    period = 2.0 * math.pi * math.sqrt(orbit.a**3 / consts.mu)
    dt = np.array([8000.0, period - 8000.0])
    x0 = np.concatenate([kep_to_mee(orbit).as_array(), [scn.initial_mass]])
    states = roll_on(x0, np.zeros((2, 3)), dt, scn.spacecraft.thruster.isp, consts)
    arc = RefinedArc(states=states, controls=np.zeros((2, 3)), dt=dt, t0=0.0,
                     iterations=1, converged=True, objective=0.0,
                     x_ref=states[-1].copy(), label="leg0/phase0.0")
    argv = _save_mission(tmp_path, scn, tour_cost(scn, [0], consts), [arc], consts)
    arcs_path = tmp_path / "arcs.json"
    with pytest.raises(SchemaError, match=r"dt_s must lie in \[0, 5677.0\] s"):
        load_arcs(arcs_path)
    loaded, = load_arcs(arcs_path, consts)
    assert np.array_equal(loaded.dt, dt) and np.array_equal(loaded.states, states)
    const_file = tmp_path / "constants.json"
    const_file.write_text(json.dumps({"mu": consts.mu}))
    monkeypatch.setenv("ORBTOUR_CONSTANTS", str(const_file))
    assert main(argv) == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["all_passed"] is True and [leg["label"] for leg in data["legs"]] == ["leg0"]
