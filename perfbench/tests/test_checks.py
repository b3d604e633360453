"""The benchmark's checks accept good outputs and reject broken ones.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hostclock
import oracles
import run
import spans
import workloads
from orbtour import cli, tour
from orbtour.scenario import (ScenarioConfig, sample_scenario, save_scenario,
                              scenario_to_dict)

BENCH = Path(__file__).resolve().parents[1]
THRUST_KN, T_ON, COOLDOWN, VE = 0.0126, 5.0, 60.0, 277.0 * oracles.G0


def synthetic_arc(burns=((0, 4),), n=12, dt_burn=1.25, dt_coast=400.0,
                  thrust=0.0126, m0=235.0, extra_drop=0.0):
    """A stage grid with full-thrust burns on the given stage ranges and
    masses following the rocket equation stage by stage."""
    on = np.zeros(n, dtype=bool)
    for a, b in burns:
        on[a:b] = True
    dt = np.where(on, dt_burn, dt_coast)
    controls = np.zeros((n, 3))
    controls[on, 1] = thrust
    mass = [m0]
    for u, d in zip(controls, dt):
        mass.append(mass[-1] - np.linalg.norm(u) * d / VE)
    mass[-1] -= extra_drop
    states = np.zeros((n + 1, 7))
    states[:, 6] = mass
    return states, controls, dt


def arc_problems(**kwargs):
    states, controls, dt = synthetic_arc(**kwargs)
    props = oracles.arc_properties(states, controls, dt, COOLDOWN, VE)
    return oracles.check_arc("arc", props, THRUST_KN, T_ON)


def test_closed_form_costs():
    assert oracles.hohmann_dv(6950.0, 7000.0) * 1e3 == pytest.approx(27.10, abs=5e-3)
    v = oracles.circular_speed(7000.0)
    assert oracles.plane_change_dv(math.radians(1.0), v) * 1e3 == pytest.approx(
        131.70, abs=5e-3)
    assert oracles.hohmann_dv(7000.0, 7000.0) == pytest.approx(0.0, abs=1e-12)


def test_arc_properties_accept_a_clean_arc():
    assert arc_problems(burns=((0, 4), (6, 10))) == []


@pytest.mark.parametrize("broken, message", [
    (dict(thrust=0.0127), "above the"),
    (dict(dt_burn=1.5), "spans"),                     # 6 s firing
    (dict(burns=((0, 2), (3, 5)), dt_coast=30.0), "spans"),   # 30 s off time
    (dict(extra_drop=1e-4), "rocket equation"),
])
def test_arc_properties_reject_broken_arcs(broken, message):
    problems = arc_problems(**broken)
    assert len(problems) == 1 and message in problems[0]


def test_firings_split_by_a_switched_off_stage_stay_one_firing():
    assert arc_problems(burns=((0, 1), (2, 4))) == []


def test_pricer_matches_the_program_and_rejects_a_changed_scenario():
    scn = sample_scenario(ScenarioConfig(fixed_bundles=7), 3)
    d = scenario_to_dict(scn)
    model = oracles.TourModel.from_file_dict(d)
    orders = np.random.default_rng(0).permuted(np.tile(np.arange(7), (50, 1)), axis=1)
    program = tour.TourEvaluator(scn).fuel_batch(orders)
    for order, fuel in zip(orders, program):
        assert oracles.rel_diff(fuel, model.fuel(order)) <= 1e-12
    d["bundles"][0]["payloads"][0]["mass_kg"] *= 1.01
    broken = oracles.TourModel.from_file_dict(d)
    assert oracles.rel_diff(program[0], broken.fuel(orders[0])) > oracles.PRICE_REL_TOL


def test_injection_gates():
    ok = workloads.injection_problems("leg", 6880.0, 97.42, 6884.0, 97.42, 97.40)
    assert ok == []
    # the named fault: none of a 0.02 deg plane change realized
    undone = workloads.injection_problems("leg", 6884.0, 97.39994, 6884.0, 97.42, 97.40)
    assert len(undone) == 1 and "undone" in undone[0]
    far = workloads.injection_problems("leg", 6895.0, 97.55, 6884.0, 97.42, 97.42)
    assert len(far) == 2


def test_transfer_gates():
    tr = SimpleNamespace(name="t", target_a=7000.0, target_i=None, start_i=97.0,
                         closed_form_dv=0.1)
    x = np.array([7000.0, 0.0, 0.0, 0.9, 0.5, 1.0, 230.0])
    arc = SimpleNamespace(x_ref=x, states=x[None, :], converged=True)
    assert workloads.transfer_problems(tr, arc, x[None, :], 0.101) == []
    assert len(workloads.transfer_problems(tr, arc, x[None, :], 0.103)) == 1
    drifted = x.copy()
    drifted[0] += 0.2
    assert "differ" in workloads.transfer_problems(tr, arc, drifted[None, :], 0.1)[0]
    arc.converged = False
    assert "converge" in workloads.transfer_problems(tr, arc, x[None, :], 0.1)[0]


def mission_artifacts(tmp_path: Path) -> dict:
    """Scenario plus tour, arcs and report files that pass every check."""
    scn = workloads.build_mission(*workloads.MISSIONS["wide"])
    f = {k: tmp_path / f"{k}.json" for k in ("scenario", "tour", "arcs", "report")}
    save_scenario(scn, f["scenario"])
    model = oracles.TourModel.from_file_dict(json.loads(f["scenario"].read_text()))
    order = min(([0, 1], [1, 0]), key=model.fuel)
    fuels = model.leg_fuels(order)
    f["tour"].write_text(json.dumps({"order": order,
                                     "legs": [{"fuel_kg": x} for x in fuels]}))
    states, controls, dt = synthetic_arc()
    arcs = [{"label": f"leg{i}/phase0.0", "states": states.tolist(),
             "controls_lvlh_kN": controls.tolist(), "dt_s": dt.tolist(),
             "converged": True} for i in range(3)]
    f["arcs"].write_text(json.dumps({"arcs": arcs}))
    d = scenario_to_dict(scn)
    targets = [d["bundles"][j]["target"] for j in order]
    legs = [{"label": f"leg{i}", "achieved_a_km": t["a_km"] + 0.5,
             "achieved_i_deg": t["i_deg"], "pass_sma": True, "pass_inc": True,
             "fuel_numeric_kg": fuels[i]} for i, t in enumerate(targets)]
    legs.append({"label": "leg2", "achieved_a_km": d["decommission_alt_km"] + oracles.RE,
                 "achieved_i_deg": 97.3, "pass_sma": True, "pass_inc": True,
                 "fuel_numeric_kg": fuels[2]})
    f["report"].write_text(json.dumps({"all_passed": True, "legs": legs}))
    return f


def check_mission(f: dict) -> workloads.Round:
    rnd = workloads.Round()
    workloads.MissionPipeline._check("m", f, [0, 0, 0], rnd)
    return rnd


def edit(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def test_mission_check_accepts_good_artifacts(tmp_path):
    rnd = check_mission(mission_artifacts(tmp_path))
    assert (rnd.attempted, rnd.failed, rnd.problems) == (3, 0, [])
    assert rnd.fuel == pytest.approx(rnd.fuel_reference)


@pytest.mark.parametrize("change", [
    # verify exits 0 either way: the verdict comes from report.json
    lambda f: edit(f["report"], lambda d: d["legs"][1].update(pass_inc=False)),
    lambda f: edit(f["report"], lambda d: d["legs"][0].update(achieved_a_km=0.0)),
    lambda f: edit(f["report"], lambda d: d["legs"].pop(2)),
    lambda f: edit(f["arcs"], lambda d: d["arcs"][1].update(converged=False)),
])
def test_mission_check_fails_one_leg(tmp_path, change):
    f = mission_artifacts(tmp_path)
    change(f)
    rnd = check_mission(f)
    assert (rnd.failed, rnd.problems) == (1, [])


@pytest.mark.parametrize("change, message", [
    (lambda d: d.update(order=d["order"][::-1]), "not the cheapest"),
    (lambda d: d["legs"][0].update(fuel_kg=d["legs"][0]["fuel_kg"] * 1.001), "pricer"),
])
def test_mission_check_flags_wrong_tours(tmp_path, change, message):
    f = mission_artifacts(tmp_path)
    edit(f["tour"], change)
    rnd = check_mission(f)
    assert any(message in p for p in rnd.problems)


def test_montecarlo_check(tmp_path):
    out = tmp_path / "mc"
    argv = ["montecarlo", "--n", "2", "--bundles", "13", "--jobs", "1",
            "--seed", "5", "--out-dir", str(out)]
    assert cli.main(argv) in (0, 2)
    rnd = workloads.Round()
    workloads.TourCampaign._check_montecarlo(out, 0, rnd)
    assert (rnd.attempted, rnd.failed, rnd.problems) == (2, 0, [])

    csv_path = out / "montecarlo.csv"
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    col = header.index("fuel_kg")
    row[col] = repr(float(row[col]) * (1 + 1e-6))
    csv_path.write_text("\n".join([lines[0], ",".join(row)]) + "\n")
    edit(out / "tour_0001.json", lambda d: d.update(order=[0] * 13))
    rnd = workloads.Round()
    workloads.TourCampaign._check_montecarlo(out, 0, rnd)
    assert rnd.failed == 1
    assert any("montecarlo.csv fuel" in p for p in rnd.problems)


def test_oracle_check(tmp_path):
    scn = sample_scenario(ScenarioConfig(fixed_bundles=6), 9)
    best = tour.brute_force(scn)
    rnd = workloads.Round()
    workloads.TourCampaign._check_oracle(scn, best, best, 1, rnd)
    assert (rnd.problems, rnd.oracle_matches) == ([], 1)
    assert rnd.fuel == pytest.approx(rnd.fuel_reference)
    worst = max((tour.tour_cost(scn, o) for o in
                 np.random.default_rng(1).permuted(np.tile(np.arange(6), (40, 1)), axis=1)),
                key=lambda t: t.fuel_total)
    rnd = workloads.Round()
    workloads.TourCampaign._check_oracle(scn, worst, best, 1, rnd)
    assert any("beat" in p for p in rnd.problems)


def test_tracer_wraps_where_modules_bind_and_restores():
    original = tour.TourEvaluator.cost_batch
    scn = sample_scenario(ScenarioConfig(fixed_bundles=5), 2)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        tracer.op = "op"
        tour.brute_force(scn)
    finally:
        tracer.restore()
    assert tour.TourEvaluator.cost_batch is original
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["tour.brute_force", "tour.cost_batch", "tour.tour_cost"]
    assert names.count("maneuvers.sequential_mht_nic") == 5
    assert all(s[4] == "op" for s in tracer.spans)
    m = spans.layer_metrics(tracer, 1, [1.0], 1.0)
    assert m["tour.cost_batch_rows"] == math.factorial(5)
    assert 0.0 < m["tour.brute_force_enum_s"] < m["tour.brute_force_s"]


def test_host_clock_samples_inside_calls_and_leaves_its_time_out():
    clock = hostclock.HostClock(interval=0.05)
    previous = signal.getsignal(signal.SIGALRM)
    clock.install()
    try:
        rnd = workloads.Round(clock=clock)
        t0 = time.perf_counter()
        rnd.timed(lambda: sum(i * i for i in range(3_000_000)))
        outer = time.perf_counter() - t0
        untimed = len(clock.samples)
        time.sleep(0.2)   # between calls the clock stays quiet
        assert len(clock.samples) == untimed
    finally:
        clock.uninstall()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(rnd.reference) >= 3   # one at the start, then every 50 ms
    assert rnd.reference == clock.samples
    assert rnd.seconds + sum(rnd.reference) == pytest.approx(outer, abs=0.01)
    assert "clock" not in rnd.record()
    assert hostclock.in_reference_units(2.0, [0.04, 0.06]) == pytest.approx(40.0)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.LAYER_METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "tour_campaign", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
