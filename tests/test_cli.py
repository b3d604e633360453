import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbtour.verify
from conftest import tiny_mission
from orbtour.cli import main
from orbtour.errors import SingularStateError
from orbtour.scenario import save_scenario


def run(args):
    return main([str(a) for a in args])


def run_module(*args, **kwargs):
    """``python -m orbtour.cli args`` in a fresh interpreter that imports
    this checkout's package, installed or not."""
    src = str(Path(orbtour.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "orbtour.cli", *map(str, args)],
                          env=env, **kwargs)


@pytest.fixture(scope="module")
def tiny_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    scn = tiny_mission()
    path = base / "tiny.json"
    save_scenario(scn, path)
    return base, path


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["generate", "--seed", 5, "--out", a]) == 0
    assert run(["generate", "--seed", 5, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.manifest.json").exists()


def test_generate_count_and_inventory(tmp_path):
    out = tmp_path / "batch"
    assert run(["generate", "--seed", 1, "--count", 3, "--out", out]) == 0
    files = sorted(out.glob("scenario_*.json"))
    assert len(files) == 3
    # default manifest: 8 cubesats + 4 pocketqubes + 1 small satellite
    data = json.loads(files[0].read_text())
    classes = [p["class"] for b in data["bundles"] for p in b["payloads"]]
    assert len(classes) == 13
    assert classes.count("cubesat") == 8
    assert classes.count("pocketqube") == 4
    assert classes.count("smallsat") == 1
    # derived seeds differ per file
    assert files[0].read_bytes() != files[1].read_bytes()


def test_generate_config_sets_the_insertion_orbit_in_degrees(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"insertion_inclination_deg": 98.5, "insertion_raan_deg": 30}')
    out, plain = tmp_path / "s.json", tmp_path / "plain.json"
    assert run(["generate", "--seed", 3, "--config", cfg, "--out", out]) == 0
    assert run(["generate", "--seed", 3, "--out", plain]) == 0
    got, default = (json.loads(p.read_text()) for p in (out, plain))
    assert got["insertion"]["i_deg"] == pytest.approx(98.5, abs=1e-12)
    assert got["insertion"]["raan_deg"] == pytest.approx(30.0, abs=1e-12)
    assert default["insertion"]["i_deg"] == pytest.approx(97.0, abs=1e-12)
    assert default["insertion"]["raan_deg"] == pytest.approx(158.0, abs=1e-12)
    # the keys set only the insertion plane: the rest is the same draw
    assert got["insertion"]["a_km"] == default["insertion"]["a_km"]
    assert got["bundles"] == default["bundles"]


def test_solve_exact_matches_brute_force(tmp_path, tiny_paths):
    _, scn_path = tiny_paths
    out = tmp_path / "tour.json"
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", out]) == 0
    data = json.loads(out.read_text())
    from orbtour.scenario import load_scenario
    from orbtour.tour import brute_force
    oracle = brute_force(load_scenario(scn_path))
    assert tuple(data["order"]) == oracle.order
    assert data["feasible"] is True
    assert data["totals"]["fuel_kg"] == pytest.approx(oracle.fuel_total, rel=1e-12)


def test_solve_exact_at_13_bundles_beats_every_competitor(tmp_path):
    from orbtour.optimizer import OptimizerConfig, optimize
    from orbtour.scenario import ScenarioConfig, load_scenario, sample_scenario
    from orbtour.tour import TourEvaluator, heuristic_walks, tour_cost
    scn_path, out = tmp_path / "s.json", tmp_path / "tour.json"
    save_scenario(sample_scenario(ScenarioConfig(fixed_bundles=13), 31), scn_path)
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", out]) == 0
    scn = load_scenario(scn_path)
    order = tuple(json.loads(out.read_text())["order"])
    ev = TourEvaluator(scn)
    fuel = ev.fuel_batch(np.array(order))[0]
    # the fuel the dynamic program minimized is the batch price of its order
    assert ev.exact_order() == (order, fuel)
    # the tour file carries the detailed path's price of that order
    written = json.loads(out.read_text())["totals"]["fuel_kg"]
    assert written == tour_cost(scn, order).fuel_total == pytest.approx(fuel, rel=1e-12)
    rivals = [t.order for t in heuristic_walks(scn).values()]
    rivals += [optimize(scn, OptimizerConfig(seed=k))[0].order for k in range(3)]
    rivals = np.vstack([rivals, np.random.default_rng(31).permuted(
        np.tile(np.arange(13), (10_000, 1)), axis=1)])
    assert ev.fuel_batch(rivals).min() >= fuel


def test_solve_exact_above_the_cap_is_a_one_line_error(tmp_path, capsys):
    from orbtour.scenario import ScenarioConfig, sample_scenario
    from orbtour.tour import MAX_EXACT_BUNDLES
    scn_path = tmp_path / "s.json"
    cfg = ScenarioConfig(n_cubesats=13, n_pocketqubes=4, n_smallsats=0, fixed_bundles=17)
    save_scenario(sample_scenario(cfg, 3), scn_path)
    capsys.readouterr()
    code = run(["solve", "--scenario", scn_path, "--exact", "--out", tmp_path / "t.json"])
    err = capsys.readouterr().err
    assert code == 1 and not (tmp_path / "t.json").exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"limited to {MAX_EXACT_BUNDLES} bundles" in err and "has 17" in err


@pytest.mark.parametrize("option", [["--trace", "t.csv"], ["--seed", "3"],
                                    ["--optimizer-config", "opt.json"],
                                    ["--seed-candidates", "walks"],
                                    ["--seed-tours"]],
                         ids=lambda o: o[0])
def test_solve_exact_refuses_search_options(tiny_paths, tmp_path, monkeypatch, capsys,
                                            option):
    _, scn = tiny_paths
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code = run(["solve", "--scenario", scn, "--exact", "--out", "t.json", *option])
    err = capsys.readouterr().err
    assert code == 1 and not Path("t.json").exists() and not Path("t.csv").exists()
    assert err == f"error: {option[0]} does not apply to solve --exact\n"


def test_solve_deterministic_and_traced(tmp_path):
    scn_file = tmp_path / "s.json"
    run(["generate", "--seed", 2, "--out", scn_file])
    opt = tmp_path / "opt.json"
    opt.write_text('{"generations": 25, "islands": 2, "population": 16}')
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    tr = tmp_path / "trace.csv"
    assert run(["solve", "--scenario", scn_file, "--seed", 7, "--out", a,
                "--optimizer-config", opt, "--trace", tr]) == 0
    assert run(["solve", "--scenario", scn_file, "--seed", 7, "--out", b,
                "--optimizer-config", opt]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = tr.read_text().strip().split("\n")
    assert lines[0] == "generation,island,best_fuel_kg,mean_fuel_kg"
    assert len(lines) == 1 + 25 * 2


def test_solve_seed_comes_from_the_flag_or_the_config(tmp_path):
    scn_file = tmp_path / "s.json"
    run(["generate", "--seed", 2, "--out", scn_file])
    traces = {}
    for seed in (5, 77):
        opt = tmp_path / f"opt{seed}.json"
        opt.write_text(f'{{"generations": 5, "islands": 2, "population": 16, "seed": {seed}}}')
        out = tmp_path / f"t{seed}.json"
        assert run(["solve", "--scenario", scn_file, "--optimizer-config", opt,
                    "--out", out, "--trace", tmp_path / f"tr{seed}.csv"]) == 0
        traces[seed] = (tmp_path / f"tr{seed}.csv").read_bytes()
        manifest = json.loads((tmp_path / f"t{seed}.json.manifest.json").read_text())
        assert manifest["seeds"] == {"seed": seed}
    assert traces[5] != traces[77]
    # with no flag and no config the seed is 0
    outputs = []
    for name, flag in (("bare", []), ("zero", ["--seed", 0])):
        assert run(["solve", "--scenario", scn_file, "--out", tmp_path / f"{name}.json",
                    "--trace", tmp_path / f"{name}.csv"] + flag) == 0
        outputs.append([(tmp_path / f"{name}{ext}").read_bytes()
                        for ext in (".json", ".csv")])
    assert outputs[0] == outputs[1]


def test_solve_seeded_with_walks(tmp_path, tiny_paths):
    _, scn_path = tiny_paths
    opt = tmp_path / "opt.json"
    opt.write_text('{"generations": 10, "islands": 2, "population": 12}')
    out = tmp_path / "seeded.json"
    assert run(["solve", "--scenario", scn_path, "--seed", 1, "--out", out,
                "--optimizer-config", opt, "--seed-candidates", "walks"]) == 0
    from orbtour.scenario import load_scenario
    from orbtour.tour import heuristic_walks
    best_walk = min(t.cost for t in heuristic_walks(load_scenario(scn_path)).values())
    assert json.loads(out.read_text())["cost"] <= best_walk + 1e-12


def test_solve_infeasible_exit_code(tmp_path):
    import dataclasses
    from orbtour.scenario import SpacecraftSpec
    scn = tiny_mission()
    scn = dataclasses.replace(scn, spacecraft=SpacecraftSpec(fuel_mass=0.05))
    path = tmp_path / "poor.json"
    save_scenario(scn, path)
    out = tmp_path / "tour.json"
    assert run(["solve", "--scenario", path, "--exact", "--out", out]) == 2
    assert json.loads(out.read_text())["feasible"] is False


def test_refine_and_verify_pipeline(tmp_path, tiny_paths, monkeypatch):
    _, scn_path = tiny_paths
    tour = tmp_path / "tour.json"
    arcs = tmp_path / "arcs.json"
    report = tmp_path / "report.json"
    csvp = tmp_path / "report.csv"
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", tour]) == 0
    # refine walks the estimator chain once: one estimate per bundle leg
    import orbtour.tour
    estimate = orbtour.tour.sequential_mht_nic
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(orbtour.tour, "sequential_mht_nic", counted)
    assert run(["refine", "--tour", tour, "--scenario", scn_path,
                "--out", arcs]) == 0
    assert len(calls) == len(json.loads(tour.read_text())["order"])
    assert run(["verify", "--arcs", arcs, "--tour", tour, "--scenario", scn_path,
                "--out", report, "--csv", csvp]) == 0
    data = json.loads(report.read_text())
    assert data["all_passed"] is True
    assert csvp.read_text().count("\n") == len(data["legs"]) + 1
    # a failed verification completes its report but says so in the exit code
    strict = tmp_path / "strict.json"
    with monkeypatch.context() as m:
        m.setattr(orbtour.verify, "TOL_SMA_KM", 1e-9)
        assert run(["verify", "--arcs", arcs, "--tour", tour, "--scenario", scn_path,
                    "--out", strict]) == 4
    assert json.loads(strict.read_text())["all_passed"] is False
    # refinement is a deterministic pipeline stage: an identical rerun, here
    # in a fresh process, writes identical bytes and a manifest that differs
    # only in the wall time
    manifest = tmp_path / "arcs.json.manifest.json"
    first_arcs, first_manifest = arcs.read_bytes(), json.loads(manifest.read_text())
    proc = run_module("refine", "--tour", tour, "--scenario", scn_path, "--out", arcs)
    assert proc.returncode == 0
    assert arcs.read_bytes() == first_arcs
    second_manifest = json.loads(manifest.read_text())
    for m in (first_manifest, second_manifest):
        del m["wall_time_s"]
    assert first_manifest == second_manifest


def test_refine_and_verify_jobs_write_identical_bytes(tmp_path, tiny_paths):
    # legs and arcs are independent, so worker processes change no byte
    _, scn_path = tiny_paths
    tour = tmp_path / "tour.json"
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", tour]) == 0
    codes = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        codes.append((
            run(["refine", "--tour", tour, "--scenario", scn_path, "--jobs", jobs,
                 "--out", out / "arcs.json"]),
            run(["verify", "--arcs", out / "arcs.json", "--tour", tour,
                 "--scenario", scn_path, "--jobs", jobs, "--out", out / "report.json",
                 "--csv", out / "report.csv"])))
    assert codes[0] == codes[1]
    for name in ("arcs.json", "report.json", "report.csv"):
        assert (tmp_path / "jobs1" / name).read_bytes() == \
            (tmp_path / "jobs2" / name).read_bytes()
    assert multiprocessing.active_children() == []


def test_a_failing_leg_fails_refine_alike_on_one_or_two_jobs(tmp_path, tiny_paths,
                                                            capsys, monkeypatch):
    # leg1's refinement raises; workers fork, so they see the patch
    import orbtour.scp
    refine_arc = orbtour.scp.refine_arc

    def failing(*args, **kwargs):
        if kwargs["label"].startswith("leg1/"):
            raise SingularStateError(f"{kwargs['label']}: w = -0.5 <= 0")
        return refine_arc(*args, **kwargs)

    _, scn_path = tiny_paths
    tour = tmp_path / "tour.json"
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", tour]) == 0
    capsys.readouterr()
    monkeypatch.setattr(orbtour.scp, "refine_arc", failing)
    results = []
    for jobs in (1, 2):
        code = run(["refine", "--tour", tour, "--scenario", scn_path, "--jobs", jobs,
                    "--out", tmp_path / "arcs.json"])
        results.append((code, capsys.readouterr().err))
    assert results[0] == results[1] == (1, "error: leg1/phase0.0: w = -0.5 <= 0\n")
    assert multiprocessing.active_children() == []


def test_refine_with_unconverged_arcs_writes_them_and_exits_3(tmp_path, tiny_paths,
                                                              capsys, monkeypatch):
    # one SCP iteration leaves three of the tiny tour's arcs short of the
    # stopping test: a partial refinement, written and named, not an error
    import orbtour.scp
    _, scn_path = tiny_paths
    tour = tmp_path / "tour.json"
    arcs = tmp_path / "arcs.json"
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", tour]) == 0
    capsys.readouterr()
    monkeypatch.setattr(orbtour.scp, "MAX_ITERATIONS", 1)
    assert run(["refine", "--tour", tour, "--scenario", scn_path, "--jobs", 1,
                "--out", arcs]) == 3
    bad = ["leg0/phase1.0", "leg1/phase0.0", "leg1/phase1.0"]
    assert capsys.readouterr().err == (f"refine: 3 arc(s) did not converge: "
                                       f"{', '.join(bad)}\n")
    records = json.loads(arcs.read_text())["arcs"]
    assert [a["label"] for a in records if not a["converged"]] == bad
    assert all(a["iterations"] == 1 for a in records)


COUNT_OPTIONS = {"refine": ("refine", "--jobs"), "verify": ("verify", "--jobs"),
                 "montecarlo": ("montecarlo", "--jobs"),
                 "generate-count": ("generate", "--count"),
                 "montecarlo-n": ("montecarlo", "--n")}


@pytest.mark.parametrize("command, option, value, low", [
    *(pytest.param(command, option, value, 1, id=f"{value}-{name}")
      for value in ("0", "-1", "two")
      for name, (command, option) in COUNT_OPTIONS.items()),
    pytest.param("solve", "--seed", "-1", 0, id="-1-solve-seed"),
    pytest.param("generate", "--seed", "-2", 0, id="-2-generate-seed"),
    pytest.param("montecarlo", "--seed", "-3", 0, id="-3-montecarlo-seed"),
    pytest.param("solve", "--seed", "one", 0, id="one-solve-seed")])
def test_jobs_below_one_is_a_usage_error(command, option, value, low, capsys):
    # a count below 1 would write an empty result and exit 0, and a negative
    # seed fails inside numpy with a message that names no input; a usage
    # error exits 1, not 2, which means an infeasible tour
    with pytest.raises(SystemExit) as exc:
        run([command, option, value])
    assert exc.value.code == 1
    assert f"argument {option}: expected an integer >= {low}, got '{value}'" in \
        capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


@pytest.mark.parametrize("option, value", [("--tol-sma", "1"), ("--tol-inc", "1"),
                                           ("--step", "5")])
def test_verify_gates_and_step_are_not_options(option, value, capsys):
    # verify checks the fixed mission requirements at a fixed RK4 step
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--arcs", "a.json", "--tour", "t.json", "--scenario", "s.json",
             "--out", "r.json", option, value])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


def test_montecarlo_and_report(tmp_path):
    outdir = tmp_path / "mc"
    # small optimizer config for speed
    opt = tmp_path / "opt.json"
    opt.write_text('{"generations": 15, "islands": 2, "population": 12}')
    assert run(["montecarlo", "--n", 4, "--seed", 3, "--out-dir", outdir,
                "--jobs", 1, "--optimizer-config", opt]) == 0
    rows = (outdir / "montecarlo.csv").read_text().strip().split("\n")
    assert len(rows) == 5
    header = rows[0].split(",")
    for col in ("n_bundles", "fuel_kg", "min_payload_mass_kg", "sma_std_km",
                "sma_range_km", "inc_std_deg", "inc_range_deg"):
        assert col in header
    assert sorted(p.name for p in outdir.glob("tour_*.json")) == [
        f"tour_{i:04d}.json" for i in range(4)]
    assert run(["report", "--dir", outdir, "--out", tmp_path / "sum.csv"]) == 0
    manifest = json.loads((tmp_path / "sum.csv.manifest.json").read_text())
    assert manifest["command"] == "report"
    assert manifest["outputs"] == [str(tmp_path / "sum.csv")]
    assert [i["path"] for i in manifest["inputs"]] == [str(outdir / "montecarlo.csv")]

    # parallel run produces identical bytes (per-task seeds, ordered collection)
    outdir2 = tmp_path / "mc2"
    assert run(["montecarlo", "--n", 4, "--seed", 3, "--out-dir", outdir2,
                "--jobs", 2, "--optimizer-config", opt]) == 0
    assert (outdir / "montecarlo.csv").read_bytes() == \
        (outdir2 / "montecarlo.csv").read_bytes()


def test_montecarlo_failed_scenario_is_reported(tmp_path, capsys, monkeypatch):
    # scenario 1 fails in the exact search; serial and parallel runs report
    # it the same way and keep the other rows (workers fork, so see the patch)
    from orbtour import cli
    real = cli.brute_force
    bad_seed = cli.derived_seed(3, 2 * 1)

    def brute_force(scn, **kwargs):
        if scn.seed == bad_seed:
            raise RuntimeError("injected failure")
        return real(scn, **kwargs)

    monkeypatch.setattr(cli, "brute_force", brute_force)
    opt = tmp_path / "opt.json"
    opt.write_text('{"generations": 5, "islands": 2, "population": 8}')
    errs, tables = [], []
    for jobs in (1, 2):
        out = tmp_path / f"mc{jobs}"
        assert run(["montecarlo", "--n", 3, "--seed", 3, "--out-dir", out,
                    "--jobs", jobs, "--optimizer-config", opt]) == 1
        errs.append(capsys.readouterr().err)
        tables.append((out / "montecarlo.csv").read_bytes())
        assert sorted(p.name for p in out.glob("tour_*.json")) == [
            "tour_0000.json", "tour_0002.json"]
    assert errs[0] == errs[1] == "montecarlo: scenario 1 failed: injected failure\n"
    assert tables[0] == tables[1] and len(tables[0].splitlines()) == 3


def test_montecarlo_prices_default_scenarios_exactly(tmp_path):
    # every default scenario has at most 13 bundles, under the crossover, so
    # each tour is the dynamic program's optimum, in serial and in parallel;
    # the default island search misses scenario 1 of seed 10 by 0.42 kg
    from orbtour.scenario import ScenarioConfig, sample_scenario
    from orbtour.tour import EXACT_CROSSOVER, brute_force
    assert ScenarioConfig().n_payloads <= EXACT_CROSSOVER
    outs = [tmp_path / "mc1", tmp_path / "mc2"]
    for jobs, out in zip((1, 2), outs):
        assert run(["montecarlo", "--n", 4, "--seed", 10, "--out-dir", out,
                    "--jobs", jobs]) in (0, 2)
    lines = (outs[0] / "montecarlo.csv").read_text().splitlines()[1:]
    assert len(lines) == 4
    for line in lines:
        index, seed = (int(cell) for cell in line.split(",")[:2])
        tour = json.loads((outs[0] / f"tour_{index:04d}.json").read_text())
        exact = brute_force(sample_scenario(ScenarioConfig(), seed))
        assert tuple(tour["order"]) == exact.order, index
    for name in ["montecarlo.csv"] + [f"tour_{i:04d}.json" for i in range(4)]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_montecarlo_searches_above_the_crossover(tmp_path):
    # 15 bundles lie above the crossover: the tour is the island search's,
    # under the scenario's optimizer seed; this short search misses the optimum
    from orbtour.cli import derived_seed
    from orbtour.optimizer import OptimizerConfig, optimize
    from orbtour.scenario import ScenarioConfig, sample_scenario
    from orbtour.tour import EXACT_CROSSOVER, brute_force
    config = ScenarioConfig(n_cubesats=10, fixed_bundles=15)
    assert config.fixed_bundles > EXACT_CROSSOVER
    cfg, opt = tmp_path / "cfg.json", tmp_path / "opt.json"
    cfg.write_text('{"n_cubesats": 10}')
    opt.write_text('{"generations": 5, "islands": 2, "population": 8}')
    out = tmp_path / "mc"
    assert run(["montecarlo", "--config", cfg, "--bundles", 15, "--n", 1,
                "--seed", 3, "--jobs", 1, "--optimizer-config", opt,
                "--out-dir", out]) in (0, 2)
    tour = json.loads((out / "tour_0000.json").read_text())
    scn = sample_scenario(config, derived_seed(3, 0))
    best, _ = optimize(scn, OptimizerConfig(generations=5, islands=2, population=8,
                                            seed=derived_seed(3, 1)))
    assert tuple(tour["order"]) == best.order != brute_force(scn).order


def test_bundle_count_drives_mission_cost():
    # batch statistic behind the montecarlo summary: deployments dominate cost
    from orbtour.optimizer import OptimizerConfig, optimize
    from orbtour.scenario import ScenarioConfig, sample_scenario
    counts, fuels = [], []
    for k in range(80):
        scn = sample_scenario(ScenarioConfig(), seed=90000 + k)
        best, _ = optimize(scn, OptimizerConfig(seed=k, generations=100))
        counts.append(scn.n_bundles)
        fuels.append(best.fuel_total)
    assert np.corrcoef(counts, fuels)[0, 1] > 0.5


def test_constants_env_override(tmp_path, monkeypatch):
    consts = tmp_path / "c.json"
    consts.write_text('{"mu": 400000.0}')
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert run(["generate", "--seed", 4, "--out", out1]) == 0
    monkeypatch.setenv("ORBTOUR_CONSTANTS", str(consts))
    assert run(["generate", "--seed", 4, "--out", out2]) == 0
    # a different gravity constant moves the sun-synchronous band
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    assert (d1["bundles"][0]["target"]["i_deg"]
            != d2["bundles"][0]["target"]["i_deg"])


def test_error_exit_code(tmp_path):
    assert run(["solve", "--scenario", tmp_path / "missing.json",
                "--exact", "--out", tmp_path / "t.json"]) == 1


def test_report_without_rows_is_an_error(tmp_path, capsys):
    outdir = tmp_path / "mc"
    outdir.mkdir()
    (outdir / "montecarlo.csv").write_text("scenario,seed,n_bundles,fuel_kg\n")
    assert run(["report", "--dir", outdir]) == 1
    err = capsys.readouterr().err
    assert "no rows" in err and len(err.strip().splitlines()) == 1
    assert not (outdir / "summary.csv").exists()
    # so do a missing column, a value that is not a number, a feasibility
    # that is neither True nor False and a row shorter than its header
    for text, what in (("scenario,seed,fuel_kg,feasible\n0,1,2.5,True\n", "n_bundles"),
                       ("scenario,seed,n_bundles,fuel_kg,feasible\n0,1,2,abc,True\n",
                        "abc"),
                       ("scenario,seed,n_bundles,fuel_kg,feasible\n0,1,2,2.5,maybe\n",
                        "'maybe'"),
                       ("scenario,seed,n_bundles,fuel_kg,feasible\n0,1,2,2.5,True\n"
                        "0,1\n", "row 2 is short")):
        (outdir / "montecarlo.csv").write_text(text)
        assert run(["report", "--dir", outdir]) == 1
        err = capsys.readouterr().err
        assert str(outdir / "montecarlo.csv") in err and what in err
        assert len(err.strip().splitlines()) == 1
        assert not (outdir / "summary.csv").exists()


@pytest.mark.parametrize("where, text", [
    ("config", '{"spacecraft": {"wet_mass": 235.0}}'),
    ("config", '{"n_cubesats": 2.5}'),
    ("optimizer", '{"population": 2.5}'),
    ("optimizer", '{"islands": true}'),
    ("optimizer", '{"seed": 1.5}'),
    ("constants", '{"j2": true}'),
], ids=["spacecraft", "n_cubesats", "population", "islands", "seed", "j2"])
def test_config_value_of_the_wrong_type_is_an_error(where, text, tmp_path, tiny_paths,
                                                    capsys, monkeypatch):
    # a bool is not a number, a float is not an int, and the spacecraft
    # cannot be set from a file
    _, scn_path = tiny_paths
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = {"config": ["generate", "--config", cfg],
            "optimizer": ["solve", "--scenario", scn_path, "--optimizer-config", cfg],
            "constants": ["generate"]}[where]
    if where == "constants":
        monkeypatch.setenv("ORBTOUR_CONSTANTS", str(cfg))
    assert run(argv + ["--out", tmp_path / "o.json"]) == 1
    err = capsys.readouterr().err
    key = next(iter(json.loads(text)))
    assert str(cfg) in err and repr(key) in err and len(err.strip().splitlines()) == 1


def test_unknown_config_keys_rejected(tmp_path, tiny_paths, capsys, monkeypatch):
    _, scn_path = tiny_paths
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"migration_cnt": 2}')
    assert run(["solve", "--scenario", scn_path, "--optimizer-config", cfg,
                "--out", tmp_path / "t.json"]) == 1
    assert "migration_cnt" in capsys.readouterr().err
    assert run(["generate", "--config", cfg, "--out", tmp_path / "s.json"]) == 1
    assert "migration_cnt" in capsys.readouterr().err
    # the GA hyperparameters are constants, not config keys
    cfg.write_text('{"mutation_rate": 0.2}')
    assert run(["solve", "--scenario", scn_path, "--optimizer-config", cfg,
                "--out", tmp_path / "t.json"]) == 1
    err = capsys.readouterr().err
    assert "mutation_rate" in err and str(cfg) in err
    # a config that is not an object, is not JSON, or holds a value of the
    # wrong type gives a one-line error naming the file
    for command, text in ((["generate", "--config"], '[1]'),
                          (["generate", "--config"], '{bad'),
                          (["solve", "--scenario", scn_path, "--optimizer-config"],
                           '{"generations": "ten"}'),
                          (["solve", "--scenario", scn_path, "--optimizer-config"],
                           '{"islands": 0}'),
                          (["solve", "--scenario", scn_path, "--optimizer-config"],
                           '{"seed": -5}'),
                          (["generate", "--config"], '{"fixed_bundles": "x"}')):
        cfg.write_text(text)
        assert run(command + [cfg, "--out", tmp_path / "o.json"]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and len(err.strip().splitlines()) == 1
    # montecarlo reads the optimizer config once, before any scenario runs
    cfg.write_text('{"islands": 0}')
    assert run(["montecarlo", "--n", 2, "--jobs", 1, "--out-dir", tmp_path / "mc",
                "--optimizer-config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}: bad OptimizerConfig value: island" in err
    assert len(err.strip().splitlines()) == 1
    # so does a constants file with an unknown key
    cfg.write_text('{"mu_typo": 1}')
    monkeypatch.setenv("ORBTOUR_CONSTANTS", str(cfg))
    assert run(["generate", "--out", tmp_path / "o.json"]) == 1
    err = capsys.readouterr().err
    assert "mu_typo" in err and str(cfg) in err and len(err.strip().splitlines()) == 1


def test_algorithms_is_an_unknown_optimizer_key(tmp_path, tiny_paths, capsys):
    # every island runs the GA, so the key that chose island algorithms is gone
    _, scn_path = tiny_paths
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"algorithms": ["ga"]}')
    for argv in (["solve", "--scenario", scn_path, "--out", tmp_path / "t.json"],
                 ["montecarlo", "--n", 2, "--jobs", 1, "--out-dir", tmp_path / "mc"]):
        assert run(argv + ["--optimizer-config", cfg]) == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: {cfg}: unknown OptimizerConfig key(s): algorithms"


def test_bundle_count_out_of_range_names_value_and_range(tmp_path, capsys):
    # the default manifest has 13 payloads and at least 2 bundles
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"fixed_bundles": 99}')
    for argv, bad in ((["montecarlo", "--n", 1, "--jobs", 1, "--bundles", 0,
                        "--out-dir", tmp_path / "mc"], 0),
                      (["generate", "--config", cfg, "--out", tmp_path / "s.json"], 99)):
        assert run(argv) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.endswith(f"fixed_bundles must be in [2, 13], got {bad}")


@pytest.mark.parametrize("text, message", [
    ('{"n_cubesats": -3}', "n_cubesats must be >= 0, got -3"),
    ('{"n_cubesats": 1, "n_pocketqubes": 0, "n_smallsats": 0}',
     "n_cubesats + n_pocketqubes + n_smallsats must be >= 2, got 1"),
    ('{"min_bundles": 20}', "min_bundles must be in [1, 13], got 20"),
    ('{"min_bundles": 0}', "min_bundles must be in [1, 13], got 0"),
    ('{"altitude_spread": -400}', "altitude_spread must be >= 0, got -400"),
    ('{"mass_spread": -1}', "mass_spread must be >= 0, got -1"),
    # each of these once generated a scenario that the loader or solve
    # refused, or failed naming no key
    ('{"decommission_altitude": -100}', "decommission_altitude must be > 0, got -100"),
    ('{"decommission_altitude": 0}', "decommission_altitude must be > 0, got 0"),
    ('{"insertion_altitude": -7000}', "insertion_altitude must be > 0, got -7000"),
    ('{"altitude_spread": 600}', "nominal_altitude - altitude_spread must be > 0, got -100.0"),
    ('{"insertion_inclination_deg": 180}',
     "insertion_inclination_deg must be in [0, 180), got 180"),
    ('{"insertion_inclination_deg": -1}',
     "insertion_inclination_deg must be in [0, 180), got -1")],
    ids=["n_cubesats", "n_payloads", "min_bundles-high", "min_bundles-low",
         "altitude_spread", "mass_spread", "decommission_altitude-negative",
         "decommission_altitude-zero", "insertion_altitude", "altitude_spread-below-surface",
         "insertion_inclination_deg-high", "insertion_inclination_deg-negative"])
def test_generate_config_out_of_range_names_the_key(tmp_path, capsys, text, message):
    # "n_cubesats": -3 once sampled a 5-payload inventory that reported 2
    # payloads, and the others failed in numpy with text naming no key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(["generate", "--config", cfg, "--out", tmp_path / "s.json"]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: bad ScenarioConfig value: {message}\n"
    assert not (tmp_path / "s.json").exists()


def arc_record(label: str = "leg0/phase0.0", stages: int = 1, **fields) -> dict:
    """An arcs.json arc of ``stages`` coast stages, with ``fields`` replaced."""
    x = [7000.0, 0, 0, 0, 0, 0, 235.0]
    return {"label": label, "states": [x] * (stages + 1),
            "controls_lvlh_kN": [[0.0, 0.0, 0.0]] * stages, "dt_s": [60.0] * stages,
            "dv_mps": 0.0, "iterations": 1, "converged": True, "objective": 0.0,
            "x_ref": x, "objective_history": [0.0], **fields}


def test_verify_rejects_a_file_that_is_not_arcs(tmp_path, tiny_paths, capsys):
    _, scn_path = tiny_paths
    tour = tmp_path / "tour.json"
    old = tmp_path / "old.json"
    old.write_text('{"version": 1, "arcs": []}')
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 2, "arcs": [{"label": "leg0/phase0.0"}]}')
    scalar = tmp_path / "scalar.json"
    scalar.write_text("5")
    broken = tmp_path / "broken.json"
    broken.write_text("{bad")
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", tour]) == 0
    capsys.readouterr()
    cases = [(tour, tour, "not an arcs record"),
             (old, tour, "version 1"),
             (bad, tour, "malformed arc record"),
             (broken, tour, f"invalid JSON in {broken}"),
             (old, scalar, f"{scalar}: expected a JSON object")]
    # every array must be numbers of its stage count's shape, and the label
    # a string
    arc0 = "arc 'leg0/phase0.0':"
    for i, (arc, text) in enumerate((
            (arc_record(states=[]), f"{arc0} states must be numbers of shape (2, 7)"),
            (arc_record(stages=2, controls_lvlh_kN=[[0.0, 0.0, 0.0]]),
             f"{arc0} controls_lvlh_kN must be numbers of shape (2, 3)"),
            (arc_record(dt_s=["60"]), f"{arc0} dt_s must be numbers of shape (1,)"),
            (arc_record(x_ref=[7000.0] * 6), f"{arc0} x_ref must be numbers of shape (7,)"),
            (arc_record(states=[[7000.0] * 7, [7000.0] * 6]), "malformed arc record"),
            (arc_record(label=5), "arc label 5 is not a string"),
            # stage durations: finite, non-negative, at most one period
            # (5,828 s at p = 7000 km), checked before any propagation
            (arc_record(dt_s=[float("nan")]), f"{arc0} dt_s must lie in [0, 5828.5] s"),
            (arc_record(dt_s=[-5.0]), f"{arc0} dt_s must lie in [0, 5828.5] s"),
            (arc_record(dt_s=[1e8]), f"{arc0} dt_s must lie in [0, 5828.5] s"),
            (arc_record(states=[[7000.0, 1.0, 0, 0, 0, 0, 235.0]] * 2),
             f"{arc0} states[0] is not a closed orbit"))):
        shaped = tmp_path / f"shape{i}.json"
        shaped.write_text(json.dumps({"version": 2, "arcs": [arc]}))
        cases.append((shaped, tour, f"{shaped}: {text}"))
    for arcs, tour_in, text in cases:
        assert run(["verify", "--arcs", arcs, "--tour", tour_in, "--scenario",
                    scn_path, "--out", tmp_path / "report.json"]) == 1
        err = capsys.readouterr().err
        assert text in err and len(err.strip().splitlines()) == 1
    # refine reads its tour the same way
    assert run(["refine", "--tour", scalar, "--scenario", scn_path,
                "--out", tmp_path / "arcs.json"]) == 1
    err = capsys.readouterr().err
    assert str(scalar) in err and len(err.strip().splitlines()) == 1
    # a tour order that is missing or not a list of integers names the file
    order = tmp_path / "order.json"
    for text in ('{"tour": [0, 1]}', '{"order": 5}', '{"order": ["a", "b"]}',
                 '{"order": [0.7, 1.2]}', '{"order": [true, false]}'):
        order.write_text(text)
        for command in (["verify", "--arcs", old], ["refine"]):
            assert run(command + ["--tour", order, "--scenario", scn_path,
                                  "--out", tmp_path / "o.json"]) == 1, (command, text)
            err = capsys.readouterr().err
            assert str(order) in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("key, value, kind", [
    ("converged", "no", "a bool"), ("converged", 1, "a bool"),
    ("iterations", 2.5, "an integer"), ("iterations", True, "an integer"),
    ("objective", "x", "a number"), ("objective", None, "a number"),
    ("t0_s", "0", "a number"), ("t0_s", False, "a number"),
    ("objective_history", "abc", "a list of numbers"),
    ("objective_history", [0.0, "1"], "a list of numbers"),
    ("objective_history", {"0": 0.0}, "a list of numbers")])
def test_verify_rejects_a_scalar_field_of_the_wrong_type(tmp_path, tiny_paths, capsys,
                                                         key, value, kind):
    # "converged": "no" loaded as truthy, and "objective_history": "abc"
    # loaded as ['a', 'b', 'c'] and saved back as another file
    _, scn_path = tiny_paths
    tour = tmp_path / "tour.json"
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", tour]) == 0
    arcs = tmp_path / "arcs.json"
    arcs.write_text(json.dumps({"version": 2, "arcs": [arc_record(**{key: value})]}))
    capsys.readouterr()
    assert run(["verify", "--arcs", arcs, "--tour", tour, "--scenario", scn_path,
                "--out", tmp_path / "report.json"]) == 1
    assert capsys.readouterr().err == (f"error: {arcs}: malformed arc record: arc "
                                       f"'leg0/phase0.0': {key} must be {kind}, got "
                                       f"{json.dumps(value)}\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("label", ["leg7/phase0.0", "leg3", "arc", "legx/phase0.0"])
def test_verify_rejects_an_arc_label_that_names_no_leg(tmp_path, tiny_paths, capsys,
                                                       label):
    # the tiny tour has legs 0 to 2: two bundles and the decommissioning
    _, scn_path = tiny_paths
    tour = tmp_path / "tour.json"
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", tour]) == 0
    arcs = tmp_path / "arcs.json"
    arcs.write_text(json.dumps({"version": 2, "arcs": [arc_record(label)]}))
    capsys.readouterr()
    assert run(["verify", "--arcs", arcs, "--tour", tour, "--scenario", scn_path,
                "--out", tmp_path / "report.json"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {arcs}: arc label {label!r} names no leg of the tour "
                   f"(leg0 to leg2)\n")


@pytest.mark.parametrize("labels, missing", [
    ([], "leg0, leg1, leg2"), (["leg0/phase0.0", "leg0/phase1.0"], "leg1, leg2")],
    ids=["no-arcs", "leg0-only"])
def test_verify_rejects_arcs_that_leave_a_burning_leg_unrefined(tmp_path, tiny_paths,
                                                               capsys, labels, missing):
    # every leg of the tiny tour burns; a report without some of them would
    # pass only the legs it has
    _, scn_path = tiny_paths
    tour = tmp_path / "tour.json"
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", tour]) == 0
    arcs = tmp_path / "arcs.json"
    arcs.write_text(json.dumps({"version": 2, "arcs": [arc_record(label) for label in labels]}))
    capsys.readouterr()
    assert run(["verify", "--arcs", arcs, "--tour", tour, "--scenario", scn_path,
                "--out", tmp_path / "report.json"]) == 1
    assert capsys.readouterr().err == (f"error: {arcs}: no arc refines {missing}, "
                                       "which the tour says must burn\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("path, value, text", [
    ("spacecraft.thruster.cluster", 2.5, "an integer, got 2.5"),
    ("spacecraft.thruster.t_on_s", True, "a number, got True"),
    ("spacecraft.thruster.thrust_n", True, "a number, got True"),
    ("spacecraft.wet_mass_kg", "235", "a number, got '235'"),
    ("bundles.0.payloads.1.mass_kg", False, "a number, got False"),
    ("bundles.1.payloads.0.class", 5, "a string, got 5"),
    ("insertion.e", None, "a number, got None"),
    ("bundles.1.target.a_km", True, "a number, got True"),
    ("decommission_alt_km", "460", "a number, got '460'"),
    ("seed", "abc", "an integer or null, got 'abc'"),
    ("seed", 1.0, "an integer or null, got 1.0")])
def test_a_scenario_value_of_the_wrong_json_type_is_an_error(tmp_path, tiny_paths, capsys,
                                                             path, value, text):
    # a bool is not a number and a float is not an int: "cluster": 2.5 once
    # scaled the thrust by 2.5, "t_on_s": true loaded as 1 s, and "seed":
    # "abc" was written back to the next scenario file; the message names
    # the key by its dotted path
    _, scn_path = tiny_paths
    tour = tmp_path / "tour.json"
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", tour]) == 0
    record = json.loads(scn_path.read_text())
    *parents, key = path.split(".")
    node = record
    for step in parents:
        node = node[int(step) if step.isdigit() else step]
    node[key] = value
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(record))
    capsys.readouterr()
    for command in (["refine", "--tour", tour],
                    ["verify", "--arcs", tmp_path / "arcs.json", "--tour", tour]):
        assert run(command + ["--scenario", bad, "--out", tmp_path / "o.json"]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {path} must be {text}\n"


def test_a_bad_scenario_or_tour_order_names_its_file(tmp_path, tiny_paths, capsys):
    _, scn_path = tiny_paths
    tour = tmp_path / "tour.json"
    assert run(["solve", "--scenario", scn_path, "--exact", "--out", tour]) == 0
    capsys.readouterr()

    def without_spacecraft(d):
        del d["spacecraft"]

    def hyperbolic(d):
        d["bundles"][0]["target"]["e"] = 1.5

    def rock(d):
        d["bundles"][0]["payloads"][0]["class"] = "rock"

    def no_bundles(d):
        d["bundles"] = []

    def retrograde_insertion(d):
        d["insertion"]["i_deg"] = 180.0

    def retrograde_target(d):
        d["bundles"][1]["target"]["i_deg"] = 180.0

    def no_radius(d):
        del d["bundles"][1]["target"]["a_km"]

    def underground(d):
        d["decommission_alt_km"] = -7000.0

    def epoch_text(d):
        d["epoch0_s"] = "x"

    def endless_isp(d):
        d["spacecraft"]["thruster"]["isp_s"] = float("inf")

    bad = tmp_path / "scenario.json"
    for edit, text in ((without_spacecraft, "'spacecraft'"),
                       (hyperbolic, "bundles[0].target: eccentricity must be in [0, 1), got 1.5"),
                       (rock, "unknown payload class 'rock'"),
                       (no_bundles, "bundle count"),
                       (retrograde_insertion, "insertion: i_deg must be below 180, got 180.0"),
                       (retrograde_target, "bundles[1].target: i_deg must be below 180, got 180.0"),
                       (no_radius,
                        "bundles[1].target: orbit record missing field 'a_km'"),
                       (underground, "decommission_alt_km must be positive, got -7000.0"),
                       (epoch_text, "epoch0_s must be a number, got 'x'"),
                       (endless_isp, "spacecraft.thruster.isp_s must be a finite number")):
        record = json.loads(scn_path.read_text())
        edit(record)
        bad.write_text(json.dumps(record))
        assert run(["solve", "--exact", "--scenario", bad, "--out", tmp_path / "o.json"]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: " in err and text in err and len(err.strip().splitlines()) == 1
    # an order that is not a permutation of the scenario's two bundles
    order = tmp_path / "order.json"
    for text in ('{"order": [0, 0]}', '{"order": [0, 1, 2]}', '{"order": []}'):
        order.write_text(text)
        for command in (["refine", "--tour", order],
                        ["verify", "--arcs", tmp_path / "arcs.json", "--tour", order],
                        ["solve", "--seed-tours", order]):
            assert run(command + ["--scenario", scn_path,
                                  "--out", tmp_path / "o.json"]) == 1, (command, text)
            err = capsys.readouterr().err
            assert f"{order}: tour order" in err and "not a permutation" in err
            assert len(err.strip().splitlines()) == 1


def test_console_entry_point(tiny_paths):
    _, scn_path = tiny_paths
    proc = run_module("--help", capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "montecarlo" in proc.stdout