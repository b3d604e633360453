"""The traced benchmark run wraps functions where orbtour's modules bind
them and reads their arguments by parameter name, so a renamed function or
parameter breaks it only at run time.  This drives each wrapped binding the
counters depend on once, through ``perfbench/spans.py`` as it stands, one
refined arc, whose every sequential roll the benchmark must count, and two
small island searches and the exact oracle, whose spans nest each search's
priced batches under it, one per generation."""
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np

import orbtour
from orbtour import cli, ocp, optimizer, propagate, scp, tour, verify
from orbtour.constants import EARTH
from orbtour.elements import KeplerianState, SpacecraftState, kep_to_mee
from orbtour.maneuvers import ThrusterSpec, mht_estimate
from orbtour.propagate import PropagatorConfig
from orbtour.scenario import ScenarioConfig, sample_scenario

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_benchmark_counters_read_the_arguments_they_name(monkeypatch, tmp_path):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    state = SpacecraftState(kep_to_mee(KeplerianState(7000.0, 0.0, 1.0, 0.0, 0.0, 0.0)),
                            235.0)
    x = np.array([[7000.0, 0.0, 0.0, 0.1, 0.2, 0.3, 235.0]])
    u = np.array([[0.0, 0.0126, 0.0]])
    try:
        scp.propagate_numeric(state, u, np.array([25.0]), 277.0)
        verify.propagate_numeric(state, u, np.array([25.0]), 277.0,
                                 PropagatorConfig(step=10.0))
        scp.linearize_batch(x, u, np.array([20.0]), np.array([2]), 277.0)
        rows = tracer.counts["propagate.batch_rows"]
        ocp.rk4_batch(x, u, np.array([20.0]), 2, 277.0 * EARTH.g0, EARTH)
        cli.save_arcs([], tmp_path / "arcs.json")
    finally:
        tracer.restore()
    counts = tracer.counts
    assert counts["scp.rollout_rk4_steps"] == 3
    assert counts["verify.rk4_steps"] == 3
    assert counts["ocp.linearize_stages"] == 1
    assert rows == 2 * 20 and counts["propagate.batch_rows"] == rows + 2
    assert counts["cli.arcs_bytes"] == (tmp_path / "arcs.json").stat().st_size > 0


def test_sequential_rolls_are_bound_only_where_the_benchmark_wraps_them():
    # the benchmark counts sequential RK4 through scp.propagate_numeric and
    # verify.propagate_numeric; a module binding it anywhere else would roll
    # unseen
    binders = set()
    for info in pkgutil.iter_modules(orbtour.__path__, "orbtour."):
        module = importlib.import_module(info.name)
        if (module is not propagate
                and getattr(module, "propagate_numeric", None) is propagate.propagate_numeric):
            binders.add(info.name)
    assert binders == {"orbtour.scp", "orbtour.verify"}


def test_benchmark_counts_every_roll_of_a_refined_arc(monkeypatch):
    # a short raise after a lead coast: the lead coast, the warm start, its
    # tails and the exit rollout all count as scp.rollout RK4 steps, as
    # many as the integrator itself takes
    spans = load_spans(monkeypatch)
    th = ThrusterSpec()
    est, plan = mht_estimate(6950.0, 6958.0, 235.0, th)
    orbit = lambda a: kep_to_mee(KeplerianState(a, 0.0, math.radians(97.3964),
                                                math.radians(158.0), 0.0, 0.0))
    x0 = np.append(orbit(6950.0).as_array(), 235.0)
    x_ref = np.append(orbit(6958.0).as_array(), est.end_state.mass)
    taken = []
    segment = propagate.rk4_segment

    def counted(y, u, duration, max_step, *args):
        taken.append(0 if duration == 0.0
                     else max(1, math.ceil(duration / max_step - 1e-12)))
        return segment(y, u, duration, max_step, *args)

    monkeypatch.setattr(propagate, "rk4_segment", counted)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        arc = scp.refine_arc(x0, plan, th, x_ref, scp.RefineOptions(), EARTH,
                             isp=th.isp, lead_coast=600.0)
    finally:
        tracer.restore()
    assert len(arc.objective_history) > 1            # the exit rollout ran
    assert tracer.counts["scp.rollout_rk4_steps"] == sum(taken) > 0


def test_benchmark_sees_one_priced_batch_per_island_generation(monkeypatch):
    # two searches, the second with ring migrations, then the exact oracle
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    scn = sample_scenario(ScenarioConfig(fixed_bundles=5), seed=4)
    searches = [(scn, optimizer.OptimizerConfig(islands=3, population=8, generations=4,
                                                seed=1)),
                (sample_scenario(ScenarioConfig(fixed_bundles=6), seed=8),
                 optimizer.OptimizerConfig(islands=3, population=5, generations=7,
                                           migration_interval=3, seed=2))]
    try:
        for scenario, config in searches:
            optimizer.optimize(scenario, config)
        tour.brute_force(scn)
    finally:
        tracer.restore()
    metrics = spans.layer_metrics(tracer, 1, [1.0], 1.0)
    assert metrics["tour.cost_batch_rows"] == 3 * 8 * 4 + 3 * 5 * 7
    assert metrics["tour.cost_batch_calls"] == metrics["optimizer.island_generations"] == 11
    assert metrics["optimizer.optimize_calls"] == 2
    roots = [i for i, (_, _, _, parent, _) in enumerate(tracer.spans) if parent is None]
    assert [tracer.spans[i][0] for i in roots] == [
        "optimizer.optimize", "optimizer.optimize", "tour.brute_force"]
    assert [[name for name, _, _, parent, _ in tracer.spans if parent == root]
            for root in roots] == [["tour.cost_batch"] * 4 + ["tour.tour_cost"],
                                   ["tour.cost_batch"] * 7 + ["tour.tour_cost"],
                                   ["tour.tour_cost"]]
