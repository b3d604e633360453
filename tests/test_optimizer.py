import hashlib

import numpy as np
import pytest

from conftest import ga_step_uniform
from orbtour import optimizer
from orbtour.optimizer import OptimizerConfig, _ga_step, optimize
from orbtour.scenario import ScenarioConfig, sample_scenario
from orbtour.tour import TourEvaluator, brute_force, heuristic_walks, tour_cost


def test_two_bundles_solved_immediately():
    scn = sample_scenario(ScenarioConfig(fixed_bundles=2), seed=1)
    best, _ = optimize(scn, OptimizerConfig(islands=2, population=8,
                                            generations=1, seed=0))
    oracle = brute_force(scn)
    assert best.cost == pytest.approx(oracle.cost, rel=1e-12)


def test_matches_brute_force_on_small_instance():
    cfg = ScenarioConfig(n_cubesats=4, n_pocketqubes=1, n_smallsats=0,
                         fixed_bundles=5)
    scn = sample_scenario(cfg, seed=9)
    best, _ = optimize(scn, OptimizerConfig(seed=5, generations=60))
    oracle = brute_force(scn)
    assert best.cost == pytest.approx(oracle.cost, rel=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_ga_step_equals_uniform_crossover_oracle(seed):
    g = np.random.default_rng(seed)
    islands, pop, n = (int(v) for v in g.integers((1, 2, 1), (5, 70, 14)))
    keys, cost = g.random((islands, pop, n)), g.random((islands, pop))
    mine, oracle = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    stepped = keys.copy()
    _ga_step(stepped, cost, mine)
    assert np.array_equal(stepped, ga_step_uniform(keys, cost, oracle))
    # the generator is left in the same state
    assert mine.random() == oracle.random()


def test_seeding_never_hurts(small_scenario):
    # the four walks; then more seeds than a population holds, the best last
    walks = list(heuristic_walks(small_scenario).values())
    scn = sample_scenario(ScenarioConfig(fixed_bundles=9), seed=9001)
    g = np.random.default_rng(0)
    surplus = [g.permutation(9) for _ in range(8)] + [TourEvaluator(scn).exact_order()[0]]
    cases = [(small_scenario, walks, [t.cost for t in walks],
              OptimizerConfig(seed=3, generations=5, islands=2, population=12)),
             (scn, surplus, [tour_cost(scn, s).cost for s in surplus],
              OptimizerConfig(islands=2, population=8, generations=1, seed=0))]
    for scenario, seeds, costs, config in cases:
        best, _ = optimize(scenario, config, seeds=seeds)
        assert best.cost <= min(costs) + 1e-12


def test_search_draws_from_one_generator(small_scenario, monkeypatch):
    walks = list(heuristic_walks(small_scenario).values())
    built = []
    make = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    for seeds in (None, walks):
        built.clear()
        optimize(small_scenario, OptimizerConfig(seed=6, generations=2), seeds=seeds)
        assert len(built) == 1


def test_seeds_open_island_zero_and_leave_the_rest_unseeded(monkeypatch):
    # generation 0 is the last batch priced by a one-generation search
    scn = sample_scenario(ScenarioConfig(fixed_bundles=9), seed=9001)
    walks = list(heuristic_walks(scn).values())
    config = OptimizerConfig(seed=6, generations=1, islands=3, population=8)
    priced = []
    original = TourEvaluator.cost_batch

    def captured(self, orders):
        priced.append(np.array(orders))
        return original(self, orders)

    monkeypatch.setattr(TourEvaluator, "cost_batch", captured)
    generation_zero = []
    for seeds in (None, walks):
        optimize(scn, config, seeds=seeds)
        generation_zero.append(priced[-1].reshape(3, 8, 9))
    plain, seeded = generation_zero
    ranked = [w.order for w in sorted(walks, key=lambda t: t.cost)]
    assert [tuple(row) for row in seeded[0, :4].tolist()] == ranked
    assert np.array_equal(seeded[0, 4:], plain[0, 4:])
    assert np.array_equal(seeded[1:], plain[1:])


def test_deterministic_under_seed(small_scenario):
    cfg = OptimizerConfig(seed=42, generations=30, islands=3, population=16)
    a, tra = optimize(small_scenario, cfg)
    b, trb = optimize(small_scenario, cfg)
    assert a.order == b.order
    assert a.fuel_total == b.fuel_total
    assert np.array_equal(tra.best_fuel, trb.best_fuel)
    assert np.array_equal(tra.mean_fuel, trb.mean_fuel)
    assert tra.migrations == trb.migrations


def test_archipelago_priced_once_per_generation_with_pinned_results(
        small_scenario, monkeypatch):
    # the order, trace digest and migrations were recorded against a plain
    # loop that priced and stepped each island with the reference GA step,
    # each migrant keeping its known cost
    calls = []
    original = TourEvaluator.cost_batch

    def counted(self, orders):
        calls.append(len(orders))
        return original(self, orders)

    monkeypatch.setattr(TourEvaluator, "cost_batch", counted)
    best, trace = optimize(small_scenario,
                           OptimizerConfig(seed=42, generations=30, islands=3,
                                           population=16))
    assert best.order == (1, 2, 0)
    assert (hashlib.sha256(trace.to_csv().encode()).hexdigest()
            == "04454c902058a92f97a089a926954d7c86db29501050c21d98b17a5d5fa509f4")
    assert trace.migrations == [(19, 0, 1), (19, 1, 2), (19, 2, 0)]
    assert calls == [3 * 16] * 30


def test_production_size_search_pinned():
    # the default archipelago (8 GA islands of 64 members, 200 generations)
    # on 13 bundles; order, fuel, migrations and trace digest recorded
    # against a plain loop that stepped each island with the reference GA
    # step, each migrant keeping its known cost
    scn = sample_scenario(ScenarioConfig(fixed_bundles=13), seed=1913)
    best, trace = optimize(scn, OptimizerConfig(seed=19))
    assert best.order == (2, 3, 11, 0, 4, 1, 12, 9, 6, 7, 10, 8, 5)
    assert repr(float(best.fuel_total)) == "24.96445952376199"
    assert trace.migrations == [(g, i, (i + 1) % 8) for g in range(19, 200, 20)
                                for i in range(8)]
    assert (hashlib.sha256(trace.to_csv().encode()).hexdigest()
            == "813ecdda762d02fac739c305574cc1add8cf125ce66f6793666c13faffd8d448")


@pytest.mark.parametrize("config, order, fuel, digest", [
    (OptimizerConfig(islands=1, population=24, generations=40, seed=21),
     (2, 1, 3, 4, 7, 0, 6, 5), "18.482476866167584",
     "d1ad5385ec4c8561ff42b48e66adc3ab2fe7c7e0f264a85b5c6aba01de64c1f8"),
    (OptimizerConfig(islands=4, population=1, generations=30, migration_interval=5,
                     seed=23),
     (1, 3, 4, 5, 2, 6, 0, 7), "26.313752962027326",
     "86fc7d76855b731c2c111b75b24bf03f6584ea9ddd553dad47a63e2a2acc7edd"),
    (OptimizerConfig(islands=5, population=16, generations=50, migration_interval=7,
                     seed=20),
     (2, 1, 3, 4, 7, 0, 6, 5), "18.482476866167584",
     "27e2d00d9ed58e65f1c20e7d0174328e50815dbe363c9714acb8389b98ffee54"),
], ids=["single-island", "population-1", "odd-ring"])
def test_island_layouts_pinned(config, order, fuel, digest):
    # one island, one member per island, and an odd ring of five islands;
    # the values were recorded against a plain loop that priced and stepped
    # each island with the reference GA step, each migrant keeping its
    # known cost
    scn = sample_scenario(ScenarioConfig(fixed_bundles=8), seed=2020)
    best, trace = optimize(scn, config)
    isl, every = config.islands, config.migration_interval
    ring = [(g, i, (i + 1) % isl) for g in range(every - 1, config.generations, every)
            for i in range(isl)]
    assert best.order == order
    assert repr(float(best.fuel_total)) == fuel
    assert trace.migrations == (ring if isl > 1 else [])
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == digest


def test_no_island_best_gets_worse_across_a_step(monkeypatch):
    # a migrant arrives priced at its known cost, so each island's elite is
    # the cheaper of its own best and the migrant; pricing every island
    # before and after each step, its cheapest member never gets dearer
    scn = sample_scenario(ScenarioConfig(fixed_bundles=13), seed=1913)
    evaluator = TourEvaluator(scn)
    step = optimizer._ga_step
    worse = []

    def island_best(keys):
        cost = evaluator.cost_batch(optimizer.decode(keys.reshape(-1, keys.shape[2])))[0]
        return cost.reshape(keys.shape[:2]).min(axis=1)

    def checked(keys, cost, rng):
        before = island_best(keys)
        step(keys, cost, rng)
        worse.append(int(np.count_nonzero(island_best(keys) > before)))

    monkeypatch.setattr(optimizer, "_ga_step", checked)
    optimize(scn, OptimizerConfig(seed=19))
    assert len(worse) == 199
    assert sum(worse) == 0


def test_island_best_monotone_and_migrations_logged(small_scenario):
    cfg = OptimizerConfig(seed=7, generations=50, islands=4, population=16,
                          migration_interval=10)
    _, trace = optimize(small_scenario, cfg)
    assert np.all(np.diff(trace.best_fuel, axis=0) <= 1e-12)
    gens = sorted({g for g, _, _ in trace.migrations})
    assert gens == [9, 19, 29, 39, 49]
    ring = {(s, d) for _, s, d in trace.migrations}
    assert ring == {(i, (i + 1) % 4) for i in range(4)}


def test_full_size_instance_solves_at_desk_scale():
    import time
    from orbtour.scenario import ScenarioConfig, sample_scenario
    scn = sample_scenario(ScenarioConfig(fixed_bundles=13), seed=77)
    t0 = time.time()
    best, _ = optimize(scn, OptimizerConfig(seed=0))
    assert time.time() - t0 < 60.0
    assert best.feasible


def test_trace_csv_format(small_scenario):
    _, trace = optimize(small_scenario,
                        OptimizerConfig(seed=2, generations=3, islands=2,
                                        population=8))
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "generation,island,best_fuel_kg,mean_fuel_kg"
    assert len(lines) == 1 + 3 * 2
    gen, isl, best, mean = lines[1].split(",")
    assert float(best) <= float(mean)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(islands=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        OptimizerConfig(seed=-5)


def test_bad_seed_tour_rejected(small_scenario):
    with pytest.raises(ValueError):
        optimize(small_scenario, OptimizerConfig(seed=1, generations=1),
                 seeds=[[0, 0, 1, 2]])
