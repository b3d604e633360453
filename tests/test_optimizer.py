import hashlib

import numpy as np
import pytest

from conftest import ga_step_uniform
from orbtour import optimizer
from orbtour.optimizer import OptimizerConfig, _ga_step, _tables, optimize
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
    islands, pop, n = (int(v) for v in g.integers((1, 2, 1), (5, 70, 21)))
    perms = g.permuted(np.broadcast_to(np.arange(n), (islands, pop, n)), axis=2)
    # coarse costs, so tournaments meet ties
    cost = g.integers(0, 4, (islands, pop)).astype(float)
    mine, oracle = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    stepped = perms.copy()
    _ga_step(stepped, cost, mine, _tables(n))
    assert np.array_equal(stepped, ga_step_uniform(perms, cost, oracle))
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
    # the order, trace digest and migrations were recorded with each step
    # taken by the per-island reference loop, conftest.ga_step_uniform
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
            == "abf46a39a04a45e1ca72ee39cf92133febfba2bc23b4eddb4a16288923105b28")
    assert trace.migrations == [(19, 0, 1), (19, 1, 2), (19, 2, 0)]
    assert calls == [3 * 16] * 30


def test_production_size_search_pinned():
    # the default archipelago (8 GA islands of 64 members, 200 generations)
    # on 13 bundles; order, fuel, migrations and trace digest recorded with
    # each step taken by the per-island reference loop, and the order is
    # the exact optimum
    scn = sample_scenario(ScenarioConfig(fixed_bundles=13), seed=1913)
    best, trace = optimize(scn, OptimizerConfig(seed=19))
    assert best.order == (2, 3, 11, 10, 7, 8, 5, 6, 0, 4, 1, 12, 9)
    assert best.order == brute_force(scn).order
    assert repr(float(best.fuel_total)) == "24.703074086358253"
    assert trace.migrations == [(g, i, (i + 1) % 8) for g in range(19, 200, 20)
                                for i in range(8)]
    assert (hashlib.sha256(trace.to_csv().encode()).hexdigest()
            == "6f838b2d4cdf5364958dcb9afd74fb9169e7b929fad76b2ef24376c2d7223de7")


@pytest.mark.parametrize("config, order, fuel, digest", [
    (OptimizerConfig(islands=1, population=24, generations=40, seed=21),
     (2, 1, 3, 4, 7, 0, 6, 5), "18.482476866167584",
     "4d57e5d39d10f82135ccb1c1b8e1cdd7b985d2a5f06d08672f17bc796be1f160"),
    (OptimizerConfig(islands=4, population=1, generations=30, migration_interval=5,
                     seed=23),
     (2, 3, 6, 5, 7, 0, 1, 4), "27.15554070748249",
     "4d6c47ef6ab8f2ffa393a1be23ffdbcd8ec589a26e9d337bee62d06b0adf6440"),
    (OptimizerConfig(islands=5, population=16, generations=50, migration_interval=7,
                     seed=20),
     (2, 1, 3, 4, 7, 0, 6, 5), "18.482476866167584",
     "d64b6618323c02c2b302a1262cd039ba4ab682fc8c2cfa8ef030abceba1ff3fd"),
], ids=["single-island", "population-1", "odd-ring"])
def test_island_layouts_pinned(config, order, fuel, digest):
    # one island, one member per island, and an odd ring of five islands;
    # the values were recorded with each step taken by the per-island
    # reference loop
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

    def island_best(perms):
        cost = evaluator.cost_batch(perms.reshape(-1, perms.shape[2]))[0]
        return cost.reshape(perms.shape[:2]).min(axis=1)

    def checked(perms, cost, rng, tables):
        before = island_best(perms)
        step(perms, cost, rng, tables)
        worse.append(int(np.count_nonzero(island_best(perms) > before)))

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
