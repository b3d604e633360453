#!/usr/bin/env python3
"""How often the island search misses the exact optimum, and by how much.

For each 15-bundle scenario (ten cubesats, 15 payloads in all) of seed
FIRST .. FIRST+COUNT-1 and each optimizer seed 0 .. SEEDS-1, the default
search runs unseeded and seeded with the four hand-made walks.  Fifteen
bundles lie just above ``EXACT_CROSSOVER``, so ``montecarlo`` runs the
search there; up to it, it takes the dynamic program's tour.  Each
result's cost is compared with the cost of ``TourEvaluator.exact_order``'s
optimum, about 0.1 s per scenario.  For each seeding the script prints the
runs, the misses (a cost more than 1e-9 above the optimum) and the mean
and worst relative gap, then how many seeded runs ended worse than their
best walk.  The output is deterministic.

Usage: python scripts/search_gap.py FIRST COUNT SEEDS
       e.g. 42000 20 2 (40 runs per seeding, about 10 s)
"""
import sys

import numpy as np

from orbtour.optimizer import OptimizerConfig, optimize
from orbtour.scenario import ScenarioConfig, sample_scenario
from orbtour.tour import TourEvaluator, heuristic_walks, tour_cost

CONFIG = ScenarioConfig(n_cubesats=10, fixed_bundles=15)


def main(first: int, count: int, seeds: int) -> None:
    gaps = {"none": [], "walks": []}
    worse = 0
    for scenario_seed in range(first, first + count):
        scn = sample_scenario(CONFIG, scenario_seed)
        optimum = tour_cost(scn, TourEvaluator(scn).exact_order()[0]).cost
        walks = list(heuristic_walks(scn).values())
        for seed in range(seeds):
            plain, _ = optimize(scn, OptimizerConfig(seed=seed))
            seeded, _ = optimize(scn, OptimizerConfig(seed=seed), seeds=walks)
            gaps["none"].append(plain.cost / optimum - 1.0)
            gaps["walks"].append(seeded.cost / optimum - 1.0)
            worse += seeded.cost > min(walk.cost for walk in walks)
    print(f"scenarios {first}-{first + count - 1} x optimizer seeds 0-{seeds - 1}")
    print("seeding  runs  misses  mean gap  worst gap")
    for name, gap in gaps.items():
        gap = np.array(gap)
        print(f"{name:7} {gap.size:5} {np.count_nonzero(gap > 1e-9):7} "
              f"{gap.mean():9.3%} {gap.max():10.2%}")
    print(f"seeded runs worse than their best walk: {worse}")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(*(int(arg) for arg in sys.argv[1:]))
