#!/usr/bin/env python3
"""How often the island search misses the exact optimum, and by how much.

For each scenario of BUNDLES bundles (``n_cubesats=max(10, BUNDLES)``, the
other classes at their defaults) of seed FIRST .. FIRST+COUNT-1 and each
optimizer seed 0 .. SEEDS-1, the default search runs unseeded and seeded
with the four hand-made walks.  ``montecarlo`` runs the search above
``EXACT_CROSSOVER`` bundles and takes the dynamic program's tour up to it.
Each result's cost is compared with the cost of the optimum
``brute_force`` finds, up to ``MAX_EXACT_BUNDLES`` (20) bundles: about
0.1 s per scenario at 16, 0.4 s at 18 and 2 s at 20.  For each seeding the
script prints the runs, the misses (a cost more than 1e-9 above the
optimum) and the mean and worst relative gap, then how many seeded runs
ended worse than their best walk.  The output is deterministic.

Usage: python scripts/search_gap.py BUNDLES FIRST COUNT SEEDS
       e.g. 15 42000 20 2 (40 runs per seeding, about 10 s)
"""
import sys

import numpy as np

from orbtour.optimizer import OptimizerConfig, optimize
from orbtour.scenario import ScenarioConfig, sample_scenario
from orbtour.tour import brute_force, heuristic_walks


def main(bundles: int, first: int, count: int, seeds: int) -> None:
    config = ScenarioConfig(n_cubesats=max(10, bundles), fixed_bundles=bundles)
    gaps = {"none": [], "walks": []}
    worse = 0
    for scenario_seed in range(first, first + count):
        scn = sample_scenario(config, scenario_seed)
        optimum = brute_force(scn).cost
        walks = list(heuristic_walks(scn).values())
        for seed in range(seeds):
            plain, _ = optimize(scn, OptimizerConfig(seed=seed))
            seeded, _ = optimize(scn, OptimizerConfig(seed=seed), seeds=walks)
            gaps["none"].append(plain.cost / optimum - 1.0)
            gaps["walks"].append(seeded.cost / optimum - 1.0)
            worse += seeded.cost > min(walk.cost for walk in walks)
    print(f"{bundles} bundles, scenarios {first}-{first + count - 1} "
          f"x optimizer seeds 0-{seeds - 1}")
    print("seeding  runs  misses  mean gap  worst gap")
    for name, gap in gaps.items():
        gap = np.array(gap)
        print(f"{name:7} {gap.size:5} {np.count_nonzero(gap > 1e-9):7} "
              f"{gap.mean():9.3%} {gap.max():10.2%}")
    print(f"seeded runs worse than their best walk: {worse}")


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    main(*(int(arg) for arg in sys.argv[1:]))
