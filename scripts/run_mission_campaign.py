#!/usr/bin/env python3
"""End-to-end mission campaign: batch Monte Carlo at a pinned bundle count
plus one fully refined and verified example mission.

Usage: python scripts/run_mission_campaign.py [n_scenarios] [out_dir]
"""
import sys
import time

import numpy as np

from orbtour.optimizer import OptimizerConfig, optimize
from orbtour.scenario import ScenarioConfig, sample_scenario
from orbtour.scp import refine_tour
from orbtour.tour import heuristic_walks
from orbtour.verify import verify_trajectory


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50

    print(f"== Monte Carlo: {n} thirteen-transfer scenarios ==")
    cfg = ScenarioConfig(fixed_bundles=13)
    fuels, dvs, tofs = [], [], []
    t0 = time.time()
    for k in range(n):
        scn = sample_scenario(cfg, seed=42000 + k)
        walks = heuristic_walks(scn)
        best, _ = optimize(scn, OptimizerConfig(seed=k),
                           seeds=list(walks.values()))
        fuels.append(best.fuel_total)
        dvs.append(best.dv_total * 1e3)
        tofs.append(best.tof_total / 86400.0)
    fuels = np.array(fuels)
    print(f"best fuel: mean {fuels.mean():.2f} kg  std {fuels.std():.2f} kg  "
          f"range [{fuels.min():.2f}, {fuels.max():.2f}]")
    print(f"dv: mean {np.mean(dvs):.1f} m/s   tof: mean {np.mean(tofs):.1f} d  "
          f"[{time.time() - t0:.1f} s]")

    print("\n== refine + verify one small mission ==")
    small = sample_scenario(ScenarioConfig(n_cubesats=2, n_pocketqubes=1,
                                           n_smallsats=0), seed=7)
    tour, _ = optimize(small, OptimizerConfig(seed=0))
    print(f"order {tour.order}  fuel {tour.fuel_total:.2f} kg  "
          f"feasible {tour.feasible}")
    # legs and arcs run on every available CPU, bit-identical to one
    arcs = refine_tour(tour.order, small, jobs=None)
    report = verify_trajectory(arcs, tour, small, jobs=None)
    for leg in report.legs:
        print(f"  {leg.label}: da {leg.da_km:+.3f} km  di {leg.di_deg:+.4f} deg  "
              f"fuel {leg.fuel_numeric_kg:.2f}/{leg.fuel_analytic_kg:.2f} kg  "
              f"pass {leg.passed}")
    print("all legs passed:", report.all_passed)


if __name__ == "__main__":
    main()
