#!/usr/bin/env python3
"""Refine the two reference transfers (coplanar raise, one-degree plane
change), print an estimator-vs-refiner-vs-verifier comparison table, then
the process's peak resident set size.  Each transfer's rows show its stage
count with the wall time of its refinement and of its re-propagation, its
SCP iterations and accepted steps, and the gap between its exit rollout's
objective and its last accepted merit that decides ``converged``, and
its refiner-vs-re-propagation consistency beside verify's 1e-5 gate.

Usage: python scripts/run_reference_transfers.py
"""
import math
import resource
import time

import numpy as np

from orbtour.constants import EARTH
from orbtour.elements import KeplerianState, MeeState, kep_to_mee, mee_to_kep
from orbtour.maneuvers import ThrusterSpec, mht_estimate, nic_estimate
from orbtour.propagate import PropagatorConfig
from orbtour.scp import ROLLOUT_SHARE, RefineOptions, refine_arc
from orbtour.verify import STEP_S, repropagate_arc


def run_case(name, est, plan, kep0, kep_ref, thruster):
    x0 = np.concatenate([kep_to_mee(kep0).as_array(), [235.0]])
    x_ref = np.concatenate([kep_to_mee(kep_ref).as_array(), [est.end_state.mass]])
    t0 = time.time()
    arc = refine_arc(x0, plan, thruster, x_ref, RefineOptions(), EARTH,
                     isp=thruster.isp, label=name)
    wall = time.time() - t0
    t0 = time.time()
    traj = repropagate_arc(arc, PropagatorConfig(step=STEP_S), thruster.isp)
    repropagation = time.time() - t0
    achieved = mee_to_kep(MeeState.from_array(traj[-1, :6]))
    err = arc.terminal_error
    print(f"{name}:")
    print(f"  estimator dv      {est.dv_total * 1e3:8.2f} m/s   "
          f"tof {est.tof_total / 3600:8.2f} h   burns {est.burn_count}")
    print(f"  grid              {arc.dt.size} stages   refine {wall:.2f} s   "
          f"re-propagation {repropagation:.2f} s wall at a {STEP_S:g} s step")
    merit = arc.objective_history[-1]
    print(f"  refined dv        {arc.dv_total * 1e3:8.2f} m/s   "
          f"iterations {arc.iterations} ({len(arc.objective_history) - 1} accepted)   "
          f"converged {arc.converged}")
    print(f"  exit rollout      objective {arc.objective:.6e}, "
          f"{(arc.objective - merit) / merit:+.1e} of the last accepted merit "
          f"(converged needs <= {ROLLOUT_SHARE:+.0e})")
    print(f"  injection errors  da {err['da_km']:+.3f} km   "
          f"de {err['de']:+.5f}   di {err['di_deg']:+.5f} deg")
    print(f"  re-propagated     a {achieved.a:.3f} km   e {achieved.e:.5f}   "
          f"i {math.degrees(achieved.i):.4f} deg   "
          f"fuel {traj[0, 6] - traj[-1, 6]:.3f} kg")
    consistency = np.max(np.abs(traj[-1] - arc.states[-1])
                         / np.maximum(np.abs(arc.x_ref), 1e-2))
    print(f"  consistency       {consistency:.1e} scaled terminal mismatch "
          f"(verify needs < 1e-5)")


def main():
    th = ThrusterSpec()
    i_sso = math.radians(97.3964)

    est, plan = mht_estimate(6950.0, 7000.0, 235.0, th)
    run_case("coplanar raise 6950 -> 7000 km",
             est, plan,
             KeplerianState(6950.0, 0.0, i_sso, math.radians(158.0), 0.0, 0.0),
             KeplerianState(7000.0, 0.0, i_sso, math.radians(158.0), 0.0, 0.0),
             th)

    est, plan = nic_estimate(math.radians(1.0), 7000.0, 235.0, th)
    run_case("plane change 1.0 deg at 7000 km",
             est, plan,
             KeplerianState(7000.0, 0.0, math.radians(96.8964),
                            math.radians(158.0), 0.0, 0.0),
             KeplerianState(7000.0, 0.0, math.radians(97.8964),
                            math.radians(158.0), 0.0, 0.0),
             th)

    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak RSS {peak:.1f} MB")


if __name__ == "__main__":
    main()
