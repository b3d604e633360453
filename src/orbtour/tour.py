"""Tour costing over drifting targets, hand-crafted candidate walks, and the
exhaustive oracle.

The deployment-order objective is total propellant.  Leg dv between two
circular mission orbits depends only on their radii and inclinations, so a
:class:`TourEvaluator` precomputes the pairwise dv table once per scenario
and prices whole batches of candidate orders with a vectorized rocket
equation; :func:`tour_plans` walks one order through the full estimator
chain (phasing, drift, burn plans) and :func:`tour_cost` prices that walk,
the slow, detailed path.  Both agree on fuel to float accuracy (the tests
assert it) and price a fuel overrun alike, with :func:`overrun_cost`.

The exhaustive oracle :func:`brute_force` prices every order on the
permutation tree, each leg of a shared prefix once, with the batch's own
per-leg step, so its costs are bitwise the batch prices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH, PhysicalConstants, wrap_angle
from .dynamics import j2_secular_rates
from .elements import KeplerianState, SpacecraftState
from .maneuvers import (BurnPlan, TransferEstimate, decommission_estimate,
                        hohmann_dv, plane_change_dv, sequential_mht_nic)
from .scenario import MissionScenario

#: multiplier on fuel overrun when pricing infeasible tours
OVERRUN_PENALTY = 10.0
#: most bundles :func:`brute_force` will enumerate (9! = 362,880 orders)
MAX_EXACT_BUNDLES = 9


@dataclass
class Tour:
    """A visit order with its leg estimates and totals."""

    order: tuple[int, ...]
    legs: list[TransferEstimate]
    fuel_total: float
    dv_total: float
    tof_total: float
    feasible: bool
    cost: float


def overrun_cost(fuel: float | np.ndarray, budget: float):
    """(cost, feasible) of tours that burn ``fuel`` [kg] against ``budget``.
    Infeasible tours pay the budget plus a steep overrun penalty, keeping
    cost increasing in fuel so rankings are preserved."""
    feasible = fuel <= budget + 1e-12
    return np.where(feasible, fuel, budget + OVERRUN_PENALTY * (fuel - budget)), feasible


def drifted_target(target: KeplerianState, elapsed: float,
                   consts: PhysicalConstants = EARTH) -> KeplerianState:
    """Target orbit elements after ``elapsed`` seconds of secular drift and
    mean motion."""
    if elapsed == 0.0:
        return target
    draan, dargp = j2_secular_rates(target.a, target.e, target.i, consts)
    n = math.sqrt(consts.mu / target.a**3)
    return KeplerianState(
        a=target.a, e=target.e, i=target.i,
        raan=wrap_angle(target.raan + draan * elapsed),
        argp=wrap_angle(target.argp + dargp * elapsed),
        ta=wrap_angle(target.ta + n * elapsed),
    )


class TourEvaluator:
    """Vectorized fuel/cost pricing of visit orders for one scenario."""

    def __init__(self, scenario: MissionScenario,
                 consts: PhysicalConstants = EARTH):
        self.scenario = scenario
        self.consts = consts
        n = scenario.n_bundles
        radii = np.array([b.target.a for b in scenario.bundles])
        incs = np.array([b.target.i for b in scenario.bundles])
        self.bundle_mass = np.array([b.mass for b in scenario.bundles])
        self._ve = scenario.spacecraft.thruster.exhaust_velocity(consts)
        self._m0 = scenario.initial_mass
        self._budget = scenario.fuel_budget

        def pair_dv(r0, i0, r1, i1):
            dv_d, dv_c = hohmann_dv(r0, r1, consts.mu)
            v_high = math.sqrt(consts.mu / max(r0, r1))
            return dv_d + dv_c + plane_change_dv(i1 - i0, v_high)

        self.dv = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    self.dv[i, j] = pair_dv(radii[i], incs[i], radii[j], incs[j])
        ins = scenario.insertion
        self.dv_from_insertion = np.array(
            [pair_dv(ins.a, ins.i, radii[j], incs[j]) for j in range(n)])
        self.dv_decommission = np.array(
            [sum(hohmann_dv(radii[j], scenario.decommission_radius, consts.mu))
             if abs(radii[j] - scenario.decommission_radius) > 1e-9 else 0.0
             for j in range(n)])

    def _leg(self, m: np.ndarray, fuel: np.ndarray, prev: np.ndarray | None,
             cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mass, fuel) after the rocket-equation leg from bundle ``prev``
        (None: the insertion orbit) to bundle ``cur`` and its release."""
        dv = self.dv_from_insertion[cur] if prev is None else self.dv[prev, cur]
        burn = m * (1.0 - np.exp(-dv / self._ve))
        return m - (burn + self.bundle_mass[cur]), fuel + burn

    def _decommission(self, m: np.ndarray, fuel: np.ndarray,
                      last: np.ndarray) -> np.ndarray:
        """Total fuel once the spacecraft leaves bundle ``last`` for disposal."""
        return fuel + m * (1.0 - np.exp(-self.dv_decommission[last] / self._ve))

    def fuel_batch(self, orders: np.ndarray) -> np.ndarray:
        """Total propellant [kg] for each row of ``orders`` (B, n_bundles)."""
        orders = np.atleast_2d(np.asarray(orders, dtype=np.int64))
        B, n = orders.shape
        if n != self.scenario.n_bundles:
            raise ValueError("order length must equal the bundle count")
        m, fuel, prev = np.full(B, self._m0), np.zeros(B), None
        for cur in orders.T:
            m, fuel = self._leg(m, fuel, prev, cur)
            prev = cur
        return self._decommission(m, fuel, prev)

    def fuel_tree(self) -> np.ndarray:
        """Total propellant [kg] of every visit order, in lexicographic order.

        Walks the permutation tree one level per leg: each prefix's mass and
        fuel are repeated once per bundle it has not visited, ascending, and
        one :meth:`_leg` prices all the children.  Each element goes through
        the operations of :meth:`fuel_batch` in the same order, so every
        value is bitwise its order's batch price.
        """
        n = self.scenario.n_bundles
        left = np.arange(n)[None, :]  # per prefix: the bundles still to visit
        m, fuel, prev = np.full(1, self._m0), np.zeros(1), None
        for k in range(n):
            width = n - k
            cur = left.reshape(-1)
            if width > 1:  # a lone child takes its parent's arrays as they are
                m, fuel = np.repeat(m, width), np.repeat(fuel, width)
                prev = None if prev is None else np.repeat(prev, width)
            m, fuel = self._leg(m, fuel, prev, cur)
            # child j of a prefix keeps every bundle of its parent but the j-th
            keep = np.arange(width - 1)
            keep = keep + (keep >= np.arange(width)[:, None])
            left = left[:, keep].reshape(cur.size, width - 1)
            prev = cur
        return self._decommission(m, fuel, prev)

    def cost_batch(self, orders: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cost, fuel, feasible) for each row of ``orders``, or for every
        visit order in lexicographic order (:meth:`fuel_tree`) when
        ``orders`` is None; see :func:`overrun_cost`."""
        fuel = self.fuel_tree() if orders is None else self.fuel_batch(orders)
        cost, feasible = overrun_cost(fuel, self._budget)
        return cost, fuel, feasible


def tour_plans(scenario: MissionScenario, order,
               consts: PhysicalConstants = EARTH) -> list[tuple[SpacecraftState, TransferEstimate, BurnPlan]]:
    """Walk one visit order through the full estimator chain.

    Starting from the insertion state, each leg phases onto the drifted
    target, transfers, releases the bundle mass, and advances the epoch by
    the leg's time of flight; the decommissioning maneuver closes the tour.
    Returns per-leg (start state, estimate, burn plan) triples,
    decommissioning included.
    """
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(scenario.n_bundles)):
        raise ValueError("order must be a permutation of the bundle indices")
    thruster = scenario.spacecraft.thruster
    state = scenario.initial_state()
    out = []
    for idx in order:
        bundle = scenario.bundles[idx]
        target = drifted_target(bundle.target, state.epoch - scenario.epoch0, consts)
        est, plan = sequential_mht_nic(state, target, bundle.mass, thruster, consts)
        out.append((state, est, plan))
        state = est.end_state
    decom, plan = decommission_estimate(state, scenario.decommission_radius, thruster, consts)
    out.append((state, decom, plan))
    return out


def tour_cost(scenario: MissionScenario, order,
              consts: PhysicalConstants = EARTH) -> Tour:
    """Price one visit order from the leg estimates of :func:`tour_plans`.

    Infeasible (over-budget) tours are returned flagged, never raised.
    """
    order = tuple(int(i) for i in order)
    legs = [est for _, est, _ in tour_plans(scenario, order, consts)]
    fuel_total = sum(leg.fuel_mass for leg in legs)
    dv_total = sum(leg.dv_total for leg in legs)
    tof_total = legs[-1].end_state.epoch - scenario.epoch0
    cost, feasible = overrun_cost(fuel_total, scenario.fuel_budget)
    return Tour(order=order, legs=legs, fuel_total=fuel_total, dv_total=dv_total,
                tof_total=tof_total, feasible=bool(feasible), cost=float(cost))


def heuristic_walks(scenario: MissionScenario,
                    consts: PhysicalConstants = EARTH) -> dict[str, Tour]:
    """Four hand-crafted candidate orders: bundles sorted by target
    inclination and by bundle mass, each ascending and descending (ties keep
    index order)."""
    incs = np.array([b.target.i for b in scenario.bundles])
    masses = np.array([b.mass for b in scenario.bundles])
    walks = {
        "inclination-ascending": np.argsort(incs, kind="stable"),
        "inclination-descending": np.argsort(-incs, kind="stable"),
        "mass-ascending": np.argsort(masses, kind="stable"),
        "mass-descending": np.argsort(-masses, kind="stable"),
    }
    return {name: tour_cost(scenario, order, consts) for name, order in walks.items()}


def brute_force(scenario: MissionScenario,
                consts: PhysicalConstants = EARTH) -> Tour:
    """Exact optimum over every visit order; the lexicographically first
    order among cost ties wins.  Scenarios above :data:`MAX_EXACT_BUNDLES`
    bundles are refused.

    The orders are priced on the permutation tree of
    :meth:`TourEvaluator.fuel_tree`, which prices a leg shared by many
    orders once: sum(n!/(n-k)!, k=1..n) legs plus n! decommissionings, 1.35 M
    at 9 bundles against 3.63 M for every order apart, and no order table.
    """
    n = scenario.n_bundles
    if n > MAX_EXACT_BUNDLES:
        raise ValueError(f"brute force limited to {MAX_EXACT_BUNDLES} bundles, "
                         f"scenario has {n}")
    cost, _, _ = TourEvaluator(scenario, consts).cost_batch()
    # unrank the first minimum's lexicographic index into its order
    rank, left, order = int(np.argmin(cost)), list(range(n)), []
    for width in range(n, 0, -1):
        j, rank = divmod(rank, math.factorial(width - 1))
        order.append(left.pop(j))
    return tour_cost(scenario, order, consts)
