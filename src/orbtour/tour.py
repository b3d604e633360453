"""Tour costing over drifting targets, hand-crafted candidate walks, and the
exact oracle.

The deployment-order objective is total propellant.  Leg dv between two
circular mission orbits depends only on their radii and inclinations, so a
:class:`TourEvaluator` turns it, once per scenario, into leg-fraction tables:
the share of the mass each leg burns, ``1 - exp(-dv/ve)``, from the
insertion orbit and from every bundle to every other, and from every bundle
to the disposal orbit.  A batch of candidate orders gathers its fractions
and releases with one index each and walks the rocket equation leg by leg,
vectorized over the batch; :func:`tour_plans` walks one order through the
full estimator chain (phasing, drift, burn plans) and :func:`tour_cost`
prices that walk, the slow, detailed path.  Both agree on fuel to float
accuracy (the tests assert it) and price a fuel overrun alike, with
:func:`overrun_cost`.

The exact oracle :func:`brute_force` finds the cheapest order by dynamic
programming over (visited set, last bundle), with the batch's own per-leg
step, so the fuel it minimizes is bitwise the batch price of its order.
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
#: most bundles :func:`brute_force` will take; its tie masks grow as n·2ⁿ,
#: to an 11 MiB traced peak at 16, and ``generate`` draws at most 13 by default
MAX_EXACT_BUNDLES = 16
#: most bundles ``montecarlo`` prices by :func:`brute_force` rather than the
#: island search.  On a 2-CPU x86-64 host the DP is the faster up to 16
#: bundles (9, 15, 32 and 65 ms against 66, 72, 75 and 89 ms per scenario at
#: 13 to 16), but above 14 the search keeps :func:`brute_force` as its oracle
EXACT_CROSSOVER = 14


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
        self._m0 = scenario.initial_mass
        self._budget = scenario.fuel_budget

        def pair_dv(r0, i0, r1, i1):
            dv_d, dv_c = hohmann_dv(r0, r1, consts.mu)
            v_high = math.sqrt(consts.mu / max(r0, r1))
            return dv_d + dv_c + plane_change_dv(i1 - i0, v_high)

        dv = np.zeros((n + 1, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    dv[i, j] = pair_dv(radii[i], incs[i], radii[j], incs[j])
        ins = scenario.insertion
        dv[n] = [pair_dv(ins.a, ins.i, radii[j], incs[j]) for j in range(n)]
        dv_decommission = np.array(
            [sum(hohmann_dv(radii[j], scenario.decommission_radius, consts.mu))
             if abs(radii[j] - scenario.decommission_radius) > 1e-9 else 0.0
             for j in range(n)])
        ve = scenario.spacecraft.thruster.exhaust_velocity(consts)
        #: share of the mass a leg burns, 1 - exp(-dv/ve): row i < n from
        #: bundle i, row n from the insertion orbit; column j to bundle j
        self.leg_frac = 1.0 - np.exp(-dv / ve)
        #: share burnt leaving each bundle for the disposal orbit
        self.decommission_frac = 1.0 - np.exp(-dv_decommission / ve)

    @staticmethod
    def _leg(m: np.ndarray, fuel: np.ndarray, frac: np.ndarray,
             release: np.ndarray, burn: np.ndarray) -> None:
        """Advance the mass ``m`` and ``fuel`` in place over a leg that burns
        the share ``frac`` of the mass and then releases the bundle mass
        ``release``; ``burn`` is scratch of ``m``'s shape."""
        np.multiply(m, frac, out=burn)
        np.add(fuel, burn, out=fuel)
        burn += release
        m -= burn

    def fuel_batch(self, orders: np.ndarray) -> np.ndarray:
        """Total propellant [kg] for each row of ``orders`` (B, n_bundles)."""
        orders = np.atleast_2d(np.asarray(orders, dtype=np.int64))
        B, n = orders.shape
        if n != self.scenario.n_bundles:
            raise ValueError("order length must equal the bundle count")
        cur = orders.T
        prev = np.empty_like(cur)
        prev[0], prev[1:] = n, cur[:-1]
        frac = self.leg_frac.take(prev * n + cur)
        release = self.bundle_mass.take(cur)
        m, fuel, burn = np.full(B, self._m0), np.zeros(B), np.empty(B)
        for leg in range(n):
            self._leg(m, fuel, frac[leg], release[leg], burn)
        m *= self.decommission_frac.take(cur[-1])
        fuel += m
        return fuel

    def exact_order(self) -> tuple[tuple[int, ...], float]:
        """(order, fuel) of the cheapest visit order, by dynamic programming
        over (visited set, last bundle).

        Mass after a leg is increasing in the mass before it, and total fuel
        is the initial mass less the final mass and the payloads, so only the
        heaviest prefix of each state can lead to an optimum (Held & Karp,
        J. SIAM 10, 1962).  Each state keeps that prefix's mass and fuel and
        the bitmask of the predecessors whose mass ties it bit for bit.  One
        step per set size and last bundle prices the leg from every
        predecessor with :meth:`_leg`'s arithmetic, mass only; the fuel is
        then priced for the chosen predecessor alone.  Mass and fuel are
        kept for two set sizes at a time, last bundle major: row b, column
        the set's ``rank`` among the sets of its size, so each maximum and
        tie mask reduces across n contiguous rows.  Bundles outside a set
        hold -inf, which a leg turns into a NaN that ``fmax`` never picks.
        Every full set is closed by its disposal leg.  The winner is rebuilt
        forward: the states on a path of tied predecessors to a
        minimum-cost full set are marked walking backward, then from the
        insertion the smallest next bundle that stays on a marked path is
        taken.  n²·2ⁿ⁻¹ legs; n·2ⁿ tie masks and marks, beside at most
        4·n·C(n, ⌊n/2⌋) values of mass and fuel.  On a 2-CPU x86-64 host:
        0.7 M legs in 9 ms and a 1.4 MiB traced peak at 13 bundles, 8.4 M
        legs in 65 ms and 11 MiB at 16.
        """
        n = self.scenario.n_bundles
        sets, bits = np.arange(1 << n, dtype=np.uint16), np.arange(n)
        single = sets[1 << bits]
        # set sizes by doubling: adding bundle b to the sets below 2ᵇ
        size = np.zeros(1, dtype=np.uint8)
        for _ in bits:
            size = np.concatenate([size, size + 1])
        layers = [sets[size == k] for k in range(n + 1)]
        rank = np.zeros(1 << n, dtype=np.int64)
        for layer in layers:
            rank[layer] = np.arange(layer.size)
        ties = np.zeros((1 << n, n), dtype=np.uint16)
        m, f = np.full(n, self._m0), np.zeros(n)
        self._leg(m, f, self.leg_frac[n], self.bundle_mass, np.empty(n))
        # size 1: column b is the set {b}
        mass, fuel = np.full((n, n), -np.inf), np.diag(f)
        np.fill_diagonal(mass, m)
        # bundles outside a set weigh -inf, NaN after a leg: never a maximum
        with np.errstate(invalid="ignore"):
            for layer in layers[2:]:
                prev_mass, prev_fuel = mass, fuel
                mass, fuel = np.full((2, n, layer.size), -np.inf)
                for j in bits:
                    at = np.flatnonzero(layer & single[j])
                    cur = layer[at]
                    rp = rank[cur ^ single[j]]
                    m = prev_mass.take(rp, axis=1)
                    burn = m * self.leg_frac[:n, j, None]
                    burn += self.bundle_mass[j]
                    m -= burn
                    best = np.fmax.reduce(m, axis=0)
                    tied = np.einsum("i,ij->j", single, m == best)
                    # the lowest tied bundle, as argmax would pick it: t & -t
                    # keeps t's lowest bit 2ᵖ, which frexp writes 0.5·2ᵖ⁺¹
                    pick = np.frexp(tied & -tied)[1] - 1
                    mass[j, at] = best
                    k = pick * prev_mass.shape[1] + rp  # (pick, rp), flat
                    fuel[j, at] = (prev_fuel.take(k)
                                   + prev_mass.take(k) * self.leg_frac[pick, j])
                    ties[cur, j] = tied
        end = fuel[:, 0] + mass[:, 0] * self.decommission_frac
        cost, _ = overrun_cost(end, self._budget)
        marked = np.zeros((1 << n, n), dtype=bool)
        marked[-1] = cost == cost.min()
        for layer in layers[:1:-1]:
            rows, last = np.nonzero(marked[layer])
            pick, pred = np.nonzero(ties[layer[rows], last][:, None] & single)
            marked[layer[rows[pick]] ^ single[last[pick]], pred] = True
        order, seen = [], 0
        for _ in bits:
            ok = marked[seen | single, bits] & (seen & single == 0)
            if order:
                ok &= ties[seen | single, bits] & single[order[-1]] > 0
            order.append(int(np.argmax(ok)))
            seen |= single[order[-1]]
        return tuple(order), float(end[order[-1]])

    def cost_batch(self, orders: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cost, fuel, feasible) for each row of ``orders``; see
        :func:`overrun_cost`."""
        fuel = self.fuel_batch(orders)
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
    """Exact optimum over every visit order, by the dynamic program of
    :meth:`TourEvaluator.exact_order`; scenarios above
    :data:`MAX_EXACT_BUNDLES` bundles are refused.

    Among cost ties the lexicographically first order wins, counting the
    orders whose every prefix is the heaviest of its (set, last bundle)
    state: an order with a prefix lighter by rounding whose cost still ties
    is not counted.
    """
    n = scenario.n_bundles
    if n > MAX_EXACT_BUNDLES:
        raise ValueError(f"exact search is limited to {MAX_EXACT_BUNDLES} bundles, "
                         f"scenario has {n}")
    order, _ = TourEvaluator(scenario, consts).exact_order()
    return tour_cost(scenario, order, consts)
