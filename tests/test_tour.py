import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import disposal_dv, leg_dv, lex_orders, order_fuel
from orbtour.constants import EARTH, SECONDS_PER_YEAR
from orbtour.dynamics import orbit_scalars
from orbtour.elements import KeplerianState
from orbtour.maneuvers import hohmann_dv, plane_change_dv
from orbtour.scenario import (Bundle, MissionScenario, PayloadSpec,
                              ScenarioConfig, SpacecraftSpec, sample_scenario,
                              sso_inclination)
from orbtour.tour import (MAX_EXACT_BUNDLES, OVERRUN_PENALTY, TourEvaluator,
                          brute_force, drifted_target, heuristic_walks, overrun_cost,
                          tour_cost, tour_plans)


def single_bundle_at_insertion() -> MissionScenario:
    ins = KeplerianState(EARTH.re + 500.0, 0.0, math.radians(97.4),
                         math.radians(158.0), 0.0, 0.0)
    b = Bundle((PayloadSpec("cubesat", 6.0, ins),), ins)
    return MissionScenario(SpacecraftSpec(), ins, EARTH.re + 250.0, (b,))


def test_drifted_target_identity_and_node_cases():
    kep = KeplerianState(7000.0, 0.05, 1.2, 0.5, 0.3, 0.9)
    assert drifted_target(kep, 0.0) is kep

    # a polar orbit's node does not drift; shape and plane never change
    polar = KeplerianState(7000.0, 0.0, math.pi / 2, 0.5, 0.0, 0.0)
    _, period, _ = orbit_scalars(7000.0)
    out = drifted_target(polar, period)
    assert out.raan == pytest.approx(0.5, abs=1e-12)
    assert (out.a, out.e, out.i) == (polar.a, polar.e, polar.i)


def test_drifted_target_full_year_sso():
    # a sun-synchronous node turns once a year
    a = EARTH.re + 500.0
    kep = KeplerianState(a, 0.0, sso_inclination(a), 1.0, 0.0, 0.0)
    raan = drifted_target(kep, SECONDS_PER_YEAR).raan
    assert abs((raan - 1.0 + math.pi) % (2 * math.pi) - math.pi) < 1e-6


def test_single_bundle_at_insertion_costs_decommission_only():
    scn = single_bundle_at_insertion()
    tour = tour_cost(scn, [0])
    assert tour.legs[0].dv_total == 0.0
    decom = tour.legs[-1]
    assert tour.fuel_total == pytest.approx(decom.fuel_mass, rel=1e-12)
    assert tour.feasible


def test_identical_targets_cost_identically():
    ins = KeplerianState(EARTH.re + 500.0, 0.0, math.radians(97.4),
                         math.radians(158.0), 0.0, 0.0)
    tgt = KeplerianState(EARTH.re + 520.0, 0.0, math.radians(97.45),
                         1.0, 0.0, 2.0)
    bundles = (Bundle((PayloadSpec("cubesat", 6.0, tgt),), tgt),
               Bundle((PayloadSpec("cubesat", 6.0, tgt),), tgt))
    scn = MissionScenario(SpacecraftSpec(), ins, EARTH.re + 250.0, bundles)
    a = tour_cost(scn, [0, 1])
    b = tour_cost(scn, [1, 0])
    assert a.fuel_total == pytest.approx(b.fuel_total, rel=1e-12)


def independent_tour_fuel(scn: MissionScenario, order) -> float:
    """Straight-line reimplementation: pairwise dv from first principles,
    sequential rocket equation with payload drops, circularizing disposal."""
    ve = scn.spacecraft.thruster.isp * EARTH.g0
    nodes = [(scn.insertion.a, scn.insertion.i)] + [
        (scn.bundles[i].target.a, scn.bundles[i].target.i) for i in order]
    m = scn.initial_mass
    fuel = 0.0
    for (a0, i0), (a1, i1), idx in zip(nodes, nodes[1:], order):
        dv = sum(hohmann_dv(a0, a1, EARTH.mu)) + plane_change_dv(
            i1 - i0, math.sqrt(EARTH.mu / max(a0, a1)))
        burn = m * (1.0 - math.exp(-dv / ve))
        fuel += burn
        m -= burn + scn.bundles[idx].mass
    a_last = nodes[-1][0]
    dv = sum(hohmann_dv(a_last, scn.decommission_radius, EARTH.mu))
    fuel += m * (1.0 - math.exp(-dv / ve))
    return fuel


def test_tour_fuel_matches_independent_oracle():
    scn = sample_scenario(ScenarioConfig(fixed_bundles=13), seed=50)
    rng = np.random.default_rng(1)
    for _ in range(5):
        order = rng.permutation(13)
        tour = tour_cost(scn, order)
        assert tour.fuel_total == pytest.approx(independent_tour_fuel(scn, order),
                                                abs=1e-9)


def test_evaluator_agrees_with_detailed_path():
    scn = sample_scenario(ScenarioConfig(), seed=21)
    ev = TourEvaluator(scn)
    rng = np.random.default_rng(2)
    orders = np.array([rng.permutation(scn.n_bundles) for _ in range(8)])
    fast = ev.fuel_batch(orders)
    for row, order in enumerate(orders):
        assert fast[row] == pytest.approx(tour_cost(scn, order).fuel_total, abs=1e-9)


def test_leg_fraction_tables_equal_the_rocket_equation_exactly():
    scn = sample_scenario(ScenarioConfig(fixed_bundles=13), seed=31)
    ev = TourEvaluator(scn)
    ve = scn.spacecraft.thruster.exhaust_velocity()
    nodes = [b.target for b in scn.bundles] + [scn.insertion]
    assert ev.leg_frac.shape == (14, 13) and ev.decommission_frac.shape == (13,)
    for i, here in enumerate(nodes):
        for j, there in enumerate(nodes[:-1]):
            dv = 0.0 if i == j else leg_dv(here.a, here.i, there.a, there.i)
            assert ev.leg_frac[i, j] == 1.0 - np.exp(-dv / ve), (i, j)
    for j, there in enumerate(nodes[:-1]):
        dv = disposal_dv(there.a, scn)
        assert ev.decommission_frac[j] == 1.0 - np.exp(-dv / ve), j


@pytest.mark.parametrize("seed", [3, 52, 77])
def test_fuel_batch_equals_the_per_order_oracle_bit_for_bit(seed):
    scn = sample_scenario(ScenarioConfig(fixed_bundles=13), seed=seed)
    rng = np.random.default_rng(seed)
    orders = np.array([rng.permutation(13) for _ in range(200)])
    expected = [order_fuel(scn, order) for order in orders]
    assert TourEvaluator(scn).fuel_batch(orders).tolist() == expected


def test_infeasible_tours_flagged_with_penalty():
    scn = sample_scenario(ScenarioConfig(
        spacecraft=SpacecraftSpec(wet_mass=235.0, payload_mass_total=80.0,
                                  fuel_mass=2.0)), seed=33)
    tour = tour_cost(scn, list(range(scn.n_bundles)))
    assert not tour.feasible
    assert tour.cost == pytest.approx(
        2.0 + OVERRUN_PENALTY * (tour.fuel_total - 2.0), rel=1e-12)
    ev = TourEvaluator(scn)
    cost, fuel, feas = ev.cost_batch(np.arange(scn.n_bundles)[None, :])
    assert not feas[0]
    assert cost[0] > fuel[0]


def test_penalty_preserves_ranking():
    scn = sample_scenario(ScenarioConfig(
        spacecraft=SpacecraftSpec(fuel_mass=5.0)), seed=13)
    ev = TourEvaluator(scn)
    orders = lex_orders(scn.n_bundles)[:100]
    cost, fuel, _ = ev.cost_batch(orders)
    assert np.array_equal(np.argsort(cost, kind="stable"),
                          np.argsort(fuel, kind="stable"))


# ---------------------------------------------------------------------------
# candidate walks
# ---------------------------------------------------------------------------

def test_walks_tie_break_by_index():
    ins = KeplerianState(EARTH.re + 500.0, 0.0, math.radians(97.4), 0.0, 0.0, 0.0)
    tgt = KeplerianState(EARTH.re + 510.0, 0.0, math.radians(97.42), 1.0, 0.0, 0.0)
    bundles = tuple(Bundle((PayloadSpec("cubesat", 6.0, tgt),), tgt) for _ in range(4))
    scn = MissionScenario(SpacecraftSpec(), ins, EARTH.re + 250.0, bundles)
    walks = heuristic_walks(scn)
    assert walks["inclination-ascending"].order == (0, 1, 2, 3)
    assert walks["inclination-descending"].order == (0, 1, 2, 3)


def test_walk_orderings(small_scenario):
    walks = heuristic_walks(small_scenario)
    incs = [small_scenario.bundles[i].target.i
            for i in walks["inclination-ascending"].order]
    assert incs == sorted(incs)
    asc = walks["mass-ascending"].order
    desc = walks["mass-descending"].order
    assert tuple(reversed(asc)) == desc


def test_strictly_increasing_inclinations_walk_is_identity():
    ins = KeplerianState(EARTH.re + 500.0, 0.0, math.radians(97.2), 0.0, 0.0, 0.0)
    bundles = []
    for j in range(4):
        tgt = KeplerianState(EARTH.re + 505.0, 0.0, math.radians(97.2 + 0.05 * (j + 1)),
                             1.0, 0.0, 0.0)
        bundles.append(Bundle((PayloadSpec("cubesat", 6.0, tgt),), tgt))
    scn = MissionScenario(SpacecraftSpec(), ins, EARTH.re + 250.0, tuple(bundles))
    assert heuristic_walks(scn)["inclination-ascending"].order == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

def test_brute_force_single_bundle():
    tour = brute_force(single_bundle_at_insertion())
    assert tour.order == (0,)


def test_brute_force_enumerates_all_orders(small_scenario):
    best = brute_force(small_scenario)
    costs = {tuple(order): tour_cost(small_scenario, order).cost
             for order in lex_orders(small_scenario.n_bundles).tolist()}
    assert best.cost == pytest.approx(min(costs.values()), rel=1e-12)
    # among ties, the dynamic program's own rule
    minimum = min(costs.values())
    assert best.order in [o for o, c in costs.items() if abs(c - minimum) < 1e-15]
    assert best.order == dp_tie_winner(TourEvaluator(small_scenario),
                                       lex_orders(small_scenario.n_bundles))


def test_brute_force_respects_cap():
    cfg = ScenarioConfig(n_cubesats=17, n_pocketqubes=4, n_smallsats=0, fixed_bundles=21)
    scn = sample_scenario(cfg, seed=4)
    assert scn.n_bundles == MAX_EXACT_BUNDLES + 1
    with pytest.raises(ValueError, match=f"limited to {MAX_EXACT_BUNDLES} bundles, "
                                         f"scenario has 21"):
        brute_force(scn)


def test_brute_force_n8_fast_and_lower_bounds_walks():
    cfg = ScenarioConfig(n_cubesats=6, n_pocketqubes=2, n_smallsats=0,
                         fixed_bundles=8)
    scn = sample_scenario(cfg, seed=12)
    t0 = time.time()
    best = brute_force(scn)
    assert time.time() - t0 < 10.0
    for tour in heuristic_walks(scn).values():
        assert best.cost <= tour.cost + 1e-12


def dp_tie_winner(ev: TourEvaluator, orders: np.ndarray) -> tuple[int, ...]:
    """The order the dynamic program must return, by enumeration: of the
    minimum-cost ``orders``, those whose every prefix leaves the heaviest
    mass of its (visited set, last bundle) state bit for bit, the one whose
    reversed order is lexicographically first (the lowest last bundle, then
    the lowest predecessor, and so on back)."""
    count, n = orders.shape
    cost, _, _ = ev.cost_batch(orders)
    m, prev, seen = np.full(count, ev.scenario.initial_mass), np.full(count, n), 0
    mass, state = np.empty((n, count)), np.empty((n, count), dtype=np.int64)
    for leg, cur in enumerate(orders.T):
        m = m - (m * ev.leg_frac[prev, cur] + ev.bundle_mass[cur])
        seen = seen | 1 << cur
        mass[leg], state[leg], prev = m, seen * n + cur, cur
    heaviest = np.full(state.max() + 1, -np.inf)
    np.maximum.at(heaviest, state, mass)
    kept = (mass == heaviest[state]).all(axis=0) & (cost == cost.min())
    return min((tuple(o) for o in orders[kept].tolist()), key=lambda o: o[::-1])


def twin_bundle_scenario() -> MissionScenario:
    """Five bundles, two of them identical: every order has a twin, the two
    bundles swapped, of bitwise-equal cost."""
    scn = sample_scenario(ScenarioConfig(fixed_bundles=4), seed=8)
    return MissionScenario(scn.spacecraft, scn.insertion, scn.decommission_radius,
                           scn.bundles + scn.bundles[1:2])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, "twins"])
def test_permutation_tree_matches_enumeration_and_first_minimum_wins(n):
    if n == "twins":
        scn = twin_bundle_scenario()
    elif n == 1:
        scn = single_bundle_at_insertion()
    else:
        scn = sample_scenario(ScenarioConfig(fixed_bundles=n), seed=60 + n)
    ev = TourEvaluator(scn)
    orders = lex_orders(scn.n_bundles)
    cost, _, _ = ev.cost_batch(orders)
    expected = dp_tie_winner(ev, orders)
    if n == "twins":
        assert np.count_nonzero(cost == cost.min()) >= 2
    else:
        # a unique minimum: the enumeration's first minimum is the winner
        assert expected == tuple(orders[np.argmin(cost)].tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        order, fuel = ev.exact_order()
    assert order == brute_force(scn).order == expected
    assert fuel == ev.fuel_batch(order)[0]


@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_dynamic_program_prices_random_tie_scenarios_exactly(base, seed, data):
    # one bundle duplicated: every order ties with its twin, the two swapped
    scn = sample_scenario(ScenarioConfig(fixed_bundles=base), seed=seed)
    twin = data.draw(st.integers(0, base - 1))
    at = data.draw(st.integers(0, base))
    bundles = scn.bundles[:at] + scn.bundles[twin:twin + 1] + scn.bundles[at:]
    ev = TourEvaluator(dataclasses.replace(scn, bundles=bundles))
    orders = lex_orders(base + 1)
    cost, _, _ = ev.cost_batch(orders)
    order, fuel = ev.exact_order()
    assert fuel == ev.fuel_batch(order)[0]
    assert overrun_cost(fuel, ev.scenario.fuel_budget)[0] == cost.min()
    assert order == dp_tie_winner(ev, orders)


def test_dynamic_program_matches_enumeration_on_sampled_scenarios():
    orders = {n: lex_orders(n) for n in range(2, 9)}
    for seed in range(300):
        scn = sample_scenario(ScenarioConfig(fixed_bundles=2 + seed % 7), seed=80_000 + seed)
        ev = TourEvaluator(scn)
        cost, fuel, _ = ev.cost_batch(orders[scn.n_bundles])
        first = int(np.argmin(cost))
        order, dp_fuel = ev.exact_order()
        assert order == tuple(orders[scn.n_bundles][first].tolist()), seed
        assert dp_fuel == fuel[first] == ev.fuel_batch(order)[0], seed


def shared_target_scenario() -> MissionScenario:
    """Six bundles, the last deploying one payload of bundle 0 at bundle 0's
    target: the leg between the two burns exactly nothing."""
    scn = sample_scenario(ScenarioConfig(fixed_bundles=5), seed=65)
    first = scn.bundles[0]
    return dataclasses.replace(scn, bundles=scn.bundles + (
        Bundle(first.payloads[:1], first.target),))


def overrun_scenario() -> MissionScenario:
    """Five bundles and half a kilogram of propellant: every order overruns."""
    scn = sample_scenario(ScenarioConfig(fixed_bundles=5), seed=66)
    return dataclasses.replace(
        scn, spacecraft=dataclasses.replace(scn.spacecraft, fuel_mass=0.5))


@pytest.mark.parametrize("make", [shared_target_scenario, overrun_scenario])
def test_dynamic_program_matches_enumeration_on_edge_scenarios(make):
    # bundles outside a set enter each leg as -inf mass; the NaN a
    # zero-fraction leg makes of them must neither win, tie nor warn
    scn = make()
    ev = TourEvaluator(scn)
    orders = lex_orders(scn.n_bundles)
    _, _, feasible = ev.cost_batch(orders)
    if make is shared_target_scenario:
        assert ev.leg_frac[0, 5] == ev.leg_frac[5, 0] == 0.0
    else:
        assert not feasible.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        order, fuel = ev.exact_order()
    assert order == dp_tie_winner(ev, orders)
    assert fuel == ev.fuel_batch(order)[0]


@pytest.mark.parametrize("cubesats, bundles, order, fuel", [
    (10, 14, (6, 2, 5, 7, 11, 12, 9, 8, 3, 10, 4, 0, 13, 1), "0x1.8d0bea746dc59p+4"),
    (10, 15, (9, 7, 6, 4, 8, 0, 1, 2, 12, 3, 11, 10, 14, 5, 13), "0x1.8d33822bfe24cp+4"),
    (11, 16, (11, 3, 4, 15, 8, 14, 5, 6, 2, 10, 12, 0, 9, 13, 1, 7),
     "0x1.a389f7cc42736p+4"),
    (18, 18, (15, 17, 5, 9, 8, 4, 7, 11, 6, 12, 14, 13, 16, 0, 10, 3, 2, 1),
     "0x1.aa837ee98fd98p+4"),
])
def test_brute_force_pins_above_the_enumerations_reach(cubesats, bundles, order, fuel):
    # beyond the enumeration oracle: orders and fuels up to 16 bundles
    # recorded from the dynamic program's set-major tables, before its
    # last-bundle-major layout; at 18, from the layout with 32-bit sets
    scn = sample_scenario(ScenarioConfig(n_cubesats=cubesats, fixed_bundles=bundles),
                          seed=0)
    tour = brute_force(scn)
    assert (tour.order, tour.fuel_total.hex()) == (order, fuel)


@pytest.mark.parametrize("bundles", range(17, MAX_EXACT_BUNDLES + 1))
def test_dynamic_program_prices_its_order_exactly_above_16_bundles(bundles):
    # above 16 bundles the sets take 32 bits; the fuel is still the batch
    # price of the order, bit for bit
    scn = sample_scenario(ScenarioConfig(n_cubesats=bundles, fixed_bundles=bundles),
                          seed=bundles)
    ev = TourEvaluator(scn)
    order, fuel = ev.exact_order()
    assert sorted(order) == list(range(bundles))
    assert fuel == ev.fuel_batch(order)[0]


def test_brute_force_memory_stays_small_at_9_bundles():
    # the tables hold 14k values here; pricing all 9! orders took about 23 MB
    scn = sample_scenario(ScenarioConfig(fixed_bundles=9), seed=9)
    tracemalloc.start()
    try:
        brute_force(scn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_brute_force_memory_stays_small_at_13_bundles():
    # mass and fuel are kept for two set sizes at a time: about 1.3 MiB here,
    # against 3.1 MiB with a row for each of the 2¹³ sets
    scn = sample_scenario(ScenarioConfig(fixed_bundles=13), seed=13)
    tracemalloc.start()
    try:
        brute_force(scn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_dropping_decommission_never_raises_cost(small_scenario):
    ev = TourEvaluator(small_scenario)
    orders = lex_orders(small_scenario.n_bundles)
    with_decom, _, _ = ev.cost_batch(orders)
    ev.decommission_frac = np.zeros_like(ev.decommission_frac)
    without, _, _ = ev.cost_batch(orders)
    assert without.min() <= with_decom.min() + 1e-15


def test_order_validation(small_scenario):
    with pytest.raises(ValueError):
        tour_cost(small_scenario, [0, 0, 1])
    with pytest.raises(ValueError):
        tour_plans(small_scenario, [0, 0, 1])
