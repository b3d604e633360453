import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbtour.constants import EARTH
from orbtour.dynamics import mean_longitude_rate, orbit_scalars
from orbtour.elements import KeplerianState, SpacecraftState, kep_to_mee, mee_to_kep
from orbtour.errors import InsufficientFuelError
from orbtour.maneuvers import (APOGEE, ASC_NODE, DESC_NODE, PERIGEE, ThrusterSpec,
                               average_period, decommission_estimate, duty_cycle_tof,
                               hohmann_dv, mht_estimate, nic_estimate, phasing_coast,
                               plane_change_dv, rocket_fuel, sequential_mht_nic,
                               split_dv)
from orbtour.scenario import ScenarioConfig, sample_scenario
from orbtour.tour import tour_plans

TH = ThrusterSpec()
TAU = 2 * math.pi


def eq9_xi_form(r0, r1, mu=EARTH.mu):
    """Independent evaluation of the transfer-cost formulas with the orbit
    ratio substituted for the ambiguous symbol."""
    xi = r1 / r0
    v0 = math.sqrt(mu / r0)
    v1 = math.sqrt(mu / r1)
    dv_d = v0 * abs(math.sqrt(2 * xi / (xi + 1)) - 1)
    dv_c = v1 * abs(math.sqrt(2 / (xi + 1)) - 1)
    return dv_d, dv_c


# ---------------------------------------------------------------------------
# altitude transfers
# ---------------------------------------------------------------------------

def test_mht_degenerate_zero_cost():
    est, plan = mht_estimate(7000.0, 7000.0, 235.0, TH)
    assert est.dv_total == 0.0
    assert est.tof_total == 0.0
    assert est.fuel_mass == 0.0
    assert plan.events == []


def test_mht_reference_raise_cost():
    est, _ = mht_estimate(6950.0, 7000.0, 235.0, TH)
    assert est.dv_total * 1000.0 == pytest.approx(27.09, rel=0.02)


def test_mht_equals_independent_formula():
    dv_d, dv_c = eq9_xi_form(6878.137, 7378.137)
    est, _ = mht_estimate(6878.137, 7378.137, 235.0, TH)
    depart, circularize = hohmann_dv(6878.137, 7378.137, EARTH.mu)
    assert depart == pytest.approx(dv_d, rel=1e-12)
    assert circularize == pytest.approx(dv_c, rel=1e-12)
    assert est.dv_total == pytest.approx(dv_d + dv_c, rel=1e-12)
    assert (dv_d + dv_c) * 1000 == pytest.approx(262.38879893711254, rel=1e-12)


def test_mht_split_invariance_against_direct_transfer():
    rng = np.random.default_rng(5)
    for _ in range(200):
        r0 = rng.uniform(6700.0, 7400.0)
        r1 = rng.uniform(6700.0, 7400.0)
        est, plan = mht_estimate(r0, r1, 235.0, TH)
        direct = sum(hohmann_dv(r0, r1, EARTH.mu))
        assert abs(est.dv_total - direct) <= 1e-12 * max(direct, 1e-12)
        # the plan's impulses telescope to the same total
        assert plan.dv_total == pytest.approx(direct, rel=1e-9)


def test_mht_plan_structure():
    est, plan = mht_estimate(6950.0, 7000.0, 235.0, TH)
    epochs = [ev.epoch for ev in plan.events]
    assert all(b > a for a, b in zip(epochs, epochs[1:]))
    per_burn_dv_cap = TH.exhaust_velocity() * TH.per_burn_fuel() / (235.0 - 235.0 * 0.02)
    assert all(ev.magnitude <= per_burn_dv_cap * 1.01 for ev in plan.events)
    assert est.burn_count == len(plan.events)
    # one burn per revolution: consecutive same-apsis burns are a period apart
    tags = [ev.tag for ev in plan.events]
    assert tags == sorted(tags, key=tags.index)  # one contiguous block per apsis


def test_minimum_impulse_bit_merges_trailing_sliver():
    # dv chosen so the fuel splits into one full burn plus a tiny sliver
    ve = TH.exhaust_velocity()
    per_burn = TH.per_burn_fuel()
    m0 = 235.0
    fuel_target = per_burn + 1e-5  # sliver far below the impulse bit
    dv = -ve * math.log(1.0 - fuel_target / m0)
    pieces = split_dv(dv, m0, TH)
    assert len(pieces) == 1
    assert sum(p[0] for p in pieces) == pytest.approx(dv, rel=1e-12)


def test_burn_count_is_the_plan_event_count_and_prices_the_duty_cycle():
    # a split_dv that merges a trailing sliver plans one burn fewer than
    # ceil(fuel / per-burn fuel); the estimate must count, and charge
    # duty-cycle time for, the burns its plan fires
    rng = np.random.default_rng(20)
    for _ in range(2000):
        r0, r1 = rng.uniform(6700.0, 7400.0, 2)
        mass = rng.uniform(150.0, 300.0)
        est, plan = mht_estimate(r0, r1, mass, TH)
        k = len(plan.events)
        assert est.burn_count == k
        k_d = sum(ev.tag == plan.events[0].tag for ev in plan.events)
        tof = duty_cycle_tof(k, average_period(r0, r1, EARTH.mu), TH, cap=1)
        assert est.tof_total == tof * k_d / k + tof * (k - k_d) / k

        r, di = rng.uniform(6700.0, 7400.0), rng.uniform(-0.05, 0.05)
        est, plan = nic_estimate(di, r, mass, TH)
        assert est.burn_count == len(plan.events)
        assert est.tof_total == duty_cycle_tof(len(plan.events), orbit_scalars(r)[1],
                                               TH, cap=2)

    for seed in range(40):
        scn = sample_scenario(ScenarioConfig(fixed_bundles=13), seed)
        for _, est, plan in tour_plans(scn, range(13)):
            assert est.burn_count == len(plan.events)


@given(st.floats(0.001, 0.5), st.floats(150.0, 300.0))
@settings(max_examples=60, deadline=None)
def test_fuel_monotone_in_dv_and_mass(dv, m0):
    ve = TH.exhaust_velocity()
    assert rocket_fuel(m0, dv, ve) < rocket_fuel(m0, dv * 1.01, ve)
    assert rocket_fuel(m0, dv, ve) < rocket_fuel(m0 * 1.01, dv, ve)


def test_tof_monotone_in_burn_count():
    m = 235.0
    tofs = []
    for r1 in (6960.0, 6980.0, 7000.0, 7050.0):
        est, _ = mht_estimate(6950.0, r1, m, TH)
        tofs.append((est.burn_count, est.tof_total))
    assert sorted(tofs) == tofs


def test_mht_rejects_bad_geometry():
    with pytest.raises(ValueError):
        mht_estimate(6000.0, 7000.0, 235.0, TH)


# ---------------------------------------------------------------------------
# plane changes
# ---------------------------------------------------------------------------

def test_nic_degenerate_zero():
    est, plan = nic_estimate(0.0, 7000.0, 235.0, TH)
    assert est.dv_total == 0.0 and est.tof_total == 0.0
    assert plan.events == []


def test_nic_reference_costs():
    est, _ = nic_estimate(math.radians(0.25), 7000.0, 235.0, TH)
    assert est.dv_total * 1000.0 == pytest.approx(32.71, rel=0.02)
    est, _ = nic_estimate(math.radians(1.0), 7000.0, 235.0, TH)
    assert est.dv_total * 1000.0 == pytest.approx(132.72, rel=0.02)


def test_nic_alternates_nodes_with_flipping_signs():
    _, plan = nic_estimate(math.radians(0.1), 7000.0, 235.0, TH)
    assert len(plan.events) > 4
    for j, ev in enumerate(plan.events):
        assert ev.tag == (ASC_NODE if j % 2 == 0 else DESC_NODE)
        assert ev.dv[0] == ev.dv[1] == 0.0
        assert (ev.dv[2] > 0) == (j % 2 == 0)
    # lowering flips every sign
    _, plan = nic_estimate(-math.radians(0.1), 7000.0, 235.0, TH)
    assert plan.events[0].dv[2] < 0.0


def test_nic_two_burns_per_revolution():
    _, period, _ = orbit_scalars(7000.0)
    est, plan = nic_estimate(math.radians(0.5), 7000.0, 235.0, TH)
    assert est.tof_total == pytest.approx(math.ceil(est.burn_count / 2) * period,
                                          rel=1e-12)
    gaps = np.diff([ev.epoch for ev in plan.events])
    assert np.allclose(gaps, gaps[0])
    assert gaps[0] == pytest.approx(period / 2, rel=1e-3)


# ---------------------------------------------------------------------------
# phasing
# ---------------------------------------------------------------------------

def test_phasing_zero_when_condition_already_met():
    dep = KeplerianState(6950.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    tgt = KeplerianState(7000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    # target arrival longitude exactly pi ahead of the chaser
    assert phasing_coast(1.0, 1.0 + math.pi, dep, tgt) == 0.0


def test_phasing_equal_rates_full_period():
    dep = KeplerianState(7000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    coast = phasing_coast(0.0, 0.5, dep, dep)
    _, period, _ = orbit_scalars(7000.0)
    assert coast == pytest.approx(period)
    assert phasing_coast(0.0, math.pi, dep, dep) == 0.0


def test_phasing_solution_against_bisection():
    """Oracle: bisect the phase condition on an independently coded
    linear mean-longitude model."""
    dep = KeplerianState(6950.0, 0.0, math.radians(97.3), 0.5, 0.0, 0.0)
    tgt = KeplerianState(7000.0, 0.0, math.radians(97.5), 0.7, 0.0, 0.0)
    L0 = 1.0
    L1_arr = 1.0 - math.radians(10.0) + math.pi  # target trails by 10 deg
    rate0 = mean_longitude_rate(dep.a, dep.e, dep.i)
    rate1 = mean_longitude_rate(tgt.a, tgt.e, tgt.i)

    def condition(c):
        lhs = L0 + rate0 * c
        rhs = L1_arr + rate1 * c - math.pi
        return (rhs - lhs + math.pi) % TAU - math.pi

    coast = phasing_coast(L0, L1_arr, dep, tgt)
    assert coast >= 0.0
    assert abs(condition(coast)) < 1e-6
    # bisection over one relative revolution brackets the same root
    lo, hi = max(coast - 1000.0, 0.0), coast + 1000.0
    flo = condition(lo)
    fhi = condition(hi)
    assert flo == 0.0 or fhi == 0.0 or (flo < 0) != (fhi < 0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (condition(mid) < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    assert coast == pytest.approx(0.5 * (lo + hi), abs=1e-3)


# ---------------------------------------------------------------------------
# sequential transfers
# ---------------------------------------------------------------------------

def start_state(a, i_deg, raan_deg=158.0, mass=235.0):
    kep = KeplerianState(a, 0.0, math.radians(i_deg), math.radians(raan_deg), 0.0, 0.0)
    return SpacecraftState(kep_to_mee(kep), mass=mass)


def node_dv(plan):
    """Plane-change dv of a plan: its node-tagged impulses summed."""
    return sum(ev.magnitude for ev in plan.events if ev.tag in (ASC_NODE, DESC_NODE))


def test_sequential_coplanar_reduces_to_altitude_transfer():
    st_ = start_state(6950.0, 97.3964)
    tgt = KeplerianState(7000.0, 0.0, math.radians(97.3964), 1.0, 0.0, 2.0)
    est, plan = sequential_mht_nic(st_, tgt, 0.0, TH)
    assert est.dv_total * 1000.0 == pytest.approx(27.09, rel=0.02)
    assert {ev.tag for ev in plan.events} <= {PERIGEE, APOGEE}


def test_sequential_raise_changes_plane_at_high_orbit():
    st_ = start_state(6950.0, 97.2714)
    tgt = KeplerianState(7000.0, 0.0, math.radians(97.5214), 1.0, 0.0, 2.0)
    est, plan = sequential_mht_nic(st_, tgt, 10.0, TH)
    assert plan.events[0].tag == PERIGEE
    # plane-change cost priced at the higher (slower) orbit
    assert node_dv(plan) == pytest.approx(
        plane_change_dv(math.radians(0.25), math.sqrt(EARTH.mu / 7000.0)), rel=1e-12)
    end = mee_to_kep(est.end_state.mee)
    assert end.a == pytest.approx(7000.0, abs=1e-9)
    assert end.i == pytest.approx(math.radians(97.5214), abs=1e-12)
    assert est.end_state.mass == pytest.approx(235.0 - est.fuel_mass - 10.0, rel=1e-12)


def test_sequential_lowering_changes_plane_first():
    st_ = start_state(7000.0, 97.5)
    tgt = KeplerianState(6950.0, 0.0, math.radians(97.3), 1.0, 0.0, 2.0)
    _, plan = sequential_mht_nic(st_, tgt, 5.0, TH)
    assert plan.events[0].tag in (ASC_NODE, DESC_NODE)
    assert node_dv(plan) == pytest.approx(
        plane_change_dv(math.radians(0.2), math.sqrt(EARTH.mu / 7000.0)), rel=1e-10)


def test_sequential_plane_change_never_cheaper_at_low_orbit():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a0 = rng.uniform(6800.0, 7100.0)
        a1 = rng.uniform(6800.0, 7100.0)
        di = rng.uniform(-0.01, 0.01)
        st_ = start_state(a0, 97.4)
        tgt = KeplerianState(a1, 0.0, math.radians(97.4) + di, 1.0, 0.0, 0.0)
        _, plan = sequential_mht_nic(st_, tgt, 0.0, TH)
        low_dv = plane_change_dv(di, math.sqrt(EARTH.mu / min(a0, a1)))
        assert node_dv(plan) <= low_dv + 1e-15


def test_sequential_tof_is_the_end_epoch():
    # the reported time of flight is the duty-cycle timeline, coasts
    # included, that the end state's epoch advances by
    for a0, i0, a1, i1 in ((6950.0, 97.3, 7000.0, 97.45), (7000.0, 97.5, 6950.0, 97.3)):
        tgt = KeplerianState(a1, 0.0, math.radians(i1), 1.0, 0.0, 2.0)
        est, _ = sequential_mht_nic(start_state(a0, i0), tgt, 0.0, TH)
        assert est.tof_total > 0.0
        assert est.tof_total == est.end_state.epoch


def test_sequential_secular_drift_reflected_in_end_state():
    st_ = start_state(6950.0, 97.3)
    tgt = KeplerianState(7000.0, 0.0, math.radians(97.45), math.radians(40.0),
                         0.0, 2.0)
    est, _ = sequential_mht_nic(st_, tgt, 0.0, TH)
    end = mee_to_kep(est.end_state.mee)
    from orbtour.dynamics import j2_secular_rates
    draan, _ = j2_secular_rates(6975.0, 0.0, math.radians(97.375))
    expected = (math.radians(158.0) + draan * est.tof_total) % TAU
    # drift model uses piecewise mean orbits; agreement to a small fraction
    assert abs((end.raan - expected + math.pi) % TAU - math.pi) < 5e-3


def test_sequential_release_above_remaining_mass_raises():
    st_ = start_state(6950.0, 97.0)
    tgt = KeplerianState(7000.0, 0.0, math.radians(97.6), 1.0, 0.0, 2.0)
    est, _ = sequential_mht_nic(st_, tgt, 0.0, TH)
    remaining = est.end_state.mass
    assert remaining == pytest.approx(st_.mass - est.fuel_mass, rel=1e-12)
    kept, _ = sequential_mht_nic(st_, tgt, 0.9 * remaining, TH)
    assert kept.end_state.mass == pytest.approx(0.1 * remaining, rel=1e-12)
    for release in (remaining, remaining + 1.0):
        with pytest.raises(InsufficientFuelError):
            sequential_mht_nic(st_, tgt, release, TH)


# ---------------------------------------------------------------------------
# decommissioning
# ---------------------------------------------------------------------------

def test_decommission_zero_when_already_there():
    st_ = start_state(EARTH.re + 250.0, 97.4)
    est, plan = decommission_estimate(st_, EARTH.re + 250.0, TH)
    assert est.dv_total == 0.0 and plan.events == []


def test_decommission_reference_value():
    st_ = start_state(EARTH.re + 500.0, 97.4)
    est, _ = decommission_estimate(st_, EARTH.re + 250.0, TH)
    assert est.dv_total * 1000.0 == pytest.approx(142.2251396129104, rel=1e-12)
    end = mee_to_kep(est.end_state.mee)
    assert end.a == pytest.approx(EARTH.re + 250.0, abs=1e-9)
    assert end.e == pytest.approx(0.0, abs=1e-12)


def test_decommission_fuel_consistent_with_rocket_equation():
    st_ = start_state(EARTH.re + 500.0, 97.4, mass=180.0)
    est, _ = decommission_estimate(st_, EARTH.re + 250.0, TH)
    assert est.fuel_mass == pytest.approx(
        rocket_fuel(180.0, est.dv_total, TH.exhaust_velocity()), rel=1e-9)


def test_average_period_of_equal_radii_is_the_circular_period():
    # the closed form divides by the radius gap; equal radii take the
    # circular period, which the form approaches as the gap closes
    r = 6950.0
    circular = TAU * math.sqrt(r**3 / EARTH.mu)
    assert average_period(r, r, EARTH.mu) == circular
    for gap in (1e-3, -1e-3):
        assert average_period(r, r + gap, EARTH.mu) == pytest.approx(circular, rel=1e-6)


def test_cooldown_longer_than_a_revolution_takes_whole_revolutions_per_burn():
    # a 12,005 s cycle against a 5,800 s revolution: each burn waits out the
    # fewest whole revolutions that cover one cycle, here three
    th = ThrusterSpec(t_cooldown=12000.0)
    period = 5800.0
    revs = next(k for k in range(1, 10) if k * period >= th.cycle)
    assert revs == 3
    for burns in (1, 4):
        assert duty_cycle_tof(burns, period, th, cap=1) == burns * revs * period
    assert duty_cycle_tof(0, period, th, cap=1) == 0.0
