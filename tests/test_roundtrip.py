"""Artifacts written, read back and written again give the same bytes.

Hand-built short inputs drawn by Hypothesis: scenarios of one to three
bundles, tours over them, and refined arcs of one to four stages.  Each
example is a save -> load -> save cycle through the files the CLI writes.
"""
import io
import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from orbtour.cli import load_tour_order, save_tour
from orbtour.constants import EARTH
from orbtour.elements import KeplerianState
from orbtour.maneuvers import ThrusterSpec
from orbtour.scenario import (PAYLOAD_CLASS_MASS, Bundle, MissionScenario,
                              PayloadSpec, SpacecraftSpec, load_scenario,
                              save_scenario)
from orbtour.scp import RefinedArc, arc_to_dict, load_arcs, save_arcs
from orbtour.tour import tour_cost

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

ANGLE = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
RADIUS = st.floats(EARTH.re + 200.0, EARTH.re + 2000.0)


def orbits(radius=RADIUS, inclination=st.floats(0.0, math.radians(179.0))):
    return st.builds(KeplerianState, a=radius, e=st.floats(0.0, 0.05),
                     i=inclination, raan=ANGLE, argp=ANGLE, ta=ANGLE)


@st.composite
def missions(draw, near_insertion: bool = False):
    """Scenarios of one to three bundles; ``near_insertion`` keeps every
    target within 20 km and 0.05 deg of a circular insertion and the
    thruster at its default, so a tour prices in milliseconds."""
    if near_insertion:
        # the pricer works in equinoctial elements, which are singular at
        # i = pi, so tours stay clear of retrograde equatorial orbits
        insertion = draw(orbits(inclination=st.floats(0.0, math.radians(170.0))))
        insertion = KeplerianState(insertion.a, 0.0, insertion.i, insertion.raan, 0.0, 0.0)
        di = math.radians(0.05)
        target = orbits(st.floats(insertion.a - 20.0, insertion.a + 20.0),
                        st.floats(max(insertion.i - di, 0.0), insertion.i + di))
        thruster = ThrusterSpec()
    else:
        insertion = draw(orbits())
        target = orbits()
        thruster = ThrusterSpec(thrust=draw(st.floats(1.0, 50.0)),
                                isp=draw(st.floats(100.0, 400.0)))
    bundles = []
    for _ in range(draw(st.integers(1, 3))):
        orbit = draw(target)
        classes = draw(st.lists(st.sampled_from(sorted(PAYLOAD_CLASS_MASS)),
                                min_size=1, max_size=2))
        payloads = tuple(PayloadSpec(c, PAYLOAD_CLASS_MASS[c] + draw(st.floats(0.0, 5.0)),
                                     orbit) for c in classes)
        bundles.append(Bundle(payloads, orbit))
    return MissionScenario(spacecraft=SpacecraftSpec(thruster=thruster),
                           insertion=insertion, decommission_radius=draw(RADIUS),
                           bundles=tuple(bundles), epoch0=draw(st.floats(0.0, 1e7)),
                           seed=draw(st.none() | st.integers(0, 2**63 - 1)))


def cycle(save, load, value, first, second) -> None:
    """save(value) to ``first``, save(load(first)) to ``second``; the two
    files must hold the same bytes."""
    save(value, first)
    save(load(first), second)
    assert first.read_bytes() == second.read_bytes()


@SETTINGS
@given(scn=missions())
def test_scenario_round_trip_is_byte_stable(tmp_path, scn):
    cycle(save_scenario, load_scenario, scn, tmp_path / "a.json", tmp_path / "b.json")


@SETTINGS
@given(scn=missions(near_insertion=True), data=st.data())
def test_tour_round_trip_is_byte_stable(tmp_path, scn, data):
    # as in the CLI, tours are priced on the scenario read from its file,
    # and a tour file is read back as its order and priced again
    save_scenario(scn, tmp_path / "scenario.json")
    scn = load_scenario(tmp_path / "scenario.json")
    order = data.draw(st.permutations(range(scn.n_bundles)))
    cycle(save_tour, lambda path: tour_cost(scn, load_tour_order(path, scn.n_bundles)),
          tour_cost(scn, order), tmp_path / "a.json", tmp_path / "b.json")


def finite(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False)


@st.composite
def arcs(draw):
    n = draw(st.integers(1, 4))
    element = st.tuples(finite(6500.0, 7500.0), finite(-0.01, 0.01), finite(-0.01, 0.01),
                        finite(-1.0, 1.0), finite(-1.0, 1.0), finite(0.0, 100.0),
                        finite(100.0, 250.0))
    states = np.array(draw(st.lists(element, min_size=n + 1, max_size=n + 1)))
    controls = np.array(draw(st.lists(st.tuples(*[finite(-0.05, 0.05)] * 3),
                                      min_size=n, max_size=n)))
    controls[draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    return RefinedArc(
        states=states, controls=controls,
        dt=np.array(draw(st.lists(finite(0.1, 600.0), min_size=n, max_size=n))),
        t0=draw(finite(0.0, 1e8)),
        iterations=draw(st.integers(0, 50)), converged=draw(st.booleans()),
        objective=draw(finite(0.0, 1e6)), x_ref=np.array(draw(element)),
        label=draw(st.text(max_size=12)),
        objective_history=draw(st.lists(finite(0.0, 1e6), max_size=5)))


@SETTINGS
@given(arc_list=st.lists(arcs(), min_size=1, max_size=3))
def test_arcs_round_trip_is_byte_stable(tmp_path, arc_list):
    cycle(save_arcs, load_arcs, arc_list, tmp_path / "a.json", tmp_path / "b.json")
    assert_arcs_file_is_json_dump(arc_list, tmp_path / "a.json")


def assert_arcs_file_is_json_dump(arc_list, path) -> None:
    """The file save_arcs wrote at ``path`` holds the bytes of one
    ``json.dump`` of its whole record with sorted keys, and a newline."""
    buf = io.StringIO()
    json.dump({"version": 2, "arcs": [arc_to_dict(a) for a in arc_list]}, buf,
              sort_keys=True)
    assert path.read_text(encoding="utf-8") == buf.getvalue() + "\n"


def test_arcs_file_is_the_json_dump_of_its_record(tmp_path):
    # no arcs at all, and an arc holding a negative zero, the smallest
    # subnormal and a number near the largest double
    odd = RefinedArc(
        states=np.array([[7000.0, -0.0, 5e-324, 0.1, -0.0, 1.0, 235.0],
                         [7000.5, 1e-3, -0.0, 0.1, 0.2, 1.5, 234.9]]),
        controls=np.array([[-0.0, 5e-324, 0.0126]]), dt=np.array([5e-324]),
        t0=-0.0, iterations=3, converged=False, objective=1e308,
        x_ref=np.array([7000.0, -0.0, 0.0, 5e-324, 0.0, 1e308, 200.0]), label="odd",
        objective_history=[1e308, -0.0, 5e-324])
    for arc_list in ([], [odd], [odd, odd]):
        cycle(save_arcs, load_arcs, arc_list, tmp_path / "a.json", tmp_path / "b.json")
        assert_arcs_file_is_json_dump(arc_list, tmp_path / "a.json")


def test_arc_dv_read_back_is_bit_equal(tmp_path):
    # one 1.25 s burn at the peak 12.6 N and one coast: the arc's dv v has
    # v * 1000 / 1000 != v, so reading it back from dv_mps would move its
    # last bit.  The arc read back derives it from its arrays instead
    states = np.array([[7000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 235.0],
                       [7000.0, 0.0, 0.0, 0.0, 0.0, 0.01, 234.97],
                       [7000.0, 0.0, 0.0, 0.0, 0.0, 0.5, 234.97]])
    arc = RefinedArc(states=states, controls=np.array([[0.0, 0.0126, 0.0], [0.0] * 3]),
                     dt=np.array([1.25, 60.0]), t0=0.0, iterations=1, converged=True,
                     objective=0.0, x_ref=states[-1].copy(), label="leg0/phase0.0")
    dv = arc.dv_total
    assert dv * 1000.0 / 1000.0 != dv
    save_arcs([arc], tmp_path / "a.json")
    back, = load_arcs(tmp_path / "a.json")
    assert back.dv_total == dv
    assert json.loads((tmp_path / "a.json").read_text())["arcs"][0]["dv_mps"] == dv * 1000.0
