"""Independent checks for the benchmark's outputs.

Nothing here imports orbtour.  The physical constants are restated so that a
change to the program's constants or estimators cannot move a reference
along with the result it checks.  Three kinds of check:

- closed-form transfer costs (two-impulse Hohmann, 2 v sin(di/2));
- a rocket-equation tour pricer over the scenario file's numbers;
- per-arc properties any refined trajectory must have: the thrust bound,
  the duty cycle, and a mass drop that obeys the rocket equation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

MU = 398600.4418       # km^3/s^2
RE = 6378.137          # km
G0 = 9.80665e-3        # km/s^2

#: relative tolerance of the rocket-equation mass check on refined arcs
MASS_REL_TOL = 1e-6
#: relative tolerance when the pricer is compared with the program's fuel
PRICE_REL_TOL = 1e-9


def hohmann_dv(r0: float, r1: float, mu: float = MU) -> float:
    """Total two-impulse transfer cost between circular radii [km/s]."""
    a_t = 0.5 * (r0 + r1)
    dep = abs(math.sqrt(mu * (2.0 / r0 - 1.0 / a_t)) - math.sqrt(mu / r0))
    arr = abs(math.sqrt(mu / r1) - math.sqrt(mu * (2.0 / r1 - 1.0 / a_t)))
    return dep + arr


def plane_change_dv(di: float, speed: float) -> float:
    """Impulsive rotation of a velocity of ``speed`` by ``di`` rad [km/s]."""
    return 2.0 * speed * math.sin(abs(di) / 2.0)


def circular_speed(r: float, mu: float = MU) -> float:
    return math.sqrt(mu / r)


def rocket_fuel(m0: float, dv: float, ve: float) -> float:
    return m0 * (1.0 - math.exp(-dv / ve))


@dataclass(frozen=True)
class TourModel:
    """The numbers of a scenario file that fix a tour's propellant."""

    m0: float                     # launch mass with the payload aboard [kg]
    ve: float                     # exhaust velocity [km/s]
    insertion: tuple              # (a [km], i [rad])
    decommission_radius: float    # [km]
    bundles: tuple                # ((a [km], i [rad], mass [kg]), ...)

    @classmethod
    def from_file_dict(cls, d: dict) -> "TourModel":
        """Read the scenario JSON format (km, degrees, kg)."""
        sc = d["spacecraft"]
        bundles = tuple(
            (float(b["target"]["a_km"]), math.radians(b["target"]["i_deg"]),
             float(sum(p["mass_kg"] for p in b["payloads"])))
            for b in d["bundles"])
        bus = sc["wet_mass_kg"] - sc["payload_mass_total_kg"] - sc["fuel_mass_kg"]
        return cls(m0=bus + sc["fuel_mass_kg"] + sum(b[2] for b in bundles),
                   ve=sc["thruster"]["isp_s"] * G0,
                   insertion=(d["insertion"]["a_km"],
                              math.radians(d["insertion"]["i_deg"])),
                   decommission_radius=d["decommission_alt_km"] + RE,
                   bundles=bundles)

    @property
    def n(self) -> int:
        return len(self.bundles)

    def leg_fuels(self, order) -> list[float]:
        """Propellant of each leg, decommissioning last.

        A leg is a Hohmann transfer plus the plane change at the higher
        orbit's circular speed; the bundle is released on arrival.
        """
        r, inc = self.insertion
        m = self.m0
        fuels = []
        for idx in order:
            r1, i1, mass = self.bundles[idx]
            dv = hohmann_dv(r, r1) + plane_change_dv(i1 - inc,
                                                     circular_speed(max(r, r1)))
            fuel = rocket_fuel(m, dv, self.ve)
            fuels.append(fuel)
            m -= fuel + mass
            r, inc = r1, i1
        rd = self.decommission_radius
        dv = hohmann_dv(r, rd) if abs(r - rd) > 1e-9 else 0.0
        fuels.append(rocket_fuel(m, dv, self.ve))
        return fuels

    def fuel(self, order) -> float:
        return sum(self.leg_fuels(order))

    def walks(self) -> dict[str, list[int]]:
        """The four sorted walks: by target inclination and by bundle mass,
        each ascending and descending, ties in index order."""
        idx = range(self.n)
        inc = [b[1] for b in self.bundles]
        mass = [b[2] for b in self.bundles]
        return {
            "inclination-ascending": sorted(idx, key=lambda j: inc[j]),
            "inclination-descending": sorted(idx, key=lambda j: -inc[j]),
            "mass-ascending": sorted(idx, key=lambda j: mass[j]),
            "mass-descending": sorted(idx, key=lambda j: -mass[j]),
        }


def is_permutation(order, n: int) -> bool:
    return sorted(int(i) for i in order) == list(range(n))


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def thrust_runs(thrusting: list[bool], dt: list[float],
                cooldown: float) -> tuple[list[float], list[float]]:
    """Group thrusting stages into firings and return (span of each firing,
    off time between consecutive firings) [s].

    Thrusting stages closer together than ``cooldown`` belong to one firing,
    so a stage the solver switched off inside a burn window does not read as
    two firings with a short gap; the firing's span covers both.
    """
    spans: list[float] = []
    gaps: list[float] = []
    t = 0.0
    start = end = None
    for on, d in zip(thrusting, dt):
        if on:
            if end is not None and t - end >= cooldown:
                spans.append(end - start)
                gaps.append(t - end)
                start = None
            if start is None:
                start = t
            end = t + d
        t += d
    if start is not None:
        spans.append(end - start)
    return spans, gaps


def arc_properties(states, controls, dt, t_cooldown: float, ve: float) -> dict:
    """Peak thrust [kN], longest firing and shortest off time [s], velocity
    change [km/s] and the relative gap between the mass drop and the rocket
    equation, for one arc.

    ``states`` are (N+1) rows whose last entry is the mass [kg], ``controls``
    (N) LVLH thrust vectors [kN] and ``dt`` (N) stage durations [s].  The
    velocity change is integrated from the thrust over the stage-midpoint
    mass, apart from the program's own accounting.
    """
    mags = [math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) for u in controls]
    spans, gaps = thrust_runs([m > 0.0 for m in mags], list(dt), t_cooldown)
    m0, m_end = float(states[0][-1]), float(states[-1][-1])
    dv = sum(mag * d / (0.5 * (float(a[-1]) + float(b[-1])))
             for mag, d, a, b in zip(mags, dt, states[:-1], states[1:]))
    expected = rocket_fuel(m0, dv, ve)
    return {"peak_kn": max(mags, default=0.0), "dv_kms": dv,
            "longest_firing_s": max(spans, default=0.0),
            "shortest_off_s": min(gaps, default=math.inf),
            "mass_rel_err": abs((m0 - m_end) - expected) / max(expected, 1e-9)}


def check_arc(label: str, props: dict, thrust_kn: float, t_on: float) -> list[str]:
    """One message per property of :func:`arc_properties` that fails.

    Firings closer than the cooldown were merged by :func:`thrust_runs`, so
    the t_on bound on each firing's span also enforces the cooldown.
    """
    problems = []
    if props["peak_kn"] > thrust_kn * (1.0 + 1e-9):
        problems.append(f"{label}: |u| {props['peak_kn'] * 1e3:.6f} N above "
                        f"the {thrust_kn * 1e3:.6f} N bound")
    if props["longest_firing_s"] > t_on * (1.0 + 1e-9):
        problems.append(f"{label}: a firing spans {props['longest_firing_s']:.6f} s"
                        f" > t_on {t_on} s")
    if props["mass_rel_err"] > MASS_REL_TOL:
        problems.append(f"{label}: mass drop off the rocket equation by "
                        f"{props['mass_rel_err']:.2e} relative")
    return problems
