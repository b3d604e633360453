"""Mission scenario model: spacecraft/payload data, the randomized
deployment-mission generator, and scenario (de)serialization.

Scenario JSON uses kilometres and degrees for readability; everything in
memory is km/rad.  Angles therefore reload equal to the saved state only to
floating-point rounding (~1 ulp), which the tests treat as identity.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .constants import EARTH, SECONDS_PER_YEAR, TWO_PI, PhysicalConstants
from .elements import KeplerianState, SpacecraftState, kep_to_mee
from .errors import SchemaError, json_fits, read_json_object, write_json
from .maneuvers import ThrusterSpec

SCHEMA_VERSION = 1

#: nominal worst-case payload masses by class [kg]
PAYLOAD_CLASS_MASS = {"cubesat": 6.0, "pocketqube": 1.5, "smallsat": 25.0}


@dataclass(frozen=True)
class SpacecraftSpec:
    """Vehicle mass budget and propulsion."""

    wet_mass: float = 235.0
    payload_mass_total: float = 80.0
    fuel_mass: float = 35.0
    thruster: ThrusterSpec = field(default_factory=ThrusterSpec)

    def __post_init__(self) -> None:
        if self.fuel_mass + self.payload_mass_total > self.wet_mass:
            raise ValueError("fuel plus payload cannot exceed the wet mass")
        if min(self.wet_mass, self.payload_mass_total, self.fuel_mass) < 0.0:
            raise ValueError("masses must be non-negative")

    @property
    def bus_mass(self) -> float:
        """Dry structure mass excluding payloads and propellant."""
        return self.wet_mass - self.payload_mass_total - self.fuel_mass


@dataclass(frozen=True)
class PayloadSpec:
    cls: str
    mass: float
    target: KeplerianState

    def __post_init__(self) -> None:
        if self.cls not in PAYLOAD_CLASS_MASS:
            raise ValueError(f"unknown payload class {self.cls!r}")
        if self.mass < PAYLOAD_CLASS_MASS[self.cls] - 1e-12:
            raise ValueError("payload mass below the nominal class mass")


@dataclass(frozen=True)
class Bundle:
    """Payloads deployed together at one shared target orbit."""

    payloads: tuple[PayloadSpec, ...]
    target: KeplerianState

    def __post_init__(self) -> None:
        if not self.payloads:
            raise ValueError("a bundle must contain at least one payload")
        for p in self.payloads:
            if p.target != self.target:
                raise ValueError("bundle target must equal each member's target")

    @property
    def mass(self) -> float:
        return sum(p.mass for p in self.payloads)


@dataclass(frozen=True)
class MissionScenario:
    spacecraft: SpacecraftSpec
    insertion: KeplerianState
    decommission_radius: float
    bundles: tuple[Bundle, ...]
    epoch0: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        # the generator samples bundle counts in [2, n_payloads]; hand-written
        # degenerate missions (single bundle) are still representable
        n_payloads = sum(len(b.payloads) for b in self.bundles)
        if not (1 <= len(self.bundles) <= max(n_payloads, 1)):
            raise ValueError("bundle count must lie in [1, number of payloads]")

    @property
    def n_bundles(self) -> int:
        return len(self.bundles)

    @property
    def payload_mass(self) -> float:
        return sum(b.mass for b in self.bundles)

    @property
    def initial_mass(self) -> float:
        """Launch mass with the actual (sampled) payload manifest aboard."""
        return self.spacecraft.bus_mass + self.spacecraft.fuel_mass + self.payload_mass

    @property
    def fuel_budget(self) -> float:
        return self.spacecraft.fuel_mass

    def initial_state(self) -> SpacecraftState:
        return SpacecraftState(kep_to_mee(self.insertion), mass=self.initial_mass,
                               epoch=self.epoch0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Statistical model of the deployment mission."""

    n_cubesats: int = 8
    n_pocketqubes: int = 4
    n_smallsats: int = 1
    nominal_altitude: float = 500.0     # km above the mean equatorial radius
    altitude_spread: float = 50.0       # uniform half-width [km]
    decommission_altitude: float = 250.0
    insertion_altitude: float = 500.0
    insertion_inclination_deg: float = 97.0
    insertion_raan_deg: float = 158.0
    mass_spread: float = 0.15           # exponential mean of the relative excess
    min_bundles: int = 2
    fixed_bundles: int | None = None    # pin the bundle count instead of sampling
    spacecraft: SpacecraftSpec = field(default_factory=SpacecraftSpec)

    def __post_init__(self) -> None:
        for name in ("n_cubesats", "n_pocketqubes", "n_smallsats",
                     "altitude_spread", "mass_spread"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name, value in (("decommission_altitude", self.decommission_altitude),
                            ("insertion_altitude", self.insertion_altitude),
                            ("nominal_altitude - altitude_spread",
                             self.nominal_altitude - self.altitude_spread)):
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if not 0 <= self.insertion_inclination_deg < 180:
            raise ValueError("insertion_inclination_deg must be in [0, 180), "
                             f"got {self.insertion_inclination_deg}")
        if self.n_payloads < 2:
            raise ValueError("n_cubesats + n_pocketqubes + n_smallsats must be >= 2, "
                             f"got {self.n_payloads}")
        for name, low in (("min_bundles", 1), ("fixed_bundles", self.min_bundles)):
            value = getattr(self, name)
            if value is not None and not low <= value <= self.n_payloads:
                raise ValueError(f"{name} must be in [{low}, {self.n_payloads}], got {value}")

    @property
    def n_payloads(self) -> int:
        return self.n_cubesats + self.n_pocketqubes + self.n_smallsats

    def inventory(self) -> list[str]:
        return (["cubesat"] * self.n_cubesats
                + ["pocketqube"] * self.n_pocketqubes
                + ["smallsat"] * self.n_smallsats)


def sso_inclination(a: float, consts: PhysicalConstants = EARTH) -> float:
    """Inclination for which the J2 node drift completes 360 deg per year at
    semi-major axis ``a`` (circular orbit).  Unique in (pi/2, pi)."""
    target_rate = TWO_PI / SECONDS_PER_YEAR
    n = math.sqrt(consts.mu / a**3)
    coef = 1.5 * consts.j2 * (consts.re / a) ** 2 * n
    cos_i = -target_rate / coef
    if not (-1.0 < cos_i < 0.0):
        raise ValueError(f"no sun-synchronous solution at a = {a:.1f} km")
    return math.acos(cos_i)


def sample_scenario(config: ScenarioConfig, seed: int,
                    consts: PhysicalConstants = EARTH) -> MissionScenario:
    """Draw one randomized mission: bundle count uniform in
    [min_bundles, n_payloads], payloads assigned uniformly at random with no
    empty bundle, per-bundle circular targets with uniform SMA about the
    nominal altitude, inclination uniform across the sun-synchronous band of
    that altitude range, free node/perigee/anomaly, and payload masses at or
    above their class nominal (exponential excess)."""
    rng = np.random.default_rng(seed)
    inventory = config.inventory()
    n = len(inventory)

    masses = [PAYLOAD_CLASS_MASS[c] * (1.0 + x)
              for c, x in zip(inventory, rng.exponential(config.mass_spread, n))]

    if config.fixed_bundles is not None:
        n_bundles = config.fixed_bundles
    else:
        n_bundles = int(rng.integers(config.min_bundles, n + 1))
    if n_bundles == n:
        # conditioning uniform assignment on no-empty-bundle is exactly a
        # uniform bijection here; rejection would almost never terminate
        assignment = rng.permutation(n)
    else:
        while True:
            assignment = rng.integers(0, n_bundles, n)
            if len(np.unique(assignment)) == n_bundles:
                break

    a_min = consts.re + config.nominal_altitude - config.altitude_spread
    a_max = consts.re + config.nominal_altitude + config.altitude_spread
    i_lo = sso_inclination(a_min, consts)
    i_hi = sso_inclination(a_max, consts)

    bundles = []
    for b in range(n_bundles):
        target = KeplerianState(
            a=float(rng.uniform(a_min, a_max)),
            e=0.0,
            i=float(rng.uniform(i_lo, i_hi)),
            raan=float(rng.uniform(0.0, TWO_PI)),
            argp=float(rng.uniform(0.0, TWO_PI)),
            ta=float(rng.uniform(0.0, TWO_PI)),
        )
        members = tuple(PayloadSpec(inventory[j], masses[j], target)
                        for j in range(n) if assignment[j] == b)
        bundles.append(Bundle(members, target))

    insertion = KeplerianState(
        a=consts.re + config.insertion_altitude, e=0.0,
        i=math.radians(config.insertion_inclination_deg),
        raan=math.radians(config.insertion_raan_deg),
        argp=0.0, ta=0.0)
    return MissionScenario(
        spacecraft=config.spacecraft,
        insertion=insertion,
        decommission_radius=consts.re + config.decommission_altitude,
        bundles=tuple(bundles),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _kep_to_dict(kep: KeplerianState) -> dict:
    return {"a_km": kep.a, "e": kep.e, "i_deg": math.degrees(kep.i),
            "raan_deg": math.degrees(kep.raan), "argp_deg": math.degrees(kep.argp),
            "ta_deg": math.degrees(kep.ta)}


def _radians(deg: float) -> float:
    """Radians that convert back to exactly ``deg`` degrees where such a
    value exists, so a saved scenario loads and saves to the same bytes.
    ``math.radians`` alone lands one ulp off for about one angle in twenty;
    the value sought is then its neighbour."""
    x = math.radians(deg)
    for y in (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)):
        if math.degrees(y) == deg:
            return y
    return x


def _kep_from_dict(d: dict, where: str) -> KeplerianState:
    """The orbit record ``d``; its errors start with ``where``, the orbit's
    place in the scenario (``insertion`` or ``bundles[k].target``)."""
    try:
        if not d["i_deg"] < 180.0:  # equinoctial elements are singular at 180
            raise ValueError(f"i_deg must be below 180, got {d['i_deg']}")
        return KeplerianState(a=d["a_km"], e=d["e"], i=_radians(d["i_deg"]),
                              raan=_radians(d["raan_deg"]),
                              argp=_radians(d["argp_deg"]),
                              ta=_radians(d["ta_deg"]))
    except KeyError as exc:
        raise SchemaError(f"{where}: orbit record missing field {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def scenario_to_dict(scn: MissionScenario, consts: PhysicalConstants = EARTH) -> dict:
    sc = scn.spacecraft
    th = sc.thruster
    return {
        "version": SCHEMA_VERSION,
        "seed": scn.seed,
        "epoch0_s": scn.epoch0,
        "spacecraft": {
            "wet_mass_kg": sc.wet_mass,
            "payload_mass_total_kg": sc.payload_mass_total,
            "fuel_mass_kg": sc.fuel_mass,
            "thruster": {
                "thrust_n": th.thrust, "isp_s": th.isp, "t_on_s": th.t_on,
                "t_cooldown_s": th.t_cooldown, "min_impulse_bit_ns": th.min_impulse_bit,
                "cluster": th.cluster,
            },
        },
        "insertion": _kep_to_dict(scn.insertion),
        "decommission_alt_km": scn.decommission_radius - consts.re,
        "bundles": [
            {"target": _kep_to_dict(b.target),
             "payloads": [{"class": p.cls, "mass_kg": p.mass} for p in b.payloads]}
            for b in scn.bundles
        ],
    }


_ORBIT = dict.fromkeys(("a_km", "e", "i_deg", "raan_deg", "argp_deg", "ta_deg"), float)
#: the type of every scalar a scenario record holds; a list's one element
#: is the schema of each of its items
_SCHEMA = {
    "seed": int | None, "epoch0_s": float, "decommission_alt_km": float,
    "spacecraft": {
        "wet_mass_kg": float, "payload_mass_total_kg": float, "fuel_mass_kg": float,
        "thruster": {"thrust_n": float, "isp_s": float, "t_on_s": float,
                     "t_cooldown_s": float, "min_impulse_bit_ns": float, "cluster": int}},
    "insertion": _ORBIT,
    "bundles": [{"target": _ORBIT, "payloads": [{"class": str, "mass_kg": float}]}],
}
_KINDS = {float: "a number", int: "an integer", str: "a string",
          int | None: "an integer or null"}


def _check_types(value, schema, where: str) -> None:
    """Raise a schema error naming, as a dotted path, the first scalar in
    ``value`` whose JSON type cannot set a field of its ``schema`` type
    (:func:`json_fits`) or that is a number but not finite (JSON's NaN and
    Infinity, or an overflow).  Missing keys and records of another shape
    are left to the loader."""
    if isinstance(schema, dict) and isinstance(value, dict):
        for key, sub in schema.items():
            if key in value:
                _check_types(value[key], sub, f"{where}.{key}" if where else key)
    elif isinstance(schema, list) and isinstance(value, list):
        for k, item in enumerate(value):
            _check_types(item, schema[0], f"{where}.{k}")
    elif not isinstance(schema, (dict, list)):
        if not json_fits(value, schema):
            raise SchemaError(f"{where} must be {_KINDS[schema]}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise SchemaError(f"{where} must be a finite number, got {value}")


def scenario_from_dict(d: dict, consts: PhysicalConstants = EARTH) -> MissionScenario:
    if not isinstance(d, dict) or "version" not in d:
        raise SchemaError("not a scenario record")
    if d["version"] != SCHEMA_VERSION:
        raise SchemaError(f"unsupported scenario schema version {d['version']!r}")
    _check_types(d, _SCHEMA, "")
    try:
        th = d["spacecraft"]["thruster"]
        thruster = ThrusterSpec(thrust=th["thrust_n"], isp=th["isp_s"], t_on=th["t_on_s"],
                                t_cooldown=th["t_cooldown_s"],
                                min_impulse_bit=th["min_impulse_bit_ns"],
                                cluster=th["cluster"])
        spacecraft = SpacecraftSpec(
            wet_mass=d["spacecraft"]["wet_mass_kg"],
            payload_mass_total=d["spacecraft"]["payload_mass_total_kg"],
            fuel_mass=d["spacecraft"]["fuel_mass_kg"],
            thruster=thruster)
        bundles = []
        for k, bd in enumerate(d["bundles"]):
            target = _kep_from_dict(bd["target"], f"bundles[{k}].target")
            payloads = tuple(PayloadSpec(p["class"], p["mass_kg"], target)
                             for p in bd["payloads"])
            bundles.append(Bundle(payloads, target))
        decommission_radius = d["decommission_alt_km"] + consts.re
        if not decommission_radius > consts.re:
            raise SchemaError(f"decommission_alt_km must be positive, got {d['decommission_alt_km']}")
        return MissionScenario(
            spacecraft=spacecraft,
            insertion=_kep_from_dict(d["insertion"], "insertion"),
            decommission_radius=decommission_radius,
            bundles=tuple(bundles),
            epoch0=d.get("epoch0_s", 0.0),
            seed=d.get("seed"),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed scenario record: {exc}") from exc


def save_scenario(scn: MissionScenario, path: str | os.PathLike,
                  consts: PhysicalConstants = EARTH) -> None:
    write_json(path, scenario_to_dict(scn, consts))


def load_scenario(path: str | os.PathLike,
                  consts: PhysicalConstants = EARTH) -> MissionScenario:
    """The scenario in ``path``; a bad record raises a schema error naming the file."""
    data = read_json_object(path)
    try:
        return scenario_from_dict(data, consts)
    except ValueError as exc:  # a SchemaError is a ValueError too
        raise SchemaError(f"{path}: {exc}") from exc
