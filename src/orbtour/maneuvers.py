"""Analytical transfer estimators: multi-burn Hohmann raises/lowerings,
nodal inclination changes, their sequential composition, phasing coasts and
the decommissioning maneuver.

Every estimator returns a :class:`TransferEstimate` (total dv, fuel, burn
count, duty-cycle time of flight and end state) together with a
:class:`BurnPlan` (the impulsive event sequence that realizes the estimate,
consumed by the trajectory refiner's warm start).

Duty-cycle model: a burn consumes at most ``mdot * t_on`` of propellant
(continuous firing limited to ``t_on`` seconds); burns are executed once per
revolution at the working apsis for altitude changes and up to twice per
revolution at the nodes for plane changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .constants import EARTH, TWO_PI, PhysicalConstants, wrap_angle
from .dynamics import j2_secular_rates, mean_longitude_rate, orbit_scalars
from .elements import KeplerianState, SpacecraftState, kep_to_mee, mee_to_kep
from .errors import InsufficientFuelError

#: burn location tags used in plans
PERIGEE, APOGEE, ASC_NODE, DESC_NODE = "perigee", "apogee", "ascending-node", "descending-node"


@dataclass(frozen=True)
class ThrusterSpec:
    """Propulsion capability. ``thrust`` is per-thruster peak [N]; ``cluster``
    multiplies it when several thrusters fire together."""

    thrust: float = 12.6          # N
    isp: float = 277.0            # s
    t_on: float = 5.0             # max continuous burn [s]
    t_cooldown: float = 60.0      # min off time between burns [s]
    min_impulse_bit: float = 1.0  # N*s
    cluster: int = 1

    def __post_init__(self) -> None:
        for name in ("thrust", "isp", "t_on", "t_cooldown", "min_impulse_bit"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.cluster < 1:
            raise ValueError("cluster must be >= 1")

    @property
    def thrust_kn(self) -> float:
        """Effective peak thrust of the firing cluster [kN]."""
        return self.thrust * self.cluster * 1e-3

    @property
    def cycle(self) -> float:
        """Minimum time between consecutive burn starts [s]."""
        return self.t_on + self.t_cooldown

    def exhaust_velocity(self, consts: PhysicalConstants = EARTH) -> float:
        """isp * g0 [km/s]."""
        return self.isp * consts.g0

    def mass_flow(self, consts: PhysicalConstants = EARTH) -> float:
        """Propellant mass flow at peak thrust [kg/s]."""
        return self.thrust_kn / self.exhaust_velocity(consts)

    def per_burn_fuel(self, consts: PhysicalConstants = EARTH) -> float:
        """Propellant consumed by one full-length burn [kg]."""
        return self.mass_flow(consts) * self.t_on


@dataclass(frozen=True)
class BurnEvent:
    """One impulsive event of a plan."""

    epoch: float                    # s since plan start
    dv: tuple[float, float, float]  # LVLH impulse [km/s]
    tag: str

    @property
    def magnitude(self) -> float:
        return math.sqrt(sum(c * c for c in self.dv))


@dataclass
class BurnPlan:
    """Ordered impulse sequence.  Epochs are the physical burn instants of
    the underlying apsis/node staircase; they can differ from the reported
    duty-cycle time of flight by a fraction of a revolution."""

    events: list[BurnEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for prev, cur in zip(self.events, self.events[1:]):
            if cur.epoch <= prev.epoch:
                raise ValueError("burn epochs must be strictly increasing")

    @property
    def duration(self) -> float:
        return self.events[-1].epoch if self.events else 0.0

    @property
    def dv_total(self) -> float:
        return sum(ev.magnitude for ev in self.events)

    def shifted(self, offset: float) -> "BurnPlan":
        return BurnPlan([BurnEvent(ev.epoch + offset, ev.dv, ev.tag)
                         for ev in self.events])

    def then(self, other: "BurnPlan", offset: float, min_gap: float) -> "BurnPlan":
        """Append ``other`` starting at ``offset``, pushed later if needed to
        keep at least ``min_gap`` seconds after the current last burn."""
        if self.events and other.events:
            offset = max(offset, self.events[-1].epoch + min_gap - other.events[0].epoch)
        return BurnPlan(self.events + other.shifted(offset).events)


@dataclass
class TransferEstimate:
    """Cost summary of one maneuver or maneuver sequence: total ``dv_total``
    [km/s], ``fuel_mass`` [kg], ``burn_count``, ``tof_total`` [s] and the
    ``end_state``.  ``tof_total`` is the duty-cycle timeline, phasing and
    node coasts included; the burn plan carries the physical epochs."""

    dv_total: float
    fuel_mass: float
    burn_count: int
    tof_total: float
    end_state: SpacecraftState


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------

def hohmann_dv(r0: float, r1: float, mu: float) -> tuple[float, float]:
    """Two-impulse transfer costs (departure, circularization) [km/s]."""
    a_t = 0.5 * (r0 + r1)
    v0 = math.sqrt(mu / r0)
    v1 = math.sqrt(mu / r1)
    v_t0 = math.sqrt(mu * (2.0 / r0 - 1.0 / a_t))
    v_t1 = math.sqrt(mu * (2.0 / r1 - 1.0 / a_t))
    return abs(v_t0 - v0), abs(v1 - v_t1)


def plane_change_dv(di: float, speed: float) -> float:
    """Impulsive rotation of the velocity vector by ``di`` [km/s]."""
    return 2.0 * speed * math.sin(abs(di) / 2.0)


def rocket_fuel(m0: float, dv: float, ve: float) -> float:
    """Propellant for ``dv`` starting from mass ``m0`` (constant isp)."""
    return m0 * (1.0 - math.exp(-dv / ve))


def required_burns(fuel: float, per_burn: float) -> int:
    """Number of duty-cycle burns needed for ``fuel`` kg of propellant."""
    if fuel <= 0.0:
        return 0
    return max(1, math.ceil(fuel / per_burn - 1e-12))


def average_period(r0: float, r1: float, mu: float) -> float:
    """Orbital period averaged over radii swept between r0 and r1 [s]."""
    lo, hi = min(r0, r1), max(r0, r1)
    if hi - lo < 1e-9:
        return TWO_PI * math.sqrt(lo**3 / mu)
    return 4.0 * math.pi / (5.0 * math.sqrt(mu) * (hi - lo)) * (hi**2.5 - lo**2.5)


def duty_cycle_tof(burns: int, period: float, thruster: ThrusterSpec, cap: int) -> float:
    """Transfer duration for ``burns`` burns at up to ``cap`` per revolution,
    further limited by the thruster on/off cycle."""
    if burns == 0:
        return 0.0
    per_orbit = min(cap, int(period // thruster.cycle))
    if per_orbit >= 1:
        return math.ceil(burns / per_orbit) * period
    # cooldown longer than a revolution: one burn every several revolutions
    return burns * math.ceil(thruster.cycle / period) * period


def split_dv(dv_total: float, m0: float, thruster: ThrusterSpec,
             consts: PhysicalConstants = EARTH) -> list[tuple[float, float]]:
    """Split a leg dv into per-burn (dv_j, fuel_j) pieces.

    Every burn except the last consumes one full duty cycle of propellant;
    a trailing burn below the minimum impulse bit is merged into its
    predecessor.  The dv pieces telescope: their sum equals ``dv_total``.
    """
    if dv_total <= 0.0:
        return []
    ve = thruster.exhaust_velocity(consts)
    per_burn = thruster.per_burn_fuel(consts)
    fuel_total = rocket_fuel(m0, dv_total, ve)
    pieces: list[tuple[float, float]] = []
    m = m0
    remaining = fuel_total
    while remaining > 1e-15:
        fuel_j = min(per_burn, remaining)
        dv_j = ve * math.log(m / (m - fuel_j))
        pieces.append((dv_j, fuel_j))
        m -= fuel_j
        remaining -= fuel_j
    # merge a final sliver below the minimum impulse bit [N*s] = 1e-3 kN*s
    if len(pieces) > 1 and pieces[-1][1] * ve < thruster.min_impulse_bit * 1e-3:
        dv_last, fuel_last = pieces.pop()
        dv_prev, fuel_prev = pieces.pop()
        pieces.append((dv_prev + dv_last, fuel_prev + fuel_last))
    return pieces


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def mht_estimate(r0: float, r1: float, craft_mass: float, thruster: ThrusterSpec,
                 consts: PhysicalConstants = EARTH) -> tuple[TransferEstimate, BurnPlan]:
    """Multi-burn Hohmann transfer between circular radii r0 -> r1.

    The total dv equals the direct two-impulse transfer regardless of how
    many burns it is split into.  The plan steps the apsis staircase: the
    departure burns share one apsis, the circularization burns the other,
    and each revolution uses the current osculating period.
    """
    if r0 <= consts.re or r1 <= consts.re:
        raise ValueError("orbit radii must exceed the Earth radius")
    if craft_mass <= 0.0:
        raise ValueError("craft mass must be positive")

    if abs(r1 - r0) < 1e-12:
        end_kep = KeplerianState(a=r1, e=0.0, i=0.0, raan=0.0, argp=0.0, ta=0.0)
        end = SpacecraftState(kep_to_mee(end_kep), mass=craft_mass, epoch=0.0)
        return TransferEstimate(0.0, 0.0, 0, 0.0, end), BurnPlan([])

    dv_d, dv_c = hohmann_dv(r0, r1, consts.mu)
    ve = thruster.exhaust_velocity(consts)
    fuel_d = rocket_fuel(craft_mass, dv_d, ve)
    fuel_c = rocket_fuel(craft_mass - fuel_d, dv_c, ve)

    per_burn = thruster.per_burn_fuel(consts)
    k_d = required_burns(fuel_d, per_burn)
    k_c = required_burns(fuel_c, per_burn)
    p_bar = average_period(r0, r1, consts.mu)
    tof = duty_cycle_tof(k_d + k_c, p_bar, thruster, cap=1)

    raising = r1 > r0
    sign = 1.0 if raising else -1.0
    events: list[BurnEvent] = []
    t, m = 0.0, craft_mass
    # phase 1: burns at the departure radius push the far apsis to r1
    v_here = math.sqrt(consts.mu / r0)
    for dv_j, fuel_j in split_dv(dv_d, craft_mass, thruster, consts):
        events.append(BurnEvent(t, (0.0, sign * dv_j, 0.0),
                                PERIGEE if raising else APOGEE))
        v_here += sign * dv_j
        m -= fuel_j
        sma = 1.0 / (2.0 / r0 - v_here**2 / consts.mu)
        t += TWO_PI * math.sqrt(sma**3 / consts.mu)
    # phase 2: half a revolution to the far apsis, then circularize there
    t -= 0.5 * TWO_PI * math.sqrt(sma**3 / consts.mu)
    v_far = math.sqrt(consts.mu * (2.0 / r1 - 1.0 / sma))
    for dv_j, _ in split_dv(dv_c, m, thruster, consts):
        events.append(BurnEvent(t, (0.0, sign * dv_j, 0.0),
                                APOGEE if raising else PERIGEE))
        v_far += sign * dv_j
        sma = 1.0 / (2.0 / r1 - v_far**2 / consts.mu)
        t += TWO_PI * math.sqrt(sma**3 / consts.mu)

    # reported as the departure's plus the circularization's share of the
    # duty-cycle time: the sum can differ from ``tof`` in the last bit, and
    # tour timelines are accumulated from it
    k_tot = max(k_d + k_c, 1)
    tof = tof * k_d / k_tot + tof * k_c / k_tot
    end_kep = KeplerianState(a=r1, e=0.0, i=0.0, raan=0.0, argp=0.0, ta=0.0)
    end = SpacecraftState(kep_to_mee(end_kep), mass=craft_mass - fuel_d - fuel_c, epoch=tof)
    est = TransferEstimate(dv_d + dv_c, fuel_d + fuel_c, k_d + k_c, tof, end)
    return est, BurnPlan(events)


def nic_estimate(di: float, r: float, craft_mass: float, thruster: ThrusterSpec,
                 consts: PhysicalConstants = EARTH) -> tuple[TransferEstimate, BurnPlan]:
    """Nodal inclination change of ``di`` [rad] on a circular orbit of radius
    ``r``, split into node burns at up to two per revolution.

    The out-of-plane sign of each burn flips between the ascending and
    descending nodes so every impulse pushes the inclination the same way.
    Plan epochs use Keplerian node spacing; the refiner retimes them against
    the J2 dynamics before use.
    """
    if r <= consts.re:
        raise ValueError("orbit radius must exceed the Earth radius")
    if not (abs(di) < math.pi):
        raise ValueError("inclination change must satisfy |di| < pi")

    n_mean, period, v_circ = orbit_scalars(r, consts)
    dv = plane_change_dv(di, v_circ)
    ve = thruster.exhaust_velocity(consts)
    fuel = rocket_fuel(craft_mass, dv, ve)
    k = required_burns(fuel, thruster.per_burn_fuel(consts))
    tof = duty_cycle_tof(k, period, thruster, cap=2)

    half = math.pi / n_mean

    events: list[BurnEvent] = []
    t = 0.0
    s = 1.0 if di >= 0.0 else -1.0
    for j, (dv_j, _) in enumerate(split_dv(dv, craft_mass, thruster, consts)):
        ascending = j % 2 == 0
        events.append(BurnEvent(t, (0.0, 0.0, s * dv_j if ascending else -s * dv_j),
                                ASC_NODE if ascending else DESC_NODE))
        t += half

    end_kep = KeplerianState(a=r, e=0.0, i=abs(di), raan=0.0, argp=0.0, ta=0.0)
    end = SpacecraftState(kep_to_mee(end_kep), mass=craft_mass - fuel, epoch=tof)
    return TransferEstimate(dv, fuel, k, tof, end), BurnPlan(events)


def phasing_coast(L_chaser: float, L_target_at_arrival: float,
                  departure_orbit: KeplerianState, target_orbit: KeplerianState,
                  consts: PhysicalConstants = EARTH) -> float:
    """Smallest non-negative coast after which departing on the transfer
    arrives half a revolution behind the departure longitude and on the
    target longitude: L_chaser(t0 + c) = L_target(t0 + c + tof) - pi.

    Both longitudes advance at their secular rates (mean motion plus J2
    node/perigee drift) while coasting.  When the rates coincide and the
    phase is wrong, one full departure-orbit revolution is returned.
    The transfer time is already folded into ``L_target_at_arrival``;
    extra coast shifts both sides at their own rates.
    """
    rate0 = mean_longitude_rate(departure_orbit.a, departure_orbit.e,
                                departure_orbit.i, consts)
    rate1 = mean_longitude_rate(target_orbit.a, target_orbit.e,
                                target_orbit.i, consts)
    mismatch = wrap_angle(L_target_at_arrival - math.pi - L_chaser)
    rel = rate0 - rate1
    if abs(rel) < 1e-15:
        if mismatch < 1e-9 or TWO_PI - mismatch < 1e-9:
            return 0.0
        return TWO_PI / math.sqrt(consts.mu / departure_orbit.a**3)
    coast = mismatch / rel if rel > 0.0 else (mismatch - TWO_PI) / rel
    return max(coast, 0.0)


def _sec_drift(a_mean: float, i_mean: float, dt: float,
               consts: PhysicalConstants) -> float:
    """Node increment accumulated over ``dt`` at a mean circular orbit."""
    draan, _ = j2_secular_rates(a_mean, 0.0, i_mean, consts)
    return draan * dt


def sequential_mht_nic(state: SpacecraftState, target: KeplerianState,
                       release_mass: float, thruster: ThrusterSpec,
                       consts: PhysicalConstants = EARTH,
                       ) -> tuple[TransferEstimate, BurnPlan]:
    """Altitude-and-plane transfer to the circular ``target``, executing the
    plane change where the orbital speed is lowest: raise first when going
    up, change plane first when coming down.  ``release_mass`` is dropped on
    arrival, after the transfer's propellant accounting.

    The reported times of flight follow the duty-cycle formulas; the burn
    plan carries the physical staircase epochs.
    """
    kep0 = mee_to_kep(state.mee)
    r0, i0 = kep0.a, kep0.i
    r1, i1 = target.a, target.i
    di = i1 - i0
    L0 = state.mee.L
    L1_now = wrap_angle(target.ta + target.argp + target.raan)
    raising = r1 >= r0
    i_mid = 0.5 * (i0 + i1)

    mass = state.mass
    raan = kep0.raan
    elapsed = 0.0    # reported (duty-cycle) timeline
    phys_t = 0.0     # physical plan timeline
    plan = BurnPlan([])
    dv_total = 0.0
    fuel_total = 0.0
    burns = 0

    def coast(a_mean: float, i_mean: float, dt: float) -> None:
        nonlocal raan, elapsed, phys_t
        raan += _sec_drift(a_mean, i_mean, dt, consts)
        elapsed += dt
        phys_t += dt

    def burn(est: TransferEstimate, raw_plan: BurnPlan, a_mean: float,
             i_mean: float) -> None:
        nonlocal raan, mass, elapsed, phys_t, dv_total, fuel_total, burns, plan
        dv_total += est.dv_total
        fuel_total += est.fuel_mass
        burns += est.burn_count
        mass -= est.fuel_mass
        raan += _sec_drift(a_mean, i_mean, est.tof_total, consts)
        plan = plan.then(raw_plan, phys_t, thruster.cycle)
        phys_t = max(phys_t + raw_plan.duration, plan.duration)
        elapsed += est.tof_total

    def do_mht(at_i: float) -> None:
        est, raw_plan = mht_estimate(r0, r1, mass, thruster, consts)
        # phase so that arrival meets the target longitude
        L_self = wrap_angle(L0 + mean_longitude_rate(r0, 0.0, at_i, consts) * elapsed)
        L_arr = wrap_angle(L1_now + mean_longitude_rate(r1, 0.0, i1, consts)
                           * (elapsed + est.tof_total))
        dep = KeplerianState(r0, 0.0, at_i, wrap_angle(raan), 0.0, 0.0)
        coast(r0, at_i, phasing_coast(L_self, L_arr, dep, target, consts))
        burn(est, raw_plan, 0.5 * (r0 + r1), at_i)

    def do_nic(at_r: float) -> None:
        if abs(di) == 0.0:
            return
        # coast to the closest node of the current plane
        L_self = wrap_angle((L1_now if at_r == r1 else L0)
                            + mean_longitude_rate(at_r, 0.0, i0, consts) * elapsed)
        u = wrap_angle(L_self - wrap_angle(raan))
        coast(at_r, i0, ((-u) % math.pi) / math.sqrt(consts.mu / at_r**3))
        est, raw_plan = nic_estimate(di, at_r, mass, thruster, consts)
        burn(est, raw_plan, at_r, i_mid)

    if raising:
        do_mht(at_i=i0)
        do_nic(at_r=r1)
    else:
        do_nic(at_r=r0)
        do_mht(at_i=i1)

    # arrival longitude: phased onto the target's secular longitude
    L_arrival = wrap_angle(L1_now + mean_longitude_rate(r1, 0.0, i1, consts) * elapsed)
    end_kep = KeplerianState(a=r1, e=0.0, i=i1, raan=wrap_angle(raan), argp=0.0,
                             ta=wrap_angle(L_arrival - wrap_angle(raan)))
    end_mass = mass - release_mass
    if end_mass <= 0.0:
        raise InsufficientFuelError("release mass exceeds remaining spacecraft mass")
    end = SpacecraftState(kep_to_mee(end_kep), mass=end_mass,
                          epoch=state.epoch + elapsed)
    return TransferEstimate(dv_total, fuel_total, burns, elapsed, end), plan


def decommission_estimate(state: SpacecraftState, decom_radius: float,
                          thruster: ThrusterSpec, consts: PhysicalConstants = EARTH,
                          ) -> tuple[TransferEstimate, BurnPlan]:
    """Disposal maneuver: one multi-burn Hohmann lowering onto the circular
    decommissioning orbit (no inclination change, no phasing)."""
    kep0 = mee_to_kep(state.mee)
    r0 = kep0.a
    if decom_radius <= consts.re:
        raise ValueError("decommission radius must exceed the Earth radius")
    if abs(r0 - decom_radius) < 1e-9:
        end = SpacecraftState(state.mee, state.mass, state.epoch)
        return TransferEstimate(0.0, 0.0, 0, 0.0, end), BurnPlan([])

    est, plan = mht_estimate(r0, decom_radius, state.mass, thruster, consts)
    tof = est.tof_total
    d_raan = _sec_drift(0.5 * (r0 + decom_radius), kep0.i, tof, consts)
    L_end = state.mee.L + math.sqrt(consts.mu / (0.5 * (r0 + decom_radius))**3) * tof
    end_raan = wrap_angle(kep0.raan + d_raan)
    end_kep = KeplerianState(a=decom_radius, e=0.0, i=kep0.i, raan=end_raan,
                             argp=0.0, ta=wrap_angle(L_end - end_raan))
    end = SpacecraftState(kep_to_mee(end_kep), mass=state.mass - est.fuel_mass,
                          epoch=state.epoch + tof)
    return replace(est, end_state=end), plan
