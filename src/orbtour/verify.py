"""Independent verification of refined trajectories.

Every arc's controls are re-propagated from the arc's stored initial state
with the plain RK4 integrator at the fixed step :data:`STEP_S` (full
nonlinear dynamics plus the instantaneous oblateness term), and the
achieved terminal orbits are checked against the fixed mission gates
(:data:`TOL_SMA_KM`, :data:`TOL_INC_DEG`, :data:`TOL_FUEL_FRACTION`),
and every stage's thrust against the thruster's peak.  The verifier shares
only the dynamics primitives with the refiner, never its linearized model,
and failed gates become report rows, not exceptions.

:data:`STEP_S` is 40 s, half of the refiner's coast substep
:data:`~orbtour.ocp.COAST_SUBSTEP`: every coast is integrated in about
twice the refiner's substeps, so ``consistency_err`` measures the
refiner's own discretization error against an integration about 16 times
more accurate, never the refiner against itself.  Burn stages are shorter
than either step and take one RK4 step, so re-propagated fuel is the same
at 10 s and at 40 s.  Against a 2.5 s reference, the reference transfers
and the benchmark missions end within 1.0e-6 km in a and 3e-10 deg in i,
far inside the 10 km and 0.1 deg gates.
"""
from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .constants import EARTH, PhysicalConstants
from .elements import MeeState, SpacecraftState, mee_to_kep
from .errors import SchemaError, write_json
from .parallel import ordered_map
from .propagate import PropagatorConfig, propagate_numeric
from .scenario import MissionScenario
from .scp import RefinedArc, realized_dv
from .tour import Tour

#: injection accuracy requirements
TOL_SMA_KM = 10.0
TOL_INC_DEG = 0.1
#: allowed gap between numeric and analytic leg fuel, relative to the latter
TOL_FUEL_FRACTION = 0.05
#: allowed excess of a stage's thrust norm over the thruster's peak, relative
TOL_THRUST_REL = 1e-9
#: RK4 step of the re-propagation [s]: half of ``ocp.COAST_SUBSTEP``, so
#: consistency_err compares the refiner with a finer integration.  Its worst
#: terminal error against a 2.5 s reference is 1.0e-6 km and 3e-10 deg
STEP_S = 40.0
#: report.json schema version; 3 dropped ``de``, a copy of ``achieved_e``;
#: 4 added the thrust gate and the top-level ``step_s``
REPORT_VERSION = 4


@dataclass
class LegReport:
    label: str
    target_a_km: float
    target_i_deg: float
    achieved_a_km: float
    achieved_e: float
    achieved_i_deg: float
    da_km: float
    di_deg: float
    fuel_numeric_kg: float
    fuel_analytic_kg: float
    dv_numeric_mps: float
    consistency_err: float       # refiner-vs-verifier terminal state mismatch
    peak_thrust_n: float         # largest stage thrust norm over the leg
    pass_sma: bool
    pass_inc: bool
    pass_fuel: bool
    pass_thrust: bool

    @property
    def passed(self) -> bool:
        return (self.pass_sma and self.pass_inc and self.pass_fuel
                and self.pass_thrust)


@dataclass
class VerificationReport:
    legs: list[LegReport] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(leg.passed for leg in self.legs)

    def to_dict(self) -> dict:
        return {"version": REPORT_VERSION,
                "step_s": STEP_S,
                "all_passed": self.all_passed,
                "legs": [vars(leg) for leg in self.legs]}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[f.name for f in fields(LegReport)])
        writer.writeheader()
        for leg in self.legs:
            writer.writerow(vars(leg))
        return buf.getvalue()


def repropagate_arc(arc: RefinedArc, config: PropagatorConfig, isp: float,
                    consts: PhysicalConstants = EARTH) -> np.ndarray:
    """Re-propagate an arc's controls from its stored initial state."""
    state0 = SpacecraftState(MeeState.from_array(arc.states[0, :6]),
                             mass=float(arc.states[0, 6]), epoch=arc.t0)
    return propagate_numeric(state0, arc.controls, arc.dt, isp, config, consts)


def _check_arc(arc: RefinedArc, isp: float, consts: PhysicalConstants
               ) -> tuple[float, float, float, float, np.ndarray]:
    """Re-propagate one arc: its numeric fuel [kg] and delta-v [km/s], its
    refiner-vs-verifier terminal mismatch, its peak stage thrust [kN] and
    its re-propagated final state."""
    traj = repropagate_arc(arc, PropagatorConfig(step=STEP_S), isp, consts)
    scale = np.maximum(np.abs(arc.x_ref), 1e-2)
    return (float(traj[0, 6] - traj[-1, 6]),
            realized_dv(arc.controls, arc.dt, traj),
            float(np.max(np.abs((traj[-1] - arc.states[-1]) / scale))),
            float(np.linalg.norm(arc.controls, axis=1).max(initial=0.0)),
            traj[-1])


def _leg_of(label: str, n_legs: int) -> int:
    """The leg index N of an arc label ``legN`` or ``legN/...``."""
    match = re.fullmatch(r"leg(\d+)(?:/.*)?", label, re.ASCII | re.DOTALL)
    if match is None or int(match[1]) >= n_legs:
        raise SchemaError(f"arc label {label!r} names no leg of the tour "
                          f"(leg0 to leg{n_legs - 1})")
    return int(match[1])


def verify_trajectory(arcs: list[RefinedArc], tour: Tour,
                      scenario: MissionScenario,
                      consts: PhysicalConstants = EARTH,
                      jobs: int | None = 1) -> VerificationReport:
    """Check every refined leg against its mission target.

    Arcs are grouped by their ``legN/...`` labels.  A label that names no
    leg of the tour, or a leg with burns that no arc refines, raises
    :class:`~orbtour.errors.SchemaError` before any arc is re-propagated.
    The last arc of each leg carries the injection.  Fuel is compared
    against the analytical leg estimates recorded on the tour, and every
    stage's thrust norm against the thruster's ``thrust_kn``.  Arcs are
    independent, so they are re-propagated on up to ``jobs`` forked worker
    processes (None: every available CPU); fuel and delta-v are then summed
    per leg in arc order, so the report is bit-identical to a serial run's.
    """
    thruster = scenario.spacecraft.thruster
    isp, thrust_kn = thruster.isp, thruster.thrust_kn
    legs = [_leg_of(arc.label, len(tour.legs)) for arc in arcs]
    missing = [f"leg{i}" for i, est in enumerate(tour.legs)
               if est.burn_count > 0 and i not in legs]
    if missing:
        raise SchemaError(f"no arc refines {', '.join(missing)}, which the "
                          "tour says must burn")
    # weights: about each arc's RK4 steps, so the longest arcs start first
    checks = ordered_map(
        partial(_check_arc, isp=isp, consts=consts), arcs, jobs,
        weights=[arc.dt.size + float(arc.dt.sum()) / STEP_S for arc in arcs])
    by_leg: dict[int, list[tuple[float, float, float, float, np.ndarray]]] = {}
    for leg_idx, check in zip(legs, checks):
        by_leg.setdefault(leg_idx, []).append(check)

    report = VerificationReport()
    n = scenario.n_bundles
    for leg_idx in sorted(by_leg):
        fuel_numeric = 0.0
        dv_numeric = 0.0
        consistency = 0.0
        peak_kn = 0.0
        for fuel, dv, mismatch, peak, final in by_leg[leg_idx]:
            fuel_numeric += fuel
            dv_numeric += dv
            consistency = max(consistency, mismatch)
            peak_kn = max(peak_kn, peak)

        achieved = mee_to_kep(MeeState.from_array(final[:6]))
        if leg_idx < n:
            bundle = scenario.bundles[tour.order[leg_idx]]
            target_a, target_i = bundle.target.a, bundle.target.i
        else:
            target_a, target_i = scenario.decommission_radius, achieved.i

        leg_est = tour.legs[leg_idx]
        da = achieved.a - target_a
        di = achieved.i - target_i
        fuel_analytic = leg_est.fuel_mass
        fuel_ok = (abs(fuel_numeric - fuel_analytic)
                   <= TOL_FUEL_FRACTION * max(fuel_analytic, 1e-12))
        report.legs.append(LegReport(
            label=f"leg{leg_idx}",
            target_a_km=target_a, target_i_deg=math.degrees(target_i),
            achieved_a_km=achieved.a, achieved_e=achieved.e,
            achieved_i_deg=math.degrees(achieved.i),
            da_km=da, di_deg=math.degrees(di),
            fuel_numeric_kg=fuel_numeric, fuel_analytic_kg=fuel_analytic,
            dv_numeric_mps=dv_numeric * 1000.0,
            consistency_err=consistency,
            peak_thrust_n=peak_kn * 1000.0,
            pass_sma=abs(da) <= TOL_SMA_KM,
            pass_inc=abs(math.degrees(di)) <= TOL_INC_DEG,
            pass_fuel=fuel_ok,
            pass_thrust=peak_kn <= thrust_kn * (1.0 + TOL_THRUST_REL),
        ))
    return report


def save_report(report: VerificationReport, json_path: str | os.PathLike,
                csv_path: str | os.PathLike | None = None) -> None:
    write_json(json_path, report.to_dict())
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
