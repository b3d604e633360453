"""orbtour: multi-target orbital rendezvous mission design.

Scenario generation, analytical transfer estimation, tour optimization over
drifting targets, trajectory refinement by successive convexification, and
independent numerical verification.
"""

__version__ = "0.1.0"

from .constants import EARTH, PhysicalConstants
from .elements import KeplerianState, MeeState, SpacecraftState, kep_to_mee, mee_to_kep
from .maneuvers import (BurnPlan, TransferEstimate, ThrusterSpec,
                        decommission_estimate, mht_estimate, nic_estimate,
                        phasing_coast, sequential_mht_nic)
from .optimizer import EvolutionTrace, OptimizerConfig, optimize
from .scenario import (Bundle, MissionScenario, PayloadSpec, ScenarioConfig,
                       SpacecraftSpec, load_scenario, sample_scenario,
                       save_scenario, sso_inclination)
from .scp import OcpProblem, RefineOptions, RefinedArc, refine_tour, scp_solve
from .tour import Tour, TourEvaluator, brute_force, heuristic_walks, tour_cost
from .verify import VerificationReport, verify_trajectory

__all__ = [
    "EARTH", "PhysicalConstants",
    "KeplerianState", "MeeState", "SpacecraftState", "kep_to_mee", "mee_to_kep",
    "BurnPlan", "TransferEstimate", "ThrusterSpec", "decommission_estimate",
    "mht_estimate", "nic_estimate", "phasing_coast", "sequential_mht_nic",
    "EvolutionTrace", "OptimizerConfig", "optimize",
    "Bundle", "MissionScenario", "PayloadSpec", "ScenarioConfig",
    "SpacecraftSpec", "load_scenario", "sample_scenario", "save_scenario",
    "sso_inclination",
    "OcpProblem", "RefineOptions", "RefinedArc", "refine_tour", "scp_solve",
    "Tour", "TourEvaluator", "brute_force", "heuristic_walks", "tour_cost",
    "VerificationReport", "verify_trajectory",
]
