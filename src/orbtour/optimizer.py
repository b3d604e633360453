"""Island-model heuristic optimization of visit orders over random keys.

Each island evolves a population of key vectors in [0,1)^n (decoded to
permutations by argsort) with either a generational GA (tournament
selection, blend crossover, Gaussian key mutation, one elite) or a
global-best PSO.  Each island starts from one draw of scrambled Sobol
points, with a fixed share spawned near any candidate solutions by Mallows
sampling; the candidates themselves are always injected verbatim, so the
final best can never be worse than the best seed.  A ring migration moves
each island's best individual onto its neighbour every few generations.

All islands are held as one (islands, population, n) key array: each
generation prices every member in one batch, and the GA and PSO islands are
each stepped together.  Every island still draws from its own generator,
spawned from one seed, in a fixed order, so results are reproducible bit
for bit and do not depend on how the islands are grouped.  After its
initial population (and, on a PSO island, its initial velocities), each
generation an island draws:

- GA: its tournament picks, one block of uniforms (the crossover's, then
  the mutation mask's), then the mutation normals;
- PSO: one block of uniforms (the cognitive term's, then the social's).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import EARTH, PhysicalConstants
from .permutations import decode, encode, sample_mallows, sobol_points
from .scenario import MissionScenario
from .tour import Tour, TourEvaluator, tour_cost


#: share of each initial population seeded from the candidate tours
SEEDING_FRACTION = 0.25
#: GA: tournament size, blend-crossover reach, per-gene mutation rate and
#: step
TOURNAMENT = 3
CROSSOVER_BLEND = 0.3
MUTATION_RATE = 0.15
MUTATION_SIGMA = 0.2
#: PSO: the constriction coefficients of Clerc & Kennedy (2002) and a
#: velocity clamp in key units
INERTIA = 0.729
COGNITIVE = 1.49445
SOCIAL = 1.49445
MAX_VELOCITY = 0.5


@dataclass(frozen=True)
class OptimizerConfig:
    """Size of the archipelago search and its seed."""

    islands: int = 8
    population: int = 64
    generations: int = 200
    migration_interval: int = 20
    algorithms: tuple[str, ...] = ("ga", "pso")  # cycled across islands
    seed: int | None = None

    def __post_init__(self) -> None:
        if min(self.islands, self.population, self.generations,
               self.migration_interval) < 1:
            raise ValueError("island/population/generation counts must be positive")
        if not self.algorithms:
            raise ValueError("algorithms must name at least one island algorithm")
        for alg in self.algorithms:
            if alg not in ("ga", "pso"):
                raise ValueError(f"unknown island algorithm {alg!r}")


@dataclass
class EvolutionTrace:
    """Per-generation best/mean fuel per island plus migration events."""

    best_fuel: np.ndarray   # (generations, islands)
    mean_fuel: np.ndarray   # (generations, islands)
    migrations: list[tuple[int, int, int]] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["generation,island,best_fuel_kg,mean_fuel_kg"]
        gens, islands = self.best_fuel.shape
        for g in range(gens):
            for i in range(islands):
                lines.append(f"{g},{i},{float(self.best_fuel[g, i])!r},"
                             f"{float(self.mean_fuel[g, i])!r}")
        return "\n".join(lines) + "\n"


def _ga_step(keys: np.ndarray, cost: np.ndarray,
             rngs: list[np.random.Generator]) -> np.ndarray:
    """Next generation of the GA islands ``keys`` (islands, pop, n) priced at
    ``cost`` (islands, pop): the cheapest member of each island, then its
    offspring.  Island i draws only from ``rngs[i]``, in the order tournament
    picks, one block of uniforms (crossover, then mutation mask), mutation
    normals."""
    isl, pop, n = keys.shape
    n_off = pop - 1
    picks = np.empty((isl, 2, n_off, TOURNAMENT), dtype=np.int64)
    uniform = np.empty((isl, 2, n_off, n))
    normal = np.empty((isl, n_off, n))
    for i, rng in enumerate(rngs):
        picks[i] = rng.integers(0, pop, (2, n_off, TOURNAMENT))
        rng.random(out=uniform[i])
        normal[i] = rng.normal(0.0, MUTATION_SIGMA, (n_off, n))
    # tournament selection for both parent slots, on flat member indices
    first = pop * np.arange(isl)
    picks += first[:, None, None, None]
    won = np.argmin(np.take(cost, picks), axis=3)
    winners = np.take_along_axis(picks, won[..., None], axis=3)[..., 0]
    flat = keys.reshape(isl * pop, n)
    pa, pb = flat[winners[:, 0]], flat[winners[:, 1]]
    # blend crossover per gene: lo + (hi - lo) * U[0, 1) is how
    # Generator.uniform draws, bit for bit, without its per-call overhead
    lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
    reach = CROSSOVER_BLEND * (hi - lo)
    lo, hi = lo - reach, hi + reach
    child = lo + (hi - lo) * uniform[:, 0]
    # gaussian mutation
    child = child + (uniform[:, 1] < MUTATION_RATE) * normal
    children = np.empty_like(keys)
    children[:, 0] = flat[first + np.argmin(cost, axis=1)]
    children[:, 1:] = np.clip(child, 0.0, np.nextafter(1.0, 0.0))
    return children


def _initial_population(n: int, count: int, candidates: list[np.ndarray],
                        rng: np.random.Generator) -> np.ndarray:
    sobol_seed = int(rng.integers(0, 2**31))
    keys = sobol_points(n, count, sobol_seed) if n > 1 else np.zeros((count, 1))
    if candidates:
        # Mallows dispersion: 2n over the largest Kendall distance n(n-1)/2
        theta = 4.0 / (n - 1) if n > 1 else 1.0
        # every candidate goes in verbatim, then Mallows neighbourhoods fill
        # the seeded share
        n_verbatim = min(len(candidates), count)
        n_seeded = max(int(round(SEEDING_FRACTION * count)), n_verbatim)
        for slot in range(n_verbatim):
            keys[slot] = encode(candidates[slot], rng)
        for slot in range(n_verbatim, min(n_seeded, count)):
            cand = candidates[(slot - n_verbatim) % len(candidates)]
            sample = sample_mallows(cand, theta, 1, seed=int(rng.integers(0, 2**31)))[0]
            keys[slot] = encode(sample, rng)
    return keys


def optimize(scenario: MissionScenario, config: OptimizerConfig | None = None,
             seeds: list | None = None,
             consts: PhysicalConstants = EARTH) -> tuple[Tour, EvolutionTrace]:
    """Archipelago search for the cheapest visit order.

    ``seeds`` may contain Tours or plain orders; they are injected into the
    initial populations and anchor the Mallows-seeded fraction.
    """
    config = config or OptimizerConfig()
    n = scenario.n_bundles
    evaluator = TourEvaluator(scenario, consts)
    candidates = []
    for s in (seeds or []):
        order = np.asarray(s.order if isinstance(s, Tour) else s, dtype=np.int64)
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError("seed tours must be permutations of the bundle indices")
        candidates.append(order)

    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(config.islands)]
    keys = np.stack([_initial_population(n, config.population, candidates, rng)
                     for rng in rngs])  # (islands, population, n)
    pso = np.array([config.algorithms[i % len(config.algorithms)] == "pso"
                    for i in range(config.islands)])
    ga_idx, pso_idx = np.flatnonzero(~pso), np.flatnonzero(pso)
    # PSO state, one row per PSO island
    velocity = np.empty((pso_idx.size,) + keys.shape[1:])
    for j, i in enumerate(pso_idx):
        velocity[j] = rngs[i].uniform(-0.1, 0.1, keys.shape[1:])
    uniform = np.empty((pso_idx.size, 2) + keys.shape[1:])
    pbest_keys, pbest_cost = keys[pso_idx], np.full((pso_idx.size, keys.shape[1]), np.inf)
    gbest_keys, gbest_cost = keys[pso_idx, 0], np.full(pso_idx.size, np.inf)

    rows = np.arange(config.islands)
    best_fuel = np.empty((config.generations, config.islands))
    mean_fuel = np.empty((config.generations, config.islands))
    migrations: list[tuple[int, int, int]] = []
    global_best_cost, global_best_keys = np.inf, None

    for gen in range(config.generations):
        cost, fuel, _ = (a.reshape(keys.shape[:2])
                         for a in evaluator.cost_batch(decode(keys).reshape(-1, n)))
        b = np.argmin(cost, axis=1)
        best_cost, best_keys = cost[rows, b], keys[rows, b]
        # PSO personal bests; a global best is its island's least personal
        # best, so it can only move to the island's cheapest member of this
        # generation, the first of ties, and it is the island's best
        x, c = keys[pso_idx], cost[pso_idx]
        better = c < pbest_cost
        pbest_keys[better], pbest_cost[better] = x[better], c[better]
        improved = best_cost[pso_idx] < gbest_cost
        gbest_cost[improved] = best_cost[pso_idx[improved]]
        gbest_keys[improved] = best_keys[pso_idx[improved]]
        best_cost[pso_idx], best_keys[pso_idx] = gbest_cost, gbest_keys
        top = int(np.argmin(best_cost))
        if best_cost[top] < global_best_cost:
            global_best_cost, global_best_keys = best_cost[top], best_keys[top]
        best_fuel[gen] = fuel[rows, b]
        mean_fuel[gen] = fuel.mean(axis=1)
        if (gen + 1) % config.migration_interval == 0 and config.islands > 1:
            # ring migration: each island's best replaces its neighbour's worst
            worst = np.argmax(cost, axis=1)
            keys[rows, worst] = np.roll(best_keys, 1, axis=0)
            cost[rows, worst] = -np.inf  # refreshed on next evaluate
            migrations += [(gen, i, (i + 1) % config.islands) for i in rows.tolist()]
        if gen == config.generations - 1:
            break
        if ga_idx.size:
            keys[ga_idx] = _ga_step(keys[ga_idx], cost[ga_idx],
                                    [rngs[i] for i in ga_idx])
        if pso_idx.size:
            for j, i in enumerate(pso_idx):
                rngs[i].random(out=uniform[j])
            x = keys[pso_idx]
            v = (INERTIA * velocity
                 + COGNITIVE * uniform[:, 0] * (pbest_keys - x)
                 + SOCIAL * uniform[:, 1] * (gbest_keys[:, None] - x))
            velocity = np.clip(v, -MAX_VELOCITY, MAX_VELOCITY)
            keys[pso_idx] = np.clip(x + velocity, 0.0, np.nextafter(1.0, 0.0))
    # each island's best member fuel so far
    np.minimum.accumulate(best_fuel, axis=0, out=best_fuel)

    return (tour_cost(scenario, decode(global_best_keys), consts),
            EvolutionTrace(best_fuel=best_fuel, mean_fuel=mean_fuel, migrations=migrations))
