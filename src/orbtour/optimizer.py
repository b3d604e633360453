"""Island-model heuristic optimization of visit orders over random keys.

Each island evolves a population of key vectors in [0,1)^n (decoded to
permutations by argsort) with either a generational GA (tournament
selection, blend crossover, Gaussian key mutation, one elite) or a
global-best PSO.  Each island starts from one draw of scrambled Sobol
points, with a fixed share spawned near any candidate solutions by Mallows
sampling; the candidates themselves are always injected verbatim, so the
final best can never be worse than the best seed.  A ring migration moves
each island's best individual onto its neighbour every few generations.

All islands are held as one (islands, population, n) key array, the GA
islands first and the PSO islands after, each block in island order: each
generation prices every member in one batch, and each algorithm steps its
block in place.  Index maps give back the island order wherever it shows:
the trace columns, the ring migration and the first of ties for the global
best.  Every island still draws from its own generator, spawned from one
seed, in an unchanged order, so results are reproducible bit for bit and do
not depend on how the islands are laid out.  After its initial population
(and, on a PSO island, its initial velocities), each generation an island
draws:

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
#: the largest key, so every key stays in [0, 1)
_KEY_MAX = np.nextafter(1.0, 0.0)


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
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
             rngs: list[np.random.Generator]) -> None:
    """Step the GA islands ``keys`` (islands, pop, n) priced at ``cost``
    (islands, pop) in place: the cheapest member of each island, then its
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
    # the first of the cheapest picks wins, as argmin would choose
    fought = cost.take(picks)
    winner, least = picks[..., 0], fought[..., 0]
    for k in range(1, TOURNAMENT):
        beats = fought[..., k] < least
        winner = np.where(beats, picks[..., k], winner)
        least = np.minimum(least, fought[..., k])
    flat = keys.reshape(isl * pop, n)
    parents = flat.take(winner, axis=0)
    elite = flat.take(first + cost.argmin(axis=1), axis=0)
    pa, pb = parents[:, 0], parents[:, 1]
    # blend crossover per gene: lo + (hi - lo) * U[0, 1) is how
    # Generator.uniform draws, bit for bit, without its per-call overhead
    lo, hi = np.minimum(pa, pb), np.maximum(pa, pb, out=pa)
    reach = np.subtract(hi, lo, out=pb)
    reach *= CROSSOVER_BLEND
    lo -= reach
    hi += reach
    hi -= lo
    hi *= uniform[:, 0]
    child = np.add(lo, hi, out=lo)
    # gaussian mutation
    normal *= uniform[:, 1] < MUTATION_RATE
    child += normal
    keys[:, 0] = elite
    np.minimum(np.maximum(child, 0.0, out=child), _KEY_MAX, out=keys[:, 1:])


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

    isl, pop = config.islands, config.population
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(isl)]
    pso = np.array([config.algorithms[i % len(config.algorithms)] == "pso"
                    for i in range(isl)])
    # the GA islands, then the PSO islands, each block in island order: block
    # row r holds island perm[r], and island i sits at block row inv[i]
    perm = np.argsort(pso, kind="stable")
    inv = np.argsort(perm)
    n_ga = isl - int(pso.sum())
    rngs = [rngs[i] for i in perm]
    keys = np.stack([_initial_population(n, pop, candidates, rng)
                     for rng in rngs])  # (islands, population, n)
    flat = keys.reshape(-1, n)
    ga_keys, pso_keys = keys[:n_ga], keys[n_ga:]
    # PSO state, one row per PSO island
    velocity = np.empty_like(pso_keys)
    for v, rng in zip(velocity, rngs[n_ga:]):
        v[...] = rng.uniform(-0.1, 0.1, v.shape)
    uniform, scratch = np.empty((len(velocity), 2, pop, n)), np.empty_like(velocity)
    pull = np.array([COGNITIVE, SOCIAL])[:, None, None]
    pbest_keys, pbest_cost = pso_keys.copy(), np.full(pso_keys.shape[:2], np.inf)
    gbest_keys, gbest_cost = pso_keys[:, 0].copy(), np.full(len(velocity), np.inf)

    first = pop * np.arange(isl)
    source = inv[(perm - 1) % isl]  # block row of each island's ring predecessor
    best_fuel = np.empty((config.generations, isl))
    mean_fuel = np.empty((config.generations, isl))
    migrations: list[tuple[int, int, int]] = []
    global_best_cost, global_best_keys = np.inf, None

    for gen in range(config.generations):
        cost, fuel, _ = (a.reshape(isl, pop)
                         for a in evaluator.cost_batch(decode(flat)))
        b = first + cost.argmin(axis=1)
        best_cost, best_keys = cost.take(b), flat.take(b, axis=0)
        # PSO personal bests; a global best is its island's least personal
        # best, so it can only move to the island's cheapest member of this
        # generation, the first of ties, and it is the island's best
        c = cost[n_ga:]
        np.copyto(pbest_keys, pso_keys, where=(c < pbest_cost)[..., None])
        np.minimum(pbest_cost, c, out=pbest_cost)
        improved = best_cost[n_ga:] < gbest_cost
        np.copyto(gbest_keys, best_keys[n_ga:], where=improved[:, None])
        np.minimum(gbest_cost, best_cost[n_ga:], out=gbest_cost)
        best_cost[n_ga:], best_keys[n_ga:] = gbest_cost, gbest_keys
        top = inv[best_cost[inv].argmin()]  # the first of ties in island order
        if best_cost[top] < global_best_cost:
            global_best_cost, global_best_keys = best_cost[top], best_keys[top]
        fuel.take(b, out=best_fuel[gen])
        np.add.reduce(fuel, axis=1, out=mean_fuel[gen])  # fuel.mean's sum
        if (gen + 1) % config.migration_interval == 0 and isl > 1:
            # ring migration: each island's best replaces its neighbour's worst
            worst = first + cost.argmax(axis=1)
            flat[worst] = best_keys[source]
            cost.reshape(-1)[worst] = -np.inf  # refreshed on next evaluate
            migrations += [(gen, i, (i + 1) % isl) for i in range(isl)]
        if gen == config.generations - 1:
            break
        if n_ga:
            _ga_step(ga_keys, cost[:n_ga], rngs[:n_ga])
        if len(velocity):
            for u, rng in zip(uniform, rngs[n_ga:]):
                rng.random(out=u)
            # v = INERTIA v + COGNITIVE U (pbest - x) + SOCIAL U' (gbest - x)
            velocity *= INERTIA
            uniform *= pull
            for u, best in zip((uniform[:, 0], uniform[:, 1]),
                               (pbest_keys, gbest_keys[:, None])):
                np.subtract(best, pso_keys, out=scratch)
                scratch *= u
                velocity += scratch
            np.minimum(np.maximum(velocity, -MAX_VELOCITY, out=velocity),
                       MAX_VELOCITY, out=velocity)
            pso_keys += velocity
            np.minimum(np.maximum(pso_keys, 0.0, out=pso_keys), _KEY_MAX,
                       out=pso_keys)
    # each island's best member fuel so far, in island order
    best_fuel, mean_fuel = best_fuel[:, inv], mean_fuel[:, inv] / pop
    np.minimum.accumulate(best_fuel, axis=0, out=best_fuel)

    return (tour_cost(scenario, decode(global_best_keys), consts),
            EvolutionTrace(best_fuel=best_fuel, mean_fuel=mean_fuel, migrations=migrations))
