"""Island-model genetic search of visit orders over random keys.

Each island evolves a population of key vectors in [0,1)^n, decoded to
permutations by stable argsort, with a generational GA: tournament
selection, blend crossover, Gaussian key mutation and one elite.  Every
island starts from uniform keys.  Candidate solutions, ranked by cost, seed
island 0 alone: as many as a population holds go into its first slots,
cheapest first, so its elite and the final best can never be worse than the
best seed, while the other islands explore unseeded (seeding every island
pulls the whole archipelago into the seeds' basin).  A ring migration moves
each island's best individual onto its neighbour's worst slot every few
generations, priced at its known cost, so the next step keeps the cheaper
of the island's own best and the migrant as its elite.

All islands are held as one (islands, population, n) key array: each
generation prices every member in one batch and steps every island in
place.  One generator, seeded from the config, draws everything: the
uniform keys of the whole archipelago in one block, then the keys that
encode the seeds, and then, each generation, the tournament picks of every
island, one block of uniforms (every island's crossover, then every
mutation mask) and a normal for each masked gene only, so results are
reproducible bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import EARTH, PhysicalConstants
from .scenario import MissionScenario
from .tour import Tour, TourEvaluator, tour_cost


#: GA: tournament size, blend-crossover reach, per-gene mutation rate and
#: step
TOURNAMENT = 3
CROSSOVER_BLEND = 0.3
MUTATION_RATE = 0.15
MUTATION_SIGMA = 0.2
#: the largest key, so every key stays in [0, 1)
_KEY_MAX = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class OptimizerConfig:
    """Size of the archipelago search and its seed."""

    islands: int = 8
    population: int = 64
    generations: int = 200
    migration_interval: int = 20
    seed: int | None = None

    def __post_init__(self) -> None:
        if min(self.islands, self.population, self.generations,
               self.migration_interval) < 1:
            raise ValueError("island/population/generation counts must be positive")
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


def _ga_step(keys: np.ndarray, cost: np.ndarray, rng: np.random.Generator) -> None:
    """Step the islands ``keys`` (islands, pop, n) priced at ``cost``
    (islands, pop) in place: the cheapest member of each island, then its
    offspring.  ``rng`` draws the tournament picks of every island, one
    block of uniforms (every island's crossover, then every mutation mask)
    and the mutation normals of the masked genes only."""
    isl, pop, n = keys.shape
    picks = rng.integers(0, pop, (isl, 2, pop - 1, TOURNAMENT))
    uniform = rng.random((2, isl, pop - 1, n))
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
    # each parent slot gathered whole, so both are contiguous
    pa, pb = flat.take(winner.transpose(1, 0, 2), axis=0)
    elite = flat.take(first + cost.argmin(axis=1), axis=0)
    # blend crossover per gene: lo + (hi - lo) * U[0, 1) is how
    # Generator.uniform draws, bit for bit, without its per-call overhead
    lo, hi = np.minimum(pa, pb), np.maximum(pa, pb, out=pa)
    reach = np.subtract(hi, lo, out=pb)
    reach *= CROSSOVER_BLEND
    lo -= reach
    hi += reach
    hi -= lo
    hi *= uniform[0]
    child = np.add(lo, hi, out=lo)
    # gaussian mutation of the masked genes
    mutated = np.flatnonzero(uniform[1] < MUTATION_RATE)
    child.reshape(-1)[mutated] += rng.normal(0.0, MUTATION_SIGMA, mutated.size)
    keys[:, 0] = elite
    np.minimum(np.maximum(child, 0.0, out=child), _KEY_MAX, out=keys[:, 1:])


def decode(keys) -> np.ndarray:
    """Permutation encoded by a key vector: stable argsort (ties keep index
    order)."""
    return np.asarray(keys).argsort(kind="stable")


def encode(perm, rng: np.random.Generator) -> np.ndarray:
    """Key vector whose decode is ``perm``: draw keys from ``rng``, sort
    them, and place the j-th smallest at position perm[j]."""
    perm = np.asarray(perm, dtype=np.int64)
    keys = np.sort(rng.random(perm.size))
    out = np.empty(perm.size)
    out[perm] = keys
    return out


def optimize(scenario: MissionScenario, config: OptimizerConfig | None = None,
             seeds: list | None = None,
             consts: PhysicalConstants = EARTH) -> tuple[Tour, EvolutionTrace]:
    """Archipelago search for the cheapest visit order.

    ``seeds`` may contain Tours or plain orders; ranked by cost, as many as
    a population holds go verbatim into island 0's first slots, cheapest
    first, and every other member starts from uniform keys.
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
    if candidates:
        # cheapest first, so a population too small for every seed keeps the
        # best ones
        rank = evaluator.cost_batch(np.stack(candidates))[0].argsort(kind="stable")
        candidates = [candidates[i] for i in rank]

    isl, pop = config.islands, config.population
    rng = np.random.default_rng(config.seed)
    keys = rng.random((isl, pop, n))
    for slot, order in enumerate(candidates[:pop]):
        keys[0, slot] = encode(order, rng)
    flat = keys.reshape(-1, n)
    first = pop * np.arange(isl)
    best_fuel = np.empty((config.generations, isl))
    mean_fuel = np.empty((config.generations, isl))
    migrations: list[tuple[int, int, int]] = []
    global_best_cost, global_best_keys = np.inf, None

    for gen in range(config.generations):
        cost, fuel, _ = (a.reshape(isl, pop)
                         for a in evaluator.cost_batch(decode(flat)))
        b = first + cost.argmin(axis=1)
        best_cost, best_keys = cost.take(b), flat.take(b, axis=0)
        top = best_cost.argmin()
        if best_cost[top] < global_best_cost:
            global_best_cost, global_best_keys = best_cost[top], best_keys[top]
        fuel.take(b, out=best_fuel[gen])
        np.add.reduce(fuel, axis=1, out=mean_fuel[gen])  # fuel.mean's sum
        if (gen + 1) % config.migration_interval == 0 and isl > 1:
            # ring migration: each island's best replaces its neighbour's worst
            worst = first + cost.argmax(axis=1)
            flat[worst] = np.roll(best_keys, 1, axis=0)
            cost.reshape(-1)[worst] = np.roll(best_cost, 1)
            migrations += [(gen, i, (i + 1) % isl) for i in range(isl)]
        if gen == config.generations - 1:
            break
        _ga_step(keys, cost, rng)
    mean_fuel /= pop
    # each island's best member fuel so far
    np.minimum.accumulate(best_fuel, axis=0, out=best_fuel)

    return (tour_cost(scenario, decode(global_best_keys), consts),
            EvolutionTrace(best_fuel=best_fuel, mean_fuel=mean_fuel, migrations=migrations))
