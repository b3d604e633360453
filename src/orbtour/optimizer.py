"""Island-model genetic search of visit orders over random keys.

Each island evolves a population of key vectors in [0,1)^n, decoded to
permutations by stable argsort, with a generational GA: tournament
selection, blend crossover, Gaussian key mutation and one elite.  Each
island starts from uniform keys, with a fixed share spawned near any
candidate solutions by Mallows sampling.  The candidates are ranked by cost
and as many as a population holds go in verbatim, cheapest first, so the
final best can never be worse than the best seed.  A ring migration moves
each island's best individual onto its neighbour's worst slot every few
generations, priced at its known cost, so the next step keeps the cheaper
of the island's own best and the migrant as its elite.

All islands are held as one (islands, population, n) key array: each
generation prices every member in one batch and steps every island in
place.  One generator, seeded from the config, draws everything: the
initial populations island by island (uniform keys, then the encodings and
Mallows samples of the seeded share) and then, each generation, the
tournament picks of every island, one block of uniforms (every island's
crossover, then every mutation mask) and a normal for each masked gene
only, so results are reproducible bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import EARTH, PhysicalConstants
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
    hi *= uniform[0]
    child = np.add(lo, hi, out=lo)
    # gaussian mutation of the masked genes
    mutated = uniform[1] < MUTATION_RATE
    child[mutated] += rng.normal(0.0, MUTATION_SIGMA, np.count_nonzero(mutated))
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


def _decode_lehmer(codes: np.ndarray) -> np.ndarray:
    """Insertion decode: row-wise pick the code[j]-th smallest remaining
    item.  codes (B, n) -> permutations (B, n)."""
    B, n = codes.shape
    alive = np.ones((B, n), dtype=bool)
    out = np.empty((B, n), dtype=np.int64)
    rows = np.arange(B)
    for j in range(n):
        ranks = np.cumsum(alive, axis=1)
        pick = np.argmax(ranks == (codes[:, j] + 1)[:, None], axis=1)
        out[:, j] = pick
        alive[rows, pick] = False
    return out


def sample_mallows(center, theta: float, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Sample ``count`` permutations from the Kendall-tau Mallows model
    P(sigma) ~ exp(-theta * d(sigma, center)), shape (count, n), drawing
    from ``rng``.

    Insertion-vector method: the Lehmer-code entries are independent
    truncated-geometric variables whose sum is the Kendall distance to the
    center, so the exact target distribution is produced in O(n^2) per
    sample.
    """
    if theta < 0.0:
        raise ValueError("theta must be >= 0")
    if sorted(center) != list(range(len(center))):
        raise ValueError("center must be a permutation of [0, n)")
    n = len(center)
    codes = np.zeros((count, n), dtype=np.int64)
    q = math.exp(-theta)
    for j in range(n - 1):
        support = n - j
        if theta == 0.0:
            codes[:, j] = rng.integers(0, support, count)
        else:
            weights = q ** np.arange(support)
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            codes[:, j] = np.searchsorted(cdf, rng.random(count), side="right")
    return _decode_lehmer(codes)[:, np.asarray(center, dtype=np.int64)]


def _initial_population(n: int, count: int, candidates: list[np.ndarray],
                        rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform key vectors; with ``candidates``, ranked cheapest
    first, the first slots take the candidates verbatim and Mallows
    neighbourhoods of them fill the rest of the seeded share."""
    keys = rng.random((count, n))
    if candidates:
        # Mallows dispersion: 2n over the largest Kendall distance n(n-1)/2
        theta = 4.0 / max(n - 1, 1)
        n_verbatim = min(len(candidates), count)
        n_seeded = max(int(round(SEEDING_FRACTION * count)), n_verbatim)
        for slot in range(n_verbatim):
            keys[slot] = encode(candidates[slot], rng)
        for slot in range(n_verbatim, n_seeded):
            cand = candidates[(slot - n_verbatim) % len(candidates)]
            keys[slot] = encode(sample_mallows(cand, theta, 1, rng)[0], rng)
    return keys


def optimize(scenario: MissionScenario, config: OptimizerConfig | None = None,
             seeds: list | None = None,
             consts: PhysicalConstants = EARTH) -> tuple[Tour, EvolutionTrace]:
    """Archipelago search for the cheapest visit order.

    ``seeds`` may contain Tours or plain orders; ranked by cost, they are
    injected into the initial populations and anchor the Mallows-seeded
    fraction.
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
    keys = np.stack([_initial_population(n, pop, candidates, rng)
                     for _ in range(isl)])  # (islands, population, n)
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
