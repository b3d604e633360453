"""Island-model genetic search of visit orders, held as permutations.

Each island evolves a population of orders with a generational GA:
tournament selection, order crossover, one random insertion, one segment
reversal and one elite.  Every island starts from uniform permutations.
Candidate solutions, ranked by cost, seed island 0 alone: as many as a
population holds go verbatim into its first slots, cheapest first, so its
elite and the final best can never be worse than the best seed, while the
other islands explore unseeded (seeding every island pulls the whole
archipelago into the seeds' basin).  A ring migration moves each island's
best individual onto its neighbour's worst slot every few generations,
priced at its known cost, so the next step keeps the cheaper of the
island's own best and the migrant as its elite.

All islands are held as one (islands, population, n) integer array: each
generation prices every member in one batch and steps every island in
place, each operator one gather from index tables built once per n.  One
generator, seeded from the config, draws everything: the initial
permutations in one block, then each generation one block of uniforms
for every child's parents and operators, so results are reproducible bit
for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import EARTH, PhysicalConstants
from .scenario import MissionScenario
from .tour import Tour, TourEvaluator, tour_cost


#: GA: tournament size, and the share of children made by order crossover,
#: then moved by one insertion and by one segment reversal
TOURNAMENT = 3
RATES = (0.9, 0.3, 0.2)


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


def _tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The operators' index tables on n positions.  Row i·(n+1)+j of
    ``outside`` ((n+1)², n) marks the positions outside the slice
    min(i, j) .. max(i, j)-1, and that row of ``reverse`` gathers an order
    with the slice reversed; row a·n+b of ``insert`` (n², n) gathers one
    with the member at position a moved to b.  Row 0 changes nothing."""
    k = np.arange(n)
    i, j = np.ix_(np.arange(n + 1), np.arange(n + 1))
    lo, hi = np.minimum(i, j)[..., None], np.maximum(i, j)[..., None]
    inside = (lo <= k) & (k < hi)
    reverse = np.where(inside, lo + hi - 1 - k, k)
    a, b = (v[..., None] for v in np.ix_(k, k))
    insert = np.where(k == b, a, k + ((a <= k) & (k < b)) - ((b < k) & (k <= a)))
    return ~inside.reshape(-1, n), insert.reshape(-1, n), reverse.reshape(-1, n)


def _order_crossover(pa: np.ndarray, pb: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """Order crossover (Davis, IJCAI 1985) of the rows of ``pa`` and ``pb``
    (rows, n), in place of ``pa``: each child keeps ``pa``'s members where
    ``fill`` is false and fills the rest, left to right, with ``pb``'s
    other members in ``pb``'s order."""
    offset = pa.shape[1] * np.arange(len(pa))[:, None]
    free = np.empty(pa.size, dtype=bool)
    free[pa + offset] = fill
    pa[fill] = pb[free.take(pb + offset)]
    return pa


def _ga_step(perms: np.ndarray, cost: np.ndarray, rng: np.random.Generator,
             tables: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Step the islands ``perms`` (islands, pop, n) priced at ``cost``
    (islands, pop) in place: the cheapest member of each island, then its
    offspring, made with the operators' ``_tables(n)``.  ``rng`` draws one
    block of uniforms, nine rows of one per child: three tournament picks
    for each parent, then one for each of the crossover, the insertion and
    the reversal.  An operator acts when its uniform is below its rate, and
    that uniform, scaled by the rate, then picks its row of the operator's
    table."""
    isl, pop, n = perms.shape
    rows = np.array([len(table) for table in tables])
    scale = np.concatenate([[pop] * 2 * TOURNAMENT, rows / RATES])
    draws = (rng.random((2 * TOURNAMENT + 3, isl, pop - 1))
             * scale[:, None, None]).astype(np.intp)
    # tournament selection for both parent slots, on flat member indices
    first = pop * np.arange(isl)
    picks = draws[:2 * TOURNAMENT].reshape(2, TOURNAMENT, -1)
    picks += first.repeat(pop - 1)
    # the first of the cheapest picks wins, as argmin would choose
    fought = cost.take(picks)
    winner, least = picks[:, 0], fought[:, 0]
    for k in range(1, TOURNAMENT):
        beats = fought[:, k] < least
        winner = np.where(beats, picks[:, k], winner)
        least = np.minimum(least, fought[:, k])
    flat = perms.reshape(isl * pop, n)
    pa, pb = flat.take(winner, axis=0)
    # an operator that does not act takes row 0: the crossover then copies
    # the second parent, and the insertion and the reversal change nothing
    ops = draws[2 * TOURNAMENT:].reshape(3, -1)
    ops *= ops < rows[:, None]
    outside, insert, reverse = tables
    child = _order_crossover(pa, pb, outside.take(ops[0], axis=0))
    offset = n * np.arange(len(child))[:, None]
    moved = insert.take(ops[1], axis=0) + offset
    turned = reverse.take(ops[2], axis=0) + offset
    perms[:, 0] = flat.take(first + cost.argmin(axis=1), axis=0)
    perms[:, 1:] = child.take(moved).take(turned).reshape(isl, pop - 1, n)


def optimize(scenario: MissionScenario, config: OptimizerConfig | None = None,
             seeds: list | None = None,
             consts: PhysicalConstants = EARTH) -> tuple[Tour, EvolutionTrace]:
    """Archipelago search for the cheapest visit order.

    ``seeds`` may contain Tours or plain orders; ranked by cost, as many as
    a population holds go verbatim into island 0's first slots, cheapest
    first, and every other member starts as a uniform permutation.
    """
    config = config or OptimizerConfig()
    n = scenario.n_bundles
    evaluator = TourEvaluator(scenario, consts)
    candidates = [np.asarray(s.order if isinstance(s, Tour) else s, dtype=np.int64)
                  for s in seeds or []]
    if any(sorted(order.tolist()) != list(range(n)) for order in candidates):
        raise ValueError("seed tours must be permutations of the bundle indices")

    isl, pop = config.islands, config.population
    rng = np.random.default_rng(config.seed)
    perms = rng.permuted(np.broadcast_to(np.arange(n), (isl, pop, n)), axis=2)
    if candidates:
        # cheapest first: a population too small for every seed keeps the best
        seeded = np.stack(candidates)
        seeded = seeded[evaluator.cost_batch(seeded)[0].argsort(kind="stable")[:pop]]
        perms[0, :len(seeded)] = seeded
    flat, tables = perms.reshape(-1, n), _tables(n)
    first = pop * np.arange(isl)
    best_fuel = np.empty((config.generations, isl))
    mean_fuel = np.empty((config.generations, isl))
    migrations: list[tuple[int, int, int]] = []

    for gen in range(config.generations):
        if gen:
            _ga_step(perms, cost, rng, tables)
        cost, fuel, _ = (a.reshape(isl, pop) for a in evaluator.cost_batch(flat))
        b = first + cost.argmin(axis=1)
        best_cost, best = cost.take(b), flat.take(b, axis=0)
        fuel.take(b, out=best_fuel[gen])
        np.add.reduce(fuel, axis=1, out=mean_fuel[gen])  # fuel.mean's sum
        if (gen + 1) % config.migration_interval == 0 and isl > 1:
            # ring migration: each island's best replaces its neighbour's worst
            worst = first + cost.argmax(axis=1)
            flat[worst] = np.roll(best, 1, axis=0)
            cost.reshape(-1)[worst] = np.roll(best_cost, 1)
            migrations += [(gen, i, (i + 1) % isl) for i in range(isl)]
    mean_fuel /= pop
    # each island's best member fuel so far
    np.minimum.accumulate(best_fuel, axis=0, out=best_fuel)

    # no island's best gets dearer, so the last generation holds the best
    return (tour_cost(scenario, best[best_cost.argmin()], consts),
            EvolutionTrace(best_fuel=best_fuel, mean_fuel=mean_fuel, migrations=migrations))
