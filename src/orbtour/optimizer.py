"""Island-model heuristic optimization of visit orders over random keys.

Each island evolves a population of key vectors in [0,1)^n (decoded to
permutations by argsort) with either a generational GA (tournament
selection, blend crossover, Gaussian key mutation, elitism) or a
global-best PSO.  Islands are initialized from scrambled Sobol points, with
an optional fraction spawned near candidate solutions through Mallows
sampling; the candidates themselves are always injected verbatim, so the
final best can never be worse than the best seed.  A ring migration moves
each island's best individual onto its neighbour every few generations.

Everything is driven by per-island generators spawned from one seed, and
islands are stepped serially between migration barriers, so results are
reproducible bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import EARTH, PhysicalConstants
from .permutations import (MallowsParams, SobolEngine, encode, max_kendall,
                           sample_mallows)
from .scenario import MissionScenario
from .tour import Tour, TourEvaluator, tour_cost


@dataclass(frozen=True)
class OptimizerConfig:
    islands: int = 8
    population: int = 64
    generations: int = 200
    migration_interval: int = 20
    algorithms: tuple[str, ...] = ("ga", "pso")  # cycled across islands
    seed: int | None = None
    seeding_fraction: float = 0.25
    seed_theta: float | None = None  # default 4/(n-1), see resolve_theta
    # GA knobs
    tournament: int = 3
    crossover_blend: float = 0.3
    mutation_rate: float = 0.15
    mutation_sigma: float = 0.2
    elites: int = 1
    # PSO knobs
    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    max_velocity: float = 0.5

    def __post_init__(self) -> None:
        if min(self.islands, self.population, self.generations,
               self.migration_interval) < 1:
            raise ValueError("island/population/generation counts must be positive")
        if not (0.0 <= self.seeding_fraction <= 1.0):
            raise ValueError("seeding fraction must lie in [0, 1]")
        for alg in self.algorithms:
            if alg not in ("ga", "pso"):
                raise ValueError(f"unknown island algorithm {alg!r}")

    def resolve_theta(self, n: int) -> float:
        if self.seed_theta is not None:
            return self.seed_theta
        return 2.0 * n / max_kendall(n) if n > 1 else 1.0


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


class _Island:
    """One sub-population plus its evolution strategy."""

    def __init__(self, keys: np.ndarray, algorithm: str, rng: np.random.Generator,
                 config: OptimizerConfig):
        self.keys = keys
        self.algorithm = algorithm
        self.rng = rng
        self.cfg = config
        self.cost = None
        self.fuel = None
        if algorithm == "pso":
            pop, n = keys.shape
            self.velocity = rng.uniform(-0.1, 0.1, (pop, n))
            self.pbest_keys = keys.copy()
            self.pbest_cost = np.full(pop, np.inf)
            self.gbest_keys = keys[0].copy()
            self.gbest_cost = np.inf

    def evaluate(self, evaluator: TourEvaluator) -> None:
        orders = np.argsort(self.keys, axis=1, kind="stable")
        self.cost, self.fuel, _ = evaluator.cost_batch(orders)
        if self.algorithm == "pso":
            better = self.cost < self.pbest_cost
            self.pbest_keys[better] = self.keys[better]
            self.pbest_cost[better] = self.cost[better]
            b = int(np.argmin(self.pbest_cost))
            if self.pbest_cost[b] < self.gbest_cost:
                self.gbest_cost = float(self.pbest_cost[b])
                self.gbest_keys = self.pbest_keys[b].copy()

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.cost))

    def best(self) -> tuple[float, np.ndarray]:
        if self.algorithm == "pso":
            return self.gbest_cost, self.gbest_keys
        b = self.best_index
        return float(self.cost[b]), self.keys[b]

    def step(self) -> None:
        if self.algorithm == "ga":
            self._step_ga()
        else:
            self._step_pso()

    def _step_ga(self) -> None:
        cfg, rng = self.cfg, self.rng
        pop, n = self.keys.shape
        elite_idx = np.argsort(self.cost, kind="stable")[:cfg.elites]
        children = np.empty_like(self.keys)
        children[:cfg.elites] = self.keys[elite_idx]
        n_offspring = pop - cfg.elites
        # tournament selection for both parent slots
        picks = rng.integers(0, pop, (2, n_offspring, cfg.tournament))
        winners = np.take_along_axis(
            picks, np.argmin(self.cost[picks], axis=2)[..., None], axis=2)[..., 0]
        pa, pb = self.keys[winners[0]], self.keys[winners[1]]
        # blend crossover per gene
        lo = np.minimum(pa, pb)
        hi = np.maximum(pa, pb)
        span = hi - lo
        child = rng.uniform(lo - cfg.crossover_blend * span,
                            hi + cfg.crossover_blend * span)
        # gaussian mutation
        mask = rng.random((n_offspring, n)) < cfg.mutation_rate
        child = child + mask * rng.normal(0.0, cfg.mutation_sigma, (n_offspring, n))
        children[cfg.elites:] = np.clip(child, 0.0, np.nextafter(1.0, 0.0))
        self.keys = children

    def _step_pso(self) -> None:
        cfg, rng = self.cfg, self.rng
        pop, n = self.keys.shape
        r1 = rng.random((pop, n))
        r2 = rng.random((pop, n))
        self.velocity = (cfg.inertia * self.velocity
                         + cfg.cognitive * r1 * (self.pbest_keys - self.keys)
                         + cfg.social * r2 * (self.gbest_keys - self.keys))
        np.clip(self.velocity, -cfg.max_velocity, cfg.max_velocity, out=self.velocity)
        self.keys = np.clip(self.keys + self.velocity, 0.0, np.nextafter(1.0, 0.0))

    def replace_worst(self, keys: np.ndarray) -> None:
        worst = int(np.argmax(self.cost))
        self.keys[worst] = keys
        self.cost[worst] = -np.inf  # refreshed on next evaluate


def _initial_population(n: int, count: int, candidates: list[np.ndarray],
                        config: OptimizerConfig, rng: np.random.Generator,
                        sobol_seed: int) -> np.ndarray:
    keys = SobolEngine(n, seed=sobol_seed).draw(count) if n > 1 else np.zeros((count, 1))
    if candidates:
        theta = config.resolve_theta(n)
        # every candidate goes in verbatim, then Mallows neighbourhoods fill
        # the configured fraction
        n_verbatim = min(len(candidates), count)
        n_seeded = max(int(round(config.seeding_fraction * count)), n_verbatim)
        for slot in range(n_verbatim):
            keys[slot] = encode(candidates[slot], rng)
        for slot in range(n_verbatim, min(n_seeded, count)):
            cand = candidates[(slot - n_verbatim) % len(candidates)]
            sample = sample_mallows(MallowsParams(tuple(int(x) for x in cand), theta),
                                    1, seed=int(rng.integers(0, 2**31)))[0]
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

    ss = np.random.SeedSequence(config.seed)
    children = ss.spawn(config.islands + 1)
    islands: list[_Island] = []
    for i in range(config.islands):
        rng = np.random.default_rng(children[i])
        sobol_seed = int(rng.integers(0, 2**31))
        keys = _initial_population(n, config.population, candidates, config, rng,
                                   sobol_seed)
        alg = config.algorithms[i % len(config.algorithms)]
        islands.append(_Island(keys, alg, rng, config))

    best_fuel = np.empty((config.generations, config.islands))
    mean_fuel = np.empty((config.generations, config.islands))
    running_best = np.full(config.islands, np.inf)
    migrations: list[tuple[int, int, int]] = []
    global_best_cost = np.inf
    global_best_keys = None

    for gen in range(config.generations):
        for i, isl in enumerate(islands):
            isl.evaluate(evaluator)
            c, k = isl.best()
            if c < global_best_cost:
                global_best_cost = c
                global_best_keys = k.copy()
            running_best[i] = min(running_best[i], float(isl.fuel[isl.best_index]))
            best_fuel[gen, i] = running_best[i]
            mean_fuel[gen, i] = float(np.mean(isl.fuel))
        if (gen + 1) % config.migration_interval == 0 and config.islands > 1:
            bests = [isl.best()[1].copy() for isl in islands]
            for i in range(config.islands):
                j = (i + 1) % config.islands
                islands[j].replace_worst(bests[i])
                migrations.append((gen, i, j))
        if gen < config.generations - 1:
            for isl in islands:
                isl.step()

    order = np.argsort(global_best_keys, kind="stable")
    best_tour = tour_cost(scenario, order, consts)
    trace = EvolutionTrace(best_fuel=best_fuel, mean_fuel=mean_fuel,
                           migrations=migrations)
    return best_tour, trace
