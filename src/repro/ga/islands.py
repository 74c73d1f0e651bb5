"""Island-model (coarse-grained parallel) genetic algorithm.

The paper's conclusion singles out parallelism: "Genetic algorithms are
particularly amenable to parallel implementations, so very good
speedups are expected for a parallel GA-based test generator."  The
classic coarse-grained decomposition is the *island model*: the
population is split into semi-isolated islands that evolve
independently and exchange their best individuals along a ring every
few generations.  Each island's work (selection, crossover, fitness
evaluation of its own population) is embarrassingly parallel between
migrations, which is where a distributed implementation would put its
process boundary.

This implementation executes islands within one process (the fitness
evaluator — a fault simulator holding shared circuit state — is not
safely shareable across processes without serialization costs dwarfing
the GA), but it preserves the island *algorithm*: with ``n_islands=1``
it reduces exactly to the plain GA, and the test suite checks the
migration semantics that a distributed port would rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..telemetry.collector import get_collector
from .engine import BatchEvaluator, GAParams, GAResult, GeneticAlgorithm, _FitnessMemo
from .population import Individual, Population


@dataclass
class IslandParams:
    """Topology knobs on top of the per-island :class:`GAParams`."""

    n_islands: int = 4
    migration_interval: int = 2   # generations between migrations
    migrants: int = 1             # individuals sent to the ring neighbour

    def __post_init__(self) -> None:
        if self.n_islands < 1:
            raise ValueError("need at least one island")
        if self.migration_interval < 1:
            raise ValueError("migration interval must be >= 1")
        if self.migrants < 0:
            raise ValueError("migrants must be >= 0")


class IslandGA:
    """Ring-topology island GA over a shared batch evaluator.

    ``params.population_size`` is the size of *each island*; the total
    population is ``n_islands * population_size``.  The islands share
    one fitness memo per run, under the contract of
    :class:`~repro.ga.engine.GeneticAlgorithm`: a chromosome any island
    has scored is not scored again.
    """

    def __init__(
        self,
        coding,
        evaluator: BatchEvaluator,
        params: GAParams,
        island_params: Optional[IslandParams] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.coding = coding
        self.evaluator = evaluator
        self.params = params
        self.island_params = island_params or IslandParams()
        self.rng = rng if rng is not None else random.Random()
        self.evaluations = 0

    def run(self) -> GAResult:
        """Evolve all islands with ring migration; returns the global best."""
        ip = self.island_params
        # Each island is a GeneticAlgorithm driven one migration epoch at
        # a time.  They share this object's RNG for reproducibility.
        islands: List[GeneticAlgorithm] = [
            GeneticAlgorithm(self.coding, self.evaluator, self.params, rng=self.rng)
            for _ in range(ip.n_islands)
        ]
        memo = _FitnessMemo(self.evaluator, get_collector())
        for ga in islands:
            ga._memo = memo
        populations: List[Population] = [
            ga._initial_population() for ga in islands
        ]

        best = max((pop.best() for pop in populations),
                   key=lambda ind: ind.fitness).copy()
        best_generation = 0
        history = [best.fitness]

        total_generations = self.params.generations
        generation = 0
        while generation < total_generations:
            epoch = min(ip.migration_interval, total_generations - generation)
            for _ in range(epoch):
                generation += 1
                for ga, population in zip(islands, populations):
                    offspring_count = (
                        min(ga.params.offspring_per_generation,
                            ga.params.population_size)
                        if ga.params.generation_gap < 1.0
                        else ga.params.population_size
                    )
                    chromosomes = ga._breed(population, offspring_count)
                    fitnesses = ga._evaluate(chromosomes)
                    offspring = [
                        Individual(c, f) for c, f in zip(chromosomes, fitnesses)
                    ]
                    if ga.params.generation_gap < 1.0:
                        population.replace_worst(offspring)
                    else:
                        population.replace_all(offspring)
            # Ring migration: island i sends copies of its best
            # individuals to island (i+1), replacing the worst there.
            if ip.n_islands > 1 and ip.migrants > 0:
                emigrants = []
                for population in populations:
                    ranked = sorted(
                        population.individuals,
                        key=lambda ind: ind.fitness, reverse=True,
                    )
                    emigrants.append([ind.copy() for ind in ranked[:ip.migrants]])
                for i, population in enumerate(populations):
                    incoming = emigrants[(i - 1) % ip.n_islands]
                    population.replace_worst(incoming)
            epoch_best = max((pop.best() for pop in populations),
                             key=lambda ind: ind.fitness)
            if epoch_best.fitness > best.fitness:
                best = epoch_best.copy()
                best_generation = generation
            history.append(
                max(pop.best().fitness for pop in populations)
            )

        self.evaluations = sum(ga.evaluations for ga in islands)
        return GAResult(
            best=best,
            best_generation=best_generation,
            generations_run=total_generations,
            evaluations=self.evaluations,
            history=history,
        )
