"""The genetic-algorithm engine (Goldberg's simple GA plus the paper's
overlapping-generation variant and an island model).

The engine is application-agnostic: it evolves chromosomes under a
coding, a selection scheme, a crossover operator and a mutation rate,
calling a user-supplied *batch* evaluator for fitness.  Batching is what
lets GATEST score a whole population with one population pass of the
fault simulator (see :mod:`repro.faults.simulator`); memoizing fitness
by chromosome for the length of a run is what keeps the repeats a
converging population breeds out of that pass.

The island model is the coarse-grained parallel GA the paper's
conclusion points at ("Genetic algorithms are particularly amenable to
parallel implementations"): ``n_islands`` semi-isolated populations
evolve side by side and, every ``migration_interval`` generations, each
sends a copy of its best individual to the next island on a ring.
Islands breed independently, but every generation scores all their
offspring in one evaluator call, so they share one population pass.

GATEST specifics — fitness functions, parameter schedules, phase logic —
live in :mod:`repro.core`; nothing here knows about circuits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..telemetry.collector import NullCollector, get_collector
from .chromosome import Chromosome
from .crossover import CrossoverOperator, make_crossover
from .mutation import Mutation
from .population import Individual, Population
from .selection import SelectionScheme, make_selection

BatchEvaluator = Callable[[List[Chromosome]], List[float]]

#: Individuals each island sends to the next island on the ring at a
#: migration.
MIGRANTS = 1


@dataclass
class GAParams:
    """Knobs of one GA run (paper §II, §III-C, §III-D).

    ``generation_gap`` is G = g/N: the fraction of the population
    replaced per generation.  G = 1 is the simple nonoverlapping GA.
    ``population_size`` is the size of each island; ``n_islands = 1``
    is the plain GA.
    """

    population_size: int
    generations: int = 8
    selection: str = "tournament"
    crossover: str = "uniform"
    mutation_rate: float = 1 / 64
    crossover_prob: float = 1.0
    generation_gap: float = 1.0
    n_islands: int = 1
    migration_interval: int = 2   # generations between ring migrations

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population size must be at least 2")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover probability must be in [0, 1]")
        if not 0.0 < self.generation_gap <= 1.0:
            raise ValueError("generation gap must be in (0, 1]")
        if self.n_islands < 1:
            raise ValueError("need at least one island")
        if self.migration_interval < 1:
            raise ValueError("migration interval must be >= 1")

    @property
    def offspring_per_generation(self) -> int:
        """g = G * N, rounded to an even count of at least 2."""
        g = max(2, round(self.generation_gap * self.population_size))
        return g + (g % 2)


@dataclass
class GAResult:
    """Outcome of one GA run."""

    best: Individual
    best_generation: int        # generation in which the best first appeared
    generations_run: int
    evaluations: int            # fitness lookups, memo hits included
    history: List[float] = field(default_factory=list)  # best fitness per gen


class _FitnessMemo:
    """Fitness by chromosome for one GA run.

    Calls the batch evaluator at most once per call, with only the
    chromosomes the run has not scored yet (each once, in first-seen
    order), and counts every chromosome served from the memo in
    ``ga.dedup.skipped``.
    """

    def __init__(self, evaluator: BatchEvaluator, collector: NullCollector) -> None:
        self.evaluator = evaluator
        self.collector = collector
        self.fitness: Dict[tuple, float] = {}

    def __call__(self, chromosomes: List[Chromosome]) -> List[float]:
        fitness = self.fitness
        keys = [tuple(c) for c in chromosomes]
        fresh: Dict[tuple, Chromosome] = {}
        for key, chromosome in zip(keys, chromosomes):
            if key not in fitness:
                fresh.setdefault(key, chromosome)
        if fresh:
            scored = self.evaluator(list(fresh.values()))
            if len(scored) != len(fresh):
                raise ValueError(
                    f"evaluator returned {len(scored)} fitnesses "
                    f"for {len(fresh)} chromosomes"
                )
            fitness.update(zip(fresh, scored))
        skipped = len(keys) - len(fresh)
        if skipped and self.collector.enabled:
            self.collector.inc("ga.dedup.skipped", skipped)
        return [fitness[key] for key in keys]


class GeneticAlgorithm:
    """One GA run over a fixed coding and evaluator.

    ``evaluator`` receives a list of chromosomes and must return their
    fitnesses in order.  Fitness is memoized by chromosome for the
    length of one :meth:`run`: the evaluator is called at most once per
    generation (plus once for the initial populations), whatever the
    number of islands, with only the chromosomes the run has not scored
    yet, so it sees each distinct chromosome at most once per run.

    The memo is exact because the evaluator must be a pure function of
    the chromosome for the length of a run.  Every GATEST and CRIS
    evaluator is: the fault simulator's committed state, the fault
    sample and the phase cannot change while a GA runs (commits and
    restores happen between runs), and the population pass keeps each
    candidate in its own block of bit slots, so a score does not depend
    on its batch-mates.  ``evaluations`` (and the ``ga.evaluations``
    counter) still count every fitness lookup, memo hits included: the
    paper's cost metric.
    """

    def __init__(
        self,
        coding,
        evaluator: BatchEvaluator,
        params: GAParams,
        rng: Optional[random.Random] = None,
        initial: Optional[Sequence[Chromosome]] = None,
        collector: Optional[NullCollector] = None,
    ) -> None:
        self.coding = coding
        self.evaluator = evaluator
        self.params = params
        self.collector = collector if collector is not None else get_collector()
        self.rng = rng if rng is not None else random.Random()
        self.selection: SelectionScheme = (
            make_selection(params.selection)
            if isinstance(params.selection, str) else params.selection
        )
        self.crossover: CrossoverOperator = (
            make_crossover(params.crossover)
            if isinstance(params.crossover, str) else params.crossover
        )
        self.mutation = Mutation(params.mutation_rate)
        self._initial = list(initial) if initial is not None else None
        self.evaluations = 0
        self._memo = _FitnessMemo(evaluator, self.collector)

    # ------------------------------------------------------------------

    def _evaluate(self, chromosomes: List[Chromosome]) -> List[float]:
        fitnesses = self._memo(chromosomes)
        self.evaluations += len(chromosomes)
        return fitnesses

    def _initial_populations(self) -> List[Population]:
        """Every island's initial population, scored in one call."""
        params = self.params
        size = params.population_size
        total = params.n_islands * size
        if self._initial is not None:
            chromosomes = [list(c) for c in self._initial]
            if len(chromosomes) != total:
                raise ValueError(
                    f"initial population has {len(chromosomes)} members, "
                    f"expected {total}"
                )
        else:
            chromosomes = [self.coding.random(self.rng) for _ in range(total)]
        members = [
            Individual(c, f)
            for c, f in zip(chromosomes, self._evaluate(chromosomes))
        ]
        return [
            Population(members[start:start + size])
            for start in range(0, total, size)
        ]

    def _breed(self, population: Population, n_offspring: int) -> List[Chromosome]:
        """Select, cross and mutate to produce ``n_offspring`` chromosomes."""
        rng = self.rng
        parents = self.selection.select(
            population.fitnesses, n_offspring, rng
        )
        offspring: List[Chromosome] = []
        for i in range(0, n_offspring - 1, 2):
            a = population[parents[i]].chromosome
            b = population[parents[i + 1]].chromosome
            if rng.random() < self.params.crossover_prob:
                child_a, child_b = self.crossover.cross(a, b, rng)
            else:
                child_a, child_b = list(a), list(b)
            offspring.append(self.mutation.mutate(child_a, self.coding, rng))
            offspring.append(self.mutation.mutate(child_b, self.coding, rng))
        return offspring[:n_offspring]

    def _record_generation(self, collector, generation: int, population: Population) -> None:
        """Emit one telemetry generation record (enabled collectors only)."""
        fitnesses = population.fitnesses
        collector.generation(
            generation=generation,
            best=max(fitnesses),
            mean=sum(fitnesses) / len(fitnesses),
            evaluations=self.evaluations,
            population=len(fitnesses),
        )

    def run(self, on_generation: Optional[Callable[[int, Population], None]] = None) -> GAResult:
        """Evolve for the configured number of generations.

        Each generation breeds every island in island order and scores
        all their offspring with one evaluator call; every
        ``migration_interval`` generations, a copy of each island's best
        replaces the worst of the next island on the ring.

        ``on_generation(gen_index, population)`` is called after each
        generation (and for the initial population with index 0).  With
        several islands, ``population`` holds every island's members.
        """
        params = self.params
        collector = self.collector
        self._memo = _FitnessMemo(self.evaluator, collector)
        islands = self._initial_populations()
        population = _merged(islands)
        best = population.best().copy()
        best_generation = 0
        history = [best.fitness]
        if on_generation is not None:
            on_generation(0, population)
        if collector.enabled:
            self._record_generation(collector, 0, population)

        overlapping = params.generation_gap < 1.0
        if overlapping:
            n_offspring = min(
                params.offspring_per_generation, params.population_size
            )
        else:
            n_offspring = params.population_size
        for generation in range(1, params.generations + 1):
            bred = [self._breed(island, n_offspring) for island in islands]
            fitnesses = iter(self._evaluate([c for brood in bred for c in brood]))
            for island, brood in zip(islands, bred):
                offspring = [Individual(c, next(fitnesses)) for c in brood]
                if overlapping:
                    island.replace_worst(offspring)
                else:
                    island.replace_all(offspring)
            if len(islands) > 1 and generation % params.migration_interval == 0:
                _migrate(islands)
            population = _merged(islands)
            generation_best = population.best()
            if generation_best.fitness > best.fitness:
                best = generation_best.copy()
                best_generation = generation
            history.append(generation_best.fitness)
            if on_generation is not None:
                on_generation(generation, population)
            if collector.enabled:
                self._record_generation(collector, generation, population)

        if collector.enabled:
            collector.inc("ga.runs")
            collector.inc("ga.generations", params.generations)
            collector.inc("ga.evaluations", self.evaluations)
        return GAResult(
            best=best,
            best_generation=best_generation,
            generations_run=params.generations,
            evaluations=self.evaluations,
            history=history,
        )


def _merged(islands: List[Population]) -> Population:
    """One population of every island's members (the island itself
    when there is one)."""
    if len(islands) == 1:
        return islands[0]
    return Population([member for island in islands for member in island])


def _migrate(islands: List[Population]) -> None:
    """Ring migration: copies of each island's :data:`MIGRANTS` best
    replace the worst of the next island."""
    emigrants = [
        [member.copy() for member in sorted(
            island, key=lambda member: member.fitness, reverse=True
        )[:MIGRANTS]]
        for island in islands
    ]
    for i, island in enumerate(islands):
        island.replace_worst(emigrants[i - 1])
