"""Genetic-algorithm engine: codings, operators, populations, evolution loop."""

from .chromosome import BinaryCoding, Chromosome, NonbinaryCoding, Phenotype, make_coding
from .crossover import (
    CROSSOVER_OPERATORS,
    CrossoverOperator,
    OnePoint,
    TwoPoint,
    Uniform,
    make_crossover,
)
from .engine import BatchEvaluator, GAParams, GAResult, GeneticAlgorithm
from .mutation import Mutation
from .population import Individual, Population
from .selection import (
    SELECTION_SCHEMES,
    RouletteWheel,
    SelectionScheme,
    StochasticUniversal,
    TournamentWithReplacement,
    TournamentWithoutReplacement,
    make_selection,
)

__all__ = [
    "BatchEvaluator",
    "BinaryCoding",
    "CROSSOVER_OPERATORS",
    "Chromosome",
    "CrossoverOperator",
    "GAParams",
    "GAResult",
    "GeneticAlgorithm",
    "Individual",
    "Mutation",
    "NonbinaryCoding",
    "OnePoint",
    "Phenotype",
    "Population",
    "RouletteWheel",
    "SELECTION_SCHEMES",
    "SelectionScheme",
    "StochasticUniversal",
    "TournamentWithReplacement",
    "TournamentWithoutReplacement",
    "TwoPoint",
    "Uniform",
    "make_coding",
    "make_crossover",
    "make_selection",
]
