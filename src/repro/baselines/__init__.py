"""Comparator test generators: random, CRIS-like, and deterministic ATPG.

Each ``run()`` returns a :class:`~repro.faults.reports.TestSetResult`
(the random generator that record itself; the others a subclass adding
their own fields).
"""

from .contest import ContestLikeGenerator, ContestResult
from .cris import CrisLikeGenerator, CrisResult
from .deterministic import DeterministicAtpg, DeterministicResult
from .podem import Podem, PodemResult, PodemStatus, Unrolled, unroll
from .random_tpg import RandomTestGenerator
from .weighted_random import WeightedRandomGenerator, WeightedRandomResult, scoap_weights

__all__ = [
    "ContestLikeGenerator",
    "ContestResult",
    "CrisLikeGenerator",
    "CrisResult",
    "DeterministicAtpg",
    "DeterministicResult",
    "Podem",
    "PodemResult",
    "PodemStatus",
    "RandomTestGenerator",
    "WeightedRandomGenerator",
    "WeightedRandomResult",
    "scoap_weights",
    "Unrolled",
    "unroll",
]
