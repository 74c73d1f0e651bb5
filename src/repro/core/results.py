"""Result records produced by the GATEST generator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..faults.model import Fault
from ..faults.reports import TestSetResult
from .fitness import Phase


@dataclass(frozen=True)
class StageEvent:
    """One entry of the generation trace (reproduces Figures 1 and 2).

    ``kind`` is ``"vector"`` or ``"sequence"``.  For vectors, ``phase``
    is the phase the vector was evolved under and ``frames`` is 1.  For
    sequence attempts, ``frames`` is the attempted sequence length and
    ``committed`` records whether the sequence improved coverage and was
    added to the test set.
    """

    kind: str
    phase: Phase
    frames: int
    detected: int
    committed: bool


@dataclass
class TestGenResult(TestSetResult):
    """Everything a GATEST run produced: the shared test-set record plus
    the GA's effort, its phase history and the per-fault detections."""

    ga_evaluations: int
    ga_runs: int
    phase_transitions: List[Tuple[int, Phase]]
    trace: List[StageEvent] = field(default_factory=list)
    detections: List[Tuple[Fault, int]] = field(default_factory=list)

    def summary(self) -> str:
        """One paper-style row: detections, vectors, time."""
        return (
            f"{super().summary()}, {self.elapsed_seconds:.1f}s, "
            f"{self.ga_evaluations} evaluations"
        )
