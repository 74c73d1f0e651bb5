"""Static test-set compaction for sequential circuits.

GATEST already produces test sets far shorter than random methods (the
paper reports one-third of CRIS's length), but a generated sequence
still carries noncontributing vectors: phase-3 vectors committed while
the GA searched for activity, and sequence prefixes whose only job was
reaching a state that a later, shorter path also reaches.  Two classic
static compaction passes are provided; both preserve (or improve) fault
coverage by construction because every trial is verified with full
resimulation:

* **tail truncation** — drop everything after the last detecting frame;
* **block omission** — greedily try deleting blocks of vectors,
  re-simulating the remainder; a deletion is kept only if coverage does
  not drop.  Block sizes halve down to single vectors, which bounds the
  number of resimulations at roughly ``O(n log n)`` while still finding
  single-vector omissions.

This is a reproduction *extension* (DESIGN.md §5): the paper's Vec
column motivates it but the paper itself applies no compaction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..faults.transition import SIMULATORS
from ..sim.compile import CompiledCircuit, compile_circuit
from ..sim.logic3 import Vector


@dataclass
class CompactionResult:
    """Outcome of compacting one test set."""

    original_vectors: int
    compacted_vectors: int
    original_detected: int
    compacted_detected: int
    trials: int                 # resimulations performed
    elapsed_seconds: float
    test_sequence: List[List[int]]

    @property
    def reduction(self) -> float:
        """Fraction of vectors removed."""
        if not self.original_vectors:
            return 0.0
        return 1.0 - self.compacted_vectors / self.original_vectors


class TestSetCompactor:
    """Coverage-preserving static compaction of a vector sequence,
    re-simulated under ``fault_model`` (``"stuck-at"`` or
    ``"transition"``, as ``TestGenConfig.fault_model`` names them).

    Every trial runs on one simulator, reset to power-up first, so the
    fault list is collapsed and the kernel looked up once per compactor.
    """

    __test__ = False  # "Test" prefix confuses pytest collection otherwise

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        faults: Optional[List[Fault]] = None,
        fault_model: str = "stuck-at",
    ) -> None:
        self.compiled = compile_circuit(circuit)
        self._faults = faults
        self._sim = SIMULATORS[fault_model](self.compiled, faults=faults)
        self.trials = 0

    def _detected_by(self, vectors: Sequence[Vector]) -> int:
        """Detections of a candidate test set, from power-up."""
        sim = self._sim
        sim.reset()
        if vectors:
            sim.commit(vectors)
        self.trials += 1
        return sim.detected_count

    def _last_detection_frame(self, vectors: Sequence[Vector]) -> int:
        """Index of the last frame that detects a new fault (-1 if none):
        the latest first-detection frame of one commit from power-up."""
        sim = self._sim
        sim.reset()
        detections = sim.commit(vectors).detections
        self.trials += 1
        return max((frame for _fault, frame in detections), default=-1)

    def compact(self, vectors: Sequence[Vector]) -> CompactionResult:
        """Run tail truncation followed by greedy block omission."""
        start = time.perf_counter()
        self.trials = 0
        original = [list(v) for v in vectors]
        baseline = self._detected_by(original)

        # Pass 1: tail truncation.
        last = self._last_detection_frame(original)
        current = original[: last + 1]

        # Pass 2: greedy block omission, halving block sizes.
        block = max(1, len(current) // 4)
        while block >= 1:
            index = 0
            while index < len(current):
                trial = current[:index] + current[index + block:]
                if len(trial) < len(current) and self._detected_by(trial) >= baseline:
                    current = trial
                    # Do not advance: the next block slid into place.
                else:
                    index += block
            block //= 2

        compacted_detected = self._detected_by(current)
        assert compacted_detected >= baseline, "compaction lost coverage"
        return CompactionResult(
            original_vectors=len(original),
            compacted_vectors=len(current),
            original_detected=baseline,
            compacted_detected=compacted_detected,
            trials=self.trials,
            elapsed_seconds=time.perf_counter() - start,
            test_sequence=current,
        )


def compact_test_set(
    circuit: Union[Circuit, CompiledCircuit],
    vectors: Sequence[Vector],
    faults: Optional[List[Fault]] = None,
    fault_model: str = "stuck-at",
) -> CompactionResult:
    """Functional convenience wrapper around :class:`TestSetCompactor`."""
    return TestSetCompactor(circuit, faults, fault_model).compact(vectors)
