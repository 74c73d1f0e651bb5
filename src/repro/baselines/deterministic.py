"""Deterministic fault-oriented sequential ATPG (the HITEC comparator).

For every undetected fault, the engine searches for a self-initializing
test sequence by running PODEM on iterative-array expansions of
increasing length (1, 2, 4, ... frames up to a per-circuit window).
After each successful generation the sequence is fault-simulated against
the whole remaining fault list so that one sequence retires many faults
(standard deterministic-ATPG flow).  Faults whose search space is
exhausted in the largest window are classified *untestable-in-window*;
searches that hit the backtrack limit are *aborted* — mirroring how
HITEC reports untestable vs aborted faults.

This baseline exists for Table 2's comparison columns: it exhibits the
deterministic cost profile the paper contrasts GATEST against (long run
times on sequential circuits, shorter test sets, ability to prove
untestability), not HITEC's exact heuristics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..circuit.netlist import Circuit
from ..faults.model import Fault, FaultStatus
from ..faults.reports import TestSetResult
from ..faults.simulator import FaultSimulator
from ..sim.compile import CompiledCircuit, compile_circuit
from .podem import Podem, PodemStatus, Unrolled, unroll


@dataclass
class DeterministicResult(TestSetResult):
    """Outcome of a deterministic ATPG run."""

    untestable: int              # proven untestable within the frame window
    aborted: int                 # backtrack limit hit
    backtracks: int
    targeted: int                # faults PODEM actually ran on

    def summary(self) -> str:
        """The shared row plus the untestable and aborted counts."""
        return (
            f"{super().summary()}, untestable {self.untestable}, "
            f"aborted {self.aborted}"
        )


class DeterministicAtpg:
    """HITEC-like time-frame-expansion test generator."""

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        faults: Optional[List[Fault]] = None,
        max_frames: Optional[int] = None,
        backtrack_limit: int = 400,
        seed_vectors: int = 0,
    ) -> None:
        compiled = compile_circuit(circuit)
        self.compiled = compiled
        self.circuit = compiled.circuit
        depth = max(1, self.circuit.sequential_depth())
        # Window must allow initialize-then-walk-then-observe sequences,
        # so keep a floor even for depth-1 circuits.
        self.max_frames = (
            max_frames if max_frames is not None else min(max(4 * depth, 8), 64)
        )
        self.backtrack_limit = backtrack_limit
        self.fsim = FaultSimulator(compiled, faults=faults)
        self.seed_vectors = seed_vectors
        self._unroll_cache: Dict[int, Unrolled] = {}

    def _unrolled(self, frames: int) -> Unrolled:
        if frames not in self._unroll_cache:
            self._unroll_cache[frames] = unroll(self.circuit, frames)
        return self._unroll_cache[frames]

    def _frame_schedule(self) -> List[int]:
        frames = []
        n = 1
        while n < self.max_frames:
            frames.append(n)
            n *= 2
        frames.append(self.max_frames)
        return sorted(set(frames))

    def _assignment_to_sequence(
        self, unrolled: Unrolled, assignment: Dict[int, int]
    ) -> List[List[int]]:
        """Convert a PODEM PI assignment to a vector sequence.

        Unassigned bits are filled with 0 (any value preserves the test:
        three-valued simulation guaranteed detection with them at X).
        """
        sequence = []
        for frame_pis in unrolled.frame_pis:
            sequence.append([assignment.get(pi, 0) for pi in frame_pis])
        return sequence

    def run(self) -> DeterministicResult:
        """Target every fault; returns the aggregate result."""
        start = time.perf_counter()
        test_sequence: List[List[int]] = []
        untestable = 0
        aborted = 0
        backtracks = 0
        targeted = 0

        if self.seed_vectors:
            # Optional random preamble to cheaply knock out easy faults
            # (both HITEC and common flows do this).
            import random as _random

            rng = _random.Random(0)
            vectors = [
                [rng.randint(0, 1) for _ in range(self.compiled.num_pis)]
                for _ in range(self.seed_vectors)
            ]
            self.fsim.commit(vectors)
            test_sequence.extend(vectors)

        schedule = self._frame_schedule()
        # Iterate over a stable list; the active list shrinks as sequences
        # retire additional faults.
        pending = list(self.fsim.active)
        for fault_id in pending:
            if self.fsim.status[fault_id] is FaultStatus.DETECTED:
                continue
            fault = self.fsim.faults[fault_id]
            targeted += 1
            outcome = None
            for frames in schedule:
                unrolled = self._unrolled(frames)
                podem = Podem(
                    unrolled.circuit,
                    unrolled.fault_copies(fault),
                    assignable=[
                        pi for frame in unrolled.frame_pis for pi in frame
                    ],
                    observables=unrolled.observables,
                    backtrack_limit=self.backtrack_limit,
                )
                result = podem.run()
                backtracks += result.backtracks
                if result.found:
                    sequence = self._assignment_to_sequence(
                        unrolled, result.assignment
                    )
                    self.fsim.commit(sequence)
                    test_sequence.extend(sequence)
                    outcome = "detected"
                    break
                if result.status is PodemStatus.ABORTED:
                    outcome = "aborted"
                    # A longer window will only be harder; give up.
                    break
                outcome = "untestable"
            if outcome == "untestable":
                untestable += 1
            elif outcome == "aborted":
                aborted += 1
            # Note: a found sequence may not detect the targeted fault in
            # the committed (non-X) start state in rare X-optimism-free
            # cases; the simulator is the arbiter and simply leaves the
            # fault active for statistics.

        return DeterministicResult(
            circuit_name=self.circuit.name,
            test_sequence=test_sequence,
            detected=self.fsim.detected_count,
            total_faults=self.fsim.num_faults,
            untestable=untestable,
            aborted=aborted,
            elapsed_seconds=time.perf_counter() - start,
            backtracks=backtracks,
            targeted=targeted,
        )
