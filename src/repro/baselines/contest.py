"""CONTEST-like baseline: cost-directed search over unit-Hamming moves.

The paper's introduction contrasts GATEST with the earlier
simulation-based generators of Snethen [6] and Agrawal/Cheng/Agrawal
(CONTEST) [7]: those consider only candidate vectors at Hamming distance
one from the previous vector, steered by cost functions computed during
fault simulation.  This module provides that comparator: greedy
hill-climbing over single-bit flips with GATEST's own phase observables
as the cost function (flip-flops initialized, then faults detected with
fault-effect propagation as the tiebreak).

The contrast it isolates is *search breadth*: the GA explores a
population of arbitrary vectors per time frame, the hill climber only
``n_pi + 1`` neighbours — the paper's explanation for why
mutation-based generators produce much longer test sets.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Union

from ..circuit.netlist import Circuit
from ..faults.reports import TestSetResult
from ..faults.simulator import FaultSimulator
from ..sim.compile import CompiledCircuit, compile_circuit


@dataclass
class ContestResult(TestSetResult):
    """Outcome of a CONTEST-like run."""

    evaluations: int


class ContestLikeGenerator:
    """Greedy unit-Hamming-distance test generation."""

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        seed: int = 0,
        stagnation_limit: Optional[int] = None,
        max_vectors: int = 5_000,
    ) -> None:
        compiled = compile_circuit(circuit)
        self.compiled = compiled
        self.rng = random.Random(seed)
        depth = max(1, compiled.circuit.sequential_depth())
        self.stagnation_limit = (
            stagnation_limit if stagnation_limit is not None else 8 * depth
        )
        self.max_vectors = max_vectors
        self.fsim = FaultSimulator(compiled)
        self.evaluations = 0

    def _cost(self, evaluation) -> float:
        """Higher is better: initialization, then detection + propagation."""
        num_ffs = max(1, self.compiled.num_ffs)
        if not self.fsim.good_state.all_set:
            return evaluation.ffs_set + evaluation.ffs_changed / num_ffs
        denominator = max(1, evaluation.num_faults_simulated * num_ffs)
        return evaluation.detected + evaluation.prop_final / denominator

    def run(self) -> ContestResult:
        """Walk the input space until coverage stagnates or budget ends."""
        start = time.perf_counter()
        compiled = self.compiled
        n_pi = compiled.num_pis
        test_sequence: List[List[int]] = []
        current = [self.rng.randint(0, 1) for _ in range(n_pi)]
        stagnant = 0
        while (
            self.fsim.active
            and stagnant < self.stagnation_limit
            and len(test_sequence) < self.max_vectors
        ):
            # Candidates: the previous vector and all unit flips of it.
            candidates = [list(current)]
            for bit in range(n_pi):
                flipped = list(current)
                flipped[bit] ^= 1
                candidates.append(flipped)
            evaluations = self.fsim.evaluate_batch([[c] for c in candidates])
            self.evaluations += len(candidates)
            scores = [self._cost(e) for e in evaluations]
            best = max(range(len(candidates)), key=lambda i: scores[i])
            # Deterministic tie-break away from "no change" to keep the
            # walk moving through the input space.
            if best == 0 and any(
                scores[i] == scores[0] for i in range(1, len(candidates))
            ):
                best = next(
                    i for i in range(1, len(candidates)) if scores[i] == scores[0]
                )
            current = candidates[best]
            commit = self.fsim.commit([current])
            test_sequence.append(list(current))
            stagnant = 0 if commit.detected_count > 0 else stagnant + 1
        return ContestResult(
            circuit_name=compiled.circuit.name,
            test_sequence=test_sequence,
            detected=self.fsim.detected_count,
            total_faults=self.fsim.num_faults,
            elapsed_seconds=time.perf_counter() - start,
            evaluations=self.evaluations,
        )
