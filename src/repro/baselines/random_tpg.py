"""Random test generation baseline.

The simplest simulation-based comparator: apply random vectors, fault
simulate, keep everything.  Used by the ablation bench to show what the
GA buys over random search at a matched simulation budget
(DESIGN.md §5), and by the test suite as a coverage floor.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Union

from ..circuit.netlist import Circuit
from ..faults.reports import TestSetResult
from ..faults.simulator import FaultSimulator
from ..sim.compile import CompiledCircuit, compile_circuit


class RandomTestGenerator:
    """Apply uniform random vectors until a budget or stagnation limit.

    ``stagnation_limit`` mirrors GATEST's progress limit: generation
    stops after that many consecutive vectors detect nothing new (or
    when ``max_vectors`` is reached, whichever is first).
    """

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        seed: int = 0,
        max_vectors: int = 10_000,
        stagnation_limit: Optional[int] = None,
        batch: int = 32,
    ) -> None:
        compiled = compile_circuit(circuit)
        self.compiled = compiled
        self.rng = random.Random(seed)
        self.max_vectors = max_vectors
        self.stagnation_limit = stagnation_limit
        self.batch = max(1, batch)
        self.fsim = FaultSimulator(compiled)

    def run(self) -> TestSetResult:
        """Apply random vectors until the budget or stagnation limit."""
        start = time.perf_counter()
        n_pi = self.compiled.num_pis
        test_sequence: List[List[int]] = []
        stagnant = 0
        while len(test_sequence) < self.max_vectors and self.fsim.active:
            size = min(self.batch, self.max_vectors - len(test_sequence))
            vectors = [
                [self.rng.randint(0, 1) for _ in range(n_pi)] for _ in range(size)
            ]
            commit = self.fsim.commit(vectors)
            test_sequence.extend(vectors)
            if commit.detected_count > 0:
                stagnant = 0
            else:
                stagnant += size
                if (
                    self.stagnation_limit is not None
                    and stagnant >= self.stagnation_limit
                ):
                    break
        return TestSetResult(
            circuit_name=self.compiled.circuit.name,
            test_sequence=test_sequence,
            detected=self.fsim.detected_count,
            total_faults=self.fsim.num_faults,
            elapsed_seconds=time.perf_counter() - start,
        )
