"""CRIS-like baseline: GA test cultivation with logic-simulation fitness.

CRIS [Saab, Saab & Abraham, ICCAD 1992] evolves test sequences using a
*logic* simulator only — candidate fitness is derived from circuit
activity, never from actual fault detection.  The paper under
reproduction criticizes exactly this choice ("often had lower fault
coverages than ... a deterministic test generator") and uses fault
simulation instead.  This module provides the matching comparator: the
same GA machinery as GATEST, but with fitness =

    flip-flops set  +  node activity (toggles) per frame,

measured on the good machine alone.  Faults are simulated only when a
chosen test is *committed* (to drop detected faults and report
coverage), mirroring how CRIS used fault simulation solely for final
grading.  The heuristic-crossover specifics of CRIS are intentionally
not modelled — the point of the comparison is the fitness signal, which
is the design axis the paper isolates.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Union

from ..circuit.netlist import Circuit
from ..faults.reports import TestSetResult
from ..faults.simulator import FaultSimulator
from ..ga.chromosome import make_coding
from ..ga.engine import GAParams, GeneticAlgorithm
from ..sim.compile import CompiledCircuit, compile_circuit


@dataclass
class CrisResult(TestSetResult):
    """Outcome of a CRIS-like run."""

    ga_evaluations: int


class CrisLikeGenerator:
    """Sequence-evolving GA whose fitness never sees fault detection."""

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        seed: int = 0,
        population_size: int = 32,
        generations: int = 8,
        sequence_length: Optional[int] = None,
        stagnation_limit: int = 8,
        max_vectors: int = 2_000,
    ) -> None:
        compiled = compile_circuit(circuit)
        self.compiled = compiled
        self.rng = random.Random(seed)
        depth = max(1, compiled.circuit.sequential_depth())
        self.sequence_length = sequence_length or depth
        self.population_size = population_size
        self.generations = generations
        self.stagnation_limit = stagnation_limit
        self.max_vectors = max_vectors
        self.fsim = FaultSimulator(compiled)
        self.ga_evaluations = 0

    def _activity_evaluator(self, coding):
        """Fitness = FFs set + average node toggles per frame (good machine).

        One population pass with an empty fault sample: only the good
        machines are simulated, never a fault.
        """
        num_nodes = max(1, self.compiled.num_nodes)

        def evaluate(chromosomes):
            phenotypes = [coding.decode(c) for c in chromosomes]
            evaluations = self.fsim.evaluate_batch(
                phenotypes, sample=[], count_faulty_events=True
            )
            return [e.ffs_set + e.good_events / num_nodes for e in evaluations]

        return evaluate

    def run(self) -> CrisResult:
        """Evolve and commit sequences until activity stops paying off."""
        start = time.perf_counter()
        coding = make_coding("binary", self.compiled.num_pis, self.sequence_length)
        test_sequence: List[List[int]] = []
        stagnant = 0
        while (
            self.fsim.active
            and stagnant < self.stagnation_limit
            and len(test_sequence) + self.sequence_length <= self.max_vectors
        ):
            params = GAParams(
                population_size=self.population_size,
                generations=self.generations,
                selection="tournament",
                crossover="uniform",
                mutation_rate=1 / max(8, coding.length),
            )
            ga = GeneticAlgorithm(
                coding, self._activity_evaluator(coding), params, rng=self.rng
            )
            result = ga.run()
            self.ga_evaluations += result.evaluations
            sequence = coding.decode(result.best.chromosome)
            commit = self.fsim.commit(sequence)
            test_sequence.extend(sequence)
            stagnant = 0 if commit.detected_count > 0 else stagnant + 1
        return CrisResult(
            circuit_name=self.compiled.circuit.name,
            test_sequence=test_sequence,
            detected=self.fsim.detected_count,
            total_faults=self.fsim.num_faults,
            elapsed_seconds=time.perf_counter() - start,
            ga_evaluations=self.ga_evaluations,
        )
