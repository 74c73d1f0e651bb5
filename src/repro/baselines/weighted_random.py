"""Weighted-random test generation (the paper's refs [3, 4, 5]).

The second family of simulation-based generators the paper's
introduction surveys: instead of uniform random vectors, each primary
input gets its own probability of being 1, tuned so that hard-to-reach
internal values become likelier.  Two weight sources are provided:

* **static** — derived from SCOAP controllabilities: a PI leans toward
  the value that the circuit's hard-to-control nodes need (inputs that
  mostly feed AND trees drift high, NOR trees drift low);
* **adaptive** — the Schnurmann-style feedback loop: start uniform,
  and whenever coverage stalls, re-weight toward the input values that
  recent *detecting* vectors used (a light-weight multi-distribution
  scheme in the spirit of ref [5]).

Like all the baselines, detection accounting runs through the shared
fault simulator so comparisons against GATEST are apples to apples.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Union

from ..circuit.netlist import Circuit
from ..circuit.testability import analyze
from ..faults.reports import TestSetResult
from ..faults.simulator import FaultSimulator
from ..sim.compile import CompiledCircuit, compile_circuit


@dataclass
class WeightedRandomResult(TestSetResult):
    """Outcome of a weighted-random run."""

    final_weights: List[float]


def scoap_weights(circuit: Circuit, strength: float = 0.25) -> List[float]:
    """Static per-PI one-probabilities from SCOAP controllabilities.

    For each PI, compare the total SCOAP cost of the circuit under the
    convention that the PI is mostly 1 vs mostly 0 — approximated by the
    PI's direct fanout gate types — and shift the weight by up to
    ``strength`` away from 0.5.
    """
    report = analyze(circuit)
    weights = []
    for pi in circuit.inputs:
        pull = 0.0
        for load in circuit.fanouts[pi]:
            gate_type = circuit.node_types[load].value
            # AND-family loads are easier to exercise with 1s on their
            # side inputs; OR-family with 0s.
            if gate_type in ("and", "nand"):
                pull += 1.0
            elif gate_type in ("or", "nor"):
                pull -= 1.0
        fanout = max(1, len(circuit.fanouts[pi]))
        weights.append(min(0.9, max(0.1, 0.5 + strength * pull / fanout)))
    return weights


class WeightedRandomGenerator:
    """Adaptive weighted-random TPG with a stagnation-driven re-weighter."""

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        seed: int = 0,
        max_vectors: int = 2_000,
        stagnation_limit: int = 64,
        weights: Optional[List[float]] = None,
        adapt: bool = True,
        batch: int = 16,
    ) -> None:
        compiled = compile_circuit(circuit)
        self.compiled = compiled
        self.rng = random.Random(seed)
        self.max_vectors = max_vectors
        self.stagnation_limit = stagnation_limit
        self.adapt = adapt
        self.batch = max(1, batch)
        if weights is None:
            weights = scoap_weights(compiled.circuit)
        if len(weights) != compiled.num_pis:
            raise ValueError(
                f"{len(weights)} weights for {compiled.num_pis} inputs"
            )
        self.weights = list(weights)
        self.fsim = FaultSimulator(compiled)

    def _vector(self) -> List[int]:
        return [
            1 if self.rng.random() < w else 0 for w in self.weights
        ]

    def _reweight(self, detecting_vectors: List[List[int]]) -> None:
        """Blend the weights toward the bit statistics of recent winners,
        then nudge back toward 0.5 so no input pins at a rail."""
        if not detecting_vectors:
            # Nothing worked recently: relax toward uniform to escape a
            # counterproductive distribution.
            self.weights = [0.5 + 0.5 * (w - 0.5) for w in self.weights]
            return
        n = len(detecting_vectors)
        for j in range(len(self.weights)):
            ones = sum(v[j] for v in detecting_vectors) / n
            blended = 0.5 * self.weights[j] + 0.5 * ones
            self.weights[j] = min(0.9, max(0.1, blended))

    def run(self) -> WeightedRandomResult:
        """Generate until the vector budget or the stagnation limit."""
        start = time.perf_counter()
        test_sequence: List[List[int]] = []
        stagnant = 0
        recent_detecting: List[List[int]] = []
        while len(test_sequence) < self.max_vectors and self.fsim.active:
            size = min(self.batch, self.max_vectors - len(test_sequence))
            vectors = [self._vector() for _ in range(size)]
            before = self.fsim.detected_count
            for vector in vectors:
                detected = self.fsim.commit([vector]).detected_count
                test_sequence.append(vector)
                if detected:
                    recent_detecting.append(vector)
            if self.fsim.detected_count > before:
                stagnant = 0
            else:
                stagnant += size
                if self.adapt:
                    self._reweight(recent_detecting[-16:])
                if stagnant >= self.stagnation_limit:
                    break
        return WeightedRandomResult(
            circuit_name=self.compiled.circuit.name,
            test_sequence=test_sequence,
            detected=self.fsim.detected_count,
            total_faults=self.fsim.num_faults,
            elapsed_seconds=time.perf_counter() - start,
            final_weights=list(self.weights),
        )
