"""Hybrid GA-then-deterministic test generation (paper §V's suggestion).

    "the GA-based test generator can be used as a first pass in test
    generation to screen out many of the faults before applying a
    deterministic test generator.  Note that untestable faults cannot be
    identified by a simulation-based test generator, so the deterministic
    fault-oriented test generator is still needed for this purpose."

:class:`HybridAtpg` realizes exactly that flow: GATEST runs first and
retires the bulk of the fault list cheaply; the deterministic engine
then targets only the survivors — generating tests for the
hard-but-testable ones and *proving* untestability where it can.  The
result records which stage contributed what, which is the quantity that
justifies the hybrid (deterministic effort shrinks to the residue).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

from ..baselines.deterministic import DeterministicAtpg, DeterministicResult
from ..circuit.netlist import Circuit
from ..faults.reports import TestSetResult
from ..sim.compile import CompiledCircuit, compile_circuit
from .config import TestGenConfig
from .generator import GaTestGenerator
from .results import TestGenResult


@dataclass
class HybridResult(TestSetResult):
    """Outcome of the two-pass flow: ``detected`` and ``elapsed_seconds``
    are the sums of the two passes, whose own shares follow."""

    ga_detected: int
    deterministic_detected: int
    untestable: int
    aborted: int
    ga_seconds: float
    deterministic_seconds: float
    ga_result: TestGenResult
    deterministic_result: Optional[DeterministicResult]

    @property
    def fault_efficiency(self) -> float:
        """Detected-or-proven-untestable fraction (the ATPG quality
        metric deterministic tools report)."""
        if not self.total_faults:
            return 0.0
        return (self.detected + self.untestable) / self.total_faults

    def summary(self) -> str:
        """One-line report attributing coverage to each pass."""
        return (
            f"{self.circuit_name}: GA {self.ga_detected} + deterministic "
            f"{self.deterministic_detected} = {self.detected}/{self.total_faults} "
            f"detected ({100 * self.fault_coverage:.1f}%), "
            f"{self.untestable} proven untestable "
            f"(efficiency {100 * self.fault_efficiency:.1f}%), "
            f"{self.vectors} vectors, "
            f"GA {self.ga_seconds:.1f}s + det {self.deterministic_seconds:.1f}s"
        )


class HybridAtpg:
    """GATEST first pass, deterministic second pass on the survivors."""

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        config: Optional[TestGenConfig] = None,
        backtrack_limit: int = 400,
        max_frames: Optional[int] = None,
    ) -> None:
        self.config = config or TestGenConfig()
        if self.config.fault_model != "stuck-at":
            raise ValueError(
                f"HybridAtpg needs fault_model 'stuck-at', not "
                f"{self.config.fault_model!r}: its PODEM pass takes "
                "stuck-at faults"
            )
        self.compiled = compile_circuit(circuit)
        self.backtrack_limit = backtrack_limit
        self.max_frames = max_frames

    def run(self) -> HybridResult:
        """Run the GA pass, then the deterministic pass on survivors."""
        start = time.perf_counter()
        generator = GaTestGenerator(self.compiled, self.config)
        ga_result = generator.run()
        ga_seconds = time.perf_counter() - start
        survivors = generator.fsim.undetected_faults()
        test_sequence = list(ga_result.test_sequence)

        deterministic_result: Optional[DeterministicResult] = None
        deterministic_detected = 0
        untestable = 0
        aborted = 0
        deterministic_seconds = 0.0
        if survivors:
            start = time.perf_counter()
            atpg = DeterministicAtpg(
                self.compiled,
                faults=survivors,
                backtrack_limit=self.backtrack_limit,
                max_frames=self.max_frames,
            )
            deterministic_result = atpg.run()
            deterministic_seconds = time.perf_counter() - start
            deterministic_detected = deterministic_result.detected
            untestable = deterministic_result.untestable
            aborted = deterministic_result.aborted
            test_sequence.extend(deterministic_result.test_sequence)

        return HybridResult(
            circuit_name=self.compiled.circuit.name,
            test_sequence=test_sequence,
            detected=ga_result.detected + deterministic_detected,
            total_faults=ga_result.total_faults,
            elapsed_seconds=ga_seconds + deterministic_seconds,
            ga_detected=ga_result.detected,
            deterministic_detected=deterministic_detected,
            untestable=untestable,
            aborted=aborted,
            ga_seconds=ga_seconds,
            deterministic_seconds=deterministic_seconds,
            ga_result=ga_result,
            deterministic_result=deterministic_result,
        )


def run_hybrid(
    circuit: Union[Circuit, CompiledCircuit],
    config: Optional[TestGenConfig] = None,
) -> HybridResult:
    """Functional convenience wrapper around :class:`HybridAtpg`."""
    return HybridAtpg(circuit, config).run()
