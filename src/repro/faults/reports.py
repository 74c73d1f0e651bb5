"""Coverage reporting over fault-simulation results.

:class:`TestSetResult` is the record every test generator returns (the
GA, the hybrid flow and each baseline): the test set with the paper's
three scores — faults detected, vectors and time.  :func:`coverage_report`
turns the raw state of a :class:`~repro.faults.simulator.FaultSimulator`
into the reports a test engineer actually reads: the coverage curve over
the test set, the undetected-fault list grouped by region, and a
one-page text summary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..circuit.netlist import Circuit
from .model import Fault, FaultStatus
from .simulator import FaultSimulator


@dataclass
class TestSetResult:
    """A generated test set and its score, as every generator reports it.

    ``test_sequence`` is the committed vectors in application order (the
    paper's "Vec" column is its length); ``detected`` counts faults of
    the ``total_faults`` the generator targeted ("Det" column).
    Generators with more to report subclass this record and declare only
    their extra fields.
    """

    __test__ = False  # "Test" prefix confuses pytest collection otherwise

    circuit_name: str
    test_sequence: List[List[int]]
    detected: int
    total_faults: int
    elapsed_seconds: float

    @property
    def vectors(self) -> int:
        """Test-set length (the paper's Vec column)."""
        return len(self.test_sequence)

    @property
    def fault_coverage(self) -> float:
        """Detected fraction of the fault list."""
        return self.detected / self.total_faults if self.total_faults else 0.0

    def summary(self) -> str:
        """One paper-style row: detections and vectors."""
        return (
            f"{self.circuit_name}: det {self.detected}/{self.total_faults} "
            f"({100 * self.fault_coverage:.1f}%), vec {self.vectors}"
        )


@dataclass
class CoverageReport:
    """Digest of one fault-simulation campaign."""

    circuit_name: str
    total_faults: int
    detected: int
    vectors: int
    #: (frame, cumulative detections) steps of the coverage curve.
    curve: List[Tuple[int, int]]
    undetected: List[str]
    by_region: Dict[str, Tuple[int, int]]  # region -> (detected, total)

    @property
    def coverage(self) -> float:
        """Detected fraction of the fault list."""
        return self.detected / self.total_faults if self.total_faults else 0.0

    def render(self, max_undetected: int = 20) -> str:
        """Format the report as readable text."""
        lines = [
            f"Fault coverage report — {self.circuit_name}",
            f"  detected {self.detected}/{self.total_faults} "
            f"({100 * self.coverage:.2f}%) with {self.vectors} vectors",
        ]
        if self.curve:
            milestones = [0.5, 0.75, 0.9, 1.0]
            lines.append("  coverage curve (vectors to reach fraction of final):")
            for frac in milestones:
                target = frac * self.detected
                frame = next(
                    (f for f, d in self.curve if d >= target), None
                )
                if frame is not None:
                    lines.append(f"    {int(100 * frac):3d}% -> vector {frame + 1}")
        lines.append("  per-region coverage:")
        for region, (det, total) in sorted(self.by_region.items()):
            pct = 100 * det / total if total else 0.0
            lines.append(f"    {region:12s} {det:5d}/{total:<5d} ({pct:.1f}%)")
        if self.undetected:
            lines.append(f"  undetected ({len(self.undetected)} total, "
                         f"first {max_undetected}):")
            for name in self.undetected[:max_undetected]:
                lines.append(f"    {name}")
        return "\n".join(lines)


def _region_of(circuit: Circuit, fault: Fault) -> str:
    """Coarse region label from the synthesized naming convention, with
    a structural fallback for arbitrary netlists."""
    name = circuit.node_names[fault.node]
    if name.startswith("cff"):
        return "core-ff"
    if name.startswith("sff"):
        return "shallow-ff"
    if name.startswith("pi") or fault.node in circuit.inputs:
        return "inputs"
    if fault.node in circuit.dffs:
        return "flip-flops"
    return "gates"


def coverage_report(simulator: FaultSimulator) -> CoverageReport:
    """Build a report from a simulator's current (post-commit) state."""
    circuit = simulator.circuit
    detected_frames = sorted(frame for _, frame in simulator.detections)
    curve: List[Tuple[int, int]] = []
    running = 0
    for frame in detected_frames:
        running += 1
        if curve and curve[-1][0] == frame:
            curve[-1] = (frame, running)
        else:
            curve.append((frame, running))

    totals: Counter = Counter()
    detected_counter: Counter = Counter()
    for fault, status in zip(simulator.faults, simulator.status):
        region = _region_of(circuit, fault)
        totals[region] += 1
        if status is FaultStatus.DETECTED:
            detected_counter[region] += 1

    return CoverageReport(
        circuit_name=circuit.name,
        total_faults=simulator.num_faults,
        detected=simulator.detected_count,
        vectors=simulator.vectors_applied,
        curve=curve,
        undetected=[
            f.describe(circuit) for f in simulator.undetected_faults()
        ],
        by_region={
            region: (detected_counter[region], totals[region])
            for region in totals
        },
    )
