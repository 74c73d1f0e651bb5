"""Debugging fault escapes: testability analysis, reports, waveforms.

After running GATEST this script answers the engineer's next question —
*which faults escaped, and why?* — with the three standard tools:

1. a coverage report with per-region breakdown and the coverage curve;
2. SCOAP testability analysis: are the escapes hard-to-control or
   hard-to-observe sites?
3. a VCD waveform dump of the generated test set around one escape's
   fault site (written to a temporary directory here; give
   :func:`~repro.sim.dump_vcd` your own path to open it in GTKWave or
   any waveform viewer).

Run:  python examples/debug_escapes.py [circuit] [scale]
e.g.  python examples/debug_escapes.py s526 0.5
"""

import statistics
import sys
import tempfile
from pathlib import Path

from repro.circuit import analyze_testability
from repro.core import GaTestGenerator, TestGenConfig
from repro.faults import FaultSimulator, coverage_report
from repro.sim import compiled_circuit_for, dump_vcd


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "s298"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5
    compiled = compiled_circuit_for(name, scale)
    circuit = compiled.circuit

    print(f"generating tests for {circuit.name} ...")
    result = GaTestGenerator(compiled, TestGenConfig(seed=3)).run()
    print(result.summary())

    # Re-simulate vector by vector so the report's coverage curve has
    # per-frame resolution.
    fsim = FaultSimulator(compiled)
    for vector in result.test_sequence:
        fsim.commit([vector])
    report = coverage_report(fsim)
    print()
    print(report.render(max_undetected=10))

    if not fsim.active:
        print("\nno escapes — nothing to debug.")
        return

    # SCOAP: are the escapes structurally hard?
    scoap = analyze_testability(circuit)
    detected_ids = set(range(fsim.num_faults)) - set(fsim.active)
    escaped_difficulty = [
        scoap.fault_difficulty(f.node, f.stuck_at)
        for f in fsim.undetected_faults()
    ]
    detected_difficulty = [
        scoap.fault_difficulty(fsim.faults[i].node, fsim.faults[i].stuck_at)
        for i in detected_ids
    ]
    print(f"\nSCOAP difficulty (median): escaped "
          f"{statistics.median(escaped_difficulty):.0f} vs detected "
          f"{statistics.median(detected_difficulty):.0f}")
    hardest = max(
        fsim.undetected_faults(),
        key=lambda f: min(scoap.fault_difficulty(f.node, f.stuck_at), 1e9),
    )
    print(f"hardest escape: {hardest.describe(circuit)} "
          f"(difficulty {scoap.fault_difficulty(hardest.node, hardest.stuck_at):.0f})")

    # Waveform dump around the hardest escape's fault site.
    site = circuit.node_names[hardest.node]
    neighbourhood = [site] + [
        circuit.node_names[f] for f in circuit.fanins[hardest.node]
    ]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "escape_debug.vcd"
        dump_vcd(circuit, result.test_sequence, out, signals=neighbourhood)
        print(f"wrote {out.name} ({out.stat().st_size} bytes) with signals "
              f"{neighbourhood} ({len(result.test_sequence)} cycles)")


if __name__ == "__main__":
    main()
