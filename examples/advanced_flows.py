"""Advanced flows: transition faults, hybrid ATPG, compaction, checkpoints.

A tour of the reproduction's extension features (the paper's §VI
future-work items, DESIGN.md "Extensions"):

1. GATEST on the **transition (gate-delay) fault model** — same
   generator, different fault universe;
2. the §V **hybrid** flow — GA first pass, deterministic engine on the
   survivors, untestability proofs included;
3. **static compaction** of the combined test set;
4. a **checkpoint** save/restore round trip, as a long campaign would
   use between sessions.

Run:  python examples/advanced_flows.py [circuit] [scale]
e.g.  python examples/advanced_flows.py s386 0.5
"""

import sys
import tempfile
from pathlib import Path

from repro.core import (
    HybridAtpg,
    GaTestGenerator,
    TestGenConfig,
    compact_test_set,
    load_checkpoint,
    save_checkpoint,
)
from repro.faults import FaultSimulator
from repro.sim import compiled_circuit_for


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "s298"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4
    compiled = compiled_circuit_for(name, scale)
    circuit = compiled.circuit
    print(f"circuit: {circuit.name}  {circuit.stats()}\n")

    # 1. Transition-fault ATPG: the unmodified generator on a different
    #    fault model (paper §VI: "other fault models can easily be
    #    accommodated").
    print("— transition-fault GATEST —")
    transition = GaTestGenerator(
        compiled, TestGenConfig(seed=1, fault_model="transition")
    ).run()
    print(transition.summary())

    # 2. Hybrid GA + deterministic flow (paper §V).
    print("\n— hybrid flow (stuck-at) —")
    hybrid = HybridAtpg(
        compiled, TestGenConfig(seed=1), backtrack_limit=100
    ).run()
    print(hybrid.summary())

    # 3. Compaction of the combined test set.
    print("\n— static compaction —")
    compaction = compact_test_set(compiled, hybrid.test_sequence)
    print(
        f"{compaction.original_vectors} -> {compaction.compacted_vectors} vectors "
        f"({100 * compaction.reduction:.0f}% smaller) at preserved coverage, "
        f"{compaction.trials} resimulations"
    )

    # 4. Checkpoint round trip: save mid-campaign, restore, continue.
    print("\n— checkpoint round trip —")
    half = len(compaction.test_sequence) // 2
    first, second = (
        compaction.test_sequence[:half], compaction.test_sequence[half:]
    )
    session1 = FaultSimulator(compiled)
    session1.commit(first)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.ckpt.json"
        save_checkpoint(path, session1, test_sequence=first)
        print(f"saved {path.stat().st_size} bytes after {half} vectors "
              f"({session1.detected_count} detections)")
        session2, stored = load_checkpoint(path, compiled)
        session2.commit(second)
        print(f"restored and continued: {session2.detected_count}"
              f"/{session2.num_faults} detections")
    reference = FaultSimulator(compiled)
    reference.commit(compaction.test_sequence)
    assert reference.detected_count == session2.detected_count
    print("continuation equals an uninterrupted run — checkpoint is faithful.")


if __name__ == "__main__":
    main()
