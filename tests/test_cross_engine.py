"""Cross-engine checks: GA test sets as witnesses against PODEM.

A fault GATEST first detects at frame ``t`` has a witness: the first
``t + 1`` vectors of its test set, applied from power-up.  The
independent scalar oracle (tests/oracle.py) must confirm every such
witness, and PODEM, searching a ``(t + 1)``-frame unrolling from the
same unknown state, must never call that fault untestable (ROADMAP
item 1: an untestable count may hold only proofs).
"""

from __future__ import annotations

import pytest

from repro.baselines.podem import Podem, PodemStatus, unroll
from repro.circuit import s27
from repro.core import GaTestGenerator, TestGenConfig

from tests import oracle

GA_SEEDS = (1, 2, 3)
BACKTRACK_LIMIT = 2000


@pytest.fixture(scope="module")
def witnesses():
    """``(circuit, [(seed, fault, witness vectors), ...])`` for s27."""
    circuit = s27()
    cases = []
    for seed in GA_SEEDS:
        result = GaTestGenerator(circuit, TestGenConfig(seed=seed)).run()
        for fault, frame in result.detections:
            cases.append((seed, fault, result.test_sequence[:frame + 1]))
    return circuit, cases


def test_oracle_confirms_every_ga_witness(witnesses):
    circuit, cases = witnesses
    assert cases
    refuted = [(seed, fault.describe(circuit), len(witness))
               for seed, fault, witness in cases
               if not oracle.detects(circuit, fault, witness)]
    assert not refuted


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: PODEM answers UNTESTABLE for faults a GA "
           "witness detects (s27 G15 s-a-1 and G9 s-a-0 at 4 frames); "
           "this turns into a failure once the search is fixed",
)
def test_podem_never_calls_a_witnessed_fault_untestable(witnesses):
    circuit, cases = witnesses
    unrollings = {}
    wrong = []
    for seed, fault, witness in cases:
        frames = len(witness)
        if frames not in unrollings:
            unrollings[frames] = unroll(circuit, frames)
        unrolled = unrollings[frames]
        podem = Podem(
            unrolled.circuit,
            unrolled.fault_copies(fault),
            assignable=[pi for frame in unrolled.frame_pis for pi in frame],
            observables=unrolled.observables,
            backtrack_limit=BACKTRACK_LIMIT,
        )
        if podem.run().status is PodemStatus.UNTESTABLE:
            wrong.append((seed, fault.describe(circuit), frames))
    assert not wrong
