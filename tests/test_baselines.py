"""Tests for the comparator test generators (random, CRIS-like, PODEM)."""

import re

import pytest

from repro.baselines import (
    ContestLikeGenerator,
    CrisLikeGenerator,
    DeterministicAtpg,
    Podem,
    PodemStatus,
    RandomTestGenerator,
    WeightedRandomGenerator,
    unroll,
)
from repro.circuit import (
    Circuit,
    GateType,
    c17,
    mini_fsm,
    resettable_counter,
    s27,
    shift_register,
)
from repro.core import GaTestGenerator, HybridAtpg, TestGenConfig
from repro.faults import (
    STEM,
    Fault,
    FaultSimulator,
    TestSetResult,
    collapsed_fault_list,
)

_ROW = r"minifsm: det \d+/26 \(\d+\.\d%\), vec \d+"


class TestSharedResultRecord:
    """Every generator reports the one record, printed by its summary():
    the shared row, plus whatever the generator adds to it."""

    @pytest.mark.parametrize("make, line", [
        (lambda c: GaTestGenerator(c, TestGenConfig(seed=1)),
         _ROW + r", \d+\.\ds, \d+ evaluations"),
        (lambda c: HybridAtpg(c, TestGenConfig(seed=1)),
         r"minifsm: GA \d+ \+ deterministic \d+ = \d+/26 detected .*"),
        (lambda c: RandomTestGenerator(c, seed=1, max_vectors=64), _ROW),
        (lambda c: WeightedRandomGenerator(c, seed=1, max_vectors=64), _ROW),
        (lambda c: CrisLikeGenerator(c, seed=1, max_vectors=64), _ROW),
        (lambda c: ContestLikeGenerator(c, seed=1, max_vectors=64), _ROW),
        (lambda c: DeterministicAtpg(c),
         _ROW + r", untestable \d+, aborted \d+"),
    ], ids=["ga", "hybrid", "random", "weighted", "cris", "contest",
            "deterministic"])
    def test_every_generator_returns_the_shared_record(self, make, line):
        result = make(mini_fsm()).run()
        assert isinstance(result, TestSetResult)
        assert result.vectors == len(result.test_sequence)
        assert result.fault_coverage == result.detected / result.total_faults
        assert re.fullmatch(line, result.summary()), result.summary()


class TestRandomTpg:
    def test_s27_reaches_full_coverage(self):
        result = RandomTestGenerator(s27(), seed=0, max_vectors=500).run()
        assert result.detected == result.total_faults
        assert result.vectors <= 500

    def test_stagnation_stops_early(self):
        result = RandomTestGenerator(
            mini_fsm(), seed=0, max_vectors=100_000, stagnation_limit=64, batch=16
        ).run()
        assert result.vectors < 100_000

    def test_test_set_replays(self):
        result = RandomTestGenerator(s27(), seed=3, max_vectors=100).run()
        fsim = FaultSimulator(s27())
        fsim.commit(result.test_sequence)
        assert fsim.detected_count == result.detected

    def test_deterministic(self):
        a = RandomTestGenerator(s27(), seed=9, max_vectors=64).run()
        b = RandomTestGenerator(s27(), seed=9, max_vectors=64).run()
        assert a.test_sequence == b.test_sequence


class TestCrisLike:
    def test_runs_and_detects(self):
        result = CrisLikeGenerator(s27(), seed=1).run()
        assert result.detected > 0
        assert result.ga_evaluations > 0

    def test_sequence_length_defaults_to_depth(self):
        gen = CrisLikeGenerator(shift_register(5), seed=0)
        assert gen.sequence_length == 5

    def test_vector_budget_respected(self):
        result = CrisLikeGenerator(mini_fsm(), seed=0, max_vectors=20).run()
        assert result.vectors <= 20


class TestUnroll:
    def test_structure(self, s27_circuit):
        unrolled = unroll(s27_circuit, 3)
        assert unrolled.frames == 3
        assert len(unrolled.frame_pis) == 3
        assert all(len(f) == 4 for f in unrolled.frame_pis)
        assert len(unrolled.xstate_nodes) == 3  # frame-0 FFs
        assert len(unrolled.observables) == 3   # 1 PO x 3 frames
        assert unrolled.circuit.num_dffs == 0   # purely combinational

    def test_fault_copies_per_frame(self, s27_circuit):
        unrolled = unroll(s27_circuit, 4)
        fault = Fault(s27_circuit.id_of("G10"), STEM, 0)
        copies = unrolled.fault_copies(fault)
        assert len(copies) == 4
        assert all(c.stuck_at == 0 and c.pin == STEM for c in copies)

    def test_unrolled_behaviour_matches_sequential(self, minifsm_circuit):
        """Simulating the unrolled circuit with a vector sequence on its
        frame PIs must reproduce the sequential PO trace."""
        from tests import oracle
        from tests.conftest import random_vectors

        frames = 5
        unrolled = unroll(minifsm_circuit, frames)
        vectors = random_vectors(minifsm_circuit, frames, seed=8)
        seq_trace = oracle.po_trace(minifsm_circuit, vectors)

        flat = []
        for frame_vec in vectors:
            flat.extend(frame_vec)
        # Unrolled inputs: per frame [PIs..] plus frame-0 state Xs, which
        # stay unassigned (X) by passing X values.
        from repro.circuit.gates import X
        vector = []
        pi_ids = set(pid for f in unrolled.frame_pis for pid in f)
        value_of = {}
        for frame, frame_vec in enumerate(vectors):
            for pid, bit in zip(unrolled.frame_pis[frame], frame_vec):
                value_of[pid] = bit
        for node in unrolled.circuit.inputs:
            vector.append(value_of.get(node, X))
        pos = oracle.po_trace(unrolled.circuit, [vector])[0]
        n_po = minifsm_circuit.num_outputs
        unrolled_trace = [
            pos[f * n_po:(f + 1) * n_po] for f in range(frames)
        ]
        assert unrolled_trace == seq_trace

    def test_zero_frames_rejected(self, s27_circuit):
        with pytest.raises(ValueError):
            unroll(s27_circuit, 0)


class TestPodem:
    def assignable(self, unrolled):
        return [pi for frame in unrolled.frame_pis for pi in frame]

    def test_c17_all_faults_testable(self, c17_circuit):
        unrolled = unroll(c17_circuit, 1)
        for fault in collapsed_fault_list(c17_circuit):
            result = Podem(
                unrolled.circuit, unrolled.fault_copies(fault),
                self.assignable(unrolled), unrolled.observables,
            ).run()
            assert result.found, fault.describe(c17_circuit)

    def test_generated_tests_actually_detect(self, c17_circuit):
        """Every PODEM assignment must be confirmed by fault simulation."""
        unrolled = unroll(c17_circuit, 1)
        for fault in collapsed_fault_list(c17_circuit):
            result = Podem(
                unrolled.circuit, unrolled.fault_copies(fault),
                self.assignable(unrolled), unrolled.observables,
            ).run()
            vector = [
                result.assignment.get(pi, 0) for pi in unrolled.frame_pis[0]
            ]
            fsim = FaultSimulator(c17_circuit, faults=[fault])
            commit = fsim.commit([vector])
            assert commit.detected_count == 1, fault.describe(c17_circuit)

    def test_redundant_fault_proven_untestable(self):
        # y = OR(a, NOT(a)) is constant 1: y s-a-1 is undetectable.
        c = Circuit("redundant")
        c.add_input("a")
        c.add_gate("n", GateType.NOT, ["a"])
        c.add_gate("y", GateType.OR, ["a", "n"])
        c.mark_output("y")
        c.finalize()
        unrolled = unroll(c, 1)
        fault = Fault(c.id_of("y"), STEM, 1)
        result = Podem(
            unrolled.circuit, unrolled.fault_copies(fault),
            self.assignable(unrolled), unrolled.observables,
        ).run()
        assert result.status is PodemStatus.UNTESTABLE

    def test_backtrack_limit_aborts(self, minifsm_circuit):
        unrolled = unroll(minifsm_circuit, 6)
        fault = collapsed_fault_list(minifsm_circuit)[5]
        result = Podem(
            unrolled.circuit, unrolled.fault_copies(fault),
            self.assignable(unrolled), unrolled.observables,
            backtrack_limit=0,
        ).run()
        assert result.status in (PodemStatus.SUCCESS, PodemStatus.ABORTED,
                                 PodemStatus.UNTESTABLE)

    def test_requires_fault_sites(self, c17_circuit):
        unrolled = unroll(c17_circuit, 1)
        with pytest.raises(ValueError):
            Podem(unrolled.circuit, [], [], [])


class TestDeterministicAtpg:
    def test_s27_full_coverage(self):
        result = DeterministicAtpg(s27()).run()
        assert result.detected == result.total_faults
        assert result.untestable == 0

    def test_test_set_replays(self):
        result = DeterministicAtpg(mini_fsm()).run()
        fsim = FaultSimulator(mini_fsm())
        fsim.commit(result.test_sequence)
        assert fsim.detected_count == result.detected

    def test_accounting_consistent(self):
        result = DeterministicAtpg(resettable_counter(3)).run()
        assert result.targeted <= result.total_faults
        assert result.detected + result.untestable + result.aborted >= 0
        assert result.vectors == len(result.test_sequence)

    def test_shift_register_trivial(self):
        result = DeterministicAtpg(shift_register(3)).run()
        assert result.detected == result.total_faults

    def test_seed_vectors_preamble(self):
        result = DeterministicAtpg(s27(), seed_vectors=16).run()
        assert result.vectors >= 16
        assert result.detected == result.total_faults

    def test_frame_schedule_respects_max(self):
        atpg = DeterministicAtpg(s27(), max_frames=5)
        assert atpg._frame_schedule() == [1, 2, 4, 5]
