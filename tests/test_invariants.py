"""Cross-cutting property tests: system-level invariants.

These pin down relationships between components rather than behaviours
of a single module — the contracts the experiment harness and the
generator silently rely on.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import mini_fsm, s27, synthesize_named
from repro.core import GaTestGenerator, TestGenConfig
from repro.faults import FaultSimulator, collapse_faults, collapsed_fault_list

from tests.conftest import random_vectors
from tests import oracle
from tests.test_sim import make_random_circuit


class TestFaultSimInvariants:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2000), split=st.integers(1, 19))
    def test_coverage_monotone_in_vectors(self, seed, split):
        """Committing more vectors never loses detections."""
        circuit = make_random_circuit(seed, n_pi=3, n_ff=2, n_gates=10)
        vectors = random_vectors(circuit, 20, seed=seed)
        sim = FaultSimulator(circuit)
        sim.commit(vectors[:split])
        partial = sim.detected_count
        sim.commit(vectors[split:])
        assert sim.detected_count >= partial

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2000))
    def test_sample_detection_bounded_by_full(self, seed):
        """A sampled evaluation can never report more detections than a
        full-list evaluation of the same candidate."""
        circuit = make_random_circuit(seed, n_pi=3, n_ff=2, n_gates=12)
        sim = FaultSimulator(circuit)
        candidate = random_vectors(circuit, 4, seed=seed + 1)
        full = sim.evaluate(candidate)
        rng = random.Random(seed)
        sample = rng.sample(sim.active, max(1, len(sim.active) // 3))
        sampled = sim.evaluate(candidate, sample=sample)
        assert sampled.detected <= full.detected
        assert sampled.num_faults_simulated <= full.num_faults_simulated

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2000))
    def test_prop_final_bounded_by_sample(self, seed):
        circuit = make_random_circuit(seed, n_pi=3, n_ff=3, n_gates=12)
        sim = FaultSimulator(circuit)
        evaluation = sim.evaluate(random_vectors(circuit, 3, seed=seed))
        assert 0 <= evaluation.prop_final <= evaluation.num_faults_simulated
        assert evaluation.prop_sum <= evaluation.num_faults_simulated * evaluation.frames

    def test_detections_unique(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        sim.commit(random_vectors(s27_circuit, 40, seed=3))
        detected = [f for f, _ in sim.detections]
        assert len(detected) == len(set(detected))


class TestGeneratorInvariants:
    def test_reported_state_is_replayable_midway(self):
        """The generator's committed state equals a fresh simulator fed
        the same prefix — no hidden state leaks from candidate evaluation."""
        circuit = mini_fsm()
        generator = GaTestGenerator(circuit, TestGenConfig(seed=6, max_vectors=8))
        result = generator.run()
        replay = FaultSimulator(circuit)
        if result.test_sequence:
            replay.commit(result.test_sequence)
        assert replay.good_state.ff_values == generator.fsim.good_state.ff_values
        assert replay.undetected_faults() == generator.fsim.undetected_faults()

    def test_trace_detections_sum_to_total(self):
        circuit = synthesize_named("s298", seed=2, scale=0.15)
        result = GaTestGenerator(circuit, TestGenConfig(seed=7)).run()
        assert sum(e.detected for e in result.trace) == result.detected

    @pytest.mark.parametrize("config", [
        TestGenConfig(seed=1),
        TestGenConfig(seed=1, fault_sample=10),
        TestGenConfig(seed=1, coding="nonbinary"),
        TestGenConfig(seed=1, generation_gap=0.5, population_scale=1.5),
    ])
    def test_detected_counts_consistent(self, config):
        result = GaTestGenerator(s27(), config).run()
        assert result.detected == len(result.detections)
        assert result.detected <= result.total_faults


class TestCollapseInvariant:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000), vec_seed=st.integers(0, 50))
    def test_equivalent_faults_codetected(self, seed, vec_seed):
        """Any test detecting a class representative detects every member
        (the defining property of fault equivalence)."""
        circuit = make_random_circuit(seed, n_pi=3, n_ff=1, n_gates=7)
        collapsed = collapse_faults(circuit)
        vectors = random_vectors(circuit, 8, seed=vec_seed)
        for representative in collapsed.representatives[:6]:
            members = collapsed.expand(representative)
            if len(members) < 2:
                continue
            outcomes = {
                oracle.detects(circuit, member, vectors) for member in members
            }
            assert len(outcomes) == 1, (
                f"class of {representative} split: "
                f"{[m.describe(circuit) for m in members]}"
            )
