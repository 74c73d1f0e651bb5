"""Tests for the hybrid GA-then-deterministic flow (paper §V)."""

import pytest

from repro.circuit import mini_fsm, resettable_counter, s27
from repro.core import HybridAtpg, TestGenConfig, run_hybrid
from repro.faults import FaultSimulator


class TestHybrid:
    def test_counts_consistent(self):
        result = run_hybrid(mini_fsm(), TestGenConfig(seed=1))
        assert result.detected == result.ga_detected + result.deterministic_detected
        assert result.elapsed_seconds == (
            result.ga_seconds + result.deterministic_seconds)
        assert result.detected + result.untestable <= result.total_faults
        assert 0.0 <= result.fault_coverage <= result.fault_efficiency <= 1.0

    def test_combined_test_set_replays(self):
        result = run_hybrid(mini_fsm(), TestGenConfig(seed=1))
        fsim = FaultSimulator(mini_fsm())
        fsim.commit(result.test_sequence)
        assert fsim.detected_count == result.detected

    def test_fully_covered_circuit_skips_second_pass(self):
        # s27: GATEST detects everything, so no deterministic pass runs.
        result = run_hybrid(s27(), TestGenConfig(seed=1))
        assert result.deterministic_result is None
        assert result.deterministic_detected == 0
        assert result.fault_coverage == 1.0

    def test_efficiency_exceeds_ga_alone(self):
        """The hybrid's raison d'etre: untestability proofs raise fault
        efficiency above what the GA can report."""
        result = run_hybrid(mini_fsm(), TestGenConfig(seed=1))
        ga_only_efficiency = result.ga_detected / result.total_faults
        assert result.fault_efficiency > ga_only_efficiency

    def test_second_pass_targets_survivors_only(self):
        result = HybridAtpg(
            resettable_counter(3), TestGenConfig(seed=2)
        ).run()
        if result.deterministic_result is not None:
            assert (
                result.deterministic_result.total_faults
                == result.total_faults - result.ga_detected
            )

    def test_summary_renders(self):
        result = run_hybrid(mini_fsm(), TestGenConfig(seed=1))
        text = result.summary()
        assert "GA" in text and "untestable" in text
