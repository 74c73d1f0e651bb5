"""Tests for the reproduction extensions: compaction, transition faults,
island-model GA (the paper's conclusion items, DESIGN.md §5)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    mini_fsm,
    resettable_counter,
    s27,
    shift_register,
    synthesize_named,
)
from repro.core import GaTestGenerator, TestGenConfig, compact_test_set
from repro.core.compaction import TestSetCompactor
from repro.faults import (
    FaultSimulator,
    TransitionFault,
    TransitionFaultSimulator,
    generate_transition_faults,
)
from repro.ga import BinaryCoding, GAParams, GeneticAlgorithm
from repro.telemetry import TelemetryCollector

from tests import oracle
from tests.conftest import random_vectors
from tests.test_sim import make_random_circuit

#: Every kernel backend.
KERNELS = ("interp", "codegen")


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------

class TestCompaction:
    def test_preserves_coverage(self):
        circuit = s27()
        result = GaTestGenerator(circuit, TestGenConfig(seed=1)).run()
        compaction = compact_test_set(circuit, result.test_sequence)
        assert compaction.compacted_detected >= compaction.original_detected
        fsim = FaultSimulator(circuit)
        fsim.commit(compaction.test_sequence)
        assert fsim.detected_count >= result.detected

    def test_shrinks_padded_test_set(self):
        """A test set padded with useless tail vectors compacts hard."""
        circuit = s27()
        result = GaTestGenerator(circuit, TestGenConfig(seed=1)).run()
        padded = result.test_sequence + [[0, 0, 0, 0]] * 20
        compaction = compact_test_set(circuit, padded)
        assert compaction.compacted_vectors <= len(result.test_sequence)
        assert compaction.reduction > 0.4

    def test_empty_test_set(self):
        compaction = compact_test_set(s27(), [])
        assert compaction.original_vectors == 0
        assert compaction.compacted_vectors == 0
        assert compaction.reduction == 0.0

    def test_useless_test_set_compacts_to_nothing(self):
        # A single constant vector detects a few faults; repeating it 30
        # times detects no more, so almost everything is dropped.
        circuit = s27()
        vectors = [[1, 1, 1, 1]] * 30
        compaction = compact_test_set(circuit, vectors)
        assert compaction.compacted_vectors <= 2
        assert compaction.compacted_detected >= compaction.original_detected

    def test_trials_counted(self):
        compactor = TestSetCompactor(s27())
        compaction = compactor.compact(random_vectors(s27(), 10, seed=1))
        assert compaction.trials == compactor.trials > 0

    def test_one_compaction_collapses_the_fault_list_once(self, monkeypatch):
        """Every trial resets one simulator to power-up instead of
        building a fresh one, which would collapse the fault list again."""
        import repro.faults.simulator as simulator_module

        collapse = simulator_module.collapsed_fault_list
        calls = []

        def counting_collapse(circuit):
            calls.append(circuit.name)
            return collapse(circuit)

        monkeypatch.setattr(simulator_module, "collapsed_fault_list",
                            counting_collapse)
        compaction = compact_test_set(s27(), random_vectors(s27(), 20, seed=3))
        assert compaction.trials > 2
        assert calls == ["s27"]

    def test_transition_model_keeps_transition_coverage(self):
        """Compaction re-simulates under the fault model it is given, so
        a transition test set keeps every transition detection."""
        circuit = s27()
        config = TestGenConfig(seed=1, fault_model="transition")
        result = GaTestGenerator(circuit, config).run()
        compaction = compact_test_set(circuit, result.test_sequence,
                                      fault_model="transition")
        assert compaction.original_detected == result.detected
        fsim = TransitionFaultSimulator(circuit)
        fsim.commit(compaction.test_sequence)
        assert fsim.detected_count == compaction.compacted_detected
        assert compaction.compacted_detected >= result.detected

    def test_custom_fault_list(self):
        circuit = s27()
        from repro.faults import collapsed_fault_list

        faults = collapsed_fault_list(circuit)[:8]
        vectors = random_vectors(circuit, 20, seed=2)
        compaction = compact_test_set(circuit, vectors, faults=faults)
        fsim = FaultSimulator(circuit, faults=faults)
        fsim.commit(compaction.test_sequence)
        assert fsim.detected_count == compaction.compacted_detected

    def test_tail_cut_matches_per_vector_commits(self):
        """One commit's last first-detection frame is the last vector
        whose own one-vector commit detects a new fault, and compacting
        with either gives the same result."""

        class PerVector(TestSetCompactor):
            def _last_detection_frame(self, vectors):
                sim = FaultSimulator(self.compiled, faults=self._faults)
                last = -1
                for index, vector in enumerate(vectors):
                    if sim.commit([vector]).detected_count > 0:
                        last = index
                self.trials += 1
                return last

        for circuit in (s27(), synthesize_named("s298", seed=3, scale=0.15)):
            for seed in range(4):
                vectors = random_vectors(circuit, 30, seed=seed)
                want = PerVector(circuit)._last_detection_frame(vectors)
                assert TestSetCompactor(circuit)._last_detection_frame(
                    vectors) == want
                got = compact_test_set(circuit, vectors)
                reference = PerVector(circuit).compact(vectors)
                got.elapsed_seconds = reference.elapsed_seconds = 0.0
                assert got == reference


# ---------------------------------------------------------------------------
# Transition faults
# ---------------------------------------------------------------------------

class TestTransitionFaults:
    def test_fault_list_size(self, s27_circuit):
        assert len(generate_transition_faults(s27_circuit)) == 2 * s27_circuit.num_nodes

    def test_describe(self, s27_circuit):
        fault = TransitionFault(s27_circuit.id_of("G10"), 1)
        assert fault.describe(s27_circuit) == "G10 slow-to-rise"

    def test_no_transitions_no_detections(self):
        circuit = shift_register(3)
        sim = TransitionFaultSimulator(circuit)
        sim.commit([[1]] * 12)
        assert sim.detected_count == 0

    def test_toggling_stream_detects_shift_register(self):
        circuit = shift_register(3)
        sim = TransitionFaultSimulator(circuit)
        sim.commit([[b] for b in (0, 1) * 6])
        assert sim.detected_count == sim.num_faults

    @pytest.mark.parametrize("factory,seed", [
        (s27, 3), (mini_fsm, 5), (lambda: resettable_counter(3), 7),
    ])
    def test_against_scalar_reference(self, factory, seed):
        """Two commits (the second launching against the first's last
        frame) change the state exactly as the oracle says."""
        circuit = factory()
        vectors = random_vectors(circuit, 20, seed=seed)
        for kernel in KERNELS:
            sim = TransitionFaultSimulator(circuit, kernel=kernel)
            oracle.assert_commit_matches(sim, vectors[:7])
            oracle.assert_commit_matches(sim, vectors[7:])

    def test_incremental_commits_track_prev_values(self):
        """Excitation across a commit boundary must still fire."""
        circuit = shift_register(2)
        whole = TransitionFaultSimulator(circuit)
        whole.commit([[0], [1], [0], [1], [0], [1]])
        pieces = TransitionFaultSimulator(circuit)
        for vec in [[0], [1], [0], [1], [0], [1]]:
            pieces.commit([vec])
        assert whole.detected_count == pieces.detected_count

    def test_snapshot_restore_includes_prev_values(self):
        circuit = shift_register(2)
        sim = TransitionFaultSimulator(circuit)
        sim.commit([[0]])
        snap = sim.snapshot()
        sim.commit([[1], [0], [1]])
        after = sim.detected_count
        sim.restore(snap)
        sim.commit([[1], [0], [1]])
        assert sim.detected_count == after

    def test_evaluate_matches_commit(self):
        circuit = mini_fsm()
        sim = TransitionFaultSimulator(circuit)
        vectors = random_vectors(circuit, 8, seed=9)
        evaluation = sim.evaluate(vectors)
        commit = sim.commit(vectors)
        assert evaluation.detected == commit.detected_count

    def test_evaluate_batch_matches_serial(self):
        circuit = mini_fsm()
        candidates = [
            random_vectors(circuit, 3, seed=s) for s in range(5)
        ]
        for kernel in KERNELS:
            sim = TransitionFaultSimulator(circuit, kernel=kernel)
            sim.commit(random_vectors(circuit, 4, seed=1))
            expected = [oracle.evaluate_like(sim, c) for c in candidates]
            serial = [sim.evaluate(c) for c in candidates]
            batch = sim.evaluate_batch(candidates)
            assert serial == batch == expected

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batch_candidates_launch_different_transitions(self, kernel):
        """Every input vector of s27 is one candidate, so the candidates
        of one pass launch different transitions from the same
        committed frame; each is scored as if it ran alone."""
        circuit = s27()
        sim = TransitionFaultSimulator(circuit, kernel=kernel)
        sim.commit(random_vectors(circuit, 6, seed=4))
        candidates = [
            [[(v >> j) & 1 for j in range(4)], [1 - ((v >> j) & 1) for j in range(4)]]
            for v in range(16)
        ]
        expected = [
            oracle.evaluate_like(sim, c, count_faulty_events=True)
            for c in candidates
        ]
        assert len({(e.detected, e.prop_sum) for e in expected}) > 1
        assert sim.evaluate_batch(candidates, count_faulty_events=True) == expected
        sample = sim.active[::3]
        assert sim.evaluate_batch(candidates, sample=sample) == [
            oracle.evaluate_like(sim, c, sample) for c in candidates
        ]

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2000),
        n_cand=st.integers(1, 6),
        frames=st.integers(0, 3),
        warm=st.integers(0, 4),
        events=st.booleans(),
    )
    def test_population_pass_matches_oracle(self, seed, n_cand, frames, warm,
                                            events):
        """Random circuits, warm states, shuffled samples of every size
        (the empty one included) and zero-frame candidates."""
        circuit = make_random_circuit(seed, n_pi=3, n_ff=2, n_gates=10)
        rng = random.Random(seed)
        candidates = [
            random_vectors(circuit, frames, seed=rng.randrange(10**6))
            for _ in range(n_cand)
        ]
        for kernel in KERNELS:
            sim = TransitionFaultSimulator(circuit, kernel=kernel)
            sim.commit(random_vectors(circuit, warm, seed=seed))
            sample = list(sim.active)
            rng.shuffle(sample)
            sample = sample[:rng.randint(0, len(sample))]
            expected = [
                oracle.evaluate_like(sim, c, sample, count_faulty_events=events)
                for c in candidates
            ]
            assert sim.evaluate_batch(
                candidates, sample=sample, count_faulty_events=events
            ) == expected
            oracle.assert_commit_matches(sim, candidates[0])

    def test_gatest_on_transition_model(self):
        result = GaTestGenerator(
            mini_fsm(), TestGenConfig(seed=1, fault_model="transition")
        ).run()
        assert result.fault_coverage > 0.5

    def test_bad_fault_model_rejected(self):
        with pytest.raises(ValueError, match="fault model"):
            TestGenConfig(fault_model="bridging")


# ---------------------------------------------------------------------------
# Island-model GA
# ---------------------------------------------------------------------------

def onemax(chromosomes):
    return [float(sum(c)) for c in chromosomes]


def _islands(coding, evaluator, rng_seed, **params):
    """One GA run under ``GAParams(**params)``, seeded with ``rng_seed``."""
    return GeneticAlgorithm(
        coding, evaluator, GAParams(**params), rng=random.Random(rng_seed),
    ).run()


class TestIslandGA:
    def test_single_island_matches_plain_ga_interface(self):
        coding = BinaryCoding(20)
        params = dict(population_size=8, generations=6, mutation_rate=0.05)
        result = _islands(coding, onemax, 0, n_islands=1, **params)
        assert result.generations_run == 6
        assert result.evaluations == 8 * 7  # initial + 6 generations
        plain = GeneticAlgorithm(
            coding, onemax, GAParams(**params), rng=random.Random(0)
        ).run()
        assert result == plain

    def test_multi_island_evaluation_accounting(self):
        result = _islands(
            BinaryCoding(20), onemax, 0, population_size=6, generations=4,
            mutation_rate=0.05, n_islands=3, migration_interval=2,
        )
        assert result.evaluations == 3 * 6 * (4 + 1)

    def test_one_evaluator_call_per_generation(self):
        """All islands' offspring share one call (one population pass)
        per generation, plus one for the initial populations."""
        calls = []

        def counting(chromosomes):
            calls.append(len(chromosomes))
            return onemax(chromosomes)

        _islands(
            BinaryCoding(40), counting, 1, population_size=6, generations=5,
            mutation_rate=0.1, n_islands=3, migration_interval=2,
        )
        assert len(calls) == 5 + 1
        assert calls[0] == 3 * 6

    def test_best_is_the_best_the_evaluator_returned(self):
        """The best is tracked every generation, not only at migrations:
        with nonoverlapping populations a generation's best can be gone
        one generation later (seed 3 loses it at a migration-only check)."""
        returned = []

        def deceptive(chromosomes):
            scores = [float(int("".join(map(str, c)), 2) % 97)
                      for c in chromosomes]
            returned.extend(scores)
            return scores

        result = _islands(
            BinaryCoding(12), deceptive, 3, population_size=4, generations=6,
            mutation_rate=0.1, generation_gap=1.0, n_islands=2,
            migration_interval=2,
        )
        assert result.best.fitness == max(returned)
        assert result.history[result.best_generation] == max(returned)

    def test_converges(self):
        result = _islands(
            BinaryCoding(30), onemax, 2, population_size=8, generations=20,
            mutation_rate=1 / 30, n_islands=4, migration_interval=3,
        )
        assert result.best.fitness >= 26

    def test_migration_spreads_good_genes(self):
        """With migration, a fit individual seeded into one island must
        lift the global best even when other islands start poor."""
        result = _islands(
            BinaryCoding(16), onemax, 3, population_size=4, generations=6,
            mutation_rate=0.0, crossover_prob=0.0, n_islands=2,
            migration_interval=1,
        )
        assert result.best.fitness >= 8  # sanity: something decent survives

    def test_migration_copies_best_over_next_islands_worst(self):
        """Every ``migration_interval`` generations a copy of island i's
        best replaces the worst of island i+1 on the ring."""
        seen = {}
        GeneticAlgorithm(
            BinaryCoding(8), onemax,
            GAParams(population_size=2, generations=3, mutation_rate=0.0,
                     crossover_prob=0.0, n_islands=2, migration_interval=2),
            rng=random.Random(0), initial=[[1] * 8] * 2 + [[0] * 8] * 2,
        ).run(on_generation=lambda gen, pop: seen.setdefault(
            gen, [m.fitness for m in pop]))
        assert seen[0] == seen[1] == [8.0, 8.0, 0.0, 0.0]
        assert seen[2] == [0.0, 8.0, 8.0, 0.0]  # after the migration

    def test_params_validated(self):
        with pytest.raises(ValueError):
            GAParams(population_size=4, n_islands=0)
        with pytest.raises(ValueError):
            GAParams(population_size=4, migration_interval=0)

    def test_initial_population_covers_every_island(self):
        with pytest.raises(ValueError, match="expected 8"):
            GeneticAlgorithm(
                BinaryCoding(4), onemax,
                GAParams(population_size=4, n_islands=2),
                initial=[[0, 0, 0, 0]] * 4,
            ).run()

    def test_gatest_with_islands(self):
        a = GaTestGenerator(mini_fsm(), TestGenConfig(seed=1, n_islands=2)).run()
        assert a.detected > 0

    def test_gatest_islands_record_on_the_run_collector(self):
        """An island run records the same GA counter families and one
        generation record per generation as a plain run, on the
        collector the generator was given."""
        collector = TelemetryCollector()
        config = TestGenConfig(seed=1, n_islands=2)
        result = GaTestGenerator(mini_fsm(), config, collector=collector).run()
        counters = collector.counters
        assert counters["ga.runs"] == result.ga_runs > 0
        assert counters["ga.generations"] == result.ga_runs * config.generations
        assert counters["ga.evaluations"] == result.ga_evaluations
        generations = collector.events("generation")
        assert len(generations) == result.ga_runs * (config.generations + 1)

    def test_islands_config_validated(self):
        with pytest.raises(ValueError):
            TestGenConfig(n_islands=0)
