"""Determinism suite for fault-sharded evaluation and the GA's memo.

The contract under test: every ``eval_jobs`` setting must produce
*bit-identical* results to the plain serial simulator — identical
``CandidateEval`` observables and identical final test sets — because
shard merges are exact (disjoint fault subsets summed); and the GA's
per-run fitness memo must return exactly what the evaluator would,
because the committed state, the fault sample and the phase cannot
change during a GA run.
"""

from __future__ import annotations

import random

import pytest

from repro.circuit import s27, synthesize_named
from repro.core import GaTestGenerator, TestGenConfig
from repro.faults import FaultSimulator
from repro.faults.simulator import _BatchLayout
from repro.ga import GAParams, GeneticAlgorithm
from repro.ga.chromosome import make_coding
from repro.harness import ExecutionPlan, run_gatest
from repro.parallel import ParallelEvaluator, plan_shards
from repro.telemetry import TelemetryCollector

from tests.conftest import random_vectors


def _circuits():
    """s27 plus two synthesized circuits (the ISSUE's determinism set)."""
    return [
        s27(),
        synthesize_named("s298", seed=3, scale=0.15),
        synthesize_named("s386", seed=5, scale=0.15),
    ]


@pytest.fixture(autouse=True)
def _force_shard(monkeypatch):
    """Exercise the real pool fan-out even on single-CPU CI hosts (the
    evaluator's usable-CPU heuristic would otherwise score in-process)."""
    monkeypatch.setenv("REPRO_EVAL_FORCE_SHARD", "1")


class TestShardPlanning:
    def test_partition_covers_exactly(self):
        for n_groups in range(0, 23):
            for jobs in range(1, 7):
                shards = plan_shards(n_groups, jobs)
                covered = [i for start, stop in shards for i in range(start, stop)]
                assert covered == list(range(n_groups))

    def test_balanced_within_one(self):
        for n_groups in (1, 5, 16, 33):
            for jobs in (2, 3, 4, 8):
                sizes = [stop - start for start, stop in plan_shards(n_groups, jobs)]
                assert max(sizes) - min(sizes) <= 1
                assert len(sizes) == min(jobs, n_groups)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            plan_shards(4, 0)
        with pytest.raises(ValueError):
            plan_shards(-1, 2)


class _CountingEvaluator:
    """A pure batch evaluator that records every chromosome it scores."""

    def __init__(self):
        self.seen = []
        self.calls = 0

    def __call__(self, chromosomes):
        self.calls += 1
        self.seen.extend(tuple(c) for c in chromosomes)
        return [float(sum(c) * 3 - c[0]) for c in chromosomes]


class TestEvalCache:
    """The evaluation cache is the GA's fitness memo, one per run."""

    def test_hit_and_miss_accounting(self):
        evaluator = _CountingEvaluator()
        collector = TelemetryCollector()
        ga = GeneticAlgorithm(
            make_coding("binary", 4, 1), evaluator,
            GAParams(population_size=8, generations=6),
            rng=random.Random(3), collector=collector,
        )
        result = ga.run()
        counters = collector.counters
        # Every lookup is a hit or a chromosome the evaluator scored.
        assert len(evaluator.seen) + counters["ga.dedup.skipped"] == (
            result.evaluations
        )
        assert counters["ga.evaluations"] == result.evaluations == 8 * 7
        assert counters["ga.dedup.skipped"] > 0

    def test_epoch_change_invalidates(self):
        """A GA run is the memo's epoch: the evaluator's state may change
        between runs (GATEST commits between them), so the next run
        scores its chromosomes again."""
        evaluator = _CountingEvaluator()
        ga = GeneticAlgorithm(
            make_coding("binary", 3, 1), evaluator,
            GAParams(population_size=8, generations=4),
            rng=random.Random(5),
        )
        ga.run()
        first = set(evaluator.seen)
        evaluator.seen.clear()
        ga.run()
        assert len(evaluator.seen) == len(set(evaluator.seen))
        assert first & set(evaluator.seen)

    def test_eviction_bound(self):
        """The memo is bounded by its run: one entry per distinct
        chromosome the run scored, none carried into the next run."""
        evaluator = _CountingEvaluator()
        ga = GeneticAlgorithm(
            make_coding("binary", 6, 1), evaluator,
            GAParams(population_size=8, generations=5),
            rng=random.Random(6),
        )
        result = ga.run()
        assert len(ga._memo.fitness) == len(evaluator.seen) < result.evaluations
        evaluator.seen.clear()
        ga.run()
        assert len(ga._memo.fitness) == len(evaluator.seen)


class TestSerialPathUntouched:
    def test_default_simulator_has_no_parallel_layer(self):
        sim = FaultSimulator(s27())
        assert sim._parallel is None
        sim.close()  # a no-op, but must be callable

    def test_eval_jobs_validation(self):
        with pytest.raises(ValueError):
            FaultSimulator(s27(), eval_jobs=0)
        with pytest.raises(ValueError):
            TestGenConfig(eval_jobs=0)


@pytest.mark.parametrize("jobs", [2, 4], ids=["jobs2", "jobs4"])
class TestCandidateEvalDeterminism:
    """Sharded scores must equal serial scores observable-for-observable."""

    def test_evaluate_matches_serial(self, jobs):
        for circuit in _circuits():
            # Shards split the sample, so even s27's fault list fans
            # out across the process pool.
            serial = FaultSimulator(circuit)
            sharded = FaultSimulator(circuit, eval_jobs=jobs)
            warmup = random_vectors(circuit, 4, seed=11)
            serial.commit(warmup)
            sharded.commit(warmup)
            try:
                for seed in range(4):
                    vectors = random_vectors(circuit, 3, seed=seed)
                    expected = serial.evaluate(vectors, count_faulty_events=True)
                    assert sharded.evaluate(
                        vectors, count_faulty_events=True
                    ) == expected
                    # A second pass reuses the memoized layout.
                    assert sharded.evaluate(
                        vectors, count_faulty_events=True
                    ) == expected
                # The fan-out really ran (no silent serial fallback).
                assert sharded._parallel.pool.live
            finally:
                sharded.close()

    def test_evaluate_batch_matches_serial(self, jobs):
        circuit = _circuits()[1]
        serial = FaultSimulator(circuit)
        sharded = FaultSimulator(circuit, eval_jobs=jobs)
        candidates = [[v] for v in random_vectors(circuit, 12, seed=2)]
        candidates += candidates[:4]  # in-batch duplicates
        try:
            assert sharded.evaluate_batch(candidates) == serial.evaluate_batch(
                candidates
            )
        finally:
            sharded.close()

    def test_sampled_evaluate_matches_serial(self, jobs):
        circuit = _circuits()[2]
        serial = FaultSimulator(circuit)
        sharded = FaultSimulator(circuit, eval_jobs=jobs)
        rng = random.Random(9)
        sample = sorted(rng.sample(serial.active, len(serial.active) // 2))
        vectors = random_vectors(circuit, 2, seed=3)
        try:
            assert sharded.evaluate(vectors, sample=sample) == serial.evaluate(
                vectors, sample=sample
            )
        finally:
            sharded.close()


@pytest.mark.parametrize("jobs", [2, 4], ids=["jobs2", "jobs4"])
class TestGeneratorDeterminism:
    """Full GATEST runs: the final test set must not depend on eval_jobs."""

    def test_final_test_sets_identical(self, jobs):
        for circuit in _circuits():
            baseline = GaTestGenerator(circuit, TestGenConfig(seed=5)).run()
            parallel = GaTestGenerator(
                circuit, TestGenConfig(seed=5, eval_jobs=jobs)
            ).run()
            assert parallel.test_sequence == baseline.test_sequence
            assert parallel.detected == baseline.detected
            assert parallel.ga_evaluations == baseline.ga_evaluations
            assert parallel.trace == baseline.trace

    def test_harness_aggregate_identical(self, jobs):
        config = TestGenConfig(max_vectors=12)
        baseline = run_gatest("s27", config, seeds=[1, 2])
        parallel = run_gatest(
            "s27", config, seeds=[1, 2], plan=ExecutionPlan(eval_jobs=jobs),
        )
        for a, b in zip(baseline.runs, parallel.runs):
            assert a.test_sequence == b.test_sequence
            assert a.detected == b.detected


def _fault_evaluator(sim, coding, sample=None):
    """A GATEST-style evaluator: phase-2 detections of each chromosome."""
    def evaluate(chromosomes):
        return [
            float(e.detected) for e in sim.evaluate_batch(
                [coding.decode(c) for c in chromosomes], sample=sample
            )
        ]

    return evaluate


class TestCacheCorrectness:
    def test_layout_memo_survives_commit(self):
        """The layout memo is keyed by the sample alone, so it outlives a
        commit, but the next score reads the new committed state."""
        circuit = _circuits()[1]
        sim = FaultSimulator(circuit)
        reference = FaultSimulator(circuit)
        vectors = random_vectors(circuit, 2, seed=4)
        sample = list(sim.active)
        sim.evaluate(vectors, sample=sample)
        layout = sim._batch_layout(sample, 1)

        sim.commit(vectors)
        reference.commit(vectors)
        assert sim.evaluate(vectors, sample=sample) == reference.evaluate(
            vectors, sample=sample
        )
        assert sim._batch_layout(sample, 1) is layout

    def test_layout_memo_survives_restore(self):
        """After a commit and a restore the layout memo is still the one
        built before, and the score is the pre-commit one again."""
        circuit = s27()
        sim = FaultSimulator(circuit)
        vectors = random_vectors(circuit, 2, seed=6)
        sample = list(sim.active)
        snap = sim.snapshot()
        before = sim.evaluate(vectors, sample=sample)
        layout = sim._batch_layout(sample, 1)

        sim.commit(vectors)
        sim.restore(snap)
        assert sim.evaluate(vectors, sample=sample) == before
        assert sim._batch_layout(sample, 1) is layout

    def test_shrunk_populations_reuse_one_layout(self, monkeypatch):
        """Over a GA run whose populations the memo shrinks, the sample's
        force words are replicated once, for the widest population; the
        smaller passes are trimmed from it and score what a fresh
        simulator does."""
        replications = []
        trims = []
        replicate = _BatchLayout.replicate.__func__
        trimmed = _BatchLayout.trimmed

        def counting_replicate(cls, sim, sample, n_cand):
            replications.append((tuple(sample), n_cand))
            return replicate(cls, sim, sample, n_cand)

        def counting_trimmed(layout, sim, n_cand):
            trims.append(n_cand)
            return trimmed(layout, sim, n_cand)

        circuit = _circuits()[1]
        sim = FaultSimulator(circuit)
        sim.commit(random_vectors(circuit, 3, seed=2))
        sample = list(sim.active)
        monkeypatch.setattr(_BatchLayout, "replicate",
                            classmethod(counting_replicate))
        monkeypatch.setattr(_BatchLayout, "trimmed", counting_trimmed)
        coding = make_coding("binary", circuit.num_inputs, 2)
        rng = random.Random(8)
        initial = []
        while len(initial) < 8:
            chromosome = coding.random(rng)
            if chromosome not in initial:
                initial.append(chromosome)
        sizes = []
        evaluate = _fault_evaluator(sim, coding, sample)

        def sizing(chromosomes):
            sizes.append(len(chromosomes))
            return evaluate(chromosomes)

        members = []
        GeneticAlgorithm(
            coding, sizing, GAParams(population_size=8, generations=6),
            rng=random.Random(2), initial=initial,
        ).run(on_generation=lambda gen, pop: members.extend(pop))
        assert sizes[0] == 8 and min(sizes) < 8  # the memo shrank passes
        assert replications == [(tuple(sample), 8)]
        assert sorted(set(trims)) == sorted({n for n in sizes if n < 8})
        reference = FaultSimulator(circuit)
        reference.commit(random_vectors(circuit, 3, seed=2))
        fresh = _fault_evaluator(reference, coding, sample)
        assert [m.fitness for m in members] == [
            fresh([m.chromosome])[0] for m in members
        ]

    def test_duplicate_batch_scores_once(self):
        """A population of one chromosome reaches the sharded evaluator
        once per run, and its fitness is what a direct call returns."""
        circuit = _circuits()[1]
        sharded = FaultSimulator(circuit, eval_jobs=2)
        coding = make_coding("binary", circuit.num_inputs, 2)
        chromosome = coding.random(random.Random(7))
        batches = []
        evaluate = _fault_evaluator(sharded, coding)

        def counting(chromosomes):
            batches.append(len(chromosomes))
            return evaluate(chromosomes)

        params = GAParams(population_size=6, generations=2,
                          mutation_rate=0.0, crossover_prob=0.0)
        try:
            result = GeneticAlgorithm(
                coding, counting, params, rng=random.Random(1),
                initial=[chromosome] * 6,
            ).run()
            assert batches == [1]
            assert result.evaluations == 6 * 3
            serial = _fault_evaluator(FaultSimulator(circuit), coding)
            assert result.best.fitness == serial([chromosome])[0]
        finally:
            sharded.close()

    def test_transition_model_uses_cache_not_shards(self):
        """Transition faults cannot be sharded; with ``eval_jobs=2`` the
        GA memo still serves repeats, the pool never starts and the run
        equals the serial one."""
        circuit = s27()
        serial = GaTestGenerator(
            circuit, TestGenConfig(seed=2, fault_model="transition")
        ).run()
        collector = TelemetryCollector()
        generator = GaTestGenerator(
            circuit, TestGenConfig(seed=2, fault_model="transition", eval_jobs=2),
            collector=collector,
        )
        assert not generator.fsim._shardable
        parallel = generator.run()
        assert parallel.test_sequence == serial.test_sequence
        assert parallel.ga_evaluations == serial.ga_evaluations
        assert collector.counters["ga.dedup.skipped"] > 0
        assert "parallel.evaluate.sharded" not in collector.counters
        assert not generator.fsim._parallel.pool.live


class TestEngineDedup:
    """Each distinct chromosome reaches the evaluator at most once per
    run, and every member's fitness equals a direct evaluator call."""

    def test_dedup_preserves_results_and_reduces_calls(self):
        evaluator = _CountingEvaluator()
        members = []
        ga = GeneticAlgorithm(
            make_coding("binary", 4, 1), evaluator,
            GAParams(population_size=8, generations=6),
            rng=random.Random(3),
        )
        result = ga.run(on_generation=lambda gen, pop: members.extend(pop))
        assert len(evaluator.seen) == len(set(evaluator.seen))
        assert len(evaluator.seen) < result.evaluations
        assert evaluator.calls <= 1 + 6
        direct = _CountingEvaluator()
        assert [m.fitness for m in members] == direct(
            [m.chromosome for m in members]
        )

    def test_islands_share_one_memo(self):
        evaluator = _CountingEvaluator()
        result = GeneticAlgorithm(
            make_coding("binary", 4, 1), evaluator,
            GAParams(population_size=6, generations=5, n_islands=2,
                     migration_interval=2),
            rng=random.Random(4),
        ).run()
        assert len(evaluator.seen) == len(set(evaluator.seen))
        assert len(evaluator.seen) < result.evaluations == 2 * 6 * 6
        assert result.best.fitness == _CountingEvaluator()(
            [result.best.chromosome]
        )[0]

    def test_gatest_sees_each_chromosome_once_per_run(self):
        """Through GATEST's own evaluators, on both fault models."""
        for fault_model in ("stuck-at", "transition"):
            generator = GaTestGenerator(
                s27(), TestGenConfig(seed=3, fault_model=fault_model,
                                     max_vectors=12),
            )
            per_run = []
            inner = generator._fault_evaluator

            def recording(coding, phase, sample):
                evaluate = inner(coding, phase, sample)
                seen = []
                per_run.append(seen)

                def wrapped(chromosomes):
                    seen.extend(tuple(c) for c in chromosomes)
                    return evaluate(chromosomes)

                return wrapped

            generator._fault_evaluator = recording
            result = generator.run()
            assert per_run and all(len(s) == len(set(s)) for s in per_run)
            assert sum(len(s) for s in per_run) < result.ga_evaluations


class TestCpuHeuristic:
    def test_single_cpu_scores_in_process(self, monkeypatch):
        """With one usable CPU the fan-out is pure overhead, so the
        evaluator keeps misses in-process unless explicitly forced."""
        monkeypatch.delenv("REPRO_EVAL_FORCE_SHARD", raising=False)
        sim = FaultSimulator(_circuits()[1])
        evaluator = ParallelEvaluator(sim, jobs=4)
        evaluator._cpus = 1
        assert not evaluator._can_shard(8)
        evaluator._cpus = 4
        assert evaluator._can_shard(8)
        assert ParallelEvaluator(sim, jobs=4, force_shard=True)._can_shard(8)

    def test_in_process_miss_path_matches_serial(self, monkeypatch):
        """The single-candidate wide-pass miss path (what a single-CPU
        host runs) is bit-identical to the plain serial evaluate."""
        monkeypatch.delenv("REPRO_EVAL_FORCE_SHARD", raising=False)
        circuit = _circuits()[1]
        serial = FaultSimulator(circuit)
        adaptive = FaultSimulator(circuit, eval_jobs=4)
        adaptive._parallel._cpus = 1
        for seed in range(3):
            vectors = random_vectors(circuit, 3, seed=seed)
            assert adaptive.evaluate(
                vectors, count_faulty_events=True
            ) == serial.evaluate(vectors, count_faulty_events=True)
        assert not adaptive._parallel.pool.live  # never fanned out
        adaptive.close()


class TestPoolReuse:
    def test_evaluator_usable_after_close(self):
        circuit = _circuits()[1]
        sim = FaultSimulator(circuit)
        evaluator = ParallelEvaluator(sim, jobs=2)
        candidates = [random_vectors(circuit, 2, seed=1)]
        first = evaluator.evaluate_batch(candidates)
        evaluator.close()
        assert not evaluator.pool.live
        assert evaluator.evaluate_batch(candidates) == first  # pool recreated
        assert evaluator.pool.live
        evaluator.close()
