"""Determinism suite for fault-sharded evaluation and the eval cache.

The contract under test (ISSUE: parallel evaluation): every
``eval_jobs`` / ``eval_cache`` setting must produce *bit-identical*
results to the plain serial simulator — identical ``CandidateEval``
observables and identical final test sets — because shard merges are
exact (disjoint fault subsets summed) and cache entries are invalidated
by the committed-state epoch.
"""

from __future__ import annotations

import random

import pytest

from repro.circuit import s27, synthesize_named
from repro.core import GaTestGenerator, TestGenConfig
from repro.faults import FaultSimulator
from repro.faults.transition import TransitionFaultSimulator
from repro.ga.chromosome import make_coding
from repro.ga.engine import GAParams, GeneticAlgorithm
from repro.harness import run_gatest
from repro.parallel import EvalCache, ParallelEvaluator, eval_key, plan_shards

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


class TestEvalCache:
    def test_hit_and_miss_accounting(self):
        cache = EvalCache()
        key = eval_key([[0, 1]], [0, 1, 2], False)
        assert cache.get(0, key) is None
        cache.put(0, key, "sentinel")
        assert cache.get(0, key) == "sentinel"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_epoch_change_invalidates(self):
        cache = EvalCache()
        key = eval_key([[1]], [0], False)
        cache.put(3, key, "old")
        assert cache.get(4, key) is None
        assert len(cache) == 0

    def test_eviction_bound(self):
        cache = EvalCache(max_entries=2)
        for i in range(5):
            cache.put(0, eval_key([[i]], [0], False), i)
        assert len(cache) == 2

    def test_key_distinguishes_sample_and_flags(self):
        base = eval_key([[0, 1]], [0, 1], False)
        assert eval_key([[0, 1]], [0, 2], False) != base
        assert eval_key([[0, 1]], [0, 1], True) != base
        assert eval_key([[0, 0]], [0, 1], False) != base


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

    def test_config_cache_resolution(self):
        assert not TestGenConfig().eval_cache_enabled
        assert TestGenConfig(eval_jobs=2).eval_cache_enabled
        assert TestGenConfig(eval_cache=True).eval_cache_enabled
        assert not TestGenConfig(eval_jobs=4, eval_cache=False).eval_cache_enabled


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
                    # Second lookup is a cache hit; still identical.
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
        circuit = s27()
        config = TestGenConfig(max_vectors=12)
        baseline = run_gatest("s27", config, seeds=[1, 2], circuit=circuit)
        parallel = run_gatest(
            "s27", config, seeds=[1, 2], circuit=circuit, eval_jobs=jobs
        )
        for a, b in zip(baseline.runs, parallel.runs):
            assert a.test_sequence == b.test_sequence
            assert a.detected == b.detected


class TestCacheCorrectness:
    def test_commit_epoch_bump_invalidates(self):
        """A memoized score must never survive a state change (ISSUE:
        cache-correctness across a commit() epoch bump)."""
        circuit = _circuits()[1]
        cached = FaultSimulator(circuit, eval_cache=True)
        reference = FaultSimulator(circuit)
        vectors = random_vectors(circuit, 2, seed=4)

        first = cached.evaluate(vectors)
        assert cached.evaluate(vectors) == first
        cache = cached._parallel.cache
        assert (cache.hits, cache.misses) == (1, 1)

        cached.commit(vectors)
        reference.commit(vectors)
        refreshed = cached.evaluate(vectors)
        assert refreshed == reference.evaluate(vectors)
        assert cache.misses == 2  # the post-commit lookup re-simulated

    def test_restore_also_bumps_epoch(self):
        circuit = s27()
        cached = FaultSimulator(circuit, eval_cache=True)
        vectors = random_vectors(circuit, 2, seed=6)
        snap = cached.snapshot()
        before = cached.evaluate(vectors)
        cached.commit(vectors)
        cached.restore(snap)
        # Same state as before the commit, but a conservative fresh
        # epoch: the result must be recomputed, and must match.
        assert cached.evaluate(vectors) == before
        assert cached._parallel.cache.misses == 2

    def test_duplicate_batch_scores_once(self):
        circuit = s27()
        cached = FaultSimulator(circuit, eval_cache=True)
        vector = random_vectors(circuit, 1, seed=7)[0]
        results = cached.evaluate_batch([[vector]] * 6)
        assert all(r == results[0] for r in results)
        cache = cached._parallel.cache
        assert cache.misses == 1
        assert cache.hits == 5

    def test_transition_model_uses_cache_not_shards(self):
        circuit = s27()
        serial = TransitionFaultSimulator(circuit)
        cached = TransitionFaultSimulator(circuit, eval_jobs=2)
        assert not cached._shardable
        vectors = random_vectors(circuit, 3, seed=8)
        assert cached.evaluate(vectors) == serial.evaluate(vectors)
        assert cached.evaluate(vectors) == serial.evaluate(vectors)
        assert cached._parallel.cache.hits == 1
        cached.close()


class TestEngineDedup:
    def test_dedup_preserves_results_and_reduces_calls(self):
        coding = make_coding("binary", 4, 1)
        seen = []

        def evaluator(chromosomes):
            seen.append(len(chromosomes))
            return [float(sum(c)) for c in chromosomes]

        def run(dedup):
            seen.clear()
            params = GAParams(
                population_size=8, generations=4, dedup_evaluations=dedup
            )
            ga = GeneticAlgorithm(
                coding, evaluator, params, rng=random.Random(3)
            )
            return ga.run(), sum(seen)

        plain, plain_calls = run(False)
        deduped, dedup_calls = run(True)
        assert deduped.best.chromosome == plain.best.chromosome
        assert deduped.history == plain.history
        assert deduped.evaluations == plain.evaluations  # logical count
        assert dedup_calls <= plain_calls  # fewer physical evaluations


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
        vectors = random_vectors(circuit, 2, seed=1)
        first = evaluator.evaluate(vectors)
        evaluator.close()
        assert evaluator.evaluate(vectors) == first  # cache hit, no pool
        evaluator.cache.clear()
        assert evaluator.evaluate(vectors) == first  # pool recreated
        evaluator.close()
