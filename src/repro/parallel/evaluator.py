"""Fault-sharded, cache-fronted candidate evaluation.

:class:`ParallelEvaluator` wraps one :class:`FaultSimulator` and serves
its ``evaluate`` / ``evaluate_batch`` calls through two layers:

1. the :class:`~repro.parallel.cache.EvalCache` — duplicate candidates
   (within a population, across generations, across GA runs at the same
   committed state) return their memoized :class:`CandidateEval`
   without touching the simulator;
2. fault-sharded scoring — cache misses are split along the fault axis:
   the sampled fault list's ``word_width`` groups are sharded
   contiguously (:func:`~repro.parallel.sharding.plan_shards`) across a
   persistent :class:`~concurrent.futures.ProcessPoolExecutor`, each
   worker scores *every* miss against its sub-sample with the serial
   wide-word batch pass, and the disjoint per-shard observables are
   merged by summation — an *exact* merge, so parallel scores are
   bit-identical to serial ones.

Sharding along the fault axis (rather than the candidate axis) keeps
the wide-word packing of ``_evaluate_batch_serial`` intact inside every
worker: a population of misses still rides one bit-plane word per
worker, and the shard fan-out multiplies on top of that packing instead
of replacing it.  For the same reason, single-candidate misses that
cannot usefully shard are scored with a one-candidate wide pass — on
circuits with a few hundred active faults that alone is measurably
faster than the grouped ``evaluate`` loop, at bit-identical results.

The evaluator degrades gracefully: with ``jobs=1``, a single usable
CPU, a fault sample too small to shard, a simulator subclass whose
injection a pool worker cannot replay (``_shardable = False``), or a
pool that fails to start, scoring falls back to an in-process pass —
results are identical either way, only the wall clock changes.

The pool is a self-healing :class:`~repro.parallel.supervisor.SupervisedPool`
(docs/ROBUSTNESS.md §1): a failed sharded pass is retried on a fresh
pool, and once the retries are spent the evaluator scores in-process for
good.  Telemetry counters (``parallel.*``, see docs/TELEMETRY.md) meter
cache traffic, shard fan-out, worker wall time, retries, pool restarts
and degradation.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import List, Optional, Sequence

from ..faults.simulator import CandidateEval, FaultSimulator
from ..sim.logic3 import Vector
from ..telemetry.collector import NullCollector, get_collector
from .cache import DEFAULT_MAX_ENTRIES, EvalCache, eval_key
from .resilience import RetryPolicy
from .sharding import plan_shards
from .supervisor import PoolGaveUp, SupervisedPool
from .worker import init_worker, run_batch_shard, shard_payload


def _usable_cpus() -> int:
    """CPUs this process may run on (affinity-aware where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class ParallelEvaluator:
    """Sharded + memoized scoring front-end for one fault simulator.

    ``jobs`` is the worker-process count (1 disables sharding, keeping
    only the cache); ``cache=False`` disables memoization, keeping only
    sharding.  The pool is created lazily on the first sharded score and
    survives across calls.  Use as a context manager or call
    :meth:`close` to release the pool.

    On a host with a single usable CPU the fan-out cannot beat the
    in-process wide pass (the shards serialize and the task payloads
    are pure overhead), so sharding is skipped and misses are scored
    in-process; ``force_shard=True`` — or the environment variable
    ``REPRO_EVAL_FORCE_SHARD=1`` — overrides the heuristic, which the
    determinism suite and benchmarks use to exercise the pool path on
    single-core CI machines.
    """

    def __init__(
        self,
        sim: FaultSimulator,
        jobs: int = 1,
        cache: bool = True,
        max_cache_entries: int = DEFAULT_MAX_ENTRIES,
        collector: Optional[NullCollector] = None,
        force_shard: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.sim = sim
        self.jobs = jobs
        self.cache: Optional[EvalCache] = (
            EvalCache(max_cache_entries) if cache else None
        )
        self.collector = collector if collector is not None else get_collector()
        self.force_shard = (
            force_shard
            or os.environ.get("REPRO_EVAL_FORCE_SHARD", "") == "1"
        )
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self._cpus = _usable_cpus()
        #: The worker pool (``None`` with ``jobs=1``).  Workers are
        #: created on the first sharded score and then hold the compiled
        #: circuit and fault list, so a task ships only its candidates.
        self.pool: Optional[SupervisedPool] = None
        if jobs > 1:
            kernel_artifact = None
            if sim.kernel_name == "c":
                # Ship the parent's compiled C library so workers dlopen
                # it instead of recompiling (they still fall back to
                # their own cache/compile if it is unusable).
                from ..sim import ckernel

                kernel_artifact = ckernel.shipping_payload(sim.compiled)
            self.pool = SupervisedPool(
                jobs,
                initializer=init_worker,
                initargs=(sim.compiled, list(sim.faults), sim.word_width,
                          sim.kernel_name, kernel_artifact),
                collector=self.collector,
                counters={"restarts": "parallel.pool.restarts",
                          "retries": "parallel.retries",
                          "degraded": "parallel.degraded"},
            )

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (scoring stays usable: the pool is
        recreated on demand, and the cache is unaffected)."""
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _can_shard(self, n_groups: int) -> bool:
        return (
            self.jobs > 1
            and n_groups > 1
            and (self.force_shard or self._cpus > 1)
            and getattr(self.sim, "_shardable", False)
            and not self.pool.broken
        )

    def _shard_batch(
        self,
        candidates: Sequence[Sequence[Vector]],
        sample: List[int],
        groups: List[List[int]],
        count_faulty_events: bool,
    ) -> Optional[List[CandidateEval]]:
        """Score candidates via sample-sharded worker wide passes.

        The fault sample is split into contiguous runs of whole
        ``word_width`` groups (the serial grouping order, so shard
        boundaries never split a group); each worker scores the full
        candidate list against its sub-sample with the wide-word batch
        pass.  Per-fault observables are summed across the disjoint
        shards; good-machine observables are taken from the first shard
        (they do not depend on the sample).

        Returns ``None`` when the pool gives up on the pass (see
        :meth:`SupervisedPool.run`) — the caller's serial fallback is the
        reference implementation, so every path yields bit-identical
        results.
        """
        sim = self.sim
        shards = [
            [fault_id for group in groups[start:stop] for fault_id in group]
            for start, stop in plan_shards(len(groups), self.jobs)
        ]
        try:
            outputs = self.pool.run(
                run_batch_shard,
                [(shard_payload(sim, candidates, shard, count_faulty_events),)
                 for shard in shards],
                self.retry,
            )
        except PoolGaveUp:
            return None
        rows_per_shard = [rows for rows, _ in outputs]
        worker_seconds = sum(wall for _, wall in outputs)
        results: List[CandidateEval] = []
        for index, candidate in enumerate(candidates):
            detected = 0
            prop_final = 0
            prop_sum = 0
            faulty_events = 0
            for rows in rows_per_shard:
                s_det, s_final, s_sum, s_events, _, _, _ = rows[index]
                detected += s_det
                prop_final += s_final
                prop_sum += s_sum
                faulty_events += s_events
            _, _, _, _, good_events, ffs_set, ffs_changed = rows_per_shard[0][index]
            results.append(
                CandidateEval(
                    frames=len(candidate),
                    detected=detected,
                    prop_final=prop_final,
                    prop_sum=prop_sum,
                    faulty_events=faulty_events,
                    good_events=good_events,
                    ffs_set=ffs_set,
                    ffs_changed=ffs_changed,
                    num_faults_simulated=len(sample),
                    num_ffs=sim.compiled.num_ffs,
                )
            )
        collector = self.collector
        if collector.enabled:
            collector.inc("parallel.evaluate.sharded")
            collector.inc("parallel.shard.tasks", len(shards))
            collector.inc("parallel.shard.groups", len(groups))
            collector.inc("parallel.worker.seconds", worker_seconds)
            if count_faulty_events:
                collector.inc(
                    "sim.good_events", sum(r.good_events for r in results)
                )
                collector.inc(
                    "sim.faulty_events", sum(r.faulty_events for r in results)
                )
        return results

    def _score(
        self,
        vectors: Sequence[Vector],
        sample: List[int],
        count_faulty_events: bool,
    ) -> CandidateEval:
        """Score one candidate (no cache): sharded if worthwhile."""
        sim = self.sim
        if not getattr(sim, "_shardable", False):
            # The subclass's own injection machinery (e.g. the
            # transition model's per-frame conditional masks) is the
            # only correct scorer; stay on its serial path.
            return sim._evaluate_serial(
                vectors, sample=sample, count_faulty_events=count_faulty_events
            )
        if vectors and sample:
            groups = sim._make_groups(sample)
            if self._can_shard(len(groups)):
                results = self._shard_batch(
                    [vectors], sample, groups, count_faulty_events
                )
                if results is not None:
                    return results[0]
        # In-process fallback: the one-candidate wide pass, faster than
        # the grouped evaluate loop and bit-identical to it.
        return sim._evaluate_batch_serial(
            [vectors], sample=sample, count_faulty_events=count_faulty_events
        )[0]

    def evaluate(
        self,
        vectors: Sequence[Vector],
        sample: Optional[Sequence[int]] = None,
        count_faulty_events: bool = False,
    ) -> CandidateEval:
        """Cache-fronted, optionally sharded ``FaultSimulator.evaluate``."""
        sim = self.sim
        sample = list(sample if sample is not None else sim.active)
        cache = self.cache
        collector = self.collector
        if cache is None:
            return self._score(vectors, sample, count_faulty_events)
        key = eval_key(vectors, sample, count_faulty_events)
        cached = cache.get(sim.state_epoch, key)
        if cached is not None:
            if collector.enabled:
                collector.inc("parallel.cache.hits")
            return replace(cached)
        if collector.enabled:
            collector.inc("parallel.cache.misses")
        result = self._score(vectors, sample, count_faulty_events)
        cache.put(sim.state_epoch, key, result)
        return replace(result)

    def evaluate_batch(
        self,
        candidates: Sequence[Sequence[Vector]],
        sample: Optional[Sequence[int]] = None,
        count_faulty_events: bool = False,
    ) -> List[CandidateEval]:
        """Cache-fronted, sharded ``FaultSimulator.evaluate_batch``.

        Cache hits (including duplicates *within* the batch) are served
        from memory; the distinct misses are scored together — either
        shard-parallel (every worker runs one wide-word pass over all
        misses against its fault sub-sample) or, when sharding is off or
        unavailable, with one serial wide-word batch pass.
        """
        sim = self.sim
        n_cand = len(candidates)
        if n_cand == 0:
            return []
        sample = list(sample if sample is not None else sim.active)
        cache = self.cache
        collector = self.collector
        if cache is None:
            miss_positions = list(range(n_cand))
            results: List[Optional[CandidateEval]] = [None] * n_cand
        else:
            epoch = sim.state_epoch
            results = [None] * n_cand
            miss_of_key = {}
            miss_positions = []
            hits = 0
            for position, candidate in enumerate(candidates):
                key = eval_key(candidate, sample, count_faulty_events)
                cached = cache.get(epoch, key)
                if cached is not None:
                    results[position] = replace(cached)
                    hits += 1
                elif key in miss_of_key:
                    # In-batch duplicate of a pending miss: scored once.
                    cache.misses -= 1
                    cache.hits += 1
                    hits += 1
                    miss_of_key[key].append(position)
                else:
                    miss_of_key[key] = [position]
                    miss_positions.append(position)
            if collector.enabled:
                collector.inc("parallel.cache.hits", hits)
                collector.inc("parallel.cache.misses", len(miss_positions))

        if miss_positions:
            miss_candidates = [candidates[position] for position in miss_positions]
            scored = None
            if miss_candidates[0] and sample and getattr(sim, "_shardable", False):
                groups = sim._make_groups(sample)
                if self._can_shard(len(groups)):
                    scored = self._shard_batch(
                        miss_candidates, sample, groups, count_faulty_events
                    )
            if scored is None:
                scored = sim._evaluate_batch_serial(
                    miss_candidates,
                    sample=sample,
                    count_faulty_events=count_faulty_events,
                )
            for position, result in zip(miss_positions, scored):
                results[position] = result

        if cache is not None:
            epoch = sim.state_epoch
            for position in miss_positions:
                key = eval_key(candidates[position], sample, count_faulty_events)
                cache.put(epoch, key, results[position])
            for key, positions in miss_of_key.items() if miss_positions else ():
                first = positions[0]
                for position in positions[1:]:
                    results[position] = replace(results[first])
        return results  # type: ignore[return-value]
