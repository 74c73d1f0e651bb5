"""Fault-sharded candidate evaluation.

:class:`ParallelEvaluator` wraps one :class:`FaultSimulator` and serves
its ``evaluate`` / ``evaluate_batch`` calls by fault-sharded scoring:
the sampled fault list is cut into contiguous shards
(:func:`~repro.parallel.sharding.plan_shards`) across a persistent
worker pool, each worker scores *every* candidate against its
sub-sample with the population pass, and the disjoint per-shard
observables are merged by summation — an *exact* merge, so parallel
scores are bit-identical to serial ones.

Sharding along the fault axis (rather than the candidate axis) keeps
the population pass's packing intact inside every worker: a population
still rides one bit-plane word per worker, and the shard fan-out
multiplies on top of that packing instead of replacing it.  Repeated
candidates are the GA's business: it memoizes fitness by chromosome
for the length of a run, so a population reaches this evaluator with
only the chromosomes the run has not scored yet.

The evaluator degrades gracefully: with ``jobs=1``, a single usable
CPU, a fault sample too small to pay for a worker round trip
(:data:`SHARD_MIN_SAMPLE`), a simulator subclass whose injection a pool
worker cannot replay (``_shardable = False``), or a pool that fails to
start, scoring falls back to the in-process population pass — results
are identical either way, only the wall clock changes.

The pool is a self-healing :class:`~repro.parallel.supervisor.SupervisedPool`
(docs/ROBUSTNESS.md §1): a failed sharded pass is retried on a fresh
pool, and once the retries are spent the evaluator scores in-process for
good.  Telemetry counters (``parallel.*``, see docs/TELEMETRY.md) meter
shard fan-out, worker wall time, retries, pool restarts and
degradation.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from ..faults.simulator import CandidateEval, FaultSimulator
from ..sim.logic3 import Vector
from ..telemetry.collector import NullCollector, get_collector
from .resilience import RetryPolicy
from .sharding import plan_shards
from .supervisor import PoolGaveUp, SupervisedPool
from .worker import init_worker, run_batch_shard, shard_payload

#: Smallest fault sample worth a worker round trip: smaller samples (one
#: 64-bit machine word of faults or less) are scored in-process unless
#: sharding is forced.  Sharding every sample of two or more faults ran
#: about a fifth slower on the ``ga_s298_sharded`` benchmark workload.
SHARD_MIN_SAMPLE = 65


def _usable_cpus() -> int:
    """CPUs this process may run on (affinity-aware where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class ParallelEvaluator:
    """Fault-sharded scoring front-end for one fault simulator.

    ``jobs`` is the worker-process count (1 scores every population
    in-process).  The pool is created lazily on the first sharded score
    and survives across calls.  Use as a context manager or call
    :meth:`close` to release the pool.

    On a host with a single usable CPU, or for a sample smaller than
    :data:`SHARD_MIN_SAMPLE`, the fan-out cannot beat the in-process
    population pass (the task payloads are pure overhead), so
    populations are scored in-process; ``force_shard=True`` — or the
    environment variable ``REPRO_EVAL_FORCE_SHARD=1`` — overrides both
    heuristics, which the determinism suite and benchmarks use to
    exercise the pool path on small circuits and single-core CI
    machines.
    """

    def __init__(
        self,
        sim: FaultSimulator,
        jobs: int = 1,
        collector: Optional[NullCollector] = None,
        force_shard: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.sim = sim
        self.jobs = jobs
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
            self.pool = SupervisedPool(
                jobs,
                initializer=init_worker,
                initargs=(sim.compiled, list(sim.faults), sim.kernel_name),
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
        recreated on demand)."""
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _can_shard(self, n_faults: int) -> bool:
        return (
            self.jobs > 1
            and n_faults > 1
            and (self.force_shard or self._cpus > 1)
            and getattr(self.sim, "_shardable", False)
            and not self.pool.broken
        )

    def _shard_batch(
        self,
        candidates: Sequence[Sequence[Vector]],
        sample: List[int],
        count_faulty_events: bool,
    ) -> Optional[List[CandidateEval]]:
        """Score candidates via sample-sharded worker population passes.

        The fault sample is split into contiguous runs; each worker
        scores the full candidate list against its sub-sample with the
        population pass.  Per-fault observables are summed across the
        disjoint shards; good-machine observables are taken from the
        first shard (they do not depend on the sample).  Candidates are
        validated here first, so a malformed one raises in the parent
        instead of failing (and retrying) every worker.

        Returns ``None`` when the pool gives up on the pass (see
        :meth:`SupervisedPool.run`) — the caller's serial fallback is the
        reference implementation, so every path yields bit-identical
        results.
        """
        sim = self.sim
        sim._check_candidates(candidates)
        shards = [
            sample[start:stop] for start, stop in plan_shards(len(sample), self.jobs)
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
            collector.inc("parallel.worker.seconds", worker_seconds)
            if count_faulty_events:
                collector.inc(
                    "sim.good_events", sum(r.good_events for r in results)
                )
                collector.inc(
                    "sim.faulty_events", sum(r.faulty_events for r in results)
                )
        return results

    def evaluate_batch(
        self,
        candidates: Sequence[Sequence[Vector]],
        sample: Optional[Sequence[int]] = None,
        count_faulty_events: bool = False,
    ) -> List[CandidateEval]:
        """Sharded ``FaultSimulator.evaluate_batch``.

        Every worker runs one population pass over all candidates
        against its fault sub-sample when sharding pays; otherwise, or
        when the pool gives up, one in-process population pass scores
        them.
        """
        if not candidates:
            return []
        sample = list(sample if sample is not None else self.sim.active)
        scored = None
        if (candidates[0] and self._can_shard(len(sample))
                and (self.force_shard or len(sample) >= SHARD_MIN_SAMPLE)):
            scored = self._shard_batch(candidates, sample, count_faulty_events)
        if scored is None:
            scored = self.sim._evaluate_batch_serial(
                candidates, sample=sample, count_faulty_events=count_faulty_events
            )
        return scored
