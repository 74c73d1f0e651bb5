"""Fault-sharded parallel candidate evaluation and the evaluation cache.

The GA hot loop spends nearly all of its time fault-simulating candidate
tests (paper §IV; DESIGN.md §6).  This package speeds that loop up along
two independent axes, both without changing any result bit:

* :class:`~repro.parallel.evaluator.ParallelEvaluator` — splits the
  fault sample into contiguous shards across a persistent worker pool,
  runs the simulator's population pass on each, and merges the
  per-shard :class:`~repro.faults.simulator.CandidateEval` observables
  by summation.  Shards are disjoint fault subsets, so the merge is
  exact and parallel results are bit-identical to serial ones.
* :class:`~repro.parallel.cache.EvalCache` — memoizes candidate scores
  keyed by ``(chromosome bits, state epoch)``.  Duplicate individuals
  (common within a GA population and across overlapping generations,
  Table 7) skip fault simulation entirely; every state-changing
  simulator operation bumps the epoch, so a stale hit is impossible.

Every worker pool in the stack — this package's shard pool, the
harness's seed pool and the service's process tier — is a
:class:`~repro.parallel.supervisor.SupervisedPool`: one module owns the
deadline / hard-teardown / backoff / retry / give-up policy
(docs/ROBUSTNESS.md §1).

Entry points: :class:`FaultSimulator` grows ``eval_jobs`` / ``eval_cache``
constructor knobs, :class:`~repro.core.config.TestGenConfig` carries the
same knobs into a GATEST run, and the CLI exposes ``gatest run
--eval-jobs N``.  See docs/ARCHITECTURE.md for where this sits in the
stack and docs/PERFORMANCE.md for tuning guidance and measured numbers.
"""

from .cache import EvalCache, eval_key
from .evaluator import ParallelEvaluator
from .resilience import ChaosConfig, RetryPolicy
from .sharding import plan_shards
from .shutdown import close_quietly, reap_pool
from .supervisor import PoolGaveUp, SupervisedPool

__all__ = [
    "ChaosConfig",
    "EvalCache",
    "ParallelEvaluator",
    "PoolGaveUp",
    "RetryPolicy",
    "SupervisedPool",
    "close_quietly",
    "eval_key",
    "plan_shards",
    "reap_pool",
]
