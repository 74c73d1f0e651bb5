"""Fault-sharded parallel candidate evaluation and the supervised pool.

The GA hot loop spends nearly all of its time fault-simulating candidate
tests (paper §IV; DESIGN.md §6).
:class:`~repro.parallel.evaluator.ParallelEvaluator` speeds that loop up
without changing any result bit: it splits the fault sample into
contiguous shards across a persistent worker pool, runs the simulator's
population pass on each, and merges the per-shard
:class:`~repro.faults.simulator.CandidateEval` observables by
summation.  Shards are disjoint fault subsets, so the merge is exact
and parallel results are bit-identical to serial ones.  Repeated
candidates never get this far: the GA memoizes fitness by chromosome
for the length of a run (:class:`repro.ga.engine.GeneticAlgorithm`).

Every worker pool in the stack — this package's shard pool, the
harness's seed pool and the service's process tier — is a
:class:`~repro.parallel.supervisor.SupervisedPool`: one module owns the
deadline / hard-teardown / backoff / retry / give-up policy
(docs/ROBUSTNESS.md §1).

Entry points: :class:`FaultSimulator` grows an ``eval_jobs``
constructor knob, :class:`~repro.core.config.TestGenConfig` carries it
into a GATEST run, and the CLI exposes ``gatest run --eval-jobs N``.
See docs/ARCHITECTURE.md for where this sits in the stack and
docs/PERFORMANCE.md for tuning guidance and measured numbers.
"""

from .evaluator import ParallelEvaluator
from .resilience import ChaosConfig, RetryPolicy
from .sharding import plan_shards
from .shutdown import close_quietly, reap_pool
from .supervisor import PoolGaveUp, SupervisedPool

__all__ = [
    "ChaosConfig",
    "ParallelEvaluator",
    "PoolGaveUp",
    "RetryPolicy",
    "SupervisedPool",
    "close_quietly",
    "plan_shards",
    "reap_pool",
]
