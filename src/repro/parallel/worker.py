"""Process-pool worker side of the fault-sharded evaluator.

Workers are initialized once per pool with the pickled
:class:`CompiledCircuit`, fault list and kernel name; each builds a
private :class:`FaultSimulator` and keeps it for the life of the pool.
Per-task payloads then carry only what changes per scoring pass: the
committed flip-flop state, the divergence maps of the shard's own
faults, the candidate vectors, and the shard's slice of the fault
sample.  The worker replays the population pass
(``_evaluate_batch_serial``) over its sub-sample — the exact code the
serial path runs — so a shard's partial observables are bit-identical
to the serial pass restricted to the same faults, and the parent's
per-candidate summation merge is exact (the sub-samples are disjoint).

The pool around these functions (chaos injection, deadlines, retries)
is a :class:`~repro.parallel.supervisor.SupervisedPool`.  Everything
here must stay module-level and import-safe: it is resolved by name
inside pool worker processes.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.simulator import FaultSimulator, SimSnapshot
from ..sim.compile import CompiledCircuit
from ..sim.logic3 import GoodState, Vector

#: The worker-resident simulator (one per pool process).
_SIM: Optional[FaultSimulator] = None

#: One shard task: (ff_values, divergence, candidates, sub_sample,
#: count_faulty_events).
ShardTask = Tuple[
    List[int],
    Dict[int, Dict[int, int]],
    List[List[Vector]],
    List[int],
    bool,
]

#: Per-candidate partial observables: (detected, prop_final, prop_sum,
#: faulty_events, good_events, ffs_set, ffs_changed).  The first four
#: are per-fault sums over the shard's sub-sample (disjoint across
#: shards, merged by summation); the last three come from the good
#: machine and are identical in every shard.
CandidateRow = Tuple[int, int, int, int, int, int, int]

#: One shard result: (per-candidate rows, worker wall seconds).
ShardResult = Tuple[List[CandidateRow], float]


def init_worker(
    compiled: CompiledCircuit,
    faults,
    kernel: Optional[str] = None,
) -> None:
    """Pool initializer: build this process's resident simulator.

    ``kernel`` is the parent simulator's *resolved* backend name, so
    every worker builds the same kernel and sharded results stay
    bit-identical to the parent's serial pass.
    """
    global _SIM
    _SIM = FaultSimulator(compiled, faults=faults, kernel=kernel)


def run_batch_shard(task: ShardTask) -> ShardResult:
    """Score every candidate against one shard of the fault sample.

    The resident simulator's mutable state is overwritten from the task
    payload before the population pass runs, so a worker serves any shard
    of any population at any epoch without re-synchronization
    bookkeeping.
    """
    if _SIM is None:  # pragma: no cover - defensive; initializer always ran
        raise RuntimeError("worker used before init_worker")
    t0 = time.perf_counter()
    ff_values, divergence, candidates, sub_sample, count_events = task
    _SIM._write_state(SimSnapshot(
        good_state=GoodState(list(ff_values)), divergence=divergence,
        status=_SIM.status, active=_SIM.active, vectors_applied=0,
        detections=[],
    ))
    evals = _SIM._evaluate_batch_serial(
        candidates, sample=sub_sample, count_faulty_events=count_events
    )
    rows: List[CandidateRow] = [
        (e.detected, e.prop_final, e.prop_sum, e.faulty_events,
         e.good_events, e.ffs_set, e.ffs_changed)
        for e in evals
    ]
    return rows, time.perf_counter() - t0


def shard_payload(
    sim: FaultSimulator,
    candidates: Sequence[Sequence[Vector]],
    sub_sample: Sequence[int],
    count_faulty_events: bool,
) -> ShardTask:
    """Build one worker task from the parent simulator's state.

    Only the divergence maps of the shard's own faults are shipped —
    a shard never reads any other fault's state.
    """
    divergence = {
        fault_id: dict(sim.divergence[fault_id])
        for fault_id in sub_sample
        if fault_id in sim.divergence
    }
    return (
        list(sim.good_state.ff_values),
        divergence,
        list(candidates),
        list(sub_sample),
        count_faulty_events,
    )
