"""Fault-isolated process execution tier for run jobs.

Run jobs execute in a supervised worker *process* pool
(:func:`open_tier`, a :class:`~repro.parallel.supervisor.SupervisedPool`)
rather than on the :class:`~repro.service.jobs.JobManager`'s scheduling
threads, so a crash or hang takes down a disposable worker, never the
service.  Each attempt is bounded by the job's ``deadline_s`` (or
``REPRO_JOB_TIMEOUT``) and retried ``REPRO_JOB_RETRIES`` times; a retry
*resumes from the job's own checkpoint*, because the worker arms
``resume`` whenever the checkpoint file exists.  When the pool gives up
the manager degrades, stickily, to bit-identical in-thread execution
that resumes from the same checkpoint (docs/ROBUSTNESS.md §7).

Each worker keeps its own :class:`~repro.service.state.WarmRegistry`
and compiled-circuit cache for its whole life, so repeat jobs skip
recompilation.  Its collector lives as long, but holds one task's trace
at a time: each task hands its trace back with the result through
:meth:`~repro.telemetry.TelemetryCollector.drain`, which leaves the
collector empty, and the job's own collector folds it in.

Everything here must stay module-level and import-safe: it is resolved
by name inside pool worker processes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Tuple

from ..core.checkpoint import CheckpointError, config_from_json, result_to_json
from ..core.config import TestGenConfig
from ..core.generator import GaTestGenerator, RunPreempted
from ..parallel.supervisor import SupervisedPool
from ..sim.compile import compiled_circuit_for
from ..telemetry import NullCollector, TelemetryCollector
from .state import CircuitKey, WarmRegistry

#: One tier task outcome: ``("done", result_payload)``, ``("preempted",
#: None)`` or ``("error", message)``, plus the worker's shipped trace.
TierOutcome = Tuple[str, Optional[object], list]


# ----------------------------------------------------------------------
# The run body (tier workers and the in-thread path)
# ----------------------------------------------------------------------


def execute_run_job(
    registry: WarmRegistry,
    collector: NullCollector,
    ckey: CircuitKey,
    config: TestGenConfig,
    checkpoint: Path,
    checkpoint_every: int,
    stop: Callable[[], bool],
) -> Tuple[str, Optional[object]]:
    """Run one job on a simulator leased from ``registry``.

    Both execution paths call this: :func:`run_tier_job` in a tier
    worker, and :class:`~repro.service.jobs.JobManager` in-thread when
    the tier is off or degraded.  ``config`` is the effective
    (per-circuit) config; ``resume`` is armed when ``checkpoint``
    exists, and a torn or incompatible checkpoint falls back to a
    fresh run (``service.jobs.resume_fallback``), which the
    deterministic seed makes equivalent.  ``stop`` is the generator's
    preemption hook.  Returns ``("done", result_payload)``,
    ``("preempted", None)`` or ``("error", message)``; the simulator
    goes back to the registry unless the run failed.
    """
    resume = checkpoint.exists()
    sim = registry.lease(ckey, config)
    compiled = sim.compiled
    try:
        try:
            result = _run_generator(compiled, config, sim, collector,
                                    checkpoint, checkpoint_every, resume, stop)
        except CheckpointError:
            if not resume:
                raise
            collector.inc("service.jobs.resume_fallback")
            sim.reset()
            result = _run_generator(compiled, config, sim, collector,
                                    checkpoint, checkpoint_every, False, stop)
    except RunPreempted:
        registry.release(ckey, config, sim)
        return ("preempted", None)
    except Exception as exc:
        registry.discard(sim)
        return ("error", f"{type(exc).__name__}: {exc}")
    registry.release(ckey, config, sim)
    payload = result_to_json(result)
    payload["fault_coverage"] = result.fault_coverage
    payload["summary"] = result.summary()
    return ("done", payload)


def _run_generator(compiled, config, sim, collector, checkpoint,
                   checkpoint_every, resume, stop):
    generator = GaTestGenerator(
        compiled, config, collector=collector, fsim=sim
    )
    try:
        return generator.run(
            checkpoint_path=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
            stop=stop,
        )
    finally:
        generator.close()


# ----------------------------------------------------------------------
# Worker side (runs inside pool processes)
# ----------------------------------------------------------------------

#: The worker-resident warm registry (one per pool process).
_REGISTRY: Optional[WarmRegistry] = None

#: The worker's life-long collector; each task drains it.
_COLLECTOR: Optional[TelemetryCollector] = None


def init_tier_worker(cache_size: Optional[int] = None) -> None:
    """Pool initializer: build this process's registry (bounded like
    the service's, ``gatest serve --cache-size``) and collector."""
    global _REGISTRY, _COLLECTOR
    _COLLECTOR = TelemetryCollector(source="repro.service.tier")
    _REGISTRY = WarmRegistry(collector=_COLLECTOR, max_sims=cache_size)


def run_tier_job(task: dict) -> TierOutcome:
    """Execute one run job in this worker process.

    ``task`` carries the job's circuit key, the *effective* (per-circuit)
    config as :func:`~repro.core.checkpoint.config_to_json` wire
    format, the checkpoint path, the stop-file path and the checkpoint
    interval.  Application failures are returned as ``("error", …)``
    outcomes — they are deterministic, retrying cannot help, and the
    parent must not confuse them with infrastructure failures (which
    surface as a broken pool or a timeout and *are* retried).
    """
    if _REGISTRY is None or _COLLECTOR is None:  # pragma: no cover - defensive
        raise RuntimeError("tier worker used before init_tier_worker")
    try:
        config = config_from_json(task["config"])
        ckey = task["key"]
        compiled = compiled_circuit_for(*ckey)
        config = config.for_circuit(compiled.circuit.name)  # idempotent
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}", _COLLECTOR.drain())
    status, payload = execute_run_job(
        _REGISTRY, _COLLECTOR, ckey, config, Path(task["checkpoint_path"]),
        task["checkpoint_every"], stop=Path(task["stop_path"]).exists,
    )
    # A task that raises fails its attempt, and the supervisor reaps the
    # whole pool, so no trace outlives its task.
    return (status, payload, _COLLECTOR.drain())


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def open_tier(
    collector: Optional[NullCollector] = None,
    workers: int = 2,
    cache_size: Optional[int] = None,
) -> SupervisedPool:
    """The run-job pool: run one job with
    ``pool.run(run_tier_job, [(task,)], policy)[0]``.  Each worker's
    registry holds at most ``cache_size`` simulators (``None``: 8).

    Workers fork from a **forkserver**, not from the service: forking a
    threaded process can deadlock the child on a lock frozen
    mid-acquire and hands it every open fd, accepted HTTP sockets
    included.  The forkserver is exec'd fresh and preloads this module,
    so worker forks also skip the import bill.  Task numbers start at 1.
    """
    return SupervisedPool(
        workers,
        initializer=init_tier_worker,
        initargs=(cache_size,),
        context="forkserver",
        preload=["repro.service.tier"],
        first_task=1,
        collector=collector,
        counters={"restarts": "service.tier.restarts",
                  "retries": "service.tier.retries"},
    )
