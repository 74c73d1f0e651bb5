"""Multi-seed experiment execution and aggregation.

Every table in the paper reports means over ten runs with fresh random
seeds; :func:`run_gatest` mirrors that protocol.  The ``scale``
parameter shrinks the synthetic circuits proportionally (sequential
depth preserved) so the same experiment *structure* can run at laptop
speed; the full-scale numbers are produced by the same code with
``scale=1.0``.

Seed-level parallelism (``jobs > 1``) runs each seed in its *own*
single-worker process pool
(:meth:`~repro.parallel.supervisor.SupervisedPool.run_each`) — fault
isolation: one crashed or hung seed worker cannot take sibling seeds'
futures down with it.  Failed seeds are retried under a
:class:`~repro.parallel.resilience.RetryPolicy` (``REPRO_SEED_TIMEOUT``
/ ``REPRO_SEED_RETRIES``) and, once the budget is exhausted, reported
as :class:`SeedFailure` entries on
``AggregateResult.failed_seeds`` — surviving seeds still aggregate.
``REPRO_CHAOS`` injects deterministic worker crashes/hangs at this
level too (docs/ROBUSTNESS.md).  When a campaign journal is active
(:mod:`repro.harness.campaign`), every (circuit, label, seed) cell is
journaled and completed cells are replayed instead of re-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..circuit.synth import synthesize_named
from ..core.config import TestGenConfig
from ..core.generator import GaTestGenerator
from ..core.results import TestGenResult
from ..parallel.resilience import SEED_RETRIES_ENV, SEED_TIMEOUT_ENV, RetryPolicy
from ..parallel.supervisor import PoolGaveUp, SupervisedPool
from ..sim.codegen import resolve_kernel_name
from ..sim.compile import CompiledCircuit, compile_circuit
from ..telemetry.collector import NullCollector, TelemetryCollector, get_collector
from .campaign import get_active_campaign, result_from_json, result_to_json
from .tables import mean_std


@dataclass(frozen=True)
class SeedFailure:
    """One seed that exhausted its retry budget and produced no result."""

    seed: int
    error: str
    attempts: int


@dataclass
class AggregateResult:
    """Mean/σ statistics over a batch of GATEST runs on one circuit.

    ``failed_seeds`` lists seeds whose workers crashed, hung or errored
    past the retry budget; their runs are absent from ``runs`` and from
    every statistic.  Callers that need all seeds must check it — the
    harness's progress lines and the campaign journal both surface it.
    """

    circuit: str
    total_faults: int
    runs: List[TestGenResult] = field(default_factory=list)
    failed_seeds: List[SeedFailure] = field(default_factory=list)

    @property
    def n_runs(self) -> int:
        """Number of seeds aggregated."""
        return len(self.runs)

    @property
    def det_mean(self) -> float:
        """Mean detections over the runs."""
        return mean_std([r.detected for r in self.runs])[0]

    @property
    def det_std(self) -> float:
        """Std dev of detections over the runs."""
        return mean_std([r.detected for r in self.runs])[1]

    @property
    def vec_mean(self) -> float:
        """Mean test-set length."""
        return mean_std([r.vectors for r in self.runs])[0]

    @property
    def vec_std(self) -> float:
        """Std dev of test-set length."""
        return mean_std([r.vectors for r in self.runs])[1]

    @property
    def time_mean(self) -> float:
        """Mean wall-clock seconds per run."""
        return mean_std([r.elapsed_seconds for r in self.runs])[0]

    @property
    def coverage_mean(self) -> float:
        """Mean fault coverage fraction."""
        if not self.total_faults:
            return 0.0
        return self.det_mean / self.total_faults


#: Cache of compiled synthetic circuits, keyed by (name, scale).
_circuit_cache: Dict[tuple, CompiledCircuit] = {}

#: Process-wide default for fault-sharded candidate evaluation, applied
#: by :func:`run_gatest` to configs that left ``eval_jobs`` at 1.  Set
#: by ``repro.harness.experiments --eval-jobs`` so every table driver
#: picks it up without threading a parameter through each table builder.
_default_eval_jobs: Optional[int] = None

#: Process-wide default for seed-level parallelism, applied when
#: :func:`run_gatest` is called with ``jobs=None``.  Set by
#: ``repro.harness.experiments --jobs``.
_default_seed_jobs: Optional[int] = None

#: The distributed campaign backend (duck-typed; in practice a
#: :class:`repro.harness.distributed.DistributedCoordinator`).  When set
#: and a campaign journal is active, :func:`run_gatest` routes
#: non-replayed cells through ``backend.run_cells`` instead of local
#: pools.  Installed by ``experiments --workers-from``; kept as a
#: registration seam so this module never imports ``distributed``.
_distributed_backend = None


def set_distributed_backend(backend):
    """Install the distributed campaign backend; returns the previous.

    ``backend`` must provide ``run_cells(circuit_name, compiled,
    config, seeds, *, scale, label, digest) -> (results, failures)``
    with every returned cell already journaled (``None`` uninstalls).
    """
    global _distributed_backend
    previous = _distributed_backend
    _distributed_backend = backend
    return previous


def get_distributed_backend():
    """The installed distributed backend, or ``None`` (the default)."""
    return _distributed_backend


def set_default_eval_jobs(jobs: Optional[int]) -> Optional[int]:
    """Install the harness-wide ``eval_jobs`` default; returns the old one.

    ``None`` (the initial value) leaves configs untouched.  Seed-level
    process parallelism (``run_gatest(jobs=...)``) and candidate-level
    sharding multiply: with both active, expect ``jobs * eval_jobs``
    worker processes — see docs/PERFORMANCE.md before combining them.
    The default is resolved into the config *before* seeds are shipped
    to seed workers, so it applies inside the pool as well.
    """
    global _default_eval_jobs
    previous = _default_eval_jobs
    _default_eval_jobs = jobs
    return previous


def set_default_seed_jobs(jobs: Optional[int]) -> Optional[int]:
    """Install the harness-wide seed-parallelism default; returns the old.

    Applies to every :func:`run_gatest` call that leaves ``jobs`` at
    ``None`` — which is how ``experiments --jobs N`` parallelizes whole
    tables without threading a parameter through each table builder.
    """
    global _default_seed_jobs
    previous = _default_seed_jobs
    _default_seed_jobs = jobs
    return previous


def compiled_circuit_for(name: str, scale: float = 1.0) -> CompiledCircuit:
    """Synthesize (cached) and compile the stand-in for ``name``."""
    key = (name, scale)
    if key not in _circuit_cache:
        _circuit_cache[key] = compile_circuit(synthesize_named(name, scale=scale))
    return _circuit_cache[key]


def _run_one_seed(
    compiled: CompiledCircuit,
    config: TestGenConfig,
    seed: int,
    collector: Optional[NullCollector] = None,
) -> TestGenResult:
    """Run one seed in this process (the serial / degraded path)."""
    return GaTestGenerator(
        compiled, replace(config, seed=seed), collector=collector
    ).run()


def _seed_worker(
    compiled: CompiledCircuit,
    config: TestGenConfig,
    seed: int,
    collect: bool,
) -> Tuple[TestGenResult, Optional[list]]:
    """Pool worker for one seed (module-level so it pickles).

    When ``collect`` is set the worker records into its own
    :class:`TelemetryCollector` and ships the records back with the
    result for the parent to merge under a ``worker.<seed>`` scope.
    """
    collector = TelemetryCollector(source="repro.harness.worker") if collect else None
    result = _run_one_seed(compiled, config, seed, collector)
    return result, (collector.records() if collect else None)


def _run_seed_pool(
    compiled: CompiledCircuit,
    config: TestGenConfig,
    seeds: Sequence[int],
    jobs: int,
    collector: NullCollector,
    policy: Optional[RetryPolicy] = None,
) -> Tuple[Dict[int, Tuple[TestGenResult, Optional[list]]], Dict[int, SeedFailure]]:
    """Fault-isolated, self-healing multi-seed fan-out.

    Each seed runs in its own single-worker pool, at most ``jobs`` at
    once (:meth:`SupervisedPool.run_each`), so one seed's crash or hang
    is *its* failure alone.  A seed that spends its retries (counted by
    ``harness.seed.retries``) becomes a :class:`SeedFailure`; seeds that
    cannot start for lack of process support run in-process.  Returns
    ``(results, failures)`` keyed by seed, where each result is
    ``(TestGenResult, shipped-back trace records or None)``.
    """
    if policy is None:
        policy = RetryPolicy.from_env(
            timeout_env=SEED_TIMEOUT_ENV,
            retries_env=SEED_RETRIES_ENV,
            default_timeout=None,
        )
    pool = SupervisedPool(
        jobs, collector=collector, counters={"retries": "harness.seed.retries"}
    )
    outcomes = pool.run_each(
        _seed_worker,
        [(compiled, config, seed, collector.enabled) for seed in seeds],
        policy,
    )
    results: Dict[int, Tuple[TestGenResult, Optional[list]]] = {}
    failures: Dict[int, SeedFailure] = {}
    for seed, outcome in zip(seeds, outcomes):
        if not isinstance(outcome, PoolGaveUp):
            results[seed] = outcome
        elif outcome.unsupported:
            results[seed] = (_run_one_seed(compiled, config, seed, collector), None)
        else:
            failures[seed] = SeedFailure(
                seed=seed, error=outcome.error, attempts=outcome.attempts
            )
    return results, failures


def run_gatest(
    circuit_name: str,
    config: TestGenConfig,
    seeds: Sequence[int],
    scale: float = 1.0,
    circuit: Optional[Circuit] = None,
    jobs: Optional[int] = None,
    eval_jobs: Optional[int] = None,
    collector: Optional[NullCollector] = None,
    label: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
) -> AggregateResult:
    """Run GATEST over several seeds on one circuit and aggregate.

    ``circuit`` overrides the synthetic stand-in (used by tests with
    bundled circuits).  ``jobs > 1`` fans the seeds out over worker
    processes (one fault-isolated single-worker pool per seed) — GA
    runs over distinct seeds are fully independent, the easy level of
    the parallelism the paper's §VI anticipates; ``jobs=None`` takes
    the :func:`set_default_seed_jobs` harness default (initially 1).
    ``eval_jobs`` shards each run's *candidate evaluation* across worker
    processes instead (within-run parallelism, bit-identical results);
    it overrides both ``config.eval_jobs`` and the harness default set
    with :func:`set_default_eval_jobs`, and is resolved into the config
    before it is shipped to seed workers.  The two levels multiply —
    prefer seed-level ``jobs`` when there are many seeds, ``eval_jobs``
    when a single run's wall clock is what matters.

    Crashed or hung seed workers are retried per ``retry`` (default:
    :class:`RetryPolicy` from ``REPRO_SEED_TIMEOUT`` /
    ``REPRO_SEED_RETRIES``); seeds that exhaust the budget land on
    ``AggregateResult.failed_seeds`` while surviving seeds aggregate
    normally.

    ``collector`` (default: the installed telemetry collector) wraps the
    batch in a ``harness.run_gatest`` span and is handed to every
    serial-path generator; when telemetry is enabled, pool workers
    record into their own collectors and their traces are shipped back
    and merged under ``worker.<seed>`` scopes.

    With an active campaign journal (:mod:`repro.harness.campaign`),
    each (circuit, ``label``, seed) cell is looked up first — completed
    cells are replayed bit-identically instead of re-run — and journaled
    after execution.  ``label`` defaults to a prefix of the config
    digest, so direct calls journal correctly too.
    """
    if collector is None:
        collector = get_collector()
    if jobs is None:
        jobs = _default_seed_jobs if _default_seed_jobs is not None else 1
    if eval_jobs is None:
        eval_jobs = _default_eval_jobs
    if eval_jobs is not None and eval_jobs != config.eval_jobs:
        config = replace(config, eval_jobs=eval_jobs)
    compiled = (
        compile_circuit(circuit) if circuit is not None
        else compiled_circuit_for(circuit_name, scale)
    )
    digest = config.digest()
    if label is None:
        label = digest[:12]
    campaign = get_active_campaign()

    replayed: Dict[int, TestGenResult] = {}
    to_run: List[int] = []
    for seed in seeds:
        data = (
            campaign.lookup(circuit_name, label, seed, scale, digest)
            if campaign is not None else None
        )
        if data is not None:
            replayed[seed] = result_from_json(data)
        else:
            to_run.append(seed)

    runs_by_seed: Dict[int, TestGenResult] = dict(replayed)
    failures: Dict[int, SeedFailure] = {}
    backend = get_distributed_backend()
    journaled_by_backend = False
    with collector.span(
        "harness.run_gatest", circuit=circuit_name, seeds=len(seeds), jobs=jobs
    ):
        if (backend is not None and campaign is not None
                and circuit is None and to_run):
            # Distributed campaign: the backend leases the cells to
            # worker hosts (degrading to local execution if they all
            # fail) and every returned cell is already sealed in the
            # journal — worker-side for remote cells, coordinator-side
            # for degraded ones — so none may be journaled again here.
            dist_results, failures = backend.run_cells(
                circuit_name, compiled, config, to_run,
                scale=scale, label=label, digest=digest,
            )
            runs_by_seed.update(dist_results)
            replayed.update(dist_results)
            journaled_by_backend = True
        elif jobs > 1 and len(to_run) > 1:
            # Ship the *resolved* kernel name so workers pick the same
            # simulation backend as the parent would, even when it came
            # from REPRO_SIM_KERNEL and the worker environment differs.
            worker_config = config
            resolved = resolve_kernel_name(config.sim_kernel)
            if resolved != config.sim_kernel:
                worker_config = replace(config, sim_kernel=resolved)
            pool_results, failures = _run_seed_pool(
                compiled, worker_config, to_run, jobs, collector, retry
            )
            for seed in to_run:
                if seed not in pool_results:
                    continue
                result, records = pool_results[seed]
                if records is not None:
                    collector.merge_worker_trace(f"worker.{seed}", records)
                runs_by_seed[seed] = result
        else:
            for seed in to_run:
                runs_by_seed[seed] = _run_one_seed(compiled, config, seed, collector)

    agg = AggregateResult(circuit=circuit_name, total_faults=0)
    for seed in seeds:
        if seed in runs_by_seed:
            result = runs_by_seed[seed]
            agg.runs.append(result)
            if campaign is not None and seed not in replayed:
                campaign.record_cell(
                    circuit_name, label, seed, scale, digest,
                    result=result_to_json(result),
                )
        else:
            failure = failures[seed]
            agg.failed_seeds.append(failure)
            if campaign is not None and not journaled_by_backend:
                campaign.record_cell(
                    circuit_name, label, seed, scale, digest,
                    error=failure.error, attempts=failure.attempts,
                )
    totals = {r.total_faults for r in agg.runs}
    if len(totals) > 1:
        raise RuntimeError(
            f"runs on {circuit_name!r} disagree on the collapsed fault-list "
            f"size ({sorted(totals)}); seeds of one aggregate must share a "
            "circuit and fault list — refusing to aggregate"
        )
    agg.total_faults = totals.pop() if totals else 0
    return agg


def run_matrix(
    circuit_names: Sequence[str],
    configs: Dict[str, TestGenConfig],
    seeds: Sequence[int],
    scale: float = 1.0,
    progress: Optional[Callable[[str], None]] = None,
    collector: Optional[NullCollector] = None,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, AggregateResult]]:
    """Run a {config label -> config} matrix over several circuits.

    Returns ``results[circuit][label]``.  ``progress`` (if given) is
    called with a human-readable line after each cell completes — the
    full-scale tables take a while and silence reads as a hang; failed
    seeds are flagged on the line.  Each cell runs inside a
    ``harness.cell`` telemetry span; the progress line's elapsed time is
    that span's, so the printed and traced timings are one measurement.
    ``jobs`` is passed through to :func:`run_gatest`.  With an active
    campaign journal the matrix's circuits and config digests are bound
    into the journal up front, so a resume against changed configs is
    refused before any work runs.
    """
    if collector is None:
        collector = get_collector()
    campaign = get_active_campaign()
    if campaign is not None:
        campaign.bind(
            list(circuit_names),
            {lbl: cfg.digest() for lbl, cfg in configs.items()},
        )
    results: Dict[str, Dict[str, AggregateResult]] = {}
    for name in circuit_names:
        results[name] = {}
        for label, config in configs.items():
            with collector.span("harness.cell", circuit=name, label=label) as cell:
                agg = run_gatest(name, config, seeds, scale=scale,
                                 collector=collector, jobs=jobs, label=label)
            results[name][label] = agg
            if progress is not None:
                failed = (
                    f" FAILED seeds {[f.seed for f in agg.failed_seeds]}"
                    if agg.failed_seeds else ""
                )
                progress(
                    f"{name} [{label}] det={agg.det_mean:.1f}/{agg.total_faults}"
                    f" vec={agg.vec_mean:.0f}"
                    f" ({cell.elapsed:.1f}s){failed}"
                )
    return results
