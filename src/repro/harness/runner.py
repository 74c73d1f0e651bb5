"""Multi-seed experiment execution and aggregation.

Every table in the paper reports means over ten runs with fresh random
seeds; :func:`run_gatest` mirrors that protocol.  The ``scale``
parameter shrinks the synthetic circuits proportionally (sequential
depth preserved) so the same experiment *structure* can run at laptop
speed; the full-scale numbers are produced by the same code with
``scale=1.0``.

How the cells run is one argument, an :class:`ExecutionPlan`: a
campaign journal, seed jobs, eval jobs, a seed retry policy and a
lease coordinator.  The default plan runs every seed serially
in-process and journals nothing; ``repro.harness.experiments`` builds
one plan from its flags and passes it through every table driver and
:func:`run_matrix` to :func:`run_gatest`.  ``run_gatest`` replays the
cells the plan's journal already holds and hands the rest to one
executor, which :func:`_cell_executor` picks from the plan:

* the lease coordinator (:mod:`repro.harness.distributed`), which
  leases the cells to worker hosts;
* the seed pool, when ``seed_jobs > 1`` and more than one cell runs.
  Each seed runs in its *own* single-worker process pool
  (:meth:`~repro.parallel.supervisor.SupervisedPool.run_each`) — fault
  isolation: one crashed or hung seed worker cannot take sibling
  seeds' futures down with it.  Failed seeds are retried under the
  plan's :class:`~repro.parallel.resilience.RetryPolicy` (default:
  ``REPRO_SEED_TIMEOUT`` / ``REPRO_SEED_RETRIES``) and, once the
  budget is exhausted, reported as :class:`SeedFailure` entries on
  ``AggregateResult.failed_seeds`` — surviving seeds still aggregate.
  ``REPRO_CHAOS`` injects deterministic worker crashes/hangs at this
  level too (docs/ROBUSTNESS.md);
* otherwise this process, one seed after another.

Each executor seals every cell it runs into the plan's journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..circuit.library import canonical_spec
from ..core.checkpoint import result_from_json, result_to_json
from ..core.config import TestGenConfig
from ..core.generator import GaTestGenerator
from ..core.results import TestGenResult
from ..parallel.resilience import SEED_RETRIES_ENV, SEED_TIMEOUT_ENV, RetryPolicy
from ..parallel.supervisor import PoolGaveUp, SupervisedPool
from ..sim.codegen import resolve_kernel_name
from ..sim.compile import CompiledCircuit, compiled_circuit_for
from ..telemetry.collector import NullCollector, TelemetryCollector, get_collector
from .campaign import CampaignJournal
from .tables import mean_std

if TYPE_CHECKING:  # distributed imports this module
    from .distributed import DistributedCoordinator


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


@dataclass(frozen=True)
class ExecutionPlan:
    """How :func:`run_gatest` executes its cells; the default plan runs
    them serially in this process and journals nothing.

    ``journal`` (a :class:`~repro.harness.campaign.CampaignJournal`)
    replays completed cells and receives every executed one.
    ``seed_jobs`` runs up to that many seeds at once, each in its own
    fault-isolated worker process.  ``eval_jobs``, when set, replaces
    each config's ``eval_jobs``; the two levels multiply
    (docs/PERFORMANCE.md).  ``seed_retry`` bounds each seed worker
    (``None``: ``REPRO_SEED_TIMEOUT`` / ``REPRO_SEED_RETRIES``, read
    when a pool starts).  ``coordinator`` (a
    :class:`~repro.harness.distributed.DistributedCoordinator`) leases
    the cells to worker hosts and seals them into its journal, which
    must be the plan's ``journal``.
    """

    journal: Optional[CampaignJournal] = None
    seed_jobs: int = 1
    eval_jobs: Optional[int] = None
    seed_retry: Optional[RetryPolicy] = None
    coordinator: Optional["DistributedCoordinator"] = None

    def __post_init__(self) -> None:
        if self.seed_jobs < 1:
            raise ValueError("seed_jobs must be >= 1")
        if self.eval_jobs is not None and self.eval_jobs < 1:
            raise ValueError("eval_jobs must be >= 1")
        if (self.coordinator is not None
                and self.coordinator.journal is not self.journal):
            raise ValueError(
                "a plan with a lease coordinator must carry that "
                "coordinator's journal"
            )


#: The default plan: serial, in-process, no journal.
SERIAL = ExecutionPlan()

#: What every executor returns: ``(results, failures)`` keyed by seed.
CellOutcomes = Tuple[Dict[int, TestGenResult], Dict[int, SeedFailure]]


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
) -> CellOutcomes:
    """Fault-isolated, self-healing multi-seed fan-out.

    Each seed runs in its own single-worker pool, at most ``jobs`` at
    once (:meth:`SupervisedPool.run_each`), so one seed's crash or hang
    is *its* failure alone.  A seed that spends its retries (counted by
    ``harness.seed.retries``) becomes a :class:`SeedFailure`; seeds that
    cannot start for lack of process support run in-process.  Worker
    traces are merged into ``collector`` under ``worker.<seed>``
    scopes.  Returns ``(results, failures)`` keyed by seed.
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
    results: Dict[int, TestGenResult] = {}
    failures: Dict[int, SeedFailure] = {}
    for seed, outcome in zip(seeds, outcomes):
        if not isinstance(outcome, PoolGaveUp):
            results[seed], records = outcome
            if records is not None:
                collector.merge_worker_trace(f"worker.{seed}", records)
        elif outcome.unsupported:
            results[seed] = _run_one_seed(compiled, config, seed, collector)
        else:
            failures[seed] = SeedFailure(
                seed=seed, error=outcome.error, attempts=outcome.attempts
            )
    return results, failures


def _seal_cell(
    journal: CampaignJournal, circuit_name: str, seed: int,
    outcome: Union[TestGenResult, SeedFailure],
    *, scale: float, label: str, digest: str, **stamp,
) -> None:
    """Seal one executed cell's result or failure into ``journal``;
    ``stamp`` (``host``, ``trace``) goes to :meth:`~CampaignJournal.record_cell`."""
    if isinstance(outcome, SeedFailure):
        fields = {"error": outcome.error, "attempts": outcome.attempts}
    else:
        fields = {"result": result_to_json(outcome)}
    journal.record_cell(circuit_name, label, seed, scale, digest, **fields, **stamp)


def _run_cells_in_process(
    journal: Optional[CampaignJournal], collector: NullCollector,
    circuit_name: str, compiled: CompiledCircuit, config: TestGenConfig,
    seeds: Sequence[int], *, scale: float, label: str, digest: str,
) -> CellOutcomes:
    """Executor: run the seeds in this process, sealing each as it ends."""
    results: Dict[int, TestGenResult] = {}
    for seed in seeds:
        results[seed] = _run_one_seed(compiled, config, seed, collector)
        if journal is not None:
            _seal_cell(journal, circuit_name, seed, results[seed],
                       scale=scale, label=label, digest=digest)
    return results, {}


def _run_cells_pooled(
    plan: ExecutionPlan, collector: NullCollector,
    circuit_name: str, compiled: CompiledCircuit, config: TestGenConfig,
    seeds: Sequence[int], *, scale: float, label: str, digest: str,
) -> CellOutcomes:
    """Executor: fan the seeds out over the seed pool, then seal them."""
    results, failures = _run_seed_pool(
        compiled, config, seeds, plan.seed_jobs, collector, plan.seed_retry
    )
    if plan.journal is not None:
        for seed in seeds:
            _seal_cell(
                plan.journal, circuit_name, seed,
                results[seed] if seed in results else failures[seed],
                scale=scale, label=label, digest=digest,
            )
    return results, failures


def _cell_executor(
    plan: ExecutionPlan, collector: NullCollector, *, cells: int
) -> Callable[..., CellOutcomes]:
    """Pick the executor for ``cells`` cells: the one place that chooses.

    Each candidate has the signature ``run_cells(circuit_name,
    compiled, config, seeds, *, scale, label, digest) -> (results,
    failures)`` and seals every cell it runs.  A coordinator takes the
    cells; the seed pool takes them when the plan allows more than one
    seed job and more than one cell runs; otherwise they run in this
    process.
    """
    if plan.coordinator is not None:
        return plan.coordinator.run_cells
    if plan.seed_jobs > 1 and cells > 1:
        return partial(_run_cells_pooled, plan, collector)
    return partial(_run_cells_in_process, plan.journal, collector)


def run_gatest(
    circuit_name: str,
    config: TestGenConfig,
    seeds: Sequence[int],
    scale: float = 1.0,
    collector: Optional[NullCollector] = None,
    label: Optional[str] = None,
    plan: ExecutionPlan = SERIAL,
) -> AggregateResult:
    """Run GATEST over several seeds on one circuit and aggregate.

    ``circuit_name`` is any spec ``gatest run`` takes (a builtin name,
    a ``.bench`` path, an ISCAS89 profile name or ``name@scale``),
    resolved at ``scale`` by
    :func:`~repro.sim.compile.compiled_circuit_for`; cells are journaled
    and leased under its canonical name and scale, so two spellings of
    one circuit share their cells.  ``plan`` says how the seeds run
    (:class:`ExecutionPlan`; default: serially in this process).  Seed
    jobs are the easy level of the parallelism the paper's §VI
    anticipates — GA runs over distinct seeds are fully
    independent; eval jobs shard each run's candidate evaluation
    instead (bit-identical results).  The plan's ``eval_jobs`` and the
    simulation kernel are resolved into the config once, before it is
    shipped to any worker process or host.  Seeds whose workers crash
    or hang past the plan's retry budget land on
    ``AggregateResult.failed_seeds``; surviving seeds still aggregate.

    ``collector`` (default: the installed telemetry collector) wraps the
    batch in a ``harness.run_gatest`` span and is handed to every
    in-process generator; when telemetry is enabled, pool workers
    record into their own collectors and their traces are shipped back
    and merged under ``worker.<seed>`` scopes.

    With a journal in the plan (:mod:`repro.harness.campaign`), each
    (circuit, ``label``, seed) cell is looked up first — completed
    cells are replayed bit-identically instead of re-run — and the
    executor seals every cell it runs.  ``label`` defaults to a prefix
    of the config digest, so direct calls journal correctly too.
    """
    if collector is None:
        collector = get_collector()
    name, scale, _ = canonical_spec(circuit_name, scale)
    compiled = compiled_circuit_for(name, scale)
    digest = config.digest()
    if label is None:
        label = digest[:12]
    journal = plan.journal

    runs_by_seed: Dict[int, TestGenResult] = {}
    to_run: List[int] = []
    for seed in seeds:
        data = (
            journal.lookup(name, label, seed, scale, digest)
            if journal is not None else None
        )
        if data is not None:
            runs_by_seed[seed] = result_from_json(data)
        else:
            to_run.append(seed)

    config = replace(
        config,
        eval_jobs=plan.eval_jobs or config.eval_jobs,
        sim_kernel=resolve_kernel_name(config.sim_kernel),
    )
    run_cells = _cell_executor(plan, collector, cells=len(to_run))
    with collector.span(
        "harness.run_gatest", circuit=circuit_name, seeds=len(seeds),
        jobs=plan.seed_jobs,
    ):
        results, failures = run_cells(
            name, compiled, config, to_run,
            scale=scale, label=label, digest=digest,
        )
    runs_by_seed.update(results)

    agg = AggregateResult(circuit=circuit_name, total_faults=0)
    for seed in seeds:
        if seed in runs_by_seed:
            agg.runs.append(runs_by_seed[seed])
        else:
            agg.failed_seeds.append(failures[seed])
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
    plan: ExecutionPlan = SERIAL,
) -> Dict[str, Dict[str, AggregateResult]]:
    """Run a {config label -> config} matrix over several circuits.

    Returns ``results[circuit][label]``.  ``progress`` (if given) is
    called with a human-readable line after each cell completes — the
    full-scale tables take a while and silence reads as a hang; failed
    seeds are flagged on the line.  Each cell runs inside a
    ``harness.cell`` telemetry span; the progress line's elapsed time is
    that span's, so the printed and traced timings are one measurement.
    ``plan`` is passed through to :func:`run_gatest`.  With a journal in
    the plan the matrix's circuits (by canonical name) and config
    digests are bound into the journal up front, so a resume against
    changed configs is refused before any work runs.
    """
    if collector is None:
        collector = get_collector()
    if plan.journal is not None:
        plan.journal.bind(
            [canonical_spec(name, scale)[0] for name in circuit_names],
            {lbl: cfg.digest() for lbl, cfg in configs.items()},
        )
    results: Dict[str, Dict[str, AggregateResult]] = {}
    for name in circuit_names:
        results[name] = {}
        for label, config in configs.items():
            with collector.span("harness.cell", circuit=name, label=label) as cell:
                agg = run_gatest(name, config, seeds, scale=scale,
                                 collector=collector, label=label, plan=plan)
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
