"""Lease-based multi-host campaign execution over the sealed journal.

The sealed JSONL campaign journal (:mod:`repro.harness.campaign`) is
already an append-only, integrity-checked ledger; this module promotes
it to a *coordination substrate* for multiple hosts:

* The **coordinator** (:class:`DistributedCoordinator`, the
  ``coordinator`` of the :class:`~repro.harness.runner.ExecutionPlan`
  that ``experiments --workers-from HOSTS`` builds) binds the matrix
  exactly as a single-host campaign would, then — instead of executing
  cells — seals TTL-stamped **lease records** granting each (circuit,
  label, seed) cell to a worker host, and polls the journal for sealed
  results.
* **Workers** (``gatest campaign-worker --journal J --host NAME``)
  attach to the same journal as peer writers, claim leases addressed to
  their host name, execute each cell through the PR 5 per-seed
  self-healing pool (same chaos hooks, same retry policy, same
  telemetry shipback), and seal the result back into the journal.
* Expired leases (host crash, hang, partition — anything that keeps a
  result from appearing before ``expires_at``) are **reaped**: the
  coordinator re-leases the cell to the next host, bounded by a
  :class:`~repro.parallel.resilience.RetryPolicy` read from
  ``REPRO_LEASE_TTL`` / ``REPRO_LEASE_RETRIES``.  Exhausting the
  re-lease budget triggers **sticky degradation**: the coordinator runs
  that cell — and every cell still outstanding — locally in-process, so
  a campaign always completes even with zero live workers.

Because every cell's result is a pure function of (circuit, config,
seed), *who* executes a cell never changes *what* it produces: a matrix
run on N hosts, or SIGKILLed anywhere and resumed, emits byte-identical
tables to the serial run.  Duplicate results (a host that stalled past
its TTL sealing late, racing the re-leased peer) are arbitrated
first-sealed-ok-wins by the journal.

Deterministic host-level chaos (``REPRO_CHAOS=lease-stall:<p>`` /
``worker-vanish:<p>``) injects exactly these failures in tests: a
stalled worker sleeps past its lease TTL and then seals anyway
(exercising reap + duplicate arbitration), a vanished worker dies
mid-cell (exercising reap + re-lease).

Counters (docs/TELEMETRY.md): ``campaign.lease.granted`` / ``.expired``
/ ``.stolen`` / ``.healed`` / ``.degraded``; worker telemetry merges
under composed ``host.<name>.worker.<seed>`` scopes.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from ..core.checkpoint import (
    CheckpointError,
    check_fingerprint,
    circuit_fingerprint,
    config_from_json,
    config_to_json,
    result_from_json,
)
from ..core.config import TestGenConfig
from ..core.results import TestGenResult
from ..parallel.resilience import (
    DEFAULT_LEASE_TTL,
    LEASE_RETRIES_ENV,
    LEASE_TTL_ENV,
    ChaosConfig,
    RetryPolicy,
)
from ..sim.compile import compiled_circuit_for
from ..telemetry.collector import NullCollector, TelemetryCollector
from .campaign import CampaignJournal
from .runner import SeedFailure, _run_one_seed, _run_seed_pool, _seal_cell


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


class DistributedCoordinator:
    """Grants leases, reaps expiries, accepts sealed results.

    Carried as an :class:`~repro.harness.runner.ExecutionPlan`'s
    ``coordinator`` (together with its journal); ``run_gatest`` calls
    :meth:`run_cells` once per (circuit, label) aggregate with the
    seeds that still need execution.

    ``policy.task_timeout`` is the lease TTL (``REPRO_LEASE_TTL``,
    default :data:`~repro.parallel.resilience.DEFAULT_LEASE_TTL`); a
    lease cannot go without one, so a TTL <= 0 raises ``ValueError``.
    ``policy.max_retries`` is the re-lease budget per cell
    (``REPRO_LEASE_RETRIES``) before sticky local degradation.
    """

    def __init__(
        self,
        journal: CampaignJournal,
        hosts: Sequence[str],
        *,
        poll: float = 0.05,
        policy: Optional[RetryPolicy] = None,
        collector=None,
    ) -> None:
        if not hosts:
            raise ValueError("at least one worker host name is required")
        self.journal = journal
        self.hosts = [str(h) for h in hosts]
        self.poll = poll
        self.policy = policy if policy is not None else RetryPolicy.from_env(
            timeout_env=LEASE_TTL_ENV,
            retries_env=LEASE_RETRIES_ENV,
            default_timeout=DEFAULT_LEASE_TTL,
        )
        if self.policy.task_timeout is None:
            raise ValueError(
                f"the lease TTL must be a positive number of seconds "
                f"({LEASE_TTL_ENV} <= 0 cannot disable it)"
            )
        self.collector = collector if collector is not None else journal.collector
        self.degraded = False
        self._next_host = 0

    # -- lease bookkeeping ----------------------------------------------

    def _pick_host(self) -> str:
        host = self.hosts[self._next_host % len(self.hosts)]
        self._next_host += 1
        return host

    # -- execution -------------------------------------------------------

    def run_cells(
        self,
        circuit_name: str,
        compiled,
        config: TestGenConfig,
        seeds: Sequence[int],
        *,
        scale: float,
        label: str,
        digest: str,
    ) -> Tuple[Dict[int, TestGenResult], Dict[int, SeedFailure]]:
        """Execute the given seeds' cells through worker hosts.

        Returns ``(results, failures)`` keyed by seed, like every
        ``run_gatest`` executor, with every cell sealed in the journal
        (workers seal theirs, degraded local runs are sealed here).
        ``config`` is leased as given: ``run_gatest`` has already
        resolved its execution knobs (``eval_jobs``, the kernel name),
        so worker hosts run what this process would.  Each lease also
        carries ``compiled``'s fingerprint, so a host that resolves
        ``circuit_name`` to another circuit fails the cell instead.
        """
        collect = self.collector.enabled
        config_json = config_to_json(config)
        fingerprint = circuit_fingerprint(compiled.circuit)

        #: per-seed lease state: expiry count + whether we ran it locally
        expiries: Dict[int, int] = {seed: 0 for seed in seeds}
        ran_locally: Dict[int, bool] = {seed: False for seed in seeds}
        results: Dict[int, TestGenResult] = {}
        failures: Dict[int, SeedFailure] = {}

        outstanding = [int(s) for s in seeds]
        if not self.degraded:
            for seed in outstanding:
                existing = self.journal.result_for(
                    circuit_name, label, seed, scale
                )
                # Lease fresh cells and stale failures (a failed record
                # older than this grant is superseded by it — the
                # re-execution path of a resumed campaign).
                if existing is None or existing.get("status") != "ok":
                    self.journal.grant_lease(
                        circuit_name, label, seed, scale, digest,
                        host=self._pick_host(), ttl=self.policy.task_timeout,
                        config=config_json, fingerprint=fingerprint,
                        collect=collect,
                    )

        while outstanding:
            self.journal.refresh()
            now = time.time()
            progressed = False
            for seed in list(outstanding):
                record = self.journal.pending_result(
                    circuit_name, label, seed, scale
                )
                if record is not None:
                    self._accept(
                        seed, record, results, failures,
                        expiries[seed], ran_locally[seed],
                    )
                    outstanding.remove(seed)
                    progressed = True
                    continue
                if self.degraded:
                    self._run_local(
                        circuit_name, compiled, config, seed, scale,
                        label, digest,
                    )
                    ran_locally[seed] = True
                    progressed = True
                    continue
                lease = self.journal.lease_for(
                    circuit_name, label, seed, scale
                )
                if lease is None or now < float(lease["expires_at"]):
                    continue
                # Reap: the lease expired with no sealed result.
                expiries[seed] += 1
                self.collector.inc("campaign.lease.expired")
                if expiries[seed] > self.policy.max_retries:
                    # Out of re-lease budget: degrade stickily — this
                    # cell and every later one run locally in-process.
                    self.degraded = True
                    self.collector.inc("campaign.lease.degraded")
                    self._run_local(
                        circuit_name, compiled, config, seed, scale,
                        label, digest,
                    )
                    ran_locally[seed] = True
                    progressed = True
                    continue
                host = self._pick_host()
                if host != lease.get("host"):
                    self.collector.inc("campaign.lease.stolen")
                self.journal.grant_lease(
                    circuit_name, label, seed, scale, digest,
                    host=host, ttl=self.policy.task_timeout, config=config_json,
                    fingerprint=fingerprint, collect=collect,
                )
                progressed = True
            if outstanding and not progressed:
                time.sleep(self.poll)
        return results, failures

    def _accept(
        self,
        seed: int,
        record: dict,
        results: Dict[int, TestGenResult],
        failures: Dict[int, SeedFailure],
        expiry_count: int,
        ran_locally: bool,
    ) -> None:
        """Fold one sealed cell record into the aggregate-shaped output."""
        if record.get("status") == "ok":
            results[seed] = result_from_json(record["result"])
        else:
            failures[seed] = SeedFailure(
                seed=seed,
                error=record.get("error", "unknown worker failure"),
                attempts=int(record.get("attempts", 1)),
            )
        host = record.get("host")
        if not ran_locally:
            # Local runs already counted via the journal's own
            # record_cell; worker-sealed cells count on the coordinator.
            name = "campaign.cells.completed" if record.get("status") == "ok" \
                else "campaign.cells.failed"
            self.collector.inc(name)
        trace = record.get("trace")
        if trace and self.collector.enabled and host:
            self.collector.merge_worker_trace(f"host.{host}", trace)
        if expiry_count > 0:
            self.collector.inc("campaign.lease.healed")

    def _run_local(
        self,
        circuit_name: str,
        compiled,
        config: TestGenConfig,
        seed: int,
        scale: float,
        label: str,
        digest: str,
    ) -> None:
        """Degraded path: execute one cell in-process and seal it.

        The sealed record is *not* returned directly — the main loop
        re-reads the journal and accepts whatever record won
        arbitration, so a stalled worker that sealed first still wins
        (results are identical either way; the arbitration only decides
        whose trace is attached).
        """
        try:
            outcome = _run_one_seed(
                compiled, config, seed,
                self.collector if self.collector.enabled else None,
            )
        except Exception as exc:
            detail = str(exc).strip() or type(exc).__name__
            outcome = SeedFailure(
                seed=seed, error=f"{type(exc).__name__}: {detail}", attempts=1
            )
        _seal_cell(self.journal, circuit_name, seed, outcome, scale=scale,
                   label=label, digest=digest, host="coordinator")

    def close(self) -> None:
        """Seal the campaign-close marker; workers drain and exit."""
        self.journal.record_close()


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------


def _next_claimable(
    journal: CampaignJournal, host: str, now: float
) -> Optional[dict]:
    """The lowest-``seq`` live lease addressed to ``host``, or ``None``.

    A lease is claimable iff it is the cell's *latest* lease, the cell
    has no sealed result yet, and — checked here, at claim time — its
    TTL has not already expired (an expired lease belongs to the
    coordinator's reaper; executing it anyway would only produce a
    duplicate for arbitration to discard).
    """
    candidates = [
        lease for lease in journal.leases()
        if lease.get("host") == host
        and float(lease["expires_at"]) > now
        and journal.pending_result(
            lease["circuit"], lease["label"], lease["seed"], lease["scale"]
        ) is None
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda lease: int(lease["seq"]))


def _execute_lease(
    journal: CampaignJournal,
    lease: dict,
    chaos: Optional[ChaosConfig],
    host: str,
) -> None:
    """Run one leased cell through the per-seed pool and seal the result.

    A lease whose circuit does not resolve here (an unknown name, a
    missing or malformed ``.bench`` file), or resolves to a netlist
    other than the coordinator's (another file behind one ``.bench``
    path), or whose config this build cannot read, is sealed as a
    failed cell naming this host.
    """
    circuit = lease["circuit"]
    label = lease["label"]
    seed = int(lease["seed"])
    scale = float(lease["scale"])
    digest = lease["config_digest"]
    if chaos is not None:
        action = chaos.decide_host(int(lease["seq"]))
        if action == "worker-vanish":
            os._exit(86)
        elif action == "lease-stall":
            # Sleep past the lease TTL, then proceed anyway: the
            # coordinator reaps and re-leases meanwhile, and this
            # worker's late seal becomes a duplicate for
            # first-sealed-ok-wins arbitration.
            time.sleep(max(0.0, float(lease["expires_at"]) - time.time()) + 0.2)
    collect = bool(lease.get("collect"))
    cellcol = (
        TelemetryCollector(source="repro.harness.campaign-worker")
        if collect else NullCollector()
    )
    try:
        config = config_from_json(lease["config"])
        compiled = compiled_circuit_for(circuit, scale)
        check_fingerprint(lease, compiled.circuit, what="lease")
    except (CheckpointError, ValueError) as exc:
        outcome: Union[TestGenResult, SeedFailure] = SeedFailure(
            seed=seed, error=f"host {host}: {type(exc).__name__}: {exc}",
            attempts=1,
        )
    else:
        results, failures = _run_seed_pool(compiled, config, [seed], 1, cellcol)
        outcome = results[seed] if seed in results else failures[seed]
    _seal_cell(
        journal, circuit, seed, outcome,
        scale=scale, label=label, digest=digest,
        host=host, trace=cellcol.records() if collect else None,
    )


def campaign_worker_main(
    journal_path: Union[str, Path],
    host: str,
    *,
    poll: float = 0.1,
    max_idle: Optional[float] = 60.0,
    once: bool = False,
) -> int:
    """The ``gatest campaign-worker`` loop: claim, execute, seal, repeat.

    Attaches to ``journal_path`` as a peer writer (waiting up to
    ``max_idle`` seconds for the coordinator to create it), then polls:
    claim the next live lease addressed to ``host``, execute it through
    the PR 5 self-healing seed pool, seal the result back.  Exits 0
    when the journal carries a campaign-close marker, when ``max_idle``
    seconds pass with nothing claimable, or — with ``once`` — as soon
    as one scan finds nothing claimable.

    A malformed ``REPRO_CHAOS`` spec fails loudly *here*, before any
    lease is touched, instead of deep inside a pool worker.
    """
    chaos = ChaosConfig.from_env()  # raises ValueError on a bad spec
    path = Path(journal_path)
    wait_budget = max_idle if max_idle is not None else 60.0
    deadline = time.monotonic() + wait_budget
    while not path.exists():
        if time.monotonic() >= deadline:
            raise CheckpointError(
                f"campaign journal {path} did not appear within "
                f"{wait_budget:.0f}s; is the coordinator running?"
            )
        time.sleep(poll)
    journal = CampaignJournal.open(path, collector=NullCollector())
    last_activity = time.monotonic()
    while True:
        journal.refresh()
        if journal.closed:
            return 0
        lease = _next_claimable(journal, host, time.time())
        if lease is not None:
            _execute_lease(journal, lease, chaos, host)
            last_activity = time.monotonic()
            continue
        if once:
            return 0
        if (max_idle is not None
                and time.monotonic() - last_activity > max_idle):
            return 0
        time.sleep(poll)
