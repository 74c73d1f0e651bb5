"""Job model, validation, ledger, and the worker pool behind the service.

One :class:`JobManager` owns everything between "HTTP request accepted"
and "result JSON ready":

* **Validation** — :func:`parse_job` turns a ``POST /jobs`` payload into
  a :class:`JobSpec`, constructing a real
  :class:`~repro.core.config.TestGenConfig` from the request's
  ``config`` object so every field check (types, ranges, unknown keys)
  is the library's own, not a parallel schema that could drift.
* **Coalescing** — identical in-flight requests (same canonical payload
  digest, the circuit spelled by its canonical key) collapse onto one
  job: deterministic seeds mean the result is the same, so running it
  twice is pure waste (``service.jobs.coalesced``).
* **Warm execution** — fsim and run jobs lease a resident simulator from the
  :class:`~repro.service.state.WarmRegistry` and lend it to
  :class:`~repro.core.generator.GaTestGenerator` via its ``fsim``
  parameter, so repeat requests skip parse/levelize/kernel-compile and
  reuse warm worker pools.
* **Process tier** — run jobs execute in the supervised worker pool
  of :mod:`repro.service.tier` (deadline, checkpoint-resuming retries,
  hard teardown + respawn, chaos hooks), with *sticky degradation*
  back to bit-identical in-thread execution when the pool gives up
  (``service.jobs.degraded``).  Worker threads keep scheduling and
  fsim jobs; they just stop hosting the GA runs themselves.
* **Control plane** — an integer ``priority`` orders the queue
  (highest first, FIFO within a priority); :meth:`JobManager.cancel`
  (``DELETE /jobs/<id>``) cancels queued jobs immediately and preempts
  running run jobs cooperatively — the generator writes a final
  ``preempted`` checkpoint at its next stage boundary, so resubmitting
  the identical config resumes bit-identically; a bounded queue
  (``queue_max``, ``gatest serve --queue-max``) rejects overflow with
  :class:`QueueFullError` (HTTP 429 + ``Retry-After``) *before*
  anything is ledgered, so every accepted job is durable.
* **Ledger + recovery** — every accepted/completed/failed transition is
  appended to a sealed log, the per-line-hashed JSONL file campaign
  journals use (:mod:`repro.core.checkpoint`).  On restart,
  accepted-but-unfinished jobs are re-enqueued; those with a run
  checkpoint on disk resume from it bit-identically (PR 4 contract),
  the rest re-run from scratch — deterministic seeds make that
  equivalent (``service.jobs.resumed``).  A corrupt ledger line stops
  the restart with a :class:`~repro.core.checkpoint.CheckpointError`
  naming it.
* **Telemetry** — each job records into its own
  :class:`StreamingCollector`, the only copy of its trace (live
  ``GET /jobs/<id>/events`` stream, schema-valid JSONL trace); a
  tier-run job folds its worker's trace in unscoped, so it reads like
  an in-thread one.  At completion the service collector takes the
  job's counters, which ``GET /healthz`` serves, and none of its events.

See docs/SERVICE.md for the wire formats and operational contract.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..circuit.library import canonical_spec
from ..core.checkpoint import (
    append_journal_record,
    canonical_sha256,
    config_to_json,
    load_sealed_log,
)
from ..core.config import DEFAULT_CHECKPOINT_EVERY, TestGenConfig
from ..parallel.resilience import JOB_RETRIES_ENV, JOB_TIMEOUT_ENV, RetryPolicy
from ..parallel.supervisor import PoolGaveUp
from ..sim.compile import compiled_circuit_for
from ..telemetry import NullCollector, TelemetryCollector, get_collector
from .state import CircuitKey, WarmRegistry
from .tier import execute_run_job, open_tier, run_tier_job

#: Seconds a rejected client is told to wait before retrying.
RETRY_AFTER_SECONDS = 1

#: Job lifecycle states.  ``queued -> running -> done | failed`` is the
#: normal flow; ``cancelled`` is a queued job killed by ``DELETE``
#: before execution, ``preempted`` is a running run job stopped
#: cooperatively at a stage boundary (resumable via resubmission).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "preempted")

class JobValidationError(ValueError):
    """A job request payload is malformed (HTTP layer maps this to 400)."""


class QueueFullError(Exception):
    """Admission control rejected a submission: the queue is at
    ``queue_max``.  Raised *before* the job is ledgered — a rejected
    request leaves no trace, so every ledgered job is durable.  The
    HTTP layer maps this to ``429`` with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: int = RETRY_AFTER_SECONDS) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class StreamingCollector(TelemetryCollector):
    """A recording collector whose records can also be *streamed* live.

    The base collector only exposes the finished trace (:meth:`records`);
    the event-stream endpoint needs records as they happen.  While the
    job runs, the stream is the ``meta`` record followed by the events
    recorded so far; once :meth:`finish_stream` runs it is
    :meth:`records`, which appends the final ``counter`` records, so
    what a client collects is exactly a valid trace per
    docs/TELEMETRY.md (``validate_trace`` passes on it).  The events
    list is the only copy: a read slices it.
    """

    def __init__(self, source: str) -> None:
        super().__init__(source=source)
        self._stream_cond = threading.Condition()
        self._stream_done = False

    def _emit(self, record: dict) -> None:
        with self._stream_cond:
            super()._emit(record)
            self._stream_cond.notify_all()

    def finish_stream(self) -> None:
        """Mark the stream complete: readers get the final counters."""
        with self._stream_cond:
            self._stream_done = True
            self._stream_cond.notify_all()

    def stream_read(self, start: int, timeout: float = 0.5) -> Tuple[List[dict], bool]:
        """Records from index ``start`` on, waiting up to ``timeout``.

        Returns ``(new_records, finished)``; ``finished`` is only True
        once the stream is complete *and* the caller has everything.
        """
        with self._stream_cond:
            if not self._stream_done and start > len(self._events):
                self._stream_cond.wait(timeout)
            if self._stream_done:
                return self.records()[start:], True
            if start == 0:
                return [dict(self._meta), *self._events], False
            return self._events[start - 1:], False


# ----------------------------------------------------------------------
# Job specs
# ----------------------------------------------------------------------


@dataclass
class JobSpec:
    """A validated job request (what :func:`parse_job` produces)."""

    kind: str                            # "run" | "fsim"
    circuit: str                         # the request's spec, as spelled
    key: CircuitKey                      # its canonical key (seed 0 for run)
    config: TestGenConfig                # simulator-shaping config
    vectors: Optional[List[List[int]]]   # fsim only
    checkpoint_every: int                # run only
    payload: dict                        # canonical raw request (for the ledger)
    digest: str                          # coalescing digest (see parse_job)
    priority: int = 0                    # queue ordering (higher first)
    deadline_s: Optional[float] = None   # run only: per-attempt deadline


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobValidationError(message)


def parse_job(payload: object) -> JobSpec:
    """Validate a ``POST /jobs`` payload into a :class:`JobSpec`.

    Raises :class:`JobValidationError` with a client-actionable message
    on any malformation, a circuit :func:`canonical_spec` refuses
    included; config errors carry ``TestGenConfig``'s own diagnostics.
    The coalescing digest hashes the payload with its circuit spelled by
    the canonical key (scale 1.0 and seed 0 left out), so every spelling
    of one circuit digests alike, and a payload spelled that way already
    keeps the digest, and so the job id, of its own bytes.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    kind = payload.get("kind")
    _require(kind in ("run", "fsim"), "field 'kind' must be 'run' or 'fsim'")
    circuit = payload.get("circuit")
    _require(
        isinstance(circuit, str) and bool(circuit),
        "field 'circuit' must be a non-empty string",
    )
    scale = payload.get("scale", 1.0)
    _require(
        isinstance(scale, (int, float)) and not isinstance(scale, bool) and scale > 0,
        "field 'scale' must be a positive number",
    )
    priority = payload.get("priority", 0)
    _require(
        isinstance(priority, int) and not isinstance(priority, bool),
        "field 'priority' must be an integer",
    )
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        _require(kind == "run", "field 'deadline_s' only applies to run jobs")
        _require(
            isinstance(deadline_s, (int, float))
            and not isinstance(deadline_s, bool),
            "field 'deadline_s' must be a positive number",
        )
        try:
            RetryPolicy(task_timeout=deadline_s)
        except ValueError as exc:
            raise JobValidationError(f"field 'deadline_s': {exc}") from None
        deadline_s = float(deadline_s)
    if kind == "run":
        allowed = {"kind", "circuit", "scale", "config", "checkpoint_every",
                   "priority", "deadline_s"}
        config_raw = payload.get("config", {})
        _require(isinstance(config_raw, dict), "field 'config' must be an object")
        try:
            config = TestGenConfig(**config_raw)
        except (TypeError, ValueError) as exc:
            raise JobValidationError(f"invalid config: {exc}") from exc
        checkpoint_every = payload.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY)
        _require(
            isinstance(checkpoint_every, int) and not isinstance(checkpoint_every, bool)
            and checkpoint_every >= 1,
            "field 'checkpoint_every' must be a positive integer",
        )
        seed = 0  # the GA seed never chooses the circuit
        vectors = None
    else:
        allowed = {"kind", "circuit", "scale", "seed", "kernel", "vectors",
                   "priority"}
        seed = payload.get("seed", 0)
        _require(
            isinstance(seed, int) and not isinstance(seed, bool),
            "field 'seed' must be an integer",
        )
        try:
            config = TestGenConfig(seed=seed, sim_kernel=payload.get("kernel"))
        except (TypeError, ValueError) as exc:
            raise JobValidationError(f"invalid kernel: {exc}") from exc
        vectors = payload.get("vectors")
        _require(
            isinstance(vectors, list) and bool(vectors),
            "field 'vectors' must be a non-empty list of bit vectors",
        )
        width = None
        for i, vec in enumerate(vectors):
            _require(
                isinstance(vec, list) and bool(vec)
                and all(bit in (0, 1) and not isinstance(bit, bool) for bit in vec),
                f"vectors[{i}] must be a non-empty list of 0/1 bits",
            )
            if width is None:
                width = len(vec)
            _require(
                len(vec) == width,
                f"vectors[{i}] has {len(vec)} bits, expected {width}",
            )
        checkpoint_every = DEFAULT_CHECKPOINT_EVERY
    unknown = sorted(set(payload) - allowed)
    _require(not unknown, f"unknown field(s): {', '.join(unknown)}")
    try:
        key = canonical_spec(circuit, float(scale), seed)
    except ValueError as exc:
        raise JobValidationError(str(exc)) from exc
    canonical = {name: payload[name] for name in sorted(payload)}
    spelled = {name: value for name, value in canonical.items()
               if name not in ("circuit", "scale", "seed")}
    spelled["circuit"] = key[0]
    if key[1] != 1.0:
        spelled["scale"] = key[1]
    if key[2]:
        spelled["seed"] = key[2]
    return JobSpec(
        kind=kind,
        circuit=circuit,
        key=key,
        config=config,
        vectors=vectors,
        checkpoint_every=checkpoint_every,
        payload=canonical,
        digest=canonical_sha256(spelled),
        priority=priority,
        deadline_s=deadline_s,
    )


def run_key(spec: JobSpec, config: TestGenConfig) -> str:
    """The stable identity of one deterministic run — and therefore of
    its checkpoint file.

    Keyed on the circuit's canonical key (so every spelling of one
    circuit shares one checkpoint) plus the *effective* (per-circuit)
    config's result-affecting digest; scheduling fields
    (``priority``, ``deadline_s``, ``checkpoint_every``) and execution
    knobs are excluded, so a resubmission of the same canonical run —
    even at a different priority or deadline — maps to the same
    checkpoint and resumes the work a preempted or killed predecessor
    left behind.
    """
    return canonical_sha256([*spec.key, config.digest()])[:16]


# ----------------------------------------------------------------------
# Jobs and the ledger
# ----------------------------------------------------------------------


@dataclass
class Job:
    """One accepted job and everything the API serves about it."""

    id: str
    seq: int
    spec: JobSpec
    status: str = "queued"
    result: Optional[dict] = None
    error: Optional[str] = None
    resumed: bool = False
    coalesced: int = 0
    collector: StreamingCollector = field(init=False)
    cancel_event: threading.Event = field(init=False)

    def __post_init__(self) -> None:
        self.collector = StreamingCollector(source=f"repro.service.job.{self.id}")
        self.cancel_event = threading.Event()

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "circuit": self.spec.circuit,
            "status": self.status,
            "result": self.result,
            "error": self.error,
            "resumed": self.resumed,
            "coalesced": self.coalesced,
            "priority": self.spec.priority,
            "cancel_requested": self.cancel_event.is_set(),
        }


class JobLedger:
    """The sealed log of every job state transition (``ledger.jsonl``).

    Written and read like a campaign journal
    (:func:`~repro.core.checkpoint.append_journal_record` /
    :func:`~repro.core.checkpoint.load_sealed_log`): each transition is
    one flocked, fsynced line, so an accepted job survives a service
    SIGKILL.  A torn final line (killed mid-append) is dropped on load
    and cut by the next append; a corrupt line anywhere else raises
    :class:`~repro.core.checkpoint.CheckpointError` naming it.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    def append(self, record: dict) -> None:
        append_journal_record(self.path, record)

    def load(self) -> List[dict]:
        """All committed records, oldest first (none before the first
        append)."""
        return load_sealed_log(self.path) if self.path.exists() else []


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------


class JobManager:
    """Accepts, schedules, executes, and recovers jobs.

    ``state_dir`` holds the ledger (``ledger.jsonl``) and run
    checkpoints (``checkpoints/run-<runkey>.ckpt``, keyed by the job's
    deterministic :func:`run_key` so resubmissions resume prior work);
    pass the same directory to a restarted service and unfinished jobs
    are recovered; a corrupt ledger line raises
    :class:`~repro.core.checkpoint.CheckpointError` here.  ``workers``
    threads schedule the queue (run jobs execute in the process tier
    unless ``use_tier=False`` or the tier degrades); with one worker,
    execution order (and therefore the service telemetry trace) is
    deterministic.  ``cache_size`` bounds the resident simulators of
    the manager and of every tier worker (``None``: 8); ``queue_max``
    bounds the number of queued jobs (``None``: unbounded).
    """

    def __init__(
        self,
        state_dir: Path,
        collector: Optional[NullCollector] = None,
        workers: int = 2,
        cache_size: Optional[int] = None,
        queue_max: Optional[int] = None,
        use_tier: bool = True,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.collector = collector if collector is not None else get_collector()
        # First: it parses REPRO_CHAOS, failing before any state is touched.
        self.tier = (
            open_tier(self.collector, max(1, workers), cache_size)
            if use_tier else None
        )
        self.registry = WarmRegistry(collector=self.collector, max_sims=cache_size)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.ledger = JobLedger(self.state_dir / "ledger.jsonl")
        self.queue_max = queue_max
        self._tier_degraded = False
        self._cond = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._by_digest: Dict[str, str] = {}  # digest -> newest job id
        self._seq = 0
        self._stop = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"job-worker-{i}", daemon=True)
            for i in range(max(1, workers))
        ]
        self._recover()
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------

    def submit(self, payload: object) -> Tuple[Job, bool]:
        """Validate and enqueue a job; returns ``(job, coalesced)``.

        Raises :class:`JobValidationError` (HTTP 400) on a bad payload
        or an unresolvable circuit, and :class:`QueueFullError` (HTTP
        429) when admission control rejects — checked *before* the
        ledger append, so a rejected request is never ledgered.  An
        identical queued/running job absorbs the request instead of
        enqueueing a duplicate (coalescing is exempt from the queue
        bound: it adds no queue entry).
        """
        spec = parse_job(payload)
        # Resolve (and warm) the circuit now so an unknown name or a
        # malformed file is a 400 at submit, not a failed job later.
        try:
            compiled_circuit_for(*spec.key)
        except ValueError as exc:
            raise JobValidationError(str(exc)) from exc
        with self._cond:
            existing_id = self._by_digest.get(spec.digest)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if existing.status in ("queued", "running"):
                    existing.coalesced += 1
                    if self.collector.enabled:
                        self.collector.inc("service.jobs.coalesced")
                    return existing, True
            if self.queue_max is not None:
                depth = sum(
                    1 for j in self._jobs.values() if j.status == "queued"
                )
                if depth >= self.queue_max:
                    if self.collector.enabled:
                        self.collector.inc("service.queue.rejected")
                    raise QueueFullError(
                        f"queue is full ({depth} of {self.queue_max} slots); "
                        "retry later"
                    )
            job = self._accept(spec)
            self._cond.notify_all()
        self.ledger.append(
            {"event": "accepted", "id": job.id, "seq": job.seq,
             "payload": spec.payload}
        )
        return job, False

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel or preempt a job; returns its (possibly unchanged)
        status, or ``None`` for an unknown id.

        A *queued* job goes terminal (``cancelled``) immediately and is
        ledgered as such.  A *running* run job is preempted
        cooperatively: the stop file is touched and the cancel event
        set, the generator observes it at its next stage boundary,
        writes a final ``preempted`` checkpoint and the job lands in
        the ``preempted`` terminal state — the returned status is still
        ``running`` until that happens, so callers poll.  Running fsim
        jobs are single wide-word passes with no stage boundaries —
        they are not preemptible and simply finish.  Terminal jobs are
        a no-op (idempotent delete).
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.status == "queued":
                # Off the queue before a worker can take it; _finish
                # records the terminal transition outside the lock
                # (ledger appends fsync).
                job.status = "cancelled"
            elif job.status == "running":
                job.cancel_event.set()
                if job.spec.kind == "run":
                    self._stop_path(job).touch()
                return job.status
            else:
                return job.status
        self._finish(job, error="cancelled before execution",
                     status="cancelled")
        return "cancelled"

    def _accept(
        self,
        spec: JobSpec,
        resumed: bool = False,
        job_id: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Job:
        """Register a queued job (caller holds the lock).

        ``job_id``/``seq`` are only passed by ledger recovery, which
        preserves a job's identity across a service restart so clients
        keep polling the id they were given.
        """
        if seq is None:
            self._seq += 1
            seq = self._seq
        else:
            self._seq = max(self._seq, seq)
        if job_id is None:
            job_id = f"j{seq:04d}-{spec.digest[:8]}"
        job = Job(id=job_id, seq=seq, spec=spec)
        job.resumed = resumed
        self._jobs[job.id] = job
        self._by_digest[spec.digest] = job.id
        if self.collector.enabled:
            self.collector.inc("service.jobs.accepted")
        return job

    # -- lookup --------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._cond:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def stats(self) -> dict:
        counts = {state: 0 for state in JOB_STATES}
        with self._cond:
            for job in self._jobs.values():
                counts[job.status] += 1
        return counts

    def queue_stats(self) -> dict:
        """Queue saturation for ``GET /healthz``: depth, bound, and
        queued counts per priority (keys are priority values as
        strings, JSON-object friendly)."""
        by_priority: Dict[str, int] = {}
        with self._cond:
            queued = [j for j in self._jobs.values() if j.status == "queued"]
        for job in queued:
            key = str(job.spec.priority)
            by_priority[key] = by_priority.get(key, 0) + 1
        return {
            "depth": len(queued),
            "max": self.queue_max,
            "by_priority": by_priority,
        }

    def tier_stats(self) -> dict:
        """Process-tier state for ``GET /healthz``."""
        stats = self.tier.stats() if self.tier is not None else {
            "workers": 0, "live": False, "restarts": 0, "retries": 0,
        }
        stats["enabled"] = self.tier is not None
        stats["degraded"] = self._tier_degraded
        return stats

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running (for tests/shutdown)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not any(
                    j.status in ("queued", "running") for j in self._jobs.values()
                ),
                timeout,
            )

    # -- recovery ------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the job table from the ledger; re-enqueue unfinished jobs.

        Finished jobs are restored verbatim (same id, stored result) so
        ``GET /jobs/<id>`` keeps answering across restarts; jobs that
        were accepted but never reached a terminal state are re-queued
        under their original id — with ``resume`` armed if their run
        checkpoint survived, in which case the finished run is
        bit-identical to an uninterrupted one (PR 4 contract), and from
        scratch otherwise, which the deterministic seed makes
        equivalent.  An accepted job whose payload no longer validates
        is dropped, counted as ``service.jobs.unrecoverable`` and named
        on stderr.
        """
        finished: Dict[str, dict] = {}
        accepted: List[dict] = []
        for record in self.ledger.load():
            event = record.get("event")
            if event == "accepted":
                accepted.append(record)
            elif event in ("completed", "failed", "cancelled", "preempted"):
                finished[record["id"]] = record
        for record in accepted:
            job_id = record.get("id", "")
            try:
                spec = parse_job(record.get("payload"))
                seq = int(record.get("seq", 0))
            except (JobValidationError, TypeError, ValueError) as exc:
                # A payload an older build accepted but this one rejects
                # (a removed kernel, say) cannot be re-queued; name it
                # rather than let the job vanish without a trace.
                if self.collector.enabled:
                    self.collector.inc("service.jobs.unrecoverable")
                print(
                    f"service: ledger job {job_id!r} cannot be recovered "
                    f"and is dropped: {exc}",
                    file=sys.stderr,
                )
                continue
            final = finished.get(job_id)
            with self._cond:
                job = self._accept(
                    spec, resumed=final is None, job_id=job_id, seq=seq
                )
                if final is not None:
                    job.resumed = False
                    job.status = {
                        "completed": "done", "failed": "failed",
                        "cancelled": "cancelled", "preempted": "preempted",
                    }[final["event"]]
                    job.result = final.get("result")
                    job.error = final.get("error")
                elif self.collector.enabled:
                    self.collector.inc("service.jobs.resumed")
            if job.status != "queued":
                job.collector.finish_stream()

    # -- execution -----------------------------------------------------

    def _checkpoint_path(self, job: Job, config: TestGenConfig) -> Path:
        """The job's run checkpoint, keyed by :func:`run_key` — not the
        job id — so a resubmission of the same canonical run (after a
        preemption, a crash, or at a different priority) finds and
        resumes the prior attempt's checkpoint."""
        root = self.state_dir / "checkpoints"
        root.mkdir(parents=True, exist_ok=True)
        return root / f"run-{run_key(job.spec, config)}.ckpt"

    def _stop_path(self, job: Job) -> Path:
        """The job's preemption stop file (touched by :meth:`cancel`,
        polled by the generator's stop hook — existence *is* the
        signal, which crosses the process-tier boundary for free)."""
        root = self.state_dir / "checkpoints"
        root.mkdir(parents=True, exist_ok=True)
        return root / f"{job.id}.stop"

    @staticmethod
    def queue_order(jobs) -> List[Job]:
        """Queued jobs in dispatch order: highest ``priority`` first,
        FIFO (submission ``seq``) within a priority."""
        return sorted(
            (j for j in jobs if j.status == "queued"),
            key=lambda j: (-j.spec.priority, j.seq),
        )

    def _worker(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: self._stop
                    or any(j.status == "queued" for j in self._jobs.values())
                )
                if self._stop:
                    return
                job = self.queue_order(self._jobs.values())[0]
                job.status = "running"
            try:
                if job.spec.kind == "run":
                    self._execute_run(job)
                else:
                    self._execute_fsim(job)
            except Exception as exc:  # pragma: no cover - last-resort guard
                self._finish(job, error=f"{type(exc).__name__}: {exc}")

    def _finish(self, job: Job, result: Optional[dict] = None,
                error: Optional[str] = None,
                status: Optional[str] = None) -> None:
        """Record a terminal state: ledger, counters, wake.

        ``status`` defaults to ``done``/``failed`` from ``error``;
        pass ``"preempted"`` for a cooperative stop and ``"cancelled"``
        for a queued job's cancel.  The event stream is completed
        *after* the status flip so a client that drains the stream to
        its end is guaranteed to see a terminal status on its next
        poll.  The service collector then takes the job's counters
        (``GET /healthz`` serves them); the job's trace stays on the
        job's own collector only.
        """
        if status is None:
            status = "done" if error is None else "failed"
        event = {
            "done": "completed", "failed": "failed",
            "cancelled": "cancelled", "preempted": "preempted",
        }[status]
        record = {"event": event, "id": job.id}
        if status == "done":
            record["result"] = result
        else:
            record["error"] = error
        self.ledger.append(record)
        if self.collector.enabled:
            self.collector.inc(f"service.jobs.{event}")
        if job.spec.kind == "run":
            # A consumed stop request must not leak into a future job
            # that happens to reuse this id after recovery.
            self._stop_path(job).unlink(missing_ok=True)
        with self._cond:
            job.result = result
            job.error = error
            job.status = status
            self._cond.notify_all()
        job.collector.finish_stream()
        if self.collector.enabled:
            for name, value in job.collector.counters.items():
                self.collector.inc(name, value)

    def _job_policy(self, spec: JobSpec) -> RetryPolicy:
        """Deadline/retry policy for one run job: the request's
        ``deadline_s`` beats ``REPRO_JOB_TIMEOUT`` beats no deadline;
        retries come from ``REPRO_JOB_RETRIES``."""
        return RetryPolicy.from_env(
            task_timeout=spec.deadline_s,
            timeout_env=JOB_TIMEOUT_ENV,
            retries_env=JOB_RETRIES_ENV,
            default_timeout=None,
        )

    def _execute_run(self, job: Job) -> None:
        spec = job.spec
        compiled = compiled_circuit_for(*spec.key)
        # The per-circuit overrides the generator applies itself:
        # run_key hashes the effective config, so two requests that
        # differ only in a field a deep circuit overrides are one run
        # with one checkpoint.  (sim_key reads none of those fields.)
        config = spec.config.for_circuit(compiled.circuit.name)
        checkpoint = self._checkpoint_path(job, config)
        stop_path = self._stop_path(job)
        outcome = None
        if self.tier is not None and not self._tier_degraded:
            task = {
                "key": spec.key,
                "config": config_to_json(config),
                "checkpoint_path": str(checkpoint),
                "stop_path": str(stop_path),
                "checkpoint_every": spec.checkpoint_every,
            }
            try:
                status, payload, records = self.tier.run(
                    run_tier_job, [(task,)], self._job_policy(spec)
                )[0]
            except PoolGaveUp:
                # Sticky degradation: from here on every run job takes
                # the bit-identical in-thread path.  *This* job resumes
                # from whatever checkpoint its tier attempts wrote, so
                # the failed attempts' work is not lost.
                self._tier_degraded = True
            else:
                job.collector.merge_worker_trace(None, records)
                outcome = (status, payload)
        if outcome is None:
            if self._tier_degraded and self.collector.enabled:
                self.collector.inc("service.jobs.degraded")
            outcome = execute_run_job(
                self.registry, job.collector, spec.key, config, checkpoint,
                spec.checkpoint_every,
                stop=lambda: job.cancel_event.is_set() or stop_path.exists(),
            )
        status, payload = outcome
        if status == "done":
            self._finish(job, result=payload)
        elif status == "preempted":
            self._finish(job, error="preempted by DELETE", status="preempted")
        else:
            self._finish(job, error=payload)

    def _execute_fsim(self, job: Job) -> None:
        """Score one fsim job's vectors in one one-candidate pass from
        power-up (``evaluate``'s ``detected`` equals ``commit``'s total
        detections for the same vectors)."""
        spec = job.spec
        circuit = compiled_circuit_for(*spec.key).circuit
        if len(spec.vectors[0]) != circuit.num_inputs:
            self._finish(
                job,
                error=(
                    f"vectors are {len(spec.vectors[0])} bits wide, circuit "
                    f"{circuit.name} has {circuit.num_inputs} primary inputs"
                ),
            )
            return
        sim = self.registry.lease(spec.key, spec.config)
        try:
            total_faults = sim.num_faults
            with job.collector.span("service.fsim", circuit=circuit.name):
                detected = sim.evaluate(spec.vectors).detected
        except Exception as exc:
            self.registry.discard(sim)
            self._finish(job, error=f"{type(exc).__name__}: {exc}")
            return
        self.registry.release(spec.key, spec.config, sim)
        self._finish(
            job,
            result={
                "circuit_name": circuit.name,
                "detected": detected,
                "total_faults": total_faults,
                "fault_coverage": detected / total_faults if total_faults else 0.0,
                "vectors": len(spec.vectors),
            },
        )

    # -- teardown ------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Stop workers (after in-flight jobs finish), tear down the
        process tier, and close the cache.

        Worker threads that outlive the join timeout are *stragglers* —
        daemon threads wedged on a job that will die with the process.
        Leaking them silently would hide a hung service from operators,
        so they are counted (``service.close.stragglers``) and the jobs
        they were running are named on stderr.
        """
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        stragglers = [t for t in self._threads if t.is_alive()]
        if stragglers:
            with self._cond:
                stuck = sorted(
                    j.id for j in self._jobs.values() if j.status == "running"
                )
            if self.collector.enabled:
                self.collector.inc("service.close.stragglers", len(stragglers))
            names = ", ".join(t.name for t in stragglers)
            jobs = ", ".join(stuck) if stuck else "none identifiable"
            print(
                f"service: close() leaked {len(stragglers)} worker "
                f"thread(s) past the {timeout:.0f}s join timeout "
                f"({names}); running job(s): {jobs}",
                file=sys.stderr,
            )
        if self.tier is not None:
            self.tier.close()
        self.registry.close()
