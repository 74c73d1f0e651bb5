"""ATPG-as-a-service: a persistent job API over the GATEST stack.

``gatest run`` pays the full cold-start bill — parse/synthesize,
levelize, compile, build a simulation kernel, spin up worker pools —
on every invocation, then throws it all away.  This package keeps that
state **warm** in a long-lived process behind a small HTTP API
(stdlib-only; see docs/SERVICE.md for the full reference):

* :mod:`~repro.service.state` — keyed LRU registry of compiled
  circuits and leased resident fault simulators;
* :mod:`~repro.service.jobs` — job validation/priority queue/worker
  pool, request coalescing, shared wide-word fsim batching, admission
  control, cancellation/preemption, the sealed job ledger, and
  checkpoint-backed crash recovery;
* :mod:`~repro.service.tier` — the fault-isolated process execution
  tier for run jobs (deadlines, checkpoint-resuming retries, chaos
  hooks, sticky in-thread degradation);
* :mod:`~repro.service.http` — the threaded stdlib HTTP front
  (``POST /jobs``, ``GET /jobs/<id>``, ``DELETE /jobs/<id>``,
  ``GET /jobs/<id>/events``, ``GET /healthz``, ``POST /shutdown``);
* :mod:`~repro.service.client` — :class:`ServiceClient`, a thin
  ``http.client`` wrapper with transient-connection retry;
* :mod:`~repro.service.app` — :func:`serve`, the ``gatest serve``
  entry point.

Every result is bit-identical to the equivalent one-shot CLI run: jobs
are deterministic functions of (circuit spec, config), warm simulators
are reset to power-up before reuse, and recovery resumes through the
PR 4 run-checkpoint contract.
"""

from .app import serve
from .client import ServiceBusyError, ServiceClient, ServiceError
from .http import ServiceServer
from .jobs import (
    Job,
    JobLedger,
    JobManager,
    JobSpec,
    JobValidationError,
    QueueFullError,
    StreamingCollector,
    parse_job,
    run_key,
)
from .state import WarmRegistry, sim_key

__all__ = [
    "Job",
    "JobLedger",
    "JobManager",
    "JobSpec",
    "JobValidationError",
    "QueueFullError",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "StreamingCollector",
    "WarmRegistry",
    "parse_job",
    "run_key",
    "serve",
    "sim_key",
]
