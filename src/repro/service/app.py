"""Service assembly and lifecycle: what ``gatest serve`` runs.

:func:`serve` wires the pieces together — service-level
:class:`~repro.telemetry.TelemetryCollector`, ledger/checkpoint state
directory, :class:`~repro.service.jobs.JobManager`,
:class:`~repro.service.http.ServiceServer` — and blocks until a
graceful shutdown is requested by ``POST /shutdown`` or by SIGTERM /
SIGINT.  On shutdown, in-flight jobs drain, resident simulators close
(no orphaned worker processes), and queued jobs stay in the ledger for
the next start to recover.

The socket is bound first, before any state is touched: an address
already in use ends the start with one ``error:`` line while the ledger
is still unread and no job has run.  The "listening on" line is printed
only once the manager is up, with the *actual* port — ``--port 0`` asks
the OS for an ephemeral port, and tests/scripts parse the line to find
it.
"""

from __future__ import annotations

import signal
import sys
import tempfile
from pathlib import Path
from typing import Optional

from ..telemetry import TelemetryCollector
from .http import ServiceServer
from ..core.checkpoint import CheckpointError
from .jobs import JobManager


def serve(
    host: str = "127.0.0.1",
    port: int = 8337,
    state_dir: Optional[str] = None,
    workers: int = 2,
    cache_size: Optional[int] = None,
    queue_max: Optional[int] = None,
) -> int:
    """Run the service until shutdown; returns a process exit status.

    With ``state_dir=None`` a throwaway directory is used: no recovery
    across restarts, but also no litter.  Pass a real directory to get
    the ledger/checkpoint/recovery behaviour described in
    docs/SERVICE.md; a corrupt ledger there stops the start with the
    line it names.  ``cache_size`` bounds the resident simulators
    (``None``: 8) and ``queue_max`` the queued-job count (``None``:
    unbounded).
    """
    try:
        server = ServiceServer(None, host=host, port=port)
    except OSError as exc:
        raise SystemExit(
            f"error: cannot listen on {host}:{port}: {exc.strerror or exc}"
        )
    collector = TelemetryCollector(source="repro.service")
    if state_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="gatest-service-")
        state_path = Path(scratch.name)
    else:
        scratch = None
        state_path = Path(state_dir)
        state_path.mkdir(parents=True, exist_ok=True)
    try:
        manager = JobManager(
            state_path,
            collector=collector,
            workers=workers,
            cache_size=cache_size,
            queue_max=queue_max,
        )
    except (CheckpointError, ValueError) as exc:
        # A corrupt ledger line, or a malformed REPRO_CHAOS spec.
        server.server_close()
        raise SystemExit(f"error: {exc}")
    server.manager = manager
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: server.request_shutdown())
    print(
        f"gatest-service listening on http://{server.host}:{server.port} "
        f"(state: {manager.state_dir})",
        flush=True,
    )
    try:
        server.serve()
    finally:
        if scratch is not None:
            scratch.cleanup()
    print("gatest-service: shut down cleanly", file=sys.stderr, flush=True)
    return 0
