"""Process-pool teardown.

:func:`reap_pool` is the hard teardown of
:class:`~repro.parallel.supervisor.SupervisedPool`, the one pool type
in the stack: a worker that died or hung never answers a graceful
``shutdown()``, so the pool must be cancelled, its processes terminated
outright, and the corpses reaped.  :func:`close_quietly` is the
idempotent counterpart for anything exposing ``close()`` (a
:class:`~repro.faults.simulator.FaultSimulator`, a generator, an
evaluator) where teardown must never raise over an in-flight exception.
"""

from __future__ import annotations

from typing import Optional

#: Seconds to wait for each terminated worker before abandoning it.
JOIN_TIMEOUT = 5.0


def reap_pool(pool, join_timeout: float = JOIN_TIMEOUT) -> None:
    """Hard-stop a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Cancels queued work, terminates every worker process, then joins
    them and the executor's manager thread with a bounded timeout.  The
    manager thread of a broken pool terminates and joins the workers
    itself, concurrently; returning before it is done can leave a
    worker that still counts as a live child.  Safe on ``None``, on an
    already shut-down pool, and on a pool whose workers are wedged — a
    clean ``shutdown(wait=True)`` would block forever on a hung worker,
    which is exactly when this gets called.  Never raises.
    """
    if pool is None:
        return
    # Read both before shutdown(), which sets them to None.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for proc in processes:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for proc in processes:
        try:
            proc.join(timeout=join_timeout)
        except Exception:  # pragma: no cover - defensive
            pass
    if manager is not None:
        manager.join(timeout=join_timeout)


def close_quietly(closable: Optional[object]) -> None:
    """Call ``closable.close()``, swallowing every exception.

    The shutdown path runs inside ``finally`` blocks where a teardown
    error must not mask the real one; ``close()`` implementations in
    this stack are idempotent, so calling through here repeatedly is
    always safe.
    """
    if closable is None:
        return
    close = getattr(closable, "close", None)
    if close is None:
        return
    try:
        close()
    except Exception:  # pragma: no cover - defensive
        pass
