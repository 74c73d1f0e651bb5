"""One supervised process pool for every pool owner in the stack.

The fault-sharded evaluator, the harness's seed pool and the service's
process tier all run on :class:`SupervisedPool`, which owns the failure
policy once (docs/ROBUSTNESS.md §1): pool creation, the task numbers
the ``REPRO_CHAOS`` hook keys on, the per-attempt deadline, hard
teardown, backoff and retry, and :class:`PoolGaveUp`, which the owner
catches and answers with its own in-process path.

``REPRO_CHAOS`` is parsed in the parent when the pool object is built,
so a malformed spec raises before any worker starts; workers get the
parsed config through the pool initializer.  The initializer also
records the owner's pid, and on Linux a worker exits once that process
is gone: a SIGKILLed owner strands no worker (nor the forkserver and
resource tracker the workers kept alive).  The owner's pid is watched
rather than ``getppid()`` because a forkserver worker's parent is the
server.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures import TimeoutError as FutureTimeout
from itertools import count
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..telemetry.collector import NullCollector, get_collector
from .resilience import ChaosConfig, RetryPolicy
from .shutdown import reap_pool

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


class PoolGaveUp(Exception):
    """A supervised task could not be completed.

    ``error`` describes the last failure and ``attempts`` counts the
    attempts made.  ``unsupported`` marks the other way to give up: this
    host cannot create worker processes, so nothing was attempted.
    """

    def __init__(self, error: str, attempts: int = 0,
                 unsupported: bool = False) -> None:
        super().__init__(error)
        self.error = error
        self.attempts = attempts
        self.unsupported = unsupported


# ----------------------------------------------------------------------
# Worker side (runs inside pool processes)
# ----------------------------------------------------------------------

#: This worker's chaos config, installed by the pool initializer.
_CHAOS: Optional[ChaosConfig] = None


def _init_worker(owner: int, chaos: Optional[ChaosConfig],
                 initializer: Optional[Callable], initargs: tuple) -> None:
    global _CHAOS
    _CHAOS = chaos
    threading.Thread(target=_exit_with_owner, args=(owner,), daemon=True,
                     name="owner-watch").start()
    if initializer is not None:
        initializer(*initargs)


def _exit_with_owner(owner: int) -> None:
    """Block until process ``owner`` has exited, then end this worker.

    A pidfd becomes readable when its process exits, zombie or not.
    Without pidfd support (not Linux 5.3+) the worker goes unwatched.
    """
    try:
        pidfd = os.pidfd_open(owner)
    except ProcessLookupError:
        os._exit(0)
    except (AttributeError, OSError):
        return
    watch = select.poll()
    watch.register(pidfd, select.POLLIN)
    watch.poll()
    os._exit(0)


def _run_task(fn: Callable, task_seq: int, args: tuple):
    """``fn(*args)``, unless chaos crashes (``os._exit``, which the
    parent cannot tell from an OOM kill) or hangs this worker first."""
    action = _CHAOS.decide(task_seq) if _CHAOS is not None else None
    if action == "crash":
        os._exit(75)
    if action == "hang":
        time.sleep(_CHAOS.hang_seconds)
    return fn(*args)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _deadline(policy: RetryPolicy, now: float) -> Optional[float]:
    return None if policy.task_timeout is None else now + policy.task_timeout


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc).strip() or type(exc).__name__}"


def _timed_out(policy: RetryPolicy) -> str:
    return (f"worker exceeded the {policy.task_timeout:.1f}s task timeout "
            "(hung or thrashing worker)")


class SupervisedPool:
    """A process pool with deadlines, hard teardown, retries and give-up.

    ``workers`` is the shared pool's size (:meth:`run`) or how many
    single-worker pools run at once (:meth:`run_each`).
    ``initializer(*initargs)`` runs once in every worker.  ``context``
    names a start method (``None``: the platform default, fork on Linux)
    and ``preload`` the modules a forkserver imports once.  Task numbers
    start at ``first_task``.  ``counters`` maps the events ``restarts``
    (a pool reaped after a failed attempt), ``retries`` and ``degraded``
    (:meth:`run` gave up) to telemetry counter names; the attributes of
    the same names count them too.  :meth:`run` may be called from
    several threads: they share one pool, and a failed attempt reaps
    only the pool it ran on.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        context: Optional[str] = None,
        preload: Sequence[str] = (),
        first_task: int = 0,
        collector: Optional[NullCollector] = None,
        counters: Optional[Dict[str, str]] = None,
    ) -> None:
        self.workers = max(1, workers)
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.context = context
        self.preload = list(preload)
        self.collector = collector if collector is not None else get_collector()
        self.counters = dict(counters or {})
        self.chaos = ChaosConfig.from_env()  # raises here, in the parent
        self.restarts = self.retries = self.degraded = 0
        self._seq = count(first_task)
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._gave_up: Optional[PoolGaveUp] = None

    def _new_executor(self, workers: int) -> ProcessPoolExecutor:
        """A fresh executor, or :class:`PoolGaveUp` (``unsupported``)."""
        # Imported here: it loads multiprocessing's queue and connection
        # machinery, which a process that never builds a pool skips.
        from concurrent.futures import ProcessPoolExecutor

        try:
            ctx = (multiprocessing.get_context(self.context)
                   if self.context is not None else None)
        except ValueError as exc:  # start method unavailable here
            raise PoolGaveUp(str(exc), unsupported=True) from None
        if self.preload:
            ctx.set_forkserver_preload(self.preload)
        try:
            return ProcessPoolExecutor(
                max_workers=workers, mp_context=ctx, initializer=_init_worker,
                initargs=(os.getpid(), self.chaos, self.initializer,
                          self.initargs),
            )
        except OSError as exc:  # e.g. no semaphores in a sandbox
            raise PoolGaveUp(str(exc), unsupported=True) from None

    def executor(self) -> ProcessPoolExecutor:
        """The shared pool, created on first use; raises
        :class:`PoolGaveUp` for good once the pool has given up or found
        no process support."""
        with self._lock:
            if self._gave_up is None and self._pool is None:
                try:
                    self._pool = self._new_executor(self.workers)
                except PoolGaveUp as exc:
                    self._gave_up = exc
            if self._gave_up is not None:
                raise self._gave_up
            return self._pool

    @property
    def live(self) -> bool:
        """Whether a shared pool currently exists."""
        return self._pool is not None

    @property
    def broken(self) -> bool:
        """Whether the pool has given up for good."""
        return self._gave_up is not None

    def stats(self) -> dict:
        """Pool state for ``GET /healthz``."""
        return {"workers": self.workers, "live": self.live,
                "restarts": self.restarts, "retries": self.retries}

    def close(self) -> None:
        """Tear the shared pool down hard (idempotent; the next
        :meth:`run` creates a new one)."""
        with self._lock:
            pool, self._pool = self._pool, None
        reap_pool(pool)

    def _next_task(self) -> int:
        with self._lock:
            return next(self._seq)

    def _count(self, event: str) -> None:
        with self._lock:
            setattr(self, event, getattr(self, event) + 1)
        name = self.counters.get(event)
        if name is not None and self.collector.enabled:
            self.collector.inc(name)

    def _failed(self, pool: ProcessPoolExecutor, attempt: int,
                policy: RetryPolicy, error: str) -> Optional[PoolGaveUp]:
        """Reap the pool of failed attempt ``attempt`` (0-based).
        Returns ``None`` when a retry is due after
        ``policy.backoff(attempt)``, else the give-up."""
        reap_pool(pool)
        self._count("restarts")
        if attempt >= policy.max_retries:
            return PoolGaveUp(error, attempt + 1)
        self._count("retries")
        return None

    def run(self, fn: Callable, payloads: Sequence[tuple],
            policy: RetryPolicy) -> list:
        """``[fn(*args) for args in payloads]`` on the shared pool.

        An attempt submits every task and waits for all of them under
        one deadline, returning as soon as the last one does.  Any
        failure (a dead worker, the deadline, an unpicklable payload or
        result, an exception from ``fn``) fails the whole attempt, which
        is retried on a fresh pool with fresh task numbers while the
        budget lasts.  Raises :class:`PoolGaveUp` when it is spent —
        and from then on at once — or when there is no process support.
        """
        for attempt in count():
            pool = self.executor()
            futures = []
            try:
                deadline = _deadline(policy, time.monotonic())
                for args in payloads:
                    futures.append(
                        pool.submit(_run_task, fn, self._next_task(), args)
                    )
                return [
                    future.result(timeout=None if deadline is None else
                                  max(0.0, deadline - time.monotonic()))
                    for future in futures
                ]
            except FutureTimeout:
                error = _timed_out(policy)
            except Exception as exc:
                error = _describe(exc)
            for future in futures:
                future.cancel()
            with self._lock:
                if self._pool is pool:
                    self._pool = None
            gave_up = self._failed(pool, attempt, policy, error)
            if gave_up is not None:
                self._gave_up = gave_up
                self._count("degraded")
                raise gave_up
            time.sleep(policy.backoff(attempt))

    def run_each(self, fn: Callable, payloads: Sequence[tuple],
                 policy: RetryPolicy) -> List[object]:
        """Run every ``fn(*args)`` in its own single-worker pool.

        Tasks start in payload order, drawing their task numbers as they
        start, at most ``workers`` at once; one thread schedules them
        all, so the first ``workers`` numbers never depend on timing.  A
        failed task is retried on its own, in a fresh pool after a
        backoff.  Returns one outcome per payload: the task's result or
        a :class:`PoolGaveUp` — for a spent budget, or ``unsupported``
        for a task that never started (the caller runs those
        in-process).
        """
        outcomes: List[object] = [None] * len(payloads)
        attempts = [0] * len(payloads)
        pending = [(index, 0.0) for index in range(len(payloads))]  # (task, start)
        active = {}  # future -> (task, its pool, its deadline)

        def settle(index, pool, error):
            attempt = attempts[index] - 1
            gave_up = self._failed(pool, attempt, policy, error)
            if gave_up is None:
                start = time.monotonic() + policy.backoff(attempt)
                pending.append((index, start))
            else:
                outcomes[index] = gave_up

        try:
            while pending or active:
                now = time.monotonic()
                while pending and len(active) < self.workers and not self.broken:
                    ready = next((i for i, (_, start) in enumerate(pending)
                                  if start <= now), None)
                    if ready is None:
                        break
                    try:
                        pool = self._new_executor(1)
                    except PoolGaveUp as exc:
                        self._gave_up = exc
                        break
                    index, _ = pending.pop(ready)
                    attempts[index] += 1
                    try:
                        future = pool.submit(
                            _run_task, fn, self._next_task(), payloads[index]
                        )
                    except Exception as exc:  # e.g. the fork failed
                        settle(index, pool, _describe(exc))
                        continue
                    active[future] = (index, pool, _deadline(policy, now))
                if not active:
                    if self.broken:
                        break
                    # Only retry backoffs are left: wait out the first.
                    time.sleep(max(0.0, min(s for _, s in pending) - now))
                    continue
                wake = [d for _, _, d in active.values() if d is not None]
                if pending and len(active) < self.workers and not self.broken:
                    wake += [start for _, start in pending]
                wait(list(active), return_when=FIRST_COMPLETED,
                     timeout=max(0.0, min(wake) - now) if wake else None)
                now = time.monotonic()
                for future, (index, pool, deadline) in list(active.items()):
                    if future.done():
                        try:
                            outcomes[index] = future.result()
                            error = None
                        except Exception as exc:
                            error = _describe(exc)
                    elif deadline is not None and now >= deadline:
                        error = _timed_out(policy)
                    else:
                        continue
                    del active[future]
                    if error is None:
                        reap_pool(pool)
                    else:
                        settle(index, pool, error)
        finally:
            for _, pool, _ in active.values():
                reap_pool(pool)
        for index, _ in pending:
            outcomes[index] = self._gave_up
        return outcomes
