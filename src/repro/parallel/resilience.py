"""Failure policy and deterministic chaos injection for worker pools.

Two small, side-effect-free value types govern the self-healing
behaviour of every :class:`~repro.parallel.supervisor.SupervisedPool`
(and the distributed campaign's lease loop):

* :class:`RetryPolicy` — how long one attempt may run, how many times a
  failed attempt is retried after a pool respawn, and the exponential
  backoff between attempts.  Each owner reads its own pair of
  environment variables (below) so CI and operators can tighten them
  without code changes.
* :class:`ChaosConfig` — the deterministic fault-injection hook used by
  the robustness test suite.  ``REPRO_CHAOS=crash:<p>,hang:<p>,seed:<n>``
  makes pool workers kill themselves (``os._exit``, indistinguishable
  from an OOM kill) or stall (a long sleep, indistinguishable from a
  wedged worker) with the given probabilities.  Decisions are a pure
  function of ``(seed, task sequence number)`` — the parent numbers
  tasks deterministically — so a chaos run replays the *same* failures
  every time, and a retried task draws a fresh decision and can recover.

See ``docs/ROBUSTNESS.md`` for the full failure-handling contract.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass
from typing import Optional

#: Environment variable carrying the chaos spec.
CHAOS_ENV = "REPRO_CHAOS"
#: Per-shard-task timeout override, in seconds (<= 0 disables).
TIMEOUT_ENV = "REPRO_EVAL_TIMEOUT"
#: Pool-respawn retry count override.
RETRIES_ENV = "REPRO_EVAL_RETRIES"
#: Per-seed-run timeout override for the harness's seed pool, in
#: seconds (<= 0 disables; unset falls back to no timeout — a whole GA
#: run has no sane universal wall-clock bound, unlike a shard task).
SEED_TIMEOUT_ENV = "REPRO_SEED_TIMEOUT"
#: Seed-pool respawn retry count override (unset: ``REPRO_EVAL_RETRIES``
#: semantics do not apply here; the default is :data:`DEFAULT_MAX_RETRIES`).
SEED_RETRIES_ENV = "REPRO_SEED_RETRIES"
#: Lease TTL override for the distributed campaign coordinator, in
#: seconds (how long a host may sit on a leased cell before the
#: coordinator reaps it).  Must be positive: a lease cannot go without
#: a TTL, so the coordinator rejects a value <= 0.
LEASE_TTL_ENV = "REPRO_LEASE_TTL"
#: Re-lease retry budget per cell before the coordinator degrades to
#: local in-process execution.
LEASE_RETRIES_ENV = "REPRO_LEASE_RETRIES"
#: Per-run-job deadline for the service's process execution tier, in
#: seconds (<= 0 disables; unset falls back to no deadline — like a
#: seed run, a whole GA run has no sane universal wall-clock bound).
#: A request's explicit ``deadline_s`` field beats this.
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"
#: Tier-respawn retry budget per run job before the service degrades
#: that job to bit-identical in-thread execution.
JOB_RETRIES_ENV = "REPRO_JOB_RETRIES"

#: Default per-shard-task timeout.  Shard tasks are sub-second in normal
#: operation; minutes of silence means a hung or thrashing worker.
DEFAULT_TASK_TIMEOUT = 300.0
#: Default pool respawns per failed scoring pass before degrading.
DEFAULT_MAX_RETRIES = 2
#: Default lease TTL for distributed campaign cells.  One cell is one
#: whole GA run, so the bound is generous; operators running full-scale
#: tables should raise it via ``REPRO_LEASE_TTL``.
DEFAULT_LEASE_TTL = 300.0


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout / retry / backoff policy for one supervised attempt.

    ``task_timeout`` bounds the wall time of one attempt (all of an
    attempt's tasks run concurrently, so one deadline covers them);
    ``None`` disables the bound.  ``max_retries`` is how many times a
    failed attempt is retried — each retry on a fresh pool — before the
    pool owner gives up and falls back to in-process execution.
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    task_timeout: Optional[float] = DEFAULT_TASK_TIMEOUT
    backoff_base: float = 0.05
    backoff_factor: float = 4.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        # A wait refuses more than TIMEOUT_MAX; nan bounds nothing.
        if self.task_timeout is not None and not (
                0 < self.task_timeout <= threading.TIMEOUT_MAX):
            raise ValueError(
                "timeout must be a positive number of seconds, at most "
                f"{threading.TIMEOUT_MAX:g}; got {self.task_timeout!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        return min(self.backoff_base * self.backoff_factor ** attempt,
                   self.backoff_max)

    @classmethod
    def from_env(
        cls,
        task_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        timeout_env: str = TIMEOUT_ENV,
        retries_env: str = RETRIES_ENV,
        default_timeout: Optional[float] = DEFAULT_TASK_TIMEOUT,
    ) -> "RetryPolicy":
        """Policy from the environment, with explicit overrides winning.

        ``task_timeout`` / ``max_retries`` arguments (when not ``None``)
        beat the ``timeout_env`` / ``retries_env`` environment variables
        (``REPRO_EVAL_TIMEOUT`` / ``REPRO_EVAL_RETRIES`` by default; the
        harness's seed pool reads :data:`SEED_TIMEOUT_ENV` /
        :data:`SEED_RETRIES_ENV` instead), which beat the defaults.  A
        timeout <= 0 (argument or environment) disables the bound, as
        does a ``None`` ``default_timeout`` when nothing else sets one.
        A malformed or out-of-range variable raises ``ValueError``
        naming it.
        """
        if task_timeout is None:
            task_timeout = _env_number(timeout_env, float, "a number")
            if task_timeout is None:
                task_timeout = default_timeout
            elif not task_timeout <= 0:
                try:
                    cls(task_timeout=task_timeout)
                except ValueError as exc:
                    raw = os.environ[timeout_env]
                    raise ValueError(f"{timeout_env}={raw!r}: {exc}") from None
        if task_timeout is not None and task_timeout <= 0:
            task_timeout = None
        if max_retries is None:
            max_retries = _env_number(retries_env, int, "an integer")
            if max_retries is None:
                max_retries = DEFAULT_MAX_RETRIES
            elif max_retries < 0:
                raise ValueError(f"{retries_env}={max_retries} must be >= 0")
        return cls(max_retries=max_retries, task_timeout=task_timeout)


def _env_number(name: str, parse, kind: str):
    """``parse(os.environ[name])``, or ``None`` when unset or empty."""
    raw = os.environ.get(name, "")
    if not raw:
        return None
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not {kind}") from None


#: Chaos spec keys that are probabilities, mapped to their field names.
#: ``lease-stall`` / ``worker-vanish`` are *host-level* modes consumed
#: by the distributed campaign worker (``gatest campaign-worker``); the
#: process-level ``crash`` / ``hang`` modes fire inside pool workers.
_CHAOS_PROB_KEYS = {
    "crash": "crash",
    "hang": "hang",
    "lease-stall": "lease_stall",
    "lease_stall": "lease_stall",
    "worker-vanish": "worker_vanish",
    "worker_vanish": "worker_vanish",
}
_CHAOS_KNOWN = "crash, hang, lease-stall, worker-vanish, seed, hang_seconds"


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic worker- and host-failure injection (test hook).

    ``crash`` / ``hang`` are per-task probabilities for *pool worker*
    faults; ``lease_stall`` / ``worker_vanish`` are per-lease
    probabilities for *host-level* faults in the distributed campaign
    backend (a campaign worker that sleeps past its lease TTL before
    sealing its result, and one that dies outright mid-cell).  ``seed``
    makes the injected failure sequence reproducible.  ``hang_seconds``
    is how long a stalled pool worker sleeps — far longer than any sane
    task timeout, so a hang always surfaces as a timeout, never as a
    slow success.
    """

    crash: float = 0.0
    hang: float = 0.0
    seed: int = 0
    hang_seconds: float = 600.0
    lease_stall: float = 0.0
    worker_vanish: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "lease_stall", "worker_vanish"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"chaos probability {name}={value!r} must be in [0, 1]"
                )
        if self.crash + self.hang > 1.0:
            raise ValueError("crash + hang probabilities must not exceed 1")
        if self.lease_stall + self.worker_vanish > 1.0:
            raise ValueError(
                "lease-stall + worker-vanish probabilities must not exceed 1"
            )

    @property
    def enabled(self) -> bool:
        """Whether any failure can actually be injected."""
        return (self.crash > 0.0 or self.hang > 0.0
                or self.lease_stall > 0.0 or self.worker_vanish > 0.0)

    def decide(self, task_seq: int) -> Optional[str]:
        """The injected failure for task ``task_seq``: ``"crash"``,
        ``"hang"`` or ``None``.

        A pure function of ``(seed, task_seq)``: the same run replays
        the same failures, and a *retried* task (which the parent gives
        a fresh sequence number) draws independently — so bounded
        retries recover from sub-certain crash probabilities.
        """
        draw = random.Random(self.seed * 1_000_003 + task_seq).random()
        if draw < self.crash:
            return "crash"
        if draw < self.crash + self.hang:
            return "hang"
        return None

    def decide_host(self, lease_seq: int) -> Optional[str]:
        """The injected *host-level* failure for lease ``lease_seq``:
        ``"lease-stall"``, ``"worker-vanish"`` or ``None``.

        Same determinism contract as :meth:`decide`, drawn from an
        independent stream (the coordinator numbers leases with a
        journal-global monotonic ``seq``, so every grant — original or
        re-lease — draws exactly once, identically on every replay).
        """
        draw = random.Random(
            (self.seed + 7_777_777) * 1_000_003 + lease_seq
        ).random()
        if draw < self.lease_stall:
            return "lease-stall"
        if draw < self.lease_stall + self.worker_vanish:
            return "worker-vanish"
        return None

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Parse a ``crash:<p>,hang:<p>,seed:<n>`` spec string.

        Keys may appear in any order and any may be omitted; host-level
        modes spell as ``lease-stall:<p>`` / ``worker-vanish:<p>`` and
        ``hang_seconds:<s>`` is accepted as an extra knob.  Raises
        ``ValueError`` *naming the offending token* on unknown modes and
        malformed or out-of-range values — a chaos spec is an explicit
        test instruction and must never fail silently or surface as an
        unintelligible crash deep inside a worker.
        """
        fields = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition(":")
            if not sep:
                raise ValueError(
                    f"bad chaos spec {spec!r}: entry {part!r} is not "
                    "key:value"
                )
            key = key.strip()
            value = value.strip()
            if key in _CHAOS_PROB_KEYS:
                field = _CHAOS_PROB_KEYS[key]
                try:
                    probability = float(value)
                except ValueError:
                    raise ValueError(
                        f"bad chaos spec {spec!r}: {value!r} in {part!r} "
                        "is not a number"
                    ) from None
                if not 0.0 <= probability <= 1.0:
                    raise ValueError(
                        f"bad chaos spec {spec!r}: probability {value!r} "
                        f"in {part!r} must be in [0, 1]"
                    )
                fields[field] = probability
            elif key == "hang_seconds":
                try:
                    fields[key] = float(value)
                except ValueError:
                    raise ValueError(
                        f"bad chaos spec {spec!r}: {value!r} in {part!r} "
                        "is not a number"
                    ) from None
            elif key == "seed":
                try:
                    fields[key] = int(value)
                except ValueError:
                    raise ValueError(
                        f"bad chaos spec {spec!r}: {value!r} in {part!r} "
                        "is not an integer"
                    ) from None
            else:
                raise ValueError(
                    f"bad chaos spec {spec!r}: unknown chaos key {key!r} "
                    f"in {part!r} (known: {_CHAOS_KNOWN})"
                )
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ValueError(f"bad chaos spec {spec!r}: {exc}") from None

    @classmethod
    def from_env(cls) -> Optional["ChaosConfig"]:
        """The ``REPRO_CHAOS`` config, or ``None`` when unset/disabled.

        A malformed spec raises ``ValueError`` with the offending token.
        Only parents read it (a pool when it is built, the campaign
        worker at start), so the error surfaces before any worker starts.
        """
        spec = os.environ.get(CHAOS_ENV, "")
        if not spec:
            return None
        config = cls.parse(spec)
        return config if config.enabled else None
