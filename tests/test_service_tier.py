"""The process execution tier and the service control plane.

What PR 8 added on top of the PR 7 service, each with its contract
under test here (docs/SERVICE.md, docs/ROBUSTNESS.md §7):

* **control-plane fields** — ``priority`` ordering (highest first, FIFO
  within a priority) and per-attempt ``deadline_s``, validated at
  submit;
* **cancellation / preemption** — ``DELETE`` kills queued jobs
  immediately and preempts running run jobs cooperatively at a stage
  boundary, leaving a resumable ``preempted`` checkpoint that a
  resubmission finishes bit-identically;
* **admission control** — a bounded queue rejects overflow with 429 +
  ``Retry-After`` *before* anything is ledgered;
* **the tier itself** — run jobs execute in supervised worker
  processes with chaos-injected crash/hang recovery: checkpoint-
  resuming retries, hard pool teardown, and sticky degradation to
  bit-identical in-thread execution when the budget is spent;
* **client resilience** — transient connection errors retry with
  capped backoff; 429 surfaces as the typed ``ServiceBusyError``;
* **crash contracts end-to-end** — a chaos-armed ``gatest serve``
  completes every accepted job and leaves no orphaned processes; a
  SIGKILL racing a preemption checkpoint still lands the job in a
  terminal ``preempted`` state after restart.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.circuit import s27
from repro.core import GaTestGenerator, TestGenConfig
from repro.core.checkpoint import canonical_sha256, config_to_json
from repro.parallel.resilience import RetryPolicy
from repro.service import (
    Job,
    JobManager,
    JobValidationError,
    QueueFullError,
    ServiceBusyError,
    ServiceClient,
    ServiceError,
    ServiceServer,
    parse_job,
    run_key,
    tier,
)
from repro.telemetry import TelemetryCollector, validate_trace

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _manager(tmp_path, **kw):
    kw.setdefault("workers", 1)
    collector = kw.pop("collector", TelemetryCollector())
    return JobManager(tmp_path / "state", collector=collector, **kw), collector


@contextmanager
def _served(manager):
    """A ServiceServer for ``manager`` on an ephemeral localhost port."""
    server = ServiceServer(manager, port=0)
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    client = ServiceClient(port=server.port)
    try:
        yield client
    finally:
        try:
            client.shutdown()
        except (ServiceError, OSError):
            pass
        thread.join(timeout=30)
        assert not thread.is_alive(), "server thread failed to shut down"


# ----------------------------------------------------------------------
# Validation: priority and deadline_s
# ----------------------------------------------------------------------


class TestControlPlaneFields:
    def test_priority_and_deadline_accepted(self):
        spec = parse_job(
            {"kind": "run", "circuit": "s27", "config": {"seed": 1},
             "priority": 5, "deadline_s": 2.5}
        )
        assert spec.priority == 5
        assert spec.deadline_s == 2.5
        fsim = parse_job(
            {"kind": "fsim", "circuit": "s27", "vectors": [[0, 1]],
             "priority": -3}
        )
        assert fsim.priority == -3
        assert fsim.deadline_s is None

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"kind": "run", "circuit": "s27", "priority": "high"}, "priority"),
            ({"kind": "run", "circuit": "s27", "priority": True}, "priority"),
            ({"kind": "run", "circuit": "s27", "priority": 1.5}, "priority"),
            ({"kind": "run", "circuit": "s27", "deadline_s": 0}, "deadline_s"),
            ({"kind": "run", "circuit": "s27", "deadline_s": -2}, "deadline_s"),
            ({"kind": "run", "circuit": "s27", "deadline_s": "2"}, "deadline_s"),
            ({"kind": "fsim", "circuit": "s27", "vectors": [[0]],
              "deadline_s": 1}, "run jobs"),
        ],
    )
    def test_rejections(self, payload, message):
        with pytest.raises(JobValidationError, match=re.escape(message)):
            parse_job(payload)

    def test_scheduling_fields_change_digest_not_run_key(self):
        base = {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
        a = parse_job(base)
        b = parse_job({**base, "priority": 9, "deadline_s": 30,
                       "checkpoint_every": 3})
        c = parse_job({"kind": "run", "circuit": "s27", "config": {"seed": 2}})
        assert a.digest != b.digest  # distinct requests...
        # ...but the same canonical run, so the same checkpoint.
        assert run_key(a, a.config) == run_key(b, b.config)
        assert run_key(a, a.config) != run_key(c, c.config)

    def test_two_spellings_share_run_key_and_digest(self):
        a = parse_job({"kind": "run", "circuit": "s298@0.3",
                       "config": {"seed": 1}})
        b = parse_job({"kind": "run", "circuit": "s298", "scale": 0.3,
                       "config": {"seed": 1}})
        assert a.key == b.key == ("s298", 0.3, 0)
        assert run_key(a, a.config) == run_key(b, b.config)
        assert a.digest == b.digest

    @pytest.mark.parametrize("payload", [
        {"kind": "run", "circuit": "s27", "config": {"seed": 1}},
        {"kind": "run", "circuit": "s298", "scale": 0.3, "config": {"seed": 1}},
        {"kind": "fsim", "circuit": "s298", "scale": 0.1, "seed": 3,
         "vectors": [[0, 1, 0]]},
    ])
    def test_canonical_spelling_keeps_its_keys(self, payload):
        """A payload that already spells its circuit's canonical key
        digests its own bytes, and its run key hashes those fields."""
        spec = parse_job(payload)
        assert spec.digest == canonical_sha256(payload)
        fields = [payload["circuit"], float(payload.get("scale", 1.0)),
                  payload.get("seed", 0), spec.config.digest()]
        assert run_key(spec, spec.config) == canonical_sha256(fields)[:16]

    def test_deadline_policy_resolution(self, tmp_path, monkeypatch):
        manager, _ = _manager(tmp_path, use_tier=False)
        try:
            spec = parse_job(
                {"kind": "run", "circuit": "s27", "config": {"seed": 1},
                 "deadline_s": 2.5}
            )
            bare = parse_job(
                {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
            )
            monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
            monkeypatch.delenv("REPRO_JOB_RETRIES", raising=False)
            assert manager._job_policy(spec).task_timeout == 2.5
            assert manager._job_policy(bare).task_timeout is None
            monkeypatch.setenv("REPRO_JOB_TIMEOUT", "7")
            monkeypatch.setenv("REPRO_JOB_RETRIES", "3")
            # The request's explicit deadline beats the env...
            assert manager._job_policy(spec).task_timeout == 2.5
            # ...which beats no deadline at all.
            assert manager._job_policy(bare).task_timeout == 7.0
            assert manager._job_policy(bare).max_retries == 3
        finally:
            manager.close()


# ----------------------------------------------------------------------
# Priority scheduling and cancellation (manager level)
# ----------------------------------------------------------------------


class TestPriorityAndCancel:
    def test_queue_order(self):
        def job(seq, priority, status="queued"):
            spec = parse_job(
                {"kind": "run", "circuit": "s27",
                 "config": {"seed": seq}, "priority": priority}
            )
            j = Job(id=f"j{seq}", seq=seq, spec=spec)
            j.status = status
            return j

        jobs = [job(1, 0), job(2, 5), job(3, 5), job(4, -1),
                job(5, 0), job(6, 9, status="running")]
        assert [j.id for j in JobManager.queue_order(jobs)] == [
            "j2", "j3", "j1", "j5", "j4"  # running j6 excluded
        ]

    def test_dispatch_follows_priority_then_fifo(self, tmp_path):
        manager, _ = _manager(tmp_path, use_tier=False)
        try:
            # _cond is an RLock-backed Condition: holding it parks the
            # worker, so all four jobs are queued before any dispatch —
            # the completion order is purely the scheduler's.
            with manager._cond:
                jobs = [
                    manager.submit(
                        {"kind": "run", "circuit": "s27",
                         "config": {"seed": seed}, "priority": priority}
                    )[0]
                    for seed, priority in [(1, 0), (2, 2), (3, 1), (4, 2)]
                ]
            assert manager.wait_idle(timeout=600)
            completed = [
                r["id"] for r in manager.ledger.load()
                if r["event"] == "completed"
            ]
            assert completed == [
                jobs[1].id, jobs[3].id, jobs[2].id, jobs[0].id
            ]
        finally:
            manager.close()

    def test_cancel_queued_job(self, tmp_path):
        manager, collector = _manager(tmp_path, use_tier=False)
        try:
            with manager._cond:
                keep, _ = manager.submit(
                    {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
                )
                doomed, _ = manager.submit(
                    {"kind": "run", "circuit": "s27", "config": {"seed": 2}}
                )
                assert manager.cancel(doomed.id) == "cancelled"
            assert manager.wait_idle(timeout=600)
            assert keep.status == "done", keep.error
            assert doomed.status == "cancelled"
            assert doomed.result is None
            assert collector.counters["service.jobs.cancelled"] == 1
            events = [
                r for r in manager.ledger.load()
                if r["event"] == "cancelled"
            ]
            assert [r["id"] for r in events] == [doomed.id]
            # Idempotent on terminal jobs; None for unknown ids.
            assert manager.cancel(doomed.id) == "cancelled"
            assert manager.cancel("j9999-nothere") is None
        finally:
            manager.close()

    def test_preempt_then_resubmit_resumes_bit_identically(self, tmp_path):
        reference = GaTestGenerator(s27(), TestGenConfig(seed=3)).run()
        manager, collector = _manager(tmp_path)  # tier on: preemption
        payload = {"kind": "run", "circuit": "s27", "config": {"seed": 3},
                   "checkpoint_every": 1}
        try:
            # Arm the stop file before the worker can start: the
            # generator observes it at its first stage boundary and
            # preempts deterministically.
            with manager._cond:
                job, _ = manager.submit(payload)
                manager._stop_path(job).touch()
            assert manager.wait_idle(timeout=600)
            assert job.status == "preempted", job.error
            assert "preempted" in job.error
            assert collector.counters["service.jobs.preempted"] == 1
            assert job.collector.counters.get("run.preempted") == 1
            ckpts = list((tmp_path / "state" / "checkpoints").glob("run-*.ckpt"))
            assert len(ckpts) == 1  # the resumable preemption checkpoint
            # The consumed stop file must not leak into the resubmission.
            assert not manager._stop_path(job).exists()

            again, coalesced = manager.submit(payload)
            assert not coalesced and again.id != job.id
            assert manager.wait_idle(timeout=600)
            assert again.status == "done", again.error
            assert collector.counters.get("run.resumed") == 1
            assert again.result["test_sequence"] == [
                list(v) for v in reference.test_sequence
            ]
            assert again.result["detected"] == reference.detected
        finally:
            manager.close()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmissionControl:
    def test_overflow_rejected_before_ledger(self, tmp_path):
        manager, collector = _manager(tmp_path, use_tier=False, queue_max=1)
        try:
            with manager._cond:
                accepted, _ = manager.submit(
                    {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
                )
                with pytest.raises(QueueFullError) as err:
                    manager.submit(
                        {"kind": "run", "circuit": "s27", "config": {"seed": 2}}
                    )
                assert err.value.retry_after >= 1
                # Coalescing adds no queue entry, so it is exempt even
                # at capacity.
                same, coalesced = manager.submit(
                    {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
                )
                assert coalesced and same is accepted
            assert manager.wait_idle(timeout=600)
            assert collector.counters["service.queue.rejected"] == 1
            accepted_ids = [
                r["id"] for r in manager.ledger.load()
                if r["event"] == "accepted"
            ]
            assert accepted_ids == [accepted.id]  # rejection left no trace
        finally:
            manager.close()

    def test_http_429_with_retry_after(self, tmp_path):
        manager, _ = _manager(tmp_path, use_tier=False, queue_max=0)
        with _served(manager) as client:
            with pytest.raises(ServiceBusyError) as err:
                client.submit(
                    {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
                )
            assert err.value.status == 429
            assert err.value.retry_after == 1.0
            health = client.healthz()
            assert health["queue"]["max"] == 0
            assert health["counters"]["service.queue.rejected"] == 1
        assert not (tmp_path / "state" / "ledger.jsonl").exists()
        manager.close()


# ----------------------------------------------------------------------
# The tier: isolation, chaos recovery, degradation
# ----------------------------------------------------------------------


class TestProcessTier:
    def test_in_thread_escape_hatch_is_bit_identical(self, tmp_path):
        reference = GaTestGenerator(s27(), TestGenConfig(seed=2)).run()
        manager, _ = _manager(tmp_path, use_tier=False)
        try:
            assert manager.tier is None
            job, _ = manager.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 2}}
            )
            assert manager.wait_idle(timeout=600)
            assert job.status == "done", job.error
            assert job.result["test_sequence"] == [
                list(v) for v in reference.test_sequence
            ]
            assert job.result["detected"] == reference.detected
        finally:
            manager.close()

    def test_crash_recovers_via_retry(self, tmp_path, monkeypatch):
        # seed 5 makes tier task 1 crash and task 2 (the retry) run
        # clean — a deterministic worker death the tier must heal.
        monkeypatch.setenv("REPRO_CHAOS", "crash:0.5,seed:5")
        monkeypatch.setenv("REPRO_JOB_RETRIES", "1")
        reference = GaTestGenerator(s27(), TestGenConfig(seed=8)).run()
        manager, collector = _manager(tmp_path)
        try:
            job, _ = manager.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 8}}
            )
            assert manager.wait_idle(timeout=600)
            assert job.status == "done", job.error
            assert collector.counters["service.tier.restarts"] == 1
            assert collector.counters["service.tier.retries"] == 1
            assert manager.tier_stats()["degraded"] is False
            assert "service.jobs.degraded" not in collector.counters
            assert job.result["test_sequence"] == [
                list(v) for v in reference.test_sequence
            ]
        finally:
            manager.close()

    def test_crash_exhaustion_degrades_stickily(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash:1.0,seed:1")
        monkeypatch.setenv("REPRO_JOB_RETRIES", "1")
        reference = GaTestGenerator(s27(), TestGenConfig(seed=5)).run()
        manager, collector = _manager(tmp_path)
        try:
            job, _ = manager.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 5}}
            )
            assert manager.wait_idle(timeout=600)
            # Every tier attempt crashed; the job still completed —
            # degraded to the in-thread path — and bit-identically.
            assert job.status == "done", job.error
            assert collector.counters["service.tier.restarts"] == 2
            assert collector.counters["service.tier.retries"] == 1
            assert collector.counters["service.jobs.degraded"] == 1
            assert manager.tier_stats()["degraded"] is True
            assert job.result["test_sequence"] == [
                list(v) for v in reference.test_sequence
            ]
            # Degradation is sticky: the next job skips the tier
            # entirely instead of re-spending the retry budget.
            second, _ = manager.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 6}}
            )
            assert manager.wait_idle(timeout=600)
            assert second.status == "done", second.error
            assert collector.counters["service.tier.restarts"] == 2
            assert collector.counters["service.jobs.degraded"] == 2
        finally:
            manager.close()

    def test_hung_worker_hits_deadline_and_degrades(self, tmp_path, monkeypatch):
        # A wedged worker (sleep far past any deadline) must surface as
        # a deadline timeout, not a stalled service.
        monkeypatch.setenv("REPRO_CHAOS", "hang:1.0,seed:2,hang_seconds:60")
        monkeypatch.setenv("REPRO_JOB_RETRIES", "0")
        manager, collector = _manager(tmp_path)
        try:
            start = time.monotonic()
            job, _ = manager.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 1},
                 "deadline_s": 0.75}
            )
            assert manager.wait_idle(timeout=600)
            assert job.status == "done", job.error
            assert time.monotonic() - start < 60  # never waited out the hang
            assert collector.counters["service.tier.restarts"] == 1
            assert manager.tier_stats()["degraded"] is True
        finally:
            manager.close()

    def test_cache_size_bounds_the_worker_registry(self, tmp_path):
        """``cache_size`` reaches the tier workers' registries: with room
        for one simulator, a second circuit evicts the first in the
        worker, and the shipped trace carries the eviction."""
        manager, collector = _manager(tmp_path, cache_size=1)
        try:
            for circuit in ("s27", "minifsm"):
                job, _ = manager.submit(
                    {"kind": "run", "circuit": circuit, "config": {"seed": 1}}
                )
                assert manager.wait_idle(timeout=600)
                assert job.status == "done", job.error
            assert "service.jobs.degraded" not in collector.counters
            assert collector.counters["service.cache.evictions"] >= 1
        finally:
            manager.close()

    def test_worker_keeps_no_trace_between_tasks(self, tmp_path, monkeypatch):
        """A tier worker hands each task's trace back with its result and
        holds none of it afterwards, however many jobs it serves."""
        monkeypatch.setattr(tier, "_REGISTRY", None)
        monkeypatch.setattr(tier, "_COLLECTOR", None)
        tier.init_tier_worker()
        try:
            for seed in (1, 2, 3):
                status, payload, records = tier.run_tier_job({
                    "key": ("s27", 1.0, 0),
                    "config": config_to_json(TestGenConfig(seed=seed)),
                    "checkpoint_path": str(tmp_path / f"run-{seed}.ckpt"),
                    "stop_path": str(tmp_path / "never.stop"),
                    "checkpoint_every": 10,
                })
                assert status == "done", payload
                validate_trace(records)
                runs = [r for r in records if r["kind"] == "counter"
                        and r["name"] == "ga.runs"]
                assert runs and runs[0]["value"] > 0  # this task's own
                assert tier._COLLECTOR.events() == []
                assert tier._COLLECTOR.counters == {}
        finally:
            tier._REGISTRY.close()

    @pytest.mark.parametrize("use_tier", [True, False])
    def test_truncated_checkpoint_falls_back_to_fresh_run(
        self, tmp_path, use_tier
    ):
        manager, collector = _manager(tmp_path, use_tier=use_tier)
        payload = {"kind": "run", "circuit": "s27", "config": {"seed": 7},
                   "checkpoint_every": 1}
        try:
            job, _ = manager.submit(payload)
            assert manager.wait_idle(timeout=600)
            assert job.status == "done", job.error
            (ckpt,) = (tmp_path / "state" / "checkpoints").glob("run-*.ckpt")
            blob = ckpt.read_bytes()
            ckpt.write_bytes(blob[: len(blob) // 2])  # torn mid-file

            again, _ = manager.submit(payload)
            assert manager.wait_idle(timeout=600)
            assert again.status == "done", again.error
            # The corruption was detected and recovered *loudly*: the
            # job collector carries the fallback counter (shipped from
            # the tier worker when one ran), and the result is the
            # fresh-run result — identical, by determinism.
            assert again.collector.counters["service.jobs.resume_fallback"] == 1
            assert collector.counters["service.jobs.resume_fallback"] == 1
            assert again.result["test_sequence"] == job.result["test_sequence"]
            assert again.result["detected"] == job.result["detected"]
        finally:
            manager.close()


# ----------------------------------------------------------------------
# Loud close(): stragglers are counted and named
# ----------------------------------------------------------------------


class TestCloseStragglers:
    def test_wedged_worker_is_counted_and_named(self, tmp_path, capsys):
        manager, collector = _manager(tmp_path, use_tier=False)
        started = threading.Event()
        release = threading.Event()

        def wedged(job):
            started.set()
            release.wait()
            manager._finish(job, result={})

        manager._execute_run = wedged
        try:
            job, _ = manager.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
            )
            assert started.wait(30)
            manager.close(timeout=0.2)
            assert collector.counters["service.close.stragglers"] == 1
            err = capsys.readouterr().err
            assert "leaked 1 worker thread" in err
            assert job.id in err
        finally:
            release.set()


# ----------------------------------------------------------------------
# Client retry
# ----------------------------------------------------------------------


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestClientRetry:
    def test_connection_refused_retries_with_backoff(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: sleeps.append(s)
        )
        client = ServiceClient(port=_closed_port(), retries=2, timeout=5)
        with pytest.raises(OSError):
            client.healthz()
        policy = RetryPolicy(max_retries=2, task_timeout=None)
        assert sleeps == [policy.backoff(0), policy.backoff(1)]

    def test_zero_retries_raises_immediately(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: sleeps.append(s)
        )
        client = ServiceClient(port=_closed_port(), retries=0, timeout=5)
        with pytest.raises(OSError):
            client.healthz()
        assert sleeps == []

    def test_transient_reset_retries_then_succeeds(self, tmp_path, monkeypatch):
        manager, _ = _manager(tmp_path, use_tier=False)
        with _served(manager) as client:
            real = http.client.HTTPConnection
            calls = {"n": 0}

            class Flaky(real):
                def request(self, *args, **kwargs):
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise ConnectionResetError("injected reset")
                    return super().request(*args, **kwargs)

            monkeypatch.setattr(http.client, "HTTPConnection", Flaky)
            monkeypatch.setattr(
                "repro.service.client.time.sleep", lambda s: None
            )
            assert client.healthz()["status"] == "ok"
            assert calls["n"] == 2  # one injected failure, one success
            monkeypatch.undo()
        manager.close()


# ----------------------------------------------------------------------
# End-to-end crash contracts (subprocess gatest serve)
# ----------------------------------------------------------------------


def _serve(state_dir, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_CHAOS", None)
    env.pop("REPRO_JOB_RETRIES", None)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--state-dir", str(state_dir), "--workers", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", line)
    assert match, f"no listening line: {line!r}"
    return proc, ServiceClient(port=int(match.group(1)))


def _assert_process_group_empty(pgid, timeout=30.0):
    """No process (serve, tier worker, forkserver) survives shutdown."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    pytest.fail(f"process group {pgid} still has live processes")


class TestChaosServiceEndToEnd:
    def test_chaos_armed_service_completes_every_job(self, tmp_path):
        """Certain worker crashes never stall the service: every
        accepted job reaches a terminal state (degraded, bit-identical)
        and teardown leaves no orphaned processes."""
        proc, client = _serve(
            tmp_path / "state",
            extra_env={"REPRO_CHAOS": "crash:1.0,seed:3",
                       "REPRO_JOB_RETRIES": "0"},
        )
        try:
            jobs = [
                client.submit(
                    {"kind": "run", "circuit": "s27", "config": {"seed": seed}}
                )
                for seed in (11, 12, 13)
            ]
            for job in jobs:
                done = client.wait(job["id"], timeout=600)
                assert done["status"] == "done", done["error"]
            health = client.healthz()
            assert health["status"] == "ok"  # service outlived the chaos
            assert health["tier"]["degraded"] is True
            assert health["tier"]["restarts"] >= 1
            assert health["counters"]["service.jobs.degraded"] == 3
            client.shutdown()
            assert proc.wait(timeout=60) == 0
            _assert_process_group_empty(proc.pid)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)

    def test_sigkill_during_preemption_still_lands_preempted(self, tmp_path):
        """DELETE a running job, then SIGKILL the service before the
        preemption settles: after restart the job must still reach the
        terminal ``preempted`` state (the stop file and ledger survive),
        and resubmitting finishes bit-identically from the checkpoint."""
        reference = GaTestGenerator(s27(), TestGenConfig(seed=9)).run()
        state = tmp_path / "state"
        payload = {"kind": "run", "circuit": "s27", "config": {"seed": 9},
                   "checkpoint_every": 1}

        victim, client = _serve(state)
        try:
            job = client.submit(payload)
            ckpt_dir = state / "checkpoints"
            deadline = time.monotonic() + 120
            while not list(ckpt_dir.glob("run-*.ckpt")):
                assert time.monotonic() < deadline, "no checkpoint appeared"
                time.sleep(0.005)
            client.cancel(job["id"])  # preemption now in flight
        finally:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)

        survivor, client = _serve(state)
        try:
            ended = client.wait(job["id"], timeout=600)
            assert ended["status"] == "preempted", ended
            again = client.submit(payload)
            assert again["id"] != job["id"]
            done = client.wait(again["id"], timeout=600)
            assert done["status"] == "done", done["error"]
            assert done["result"]["test_sequence"] == [
                list(v) for v in reference.test_sequence
            ]
            assert done["result"]["detected"] == reference.detected
            client.shutdown()
            assert survivor.wait(timeout=60) == 0
        finally:
            if survivor.poll() is None:  # pragma: no cover - cleanup
                os.killpg(survivor.pid, signal.SIGKILL)
                survivor.wait(timeout=30)
