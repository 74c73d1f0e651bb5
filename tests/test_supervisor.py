"""The supervised pool (``repro.parallel.supervisor``) under each failure
mode it handles: a crash, a hang past the deadline, an unpicklable
payload, exhausted retries and no process support.

Every mode runs against both shapes of attempt: ``shared`` (all tasks
on one pool, :meth:`SupervisedPool.run`) and ``isolated`` (one pool per
task, :meth:`SupervisedPool.run_each`).  Each test checks the results,
the restart and retry counts, the task numbers and that no child process
is left behind.  Task numbers are pinned through chaos: a searched
``ChaosConfig`` seed makes exactly the expected numbers fail, so a task
that drew any other number would change the outcome.

The per-caller suites (test_resilience, test_campaign,
test_service_tier) keep what this one does not check: bit-identity with
the serial path, journaling and degradation of each owner.
"""

import concurrent.futures
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.circuit import s27
from repro.core import GaTestGenerator, TestGenConfig
from repro.parallel.resilience import ChaosConfig, RetryPolicy
from repro.parallel.shutdown import reap_pool
from repro.parallel.supervisor import PoolGaveUp, SupervisedPool
from repro.telemetry import TelemetryCollector

SRC = str(Path(__file__).resolve().parent.parent / "src")

SHAPES = ["shared", "isolated"]

PAYLOADS = [(3,), (4,)]
SQUARES = [9, 16]


def _square(x):
    return x * x


def _drain_children(timeout=10.0):
    """Wait for worker processes to exit; returns the stragglers."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


def _arm_chaos(monkeypatch, predicate, crash=0.0, hang=0.0):
    """Set ``REPRO_CHAOS`` to the first seed whose decisions satisfy
    ``predicate``."""
    for seed in range(100_000):
        cfg = ChaosConfig(crash=crash, hang=hang, seed=seed)
        if predicate(cfg):
            monkeypatch.setenv(
                "REPRO_CHAOS",
                f"crash:{crash},hang:{hang},seed:{seed},hang_seconds:60",
            )
            return
    raise AssertionError("no chaos seed found")  # pragma: no cover


def _pool(workers=2):
    collector = TelemetryCollector(source="test")
    pool = SupervisedPool(
        workers, collector=collector,
        counters={"restarts": "t.restarts", "retries": "t.retries",
                  "degraded": "t.degraded"},
    )
    return pool, collector


def _policy(retries=1, timeout=60.0):
    return RetryPolicy(max_retries=retries, task_timeout=timeout,
                       backoff_base=0.01)


@pytest.fixture(autouse=True)
def _no_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


@pytest.mark.parametrize("shape", SHAPES)
class TestFailureModes:
    def test_crash_is_retried_with_fresh_task_numbers(self, shape,
                                                      monkeypatch):
        if shape == "shared":
            # Attempt 1 draws 0 and 1 (both crash); the retry draws 2
            # and 3 (clean).  Reusing or skipping numbers would crash.
            crashing, clean = (0, 1, 4), (2, 3)
        else:
            # Task 0 draws 0 (crash), task 1 draws 1, task 0's retry 2.
            crashing, clean = (0, 3), (1, 2)
        _arm_chaos(
            monkeypatch,
            lambda c: all(c.decide(i) == "crash" for i in crashing)
            and all(c.decide(i) is None for i in clean),
            crash=0.5,
        )
        pool, collector = _pool()
        try:
            if shape == "shared":
                assert pool.run(_square, PAYLOADS, _policy()) == SQUARES
                assert pool.live and not pool.broken
            else:
                assert pool.run_each(_square, PAYLOADS, _policy()) == SQUARES
        finally:
            pool.close()
        assert collector.counters["t.restarts"] == 1
        assert collector.counters["t.retries"] == 1
        assert "t.degraded" not in collector.counters
        assert (pool.restarts, pool.retries) == (1, 1)
        assert not _drain_children()

    def test_hang_past_the_deadline_is_reaped_and_retried(self, shape,
                                                          monkeypatch):
        # Same numbering as the crash case, with the first task wedged.
        hanging, clean = (0,), (1, 2, 3)
        _arm_chaos(
            monkeypatch,
            lambda c: all(c.decide(i) == "hang" for i in hanging)
            and all(c.decide(i) is None for i in clean),
            hang=0.5,
        )
        pool, collector = _pool()
        start = time.monotonic()
        try:
            if shape == "shared":
                assert pool.run(_square, PAYLOADS, _policy(timeout=1.0)) \
                    == SQUARES
            else:
                assert pool.run_each(_square, PAYLOADS,
                                     _policy(timeout=1.0)) == SQUARES
        finally:
            pool.close()
        assert time.monotonic() - start < 30  # never waited out the hang
        assert collector.counters["t.restarts"] == 1
        assert collector.counters["t.retries"] == 1
        assert not _drain_children()

    def test_unpicklable_payload_fails_every_attempt(self, shape):
        pool, collector = _pool()
        payloads = [(lambda: 0,), (4,)]
        try:
            if shape == "shared":
                with pytest.raises(PoolGaveUp) as info:
                    pool.run(_square, payloads, _policy())
                gave_up = info.value
                assert pool.broken and collector.counters["t.degraded"] == 1
            else:
                gave_up, square = pool.run_each(_square, payloads, _policy())
                assert square == 16
                assert "t.degraded" not in collector.counters
        finally:
            pool.close()
        assert isinstance(gave_up, PoolGaveUp) and not gave_up.unsupported
        assert gave_up.attempts == 2
        assert "pickle" in gave_up.error.lower()
        assert collector.counters["t.restarts"] == 2
        assert collector.counters["t.retries"] == 1
        assert not _drain_children()

    def test_exhausted_retries_give_up(self, shape, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash:1.0,seed:1")
        pool, collector = _pool()
        policy = _policy(retries=2)
        try:
            if shape == "shared":
                with pytest.raises(PoolGaveUp) as info:
                    pool.run(_square, PAYLOADS, policy)
                outcomes = [info.value]
                # Giving up is sticky: the next call starts nothing.
                with pytest.raises(PoolGaveUp):
                    pool.run(_square, PAYLOADS, policy)
                assert not multiprocessing.active_children()
                counts = (3, 2, 1)
            else:
                outcomes = pool.run_each(_square, PAYLOADS, policy)
                counts = (6, 4, None)
        finally:
            pool.close()
        counters = collector.counters
        assert (counters["t.restarts"], counters["t.retries"],
                counters.get("t.degraded")) == counts
        for gave_up in outcomes:
            assert isinstance(gave_up, PoolGaveUp)
            assert gave_up.attempts == 3 and not gave_up.unsupported
            assert "BrokenProcessPool" in gave_up.error
        assert not _drain_children()

    def test_no_process_support(self, shape, monkeypatch):
        def no_semaphores(*args, **kwargs):
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_semaphores)
        pool, collector = _pool()
        if shape == "shared":
            with pytest.raises(PoolGaveUp) as info:
                pool.run(_square, PAYLOADS, _policy())
            outcomes = [info.value]
            assert pool.broken and not pool.live
        else:
            outcomes = pool.run_each(_square, PAYLOADS, _policy())
        for gave_up in outcomes:
            assert isinstance(gave_up, PoolGaveUp) and gave_up.unsupported
            assert gave_up.attempts == 0
        # Not a failure of any attempt: nothing was counted.
        assert not collector.counters
        assert (pool.restarts, pool.retries) == (0, 0)
        assert not multiprocessing.active_children()


def test_reap_pool_joins_the_manager_thread():
    """``shutdown()`` drops the executor's manager thread, so reap_pool
    must take it first: the thread joins the workers of a broken pool
    itself, and one still running can leave a live child behind."""
    for _ in range(5):
        pool = concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork"))
        assert pool.submit(_square, 3).result() == 9
        manager = pool._executor_manager_thread
        reap_pool(pool)
        assert not manager.is_alive()
        assert not multiprocessing.active_children()


class TestTaskNumbering:
    def test_first_task_sets_the_first_number(self, monkeypatch):
        # Numbering from 1 (the service tier's): task 1 crashes, its
        # retry (2) runs clean; numbering from 0 would pass 0 first.
        _arm_chaos(
            monkeypatch,
            lambda c: c.decide(0) is None and c.decide(1) == "crash"
            and c.decide(2) is None,
            crash=0.5,
        )
        collector = TelemetryCollector(source="test")
        pool = SupervisedPool(1, first_task=1, collector=collector,
                              counters={"restarts": "t.restarts"})
        try:
            assert pool.run(_square, [(5,)], _policy()) == [25]
        finally:
            pool.close()
        assert collector.counters["t.restarts"] == 1
        assert pool.stats() == {"workers": 1, "live": False,
                                "restarts": 1, "retries": 1}
        assert not _drain_children()


class TestChaosSpecIsParsedInTheParent:
    def test_bad_spec_raises_before_any_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash:2")
        monkeypatch.setenv("REPRO_EVAL_FORCE_SHARD", "1")
        with pytest.raises(ValueError, match="'crash:2'"):
            SupervisedPool(2)
        collector = TelemetryCollector(source="test")
        with pytest.raises(ValueError, match="'crash:2'"):
            GaTestGenerator(
                s27(), TestGenConfig(seed=1, eval_jobs=2),
                collector=collector,
            ).run()
        assert not multiprocessing.active_children()
        assert not any(name.startswith("parallel.")
                       for name in collector.counters)

    def test_serve_exits_with_the_message(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_CHAOS="crash:2")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--state-dir", str(tmp_path / "state")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "bad chaos spec 'crash:2'" in proc.stderr
        assert "listening" not in proc.stdout


def _alive(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not hasattr(os, "pidfd_open"),
                    reason="workers watch their owner through a pidfd")
@pytest.mark.parametrize("context", [None, "forkserver"],
                         ids=["fork", "forkserver"])
def test_workers_exit_with_a_sigkilled_owner(context):
    script = textwrap.dedent(f"""
        import multiprocessing, time
        from repro.parallel.resilience import RetryPolicy
        from repro.parallel.supervisor import SupervisedPool

        pool = SupervisedPool(2, context={context!r})
        pool.run(time.sleep, [(0.3,), (0.3,)], RetryPolicy())
        print(*[p.pid for p in multiprocessing.active_children()],
              flush=True)
        time.sleep(600)
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_CHAOS", None)
    with subprocess.Popen([sys.executable, "-c", script], env=env,
                          stdout=subprocess.PIPE, text=True) as owner:
        try:
            workers = [int(pid) for pid in owner.stdout.readline().split()]
            assert workers and all(_alive(pid) for pid in workers)
        finally:
            owner.send_signal(signal.SIGKILL)
            owner.wait(timeout=30)
    deadline = time.monotonic() + 5
    while any(_alive(pid) for pid in workers):
        assert time.monotonic() < deadline, (
            f"workers {[p for p in workers if _alive(p)]} outlived their owner"
        )
        time.sleep(0.05)
