"""Tests for the resilience layer: self-healing worker pool, chaos
injection, degradation, orphan cleanup, and checkpoint/resume.

The chaos tests drive the real worker pool (``eval_jobs=2`` with
``REPRO_EVAL_FORCE_SHARD=1``) through injected crashes and hangs and
assert the recovered results are bit-identical to the serial reference
path — the core robustness contract (docs/ROBUSTNESS.md).
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.circuit import s27
from repro.core import CheckpointError, GaTestGenerator, TestGenConfig
from repro.core.checkpoint import load_run_checkpoint
from repro.parallel import ChaosConfig, RetryPolicy
from repro.telemetry import TelemetryCollector, use

def _drain_children(timeout=10.0):
    """Wait for worker processes to exit; returns the stragglers."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


class TestChaosConfig:
    def test_parse_full_spec(self):
        cfg = ChaosConfig.parse("crash:0.2,hang:0.1,seed:9,hang_seconds:5")
        assert cfg == ChaosConfig(crash=0.2, hang=0.1, seed=9, hang_seconds=5.0)

    def test_parse_partial_spec(self):
        assert ChaosConfig.parse("crash:1.0") == ChaosConfig(crash=1.0)

    def test_parse_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos key"):
            ChaosConfig.parse("crash:0.5,explode:1")

    def test_parse_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="not key:value"):
            ChaosConfig.parse("crash")

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            ChaosConfig(crash=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(crash=0.7, hang=0.7)

    def test_decide_is_deterministic(self):
        cfg = ChaosConfig(crash=0.3, hang=0.3, seed=4)
        first = [cfg.decide(i) for i in range(200)]
        second = [cfg.decide(i) for i in range(200)]
        assert first == second
        assert "crash" in first and "hang" in first and None in first

    def test_decide_differs_across_seeds(self):
        a = ChaosConfig(crash=0.5, seed=1)
        b = ChaosConfig(crash=0.5, seed=2)
        assert [a.decide(i) for i in range(64)] != [b.decide(i) for i in range(64)]

    def test_from_env_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert ChaosConfig.from_env() is None

    def test_from_env_disabled_probabilities(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash:0,hang:0,seed:3")
        assert ChaosConfig.from_env() is None

    def test_from_env_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash:0.25,seed:3")
        assert ChaosConfig.from_env() == ChaosConfig(crash=0.25, seed=3)


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_factor=4.0,
                             backoff_max=2.0)
        assert policy.backoff(0) == pytest.approx(0.05)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.8)
        assert policy.backoff(3) == 2.0  # capped

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_TIMEOUT", "7.5")
        monkeypatch.setenv("REPRO_EVAL_RETRIES", "5")
        policy = RetryPolicy.from_env()
        assert policy.task_timeout == 7.5
        assert policy.max_retries == 5

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_TIMEOUT", "7.5")
        monkeypatch.setenv("REPRO_EVAL_RETRIES", "5")
        policy = RetryPolicy.from_env(task_timeout=1.0, max_retries=0)
        assert policy.task_timeout == 1.0
        assert policy.max_retries == 0

    def test_nonpositive_timeout_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_TIMEOUT", raising=False)
        assert RetryPolicy.from_env(task_timeout=-1).task_timeout is None
        monkeypatch.setenv("REPRO_EVAL_TIMEOUT", "0")
        assert RetryPolicy.from_env().task_timeout is None

    @pytest.mark.parametrize("name, value, message", [
        ("REPRO_SEED_RETRIES", "two", "REPRO_SEED_RETRIES='two' is not an integer"),
        ("REPRO_SEED_RETRIES", "-1", "REPRO_SEED_RETRIES=-1 must be >= 0"),
        ("REPRO_SEED_TIMEOUT", "soon", "REPRO_SEED_TIMEOUT='soon' is not a number"),
    ])
    def test_malformed_env_names_the_variable(self, monkeypatch, name,
                                              value, message):
        monkeypatch.delenv("REPRO_SEED_TIMEOUT", raising=False)
        monkeypatch.delenv("REPRO_SEED_RETRIES", raising=False)
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=message):
            RetryPolicy.from_env(timeout_env="REPRO_SEED_TIMEOUT",
                                 retries_env="REPRO_SEED_RETRIES")

    @pytest.mark.parametrize("timeout", [float("inf"), float("nan"), 1e300,
                                         threading.TIMEOUT_MAX * 2])
    def test_timeout_a_wait_cannot_take_is_refused(self, timeout):
        with pytest.raises(ValueError, match="at most"):
            RetryPolicy(task_timeout=timeout)
        assert RetryPolicy(
            task_timeout=threading.TIMEOUT_MAX).task_timeout == threading.TIMEOUT_MAX

    @pytest.mark.parametrize("name", ["REPRO_EVAL_TIMEOUT",
                                      "REPRO_SEED_TIMEOUT",
                                      "REPRO_JOB_TIMEOUT"])
    @pytest.mark.parametrize("value", ["inf", "nan", "1e300"])
    def test_env_timeout_a_wait_cannot_take_names_the_variable(
            self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=f"{name}={value!r}: timeout"):
            RetryPolicy.from_env(timeout_env=name)


class TestSelfHealingPool:
    """Chaos-injected worker failures must never change results."""

    @pytest.fixture(autouse=True)
    def _shard_on_one_cpu(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_FORCE_SHARD", "1")
        monkeypatch.delenv("REPRO_EVAL_TIMEOUT", raising=False)
        monkeypatch.delenv("REPRO_EVAL_RETRIES", raising=False)

    def _serial_reference(self):
        return GaTestGenerator(s27(), TestGenConfig(seed=5)).run()

    def test_crash_chaos_is_bit_identical_to_serial(self, monkeypatch):
        """Workers die mid-run (p=0.15); retries recover; the final test
        set matches the serial reference exactly."""
        reference = self._serial_reference()
        monkeypatch.setenv("REPRO_CHAOS", "crash:0.15,seed:7")
        collector = TelemetryCollector(source="test")
        with use(collector):
            result = GaTestGenerator(
                s27(), TestGenConfig(seed=5, eval_jobs=2),
                collector=collector,
            ).run()
        assert result.test_sequence == reference.test_sequence
        assert result.detected == reference.detected
        assert result.trace == reference.trace
        assert collector.counters.get("parallel.retries", 0) >= 1
        assert collector.counters.get("parallel.pool.restarts", 0) >= 1
        assert not _drain_children()

    def test_certain_crash_degrades_to_serial(self, monkeypatch):
        """With crash:1.0 every pool attempt dies; after bounded retries
        the evaluator degrades permanently — and still matches serial."""
        reference = self._serial_reference()
        monkeypatch.setenv("REPRO_CHAOS", "crash:1.0,seed:1")
        collector = TelemetryCollector(source="test")
        with use(collector):
            result = GaTestGenerator(
                s27(), TestGenConfig(seed=5, eval_jobs=2),
                collector=collector,
            ).run()
        assert result.test_sequence == reference.test_sequence
        assert collector.counters.get("parallel.degraded", 0) == 1
        # Degradation is sticky: exactly max_retries retries were spent.
        assert collector.counters.get("parallel.retries", 0) == 2
        assert not _drain_children()

    def test_hung_worker_hits_timeout_and_recovers(self, monkeypatch):
        """A wedged worker (hang chaos) surfaces as a task timeout; the
        pool is killed and respawned, and no children are leaked."""
        monkeypatch.setenv("REPRO_CHAOS", "hang:1.0,seed:2,hang_seconds:30")
        monkeypatch.setenv("REPRO_EVAL_TIMEOUT", "1.0")
        monkeypatch.setenv("REPRO_EVAL_RETRIES", "1")
        collector = TelemetryCollector(source="test")
        start = time.monotonic()
        with use(collector):
            result = GaTestGenerator(
                s27(),
                TestGenConfig(seed=5, eval_jobs=2, max_vectors=3),
                collector=collector,
            ).run()
        # Bounded: one timed-out pass + one retry, then serial.
        assert time.monotonic() - start < 20
        assert collector.counters.get("parallel.pool.restarts", 0) >= 1
        assert collector.counters.get("parallel.degraded", 0) == 1
        assert result.vectors == 3
        assert not _drain_children()


class TestOrphanCleanup:
    def test_generator_interrupt_reaps_workers(self, monkeypatch):
        """An interrupt mid-run must not strand pool worker processes."""
        monkeypatch.setenv("REPRO_EVAL_FORCE_SHARD", "1")
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        generator = GaTestGenerator(
            s27(), TestGenConfig(seed=1, eval_jobs=2)
        )
        # Force the pool into existence, then interrupt the run.
        generator.fsim.evaluate_batch(
            [[[0] * generator.compiled.num_pis]]
        )
        assert multiprocessing.active_children()

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(GaTestGenerator, "_evolve_vector", interrupt)
        with pytest.raises(KeyboardInterrupt):
            generator.run()
        assert not _drain_children()

    def test_cli_interrupt_reaps_workers(self, monkeypatch, capsys):
        """The CLI's try/finally shields the evaluator lifetime too."""
        from repro import cli

        monkeypatch.setenv("REPRO_EVAL_FORCE_SHARD", "1")
        monkeypatch.delenv("REPRO_CHAOS", raising=False)

        def run_then_die(self, **kwargs):
            # Bring the worker pool up (the executor only spawns
            # processes on first submit).
            pool = self.fsim._parallel.pool.executor()
            assert pool is not None
            pool.submit(os.getpid).result(timeout=60)
            assert multiprocessing.active_children()
            raise KeyboardInterrupt

        monkeypatch.setattr(GaTestGenerator, "run", run_then_die)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["run", "s27", "--eval-jobs", "2", "--seed", "1"])
        assert not _drain_children()


class TestCheckpointResume:
    """Crash-safe checkpoint/resume of full generator runs."""

    CONFIG = TestGenConfig(seed=3)

    def _interrupted_run(self, monkeypatch, tmp_path, interrupt_after,
                         checkpoint_every=2):
        """Run with checkpoints, aborting after N checkpoint writes."""
        import repro.core.generator as generator_module

        path = tmp_path / "run.ckpt"
        real_save = generator_module.save_run_checkpoint
        writes = []

        def save_then_maybe_die(ckpt_path, payload):
            real_save(ckpt_path, payload)
            writes.append(payload["stage"])
            if len(writes) >= interrupt_after:
                raise KeyboardInterrupt

        monkeypatch.setattr(
            generator_module, "save_run_checkpoint", save_then_maybe_die
        )
        with pytest.raises(KeyboardInterrupt):
            GaTestGenerator(s27(), self.CONFIG).run(
                checkpoint_path=path, checkpoint_every=checkpoint_every
            )
        monkeypatch.setattr(generator_module, "save_run_checkpoint", real_save)
        return path, writes

    def test_resume_is_bit_identical(self, monkeypatch, tmp_path):
        reference = GaTestGenerator(s27(), self.CONFIG).run()
        path, writes = self._interrupted_run(monkeypatch, tmp_path, 2)
        assert writes  # the run really was cut short mid-flight
        collector = TelemetryCollector(source="test")
        with use(collector):
            resumed = GaTestGenerator(
                s27(), self.CONFIG, collector=collector
            ).run(checkpoint_path=path, resume=True)
        assert resumed.test_sequence == reference.test_sequence
        assert resumed.detected == reference.detected
        assert resumed.trace == reference.trace
        assert resumed.phase_transitions == reference.phase_transitions
        assert resumed.detections == reference.detections
        assert resumed.ga_evaluations == reference.ga_evaluations
        assert collector.counters.get("run.resumed") == 1
        assert collector.counters.get("checkpoint.writes", 0) >= 1

    def test_resume_mid_sequences_is_bit_identical(self, monkeypatch, tmp_path):
        """Interrupt late enough to land in the sequence stage."""
        reference = GaTestGenerator(s27(), self.CONFIG).run()
        # Count how many stage events the full run produces, then cut at
        # ~90% so the checkpoint lands in the sequence loop.
        total = len(reference.trace)
        path, writes = self._interrupted_run(
            monkeypatch, tmp_path, max(1, int(total * 0.9)), checkpoint_every=1
        )
        assert "sequences" in writes
        resumed = GaTestGenerator(s27(), self.CONFIG).run(
            checkpoint_path=path, resume=True
        )
        assert resumed.test_sequence == reference.test_sequence
        assert resumed.trace == reference.trace

    def test_completed_run_leaves_done_checkpoint(self, tmp_path):
        path = tmp_path / "run.ckpt"
        first = GaTestGenerator(s27(), self.CONFIG).run(checkpoint_path=path)
        payload = load_run_checkpoint(path)
        assert payload["stage"] == "done"
        # Resuming a finished run reproduces its result without work.
        again = GaTestGenerator(s27(), self.CONFIG).run(
            checkpoint_path=path, resume=True
        )
        assert again.test_sequence == first.test_sequence
        assert again.ga_evaluations == first.ga_evaluations

    def test_resume_under_different_execution_knobs(self, monkeypatch, tmp_path):
        """Execution-only knobs (eval_jobs, kernel) may change at resume;
        the result must not."""
        reference = GaTestGenerator(s27(), self.CONFIG).run()
        path, _ = self._interrupted_run(monkeypatch, tmp_path, 2)
        other_exec = TestGenConfig(seed=3, eval_jobs=2, sim_kernel="interp")
        resumed = GaTestGenerator(s27(), other_exec).run(
            checkpoint_path=path, resume=True
        )
        assert resumed.test_sequence == reference.test_sequence

    def test_wrong_config_rejected(self, monkeypatch, tmp_path):
        path, _ = self._interrupted_run(monkeypatch, tmp_path, 1)
        with pytest.raises(CheckpointError, match="configuration"):
            GaTestGenerator(s27(), TestGenConfig(seed=99)).run(
                checkpoint_path=path, resume=True
            )

    def test_wrong_circuit_rejected(self, monkeypatch, tmp_path):
        from repro.circuit import mini_fsm

        path, _ = self._interrupted_run(monkeypatch, tmp_path, 1)
        with pytest.raises(CheckpointError, match="different structure"):
            GaTestGenerator(mini_fsm(), self.CONFIG).run(
                checkpoint_path=path, resume=True
            )

    def test_corrupt_checkpoint_rejected(self, monkeypatch, tmp_path):
        path, _ = self._interrupted_run(monkeypatch, tmp_path, 1)
        payload = json.loads(path.read_text())
        payload["ga_runs"] = 12345
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="content-hash"):
            GaTestGenerator(s27(), self.CONFIG).run(
                checkpoint_path=path, resume=True
            )

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            GaTestGenerator(s27(), self.CONFIG).run(resume=True)

    def test_checkpoint_every_validated(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            GaTestGenerator(s27(), self.CONFIG).run(
                checkpoint_path=tmp_path / "x", checkpoint_every=0
            )


class TestKillResumeEndToEnd:
    """SIGKILL a live ``gatest run`` and resume it from its checkpoint."""

    def _cli(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            (os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        ) + "/src"
        env.pop("REPRO_CHAOS", None)
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "run", "s27", "--seed", "4",
             "--checkpoint", str(tmp_path / "run.ckpt"), *extra],
            env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )

    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        # Uninterrupted reference, fully in-process.
        reference = GaTestGenerator(s27(), TestGenConfig(seed=4)).run()

        ckpt = tmp_path / "run.ckpt"
        out = tmp_path / "tests.txt"
        victim = self._cli(
            tmp_path, "--checkpoint-every", "1", "-o", str(out)
        )
        # Kill as soon as the first checkpoint lands.  If the run is so
        # fast it finishes first, resume degenerates to the (also
        # asserted) done-checkpoint path — the comparison still holds.
        deadline = time.monotonic() + 60
        while not ckpt.exists() and victim.poll() is None:
            if time.monotonic() > deadline:  # pragma: no cover
                victim.kill()
                pytest.fail("no checkpoint appeared within 60s")
            time.sleep(0.002)
        if victim.poll() is None:
            os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
        assert ckpt.exists()

        resumer = self._cli(tmp_path, "--resume", "-o", str(out))
        stdout, stderr = resumer.communicate(timeout=300)
        assert resumer.returncode == 0, stderr.decode()

        resumed_vectors = [
            [int(ch) for ch in line]
            for line in out.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert resumed_vectors == reference.test_sequence
        summary = stdout.decode()
        assert f"det {reference.detected}/{reference.total_faults}" in summary
