"""The job service: lifecycle, warm cache, bit-identity, recovery.

Four layers under test (docs/SERVICE.md):

* the in-process pieces — :func:`~repro.service.jobs.parse_job`
  validation, :class:`~repro.service.state.WarmRegistry` lease/release
  and eviction, the sealed :class:`~repro.service.jobs.JobLedger`;
* the :class:`~repro.service.jobs.JobManager` — lifecycle, coalescing,
  and bit-identity against direct library runs;
* the HTTP front over a real localhost socket — endpoints, error
  codes, the live event stream (validated against the telemetry
  schema), and warm-cache counters via ``GET /healthz``;
* the crash contract — SIGKILL a live ``gatest serve`` mid-run,
  restart on the same state dir, and the recovered job finishes
  bit-identically to an uninterrupted run.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.circuit import s27
from repro.circuit.library import canonical_spec
from repro.core import GaTestGenerator, TestGenConfig
from repro.core.checkpoint import CheckpointError, seal_journal_record
from repro.faults import FaultSimulator
from repro.service import (
    JobLedger,
    JobManager,
    JobValidationError,
    ServiceClient,
    ServiceError,
    ServiceServer,
    StreamingCollector,
    WarmRegistry,
    parse_job,
    sim_key,
)
from repro.sim import compiled_circuit_for
from repro.sim.codegen import resolve_kernel_name
from repro.telemetry import TelemetryCollector, validate_trace

from .conftest import random_vectors

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Counters that move only when a kernel is built: a warm repeat must
#: leave every one of them where the cold request left it.
KERNEL_BUILD_COUNTERS = ("codegen.kernels.built",)


def _kernel_builds(counters):
    return {name: counters.get(name, 0) for name in KERNEL_BUILD_COUNTERS}


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


class TestParseJob:
    def test_run_spec_roundtrips_config(self):
        spec = parse_job(
            {"kind": "run", "circuit": "s27",
             "config": {"seed": 7, "fault_model": "transition"}}
        )
        assert spec.kind == "run"
        assert spec.config.seed == 7
        assert spec.config.fault_model == "transition"
        assert spec.checkpoint_every >= 1

    def test_fsim_spec(self):
        spec = parse_job(
            {"kind": "fsim", "circuit": "s27", "vectors": [[0, 1], [1, 0]]}
        )
        assert spec.vectors == [[0, 1], [1, 0]]

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("nope", "JSON object"),
            ({}, "'kind'"),
            ({"kind": "zap"}, "'kind'"),
            ({"kind": "run"}, "'circuit'"),
            ({"kind": "run", "circuit": "s27", "config": 3}, "'config'"),
            ({"kind": "run", "circuit": "s27", "config": {"bogus": 1}}, "config"),
            ({"kind": "run", "circuit": "s27", "scale": -1}, "'scale'"),
            ({"kind": "run", "circuit": "s27", "vectors": []}, "unknown field"),
            ({"kind": "fsim", "circuit": "s27"}, "'vectors'"),
            ({"kind": "fsim", "circuit": "s27", "vectors": [[0, 2]]}, "0/1"),
            ({"kind": "fsim", "circuit": "s27", "vectors": [[0], [0, 1]]}, "bits"),
            # Refused on acceptance, not when the first GA run starts.
            ({"kind": "run", "circuit": "s27",
              "config": {"n_islands": 2, "migration_interval": 0}},
             "migration_interval must be >= 1"),
            *(({"kind": "run", "circuit": "s27",
                "config": {"fault_sample": bad}}, "invalid config: fault_sample")
              for bad in (0, -2, 1.5, "x", True)),
            *(({"kind": "run", "circuit": "s27", "config": config},
               f"invalid config: {message}")
              for config, message in (
                  ({"selection": "nope"}, "unknown selection 'nope'"),
                  ({"crossover": "nope"}, "unknown crossover 'nope'"),
                  ({"coding": "nope"}, "unknown coding 'nope'"),
                  ({"seq_mutation_rate": 2}, "seq_mutation_rate"),
                  ({"seq_population_size": 1}, "seq_population_size"),
                  ({"population_scale": float("nan")}, "population_scale"),
                  ({"seq_length_multipliers": [1, float("inf")]},
                   "seq_length_multipliers"),
              )),
            # A wait cannot take these; every tier attempt would fail.
            *(({"kind": "run", "circuit": "s27", "deadline_s": bad},
               "field 'deadline_s': timeout must be")
              for bad in (1e300, float("inf"), float("nan"), 10 ** 400)),
        ],
    )
    def test_rejections(self, payload, message):
        with pytest.raises(JobValidationError, match=re.escape(message)):
            parse_job(payload)

    def test_identical_payloads_share_a_digest(self):
        a = parse_job({"kind": "run", "circuit": "s27", "config": {"seed": 1}})
        b = parse_job({"config": {"seed": 1}, "circuit": "s27", "kind": "run"})
        c = parse_job({"kind": "run", "circuit": "s27", "config": {"seed": 2}})
        assert a.digest == b.digest != c.digest


# ----------------------------------------------------------------------
# Warm registry
# ----------------------------------------------------------------------


class TestWarmRegistry:
    CONFIG = TestGenConfig(seed=1)

    def test_lease_miss_then_hit(self):
        collector = TelemetryCollector()
        registry = WarmRegistry(collector=collector, max_sims=4)
        key = canonical_spec("s27", 1.0, 0)
        sim = registry.lease(key, self.CONFIG)
        assert collector.counters["service.cache.misses"] == 1
        registry.release(key, self.CONFIG, sim)
        again = registry.lease(key, self.CONFIG)
        assert again is sim
        assert collector.counters["service.cache.hits"] == 1
        registry.close()

    def test_released_simulator_is_back_at_powerup(self):
        registry = WarmRegistry(max_sims=4)
        key = canonical_spec("s27", 1.0, 0)
        sim = registry.lease(key, self.CONFIG)
        sim.commit(random_vectors(s27(), 4))
        assert sim.vectors_applied == 4
        registry.release(key, self.CONFIG, sim)
        again = registry.lease(key, self.CONFIG)
        assert again.vectors_applied == 0
        assert again.detected_count == 0
        registry.close()

    def test_config_change_is_a_different_key(self):
        key = canonical_spec("s27", 1.0, 0)
        assert sim_key(key, self.CONFIG) != sim_key(
            key, TestGenConfig(seed=1, sim_kernel="interp")
        )
        # seed alone shapes the RNG, not the simulator: same key.
        assert sim_key(key, self.CONFIG) == sim_key(key, TestGenConfig(seed=9))

    def test_builtin_circuit_key_ignores_seed(self):
        assert canonical_spec("s27", 1.0, 3) == canonical_spec("s27", 2.0, 8)
        assert canonical_spec("s298", 0.3, 3) != canonical_spec("s298", 0.3, 8)

    def test_one_entry_per_circuit(self):
        """Every spelling of one scaled circuit is one registry entry:
        one compiled object, one kernel build."""
        spellings = [("s298@0.3", 1.0), ("s298@0.3", 0.3), ("s298", 0.3)]
        config = TestGenConfig(seed=1, sim_kernel="codegen")
        collector = TelemetryCollector()
        registry = WarmRegistry(collector=collector, max_sims=4)
        keys = [canonical_spec(spec, scale, 0) for spec, scale in spellings]
        assert len({id(compiled_circuit_for(*key)) for key in keys}) == 1
        for key in keys:
            registry.release(key, config, registry.lease(key, config))
        assert collector.counters["service.cache.misses"] == 1
        assert collector.counters["codegen.kernels.built"] == 1
        registry.close()

    def test_lru_eviction_closes_the_evicted_simulator(self):
        collector = TelemetryCollector()
        registry = WarmRegistry(collector=collector, max_sims=1)
        key = canonical_spec("s27", 1.0, 0)
        other = TestGenConfig(seed=1, sim_kernel="interp")
        sim_a = registry.lease(key, self.CONFIG)
        sim_b = registry.lease(key, other)
        registry.release(key, self.CONFIG, sim_a)
        registry.release(key, other, sim_b)
        assert collector.counters["service.cache.evictions"] == 1
        assert registry.stats()["sims"] == 1
        registry.close()


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------


class TestJobLedger:
    def test_roundtrip(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        ledger.append({"event": "accepted", "id": "j1", "seq": 1, "payload": {}})
        ledger.append({"event": "completed", "id": "j1", "result": {"x": 1}})
        records = ledger.load()
        assert [r["event"] for r in records] == ["accepted", "completed"]

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = JobLedger(path)
        ledger.append({"event": "accepted", "id": "j1", "seq": 1, "payload": {}})
        with open(path, "a") as handle:
            handle.write('{"event": "completed", "id"')  # torn mid-append
        assert [r["event"] for r in ledger.load()] == ["accepted"]

    def test_bitflipped_line_is_refused(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = JobLedger(path)
        ledger.append({"event": "accepted", "id": "j1", "seq": 1, "payload": {}})
        ledger.append({"event": "completed", "id": "j1", "result": None})
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"accepted"', '"rejected"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=r"ledger\.jsonl:1: .*content-hash"):
            ledger.load()

    def test_concurrent_appends_keep_every_record(self, tmp_path):
        """Worker threads share the ledger with no lock of their own:
        the file lock alone must keep every line whole."""
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda t=t: [
                    ledger.append({"event": "accepted", "id": f"t{t}-{i}"})
                    for i in range(25)
                ])
                for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        ids = sorted(r["id"] for r in ledger.load())
        assert ids == sorted(f"t{t}-{i}" for t in range(8) for i in range(25))

    def test_default_separator_lines_load(self, tmp_path):
        """Ledgers written before journals and the ledger shared one
        writer spaced their JSON (``json.dumps`` default separators);
        the seal covers the canonical form, so those lines still load."""
        path = tmp_path / "ledger.jsonl"
        records = [
            seal_journal_record({"event": "accepted", "id": "j1", "seq": 1,
                                 "payload": {"kind": "run"}}),
            seal_journal_record({"event": "completed", "id": "j1",
                                 "result": {"x": [1, 2]}}),
        ]
        path.write_text("".join(
            json.dumps(r, sort_keys=True) + "\n" for r in records
        ))
        ledger = JobLedger(path)
        ledger.append({"event": "accepted", "id": "j2", "seq": 2,
                       "payload": {}})
        assert [r["id"] for r in ledger.load()] == ["j1", "j1", "j2"]


class TestLedgerRecovery:
    """Restarting a service on a ledger a crash or bit rot touched."""

    def _manager(self, state, **kw):
        kw.setdefault("use_tier", False)
        return JobManager(state, collector=TelemetryCollector(), workers=1,
                          **kw)

    def test_job_accepted_after_torn_tail_is_recovered(self, tmp_path):
        """The next append cuts a killed writer's fragment, so the job
        it accepts is not glued onto the torn line and lost with it."""
        state = tmp_path / "state"
        state.mkdir()
        (state / "ledger.jsonl").write_text('{"event": "completed", "id"')
        manager = self._manager(state)
        try:
            job, _ = manager.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
            )
            assert manager.wait_idle(timeout=300)
            assert job.status == "done", job.error
        finally:
            manager.close()
        restarted = self._manager(state)
        try:
            recovered = restarted.get(job.id)
            assert recovered is not None and recovered.status == "done"
            assert recovered.result["test_sequence"] == \
                job.result["test_sequence"]
        finally:
            restarted.close()

    def _corrupt_ledger(self, state):
        state.mkdir()
        ledger = JobLedger(state / "ledger.jsonl")
        for seq, job_id in enumerate(("j1", "j2", "j3"), 1):
            ledger.append({"event": "accepted", "id": job_id, "seq": seq,
                           "payload": {}})
        lines = ledger.path.read_text().splitlines()
        lines[1] = lines[1].replace('"j2"', '"j9"')
        ledger.path.write_text("\n".join(lines) + "\n")

    def test_corrupt_line_stops_the_manager(self, tmp_path):
        state = tmp_path / "state"
        self._corrupt_ledger(state)
        with pytest.raises(CheckpointError, match=r"ledger\.jsonl:2: "):
            self._manager(state, use_tier=True)
        assert not multiprocessing.active_children()

    def test_serve_exits_1_naming_the_line(self, tmp_path):
        state = tmp_path / "state"
        self._corrupt_ledger(state)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env.pop("REPRO_CHAOS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--state-dir", str(state)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 1
        assert err.startswith("error: ") and "ledger.jsonl:2: " in err
        assert "listening" not in out
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no tier worker or forkserver left

    def test_serve_on_a_busy_port_exits_1_before_touching_state(self, tmp_path):
        """The socket is bound before the ledger is read, so a busy port
        ends the start with one line and the queued job stays queued."""
        state = tmp_path / "state"
        state.mkdir()
        ledger = state / "ledger.jsonl"
        JobLedger(ledger).append(
            {"event": "accepted", "id": "j0001-0000cafe", "seq": 1,
             "payload": {"kind": "run", "circuit": "s27",
                         "config": {"seed": 1}}}
        )
        before = ledger.read_bytes()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env.pop("REPRO_CHAOS", None)
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port",
                 str(port), "--state-dir", str(state)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, start_new_session=True,
            )
            try:
                out, err = proc.communicate(timeout=120)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 1
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert out == ""
        assert ledger.read_bytes() == before
        assert [path.name for path in state.iterdir()] == ["ledger.jsonl"]
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no tier worker or forkserver left


# ----------------------------------------------------------------------
# Manager lifecycle (no HTTP)
# ----------------------------------------------------------------------


class TestJobManager:
    def _manager(self, tmp_path, **kw):
        kw.setdefault("workers", 1)
        collector = kw.pop("collector", TelemetryCollector())
        return JobManager(tmp_path / "state", collector=collector, **kw), collector

    def test_run_job_matches_direct_library_run(self, tmp_path):
        reference = GaTestGenerator(s27(), TestGenConfig(seed=3)).run()
        manager, _ = self._manager(tmp_path)
        try:
            job, coalesced = manager.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 3}}
            )
            assert not coalesced
            assert manager.wait_idle(timeout=300)
            assert job.status == "done", job.error
            assert job.result["test_sequence"] == [
                list(v) for v in reference.test_sequence
            ]
            assert job.result["detected"] == reference.detected
            assert job.result["total_faults"] == reference.total_faults
        finally:
            manager.close()

    def test_warm_repeat_skips_kernel_compile(self, tmp_path):
        manager, collector = self._manager(tmp_path)
        try:
            first, _ = manager.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
            )
            assert manager.wait_idle(timeout=300)
            assert first.status == "done", first.error
            built_cold = _kernel_builds(collector.counters)
            second, _ = manager.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 2}}
            )
            assert manager.wait_idle(timeout=300)
            assert second.status == "done", second.error
            assert _kernel_builds(collector.counters) == built_cold
            assert collector.counters["service.cache.hits"] == 1
            assert collector.counters["service.cache.misses"] == 1
        finally:
            manager.close()

    def test_ga_seed_does_not_choose_the_circuit(self, tmp_path):
        """Run jobs resolve synthesized profiles at circuit seed 0, so
        two GA seeds share one compiled circuit."""
        manager, _ = self._manager(tmp_path, use_tier=False)
        try:
            jobs = [
                manager.submit({"kind": "run", "circuit": "s298",
                                "scale": 0.1,
                                "config": {"seed": seed, "max_vectors": 8}})[0]
                for seed in (1, 2)
            ]
            assert manager.wait_idle(timeout=300)
            assert [job.status for job in jobs] == ["done", "done"]
            assert manager.registry.stats()["circuits"] == 1
            assert {job.spec.key for job in jobs} == {("s298", 0.1, 0)}
        finally:
            manager.close()

    def test_identical_requests_coalesce(self, tmp_path):
        manager, collector = self._manager(tmp_path)
        try:
            payload = {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
            a, first = manager.submit(payload)
            b, second = manager.submit(payload)
            assert not first and second
            assert a is b
            assert collector.counters["service.jobs.coalesced"] == 1
            assert manager.wait_idle(timeout=300)
        finally:
            manager.close()

    def test_two_spellings_coalesce(self, tmp_path):
        manager, collector = self._manager(tmp_path)
        try:
            config = {"seed": 1, "max_vectors": 8}
            a, first = manager.submit({"kind": "run", "circuit": "s298@0.1",
                                       "config": config})
            b, second = manager.submit({"kind": "run", "circuit": "s298",
                                        "scale": 0.1, "config": config})
            assert not first and second
            assert a is b
            assert collector.counters["service.jobs.coalesced"] == 1
            assert manager.wait_idle(timeout=300)
        finally:
            manager.close()

    def test_fsim_batch_matches_commit_per_job(self, tmp_path):
        circuit = s27()
        batches = [random_vectors(circuit, 4, seed=s) for s in range(3)]
        expected = []
        for vectors in batches:
            sim = FaultSimulator(circuit)
            sim.commit(vectors)
            expected.append(sim.detected_count)
            sim.close()
        manager, collector = self._manager(tmp_path)
        try:
            jobs = [
                manager.submit(
                    {"kind": "fsim", "circuit": "s27", "seed": i, "vectors": v}
                )[0]
                for i, v in enumerate(batches)
            ]
            assert manager.wait_idle(timeout=300)
            for job, want in zip(jobs, expected):
                assert job.status == "done", job.error
                assert job.result["detected"] == want
        finally:
            manager.close()

    def test_fsim_width_mismatch_fails_cleanly(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        try:
            job, _ = manager.submit(
                {"kind": "fsim", "circuit": "s27", "vectors": [[0, 1]]}
            )
            assert manager.wait_idle(timeout=300)
            assert job.status == "failed"
            assert "primary inputs" in job.error
        finally:
            manager.close()

    def test_conflicting_scale_spelling_rejected_at_submit(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        try:
            with pytest.raises(JobValidationError, match="names scale 0.3"):
                manager.submit({"kind": "fsim", "circuit": "s298@0.3",
                                "scale": 0.5, "vectors": [[0, 1, 0]]})
        finally:
            manager.close()

    def test_unknown_circuit_rejected_at_submit(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        try:
            with pytest.raises(JobValidationError, match="unknown circuit"):
                manager.submit(
                    {"kind": "run", "circuit": "never-heard-of-it",
                     "config": {"seed": 1}}
                )
        finally:
            manager.close()

    def test_restart_recovers_finished_and_unfinished_jobs(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        done_payload = {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
        job, _ = manager.submit(done_payload)
        assert manager.wait_idle(timeout=300)
        assert job.status == "done", job.error
        result = job.result
        # Forge an accepted-but-never-finished ledger entry (what a
        # SIGKILL mid-run leaves behind).
        manager.ledger.append(
            {"event": "accepted", "id": "j9999-deadbeef", "seq": 9999,
             "payload": {"kind": "run", "circuit": "s27",
                         "config": {"seed": 6}}}
        )
        manager.close()

        collector = TelemetryCollector()
        revived = JobManager(tmp_path / "state", collector=collector, workers=1)
        try:
            restored = revived.get(job.id)
            assert restored is not None
            assert restored.status == "done"
            assert restored.result == result
            assert revived.wait_idle(timeout=300)
            recovered = revived.get("j9999-deadbeef")
            assert recovered is not None
            assert recovered.status == "done", recovered.error
            assert collector.counters["service.jobs.resumed"] == 1
        finally:
            revived.close()

    def test_unrecoverable_ledger_job_is_counted_and_named(self, tmp_path,
                                                           capsys):
        """An accepted ledger record whose payload this build no longer
        accepts (say, a kernel that was removed) cannot be re-queued; it
        is counted and named on stderr instead of vanishing silently."""
        manager, _ = self._manager(tmp_path)
        manager.ledger.append(
            {"event": "accepted", "id": "j9998-0badc0de", "seq": 9998,
             "payload": {"kind": "fsim", "circuit": "s27", "kernel": "turbo",
                         "vectors": [[0, 1, 0, 1]]}}
        )
        manager.close()
        capsys.readouterr()

        collector = TelemetryCollector()
        revived = JobManager(tmp_path / "state", collector=collector, workers=1)
        try:
            assert revived.get("j9998-0badc0de") is None
            assert collector.counters["service.jobs.unrecoverable"] == 1
            err = capsys.readouterr().err
            assert "j9998-0badc0de" in err
            assert "unknown simulation kernel 'turbo'" in err
        finally:
            revived.close()

    @pytest.mark.parametrize("config, message", [
        ({"seed": 1, "word_width": 16}, "word_width"),
        ({"seed": 1, "sim_kernel": "c"}, "unknown simulation kernel 'c'"),
        ({"seed": 1, "eval_cache": True}, "eval_cache"),
        ({"seed": 1, "eval_task_timeout": 5.0}, "eval_task_timeout"),
        ({"seed": 1, "eval_retries": 2}, "eval_retries"),
    ])
    def test_ledger_job_of_removed_knobs_is_unrecoverable(
            self, tmp_path, capsys, config, message):
        """Run jobs accepted by builds that had ``word_width``, the ``c``
        kernel, the evaluation cache switch or the per-config pool
        resilience knobs are counted and named, never run with a
        guess."""
        manager, _ = self._manager(tmp_path)
        manager.ledger.append(
            {"event": "accepted", "id": "j9997-0ldc0f16", "seq": 9997,
             "payload": {"kind": "run", "circuit": "s27", "config": config}}
        )
        manager.close()
        capsys.readouterr()

        collector = TelemetryCollector()
        revived = JobManager(tmp_path / "state", collector=collector, workers=1)
        try:
            assert revived.get("j9997-0ldc0f16") is None
            assert collector.counters["service.jobs.unrecoverable"] == 1
            err = capsys.readouterr().err
            assert "j9997-0ldc0f16" in err
            assert message in err
        finally:
            revived.close()


# ----------------------------------------------------------------------
# One copy of each job's trace
# ----------------------------------------------------------------------


class TestJobTrace:
    """A job's own collector is the only copy of its trace: the event
    stream reads it, and the service collector takes its counters."""

    @staticmethod
    def _task(stream, step):
        """What a job records for one step: a span and a counter."""
        with stream.span("step", step=step):
            stream.inc("steps")

    def test_stream_splits_concatenate_to_records(self):
        stream = StreamingCollector(source="repro.service.job.split")
        pieces = []

        def read(start):
            records, done = stream.stream_read(start, timeout=0)
            pieces.extend(records)
            return len(records), done

        assert read(0) == (1, False)          # the meta record alone
        for step in range(3):
            self._task(stream, step)
        assert read(1) == (3, False)          # 1 .. k
        worker = TelemetryCollector(source="repro.service.tier")
        self._task(worker, 3)
        stream.merge_worker_trace(None, worker.drain())
        assert read(4) == (1, False)          # k .. the running end
        assert read(5) == (0, False)
        stream.finish_stream()
        records = stream.records()
        assert read(5) == (len(records) - 5, True)   # the counters
        assert pieces == records
        validate_trace(pieces)
        for start in (0, 1, 4, len(records)):
            assert stream.stream_read(start) == (records[start:], True)
        assert stream.stream_read(0) == stream.stream_read(0)

    def test_waiting_reader_wakes_on_a_new_record(self):
        stream = StreamingCollector(source="repro.service.job.wake")
        reads = []

        def reader(start):
            began = time.monotonic()
            records, done = stream.stream_read(start, timeout=30)
            reads.append(([r["kind"] for r in records], done,
                          time.monotonic() - began))

        for start, wake in ((1, lambda: stream.gauge("coverage", 0.5)),
                            (2, stream.finish_stream)):
            thread = threading.Thread(target=reader, args=(start,))
            thread.start()
            time.sleep(0.1)
            wake()
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert [(kinds, done) for kinds, done, _ in reads] == [
            (["gauge"], False), ([], True),
        ]
        assert max(waited for _, _, waited in reads) < 10

    def test_service_collector_takes_job_counters_only(self, tmp_path):
        collector = TelemetryCollector(source="repro.service")
        manager = JobManager(tmp_path / "state", collector=collector,
                             workers=1)
        try:
            jobs = [
                manager.submit({"kind": "run", "circuit": "s27",
                                "config": {"seed": seed}})[0]
                for seed in (1, 2)
            ]
            jobs.append(manager.submit({"kind": "fsim", "circuit": "s27",
                                        "vectors": [[0, 1, 0, 1]]})[0])
            assert manager.wait_idle(timeout=300)
        finally:
            manager.close()
        assert [job.status for job in jobs] == ["done"] * 3
        assert collector.events() == []
        streams = [job.collector.stream_read(0)[0] for job in jobs]
        for records in streams:
            validate_trace(records)
        evaluations = sum(
            r["value"] for records in streams for r in records
            if r["kind"] == "counter" and r["name"] == "ga.evaluations"
        )
        assert evaluations > 0
        assert collector.counters["ga.evaluations"] == evaluations
        # Each tier-run job folded in its worker's trace once.
        assert [job.collector.counters.get("worker.trace.merged")
                for job in jobs] == [1, 1, None]
        assert collector.counters["worker.trace.merged"] == 2


# ----------------------------------------------------------------------
# HTTP over a real localhost socket
# ----------------------------------------------------------------------


@pytest.fixture
def live_service(tmp_path):
    """A served JobManager on an ephemeral localhost port."""
    collector = TelemetryCollector(source="repro.service")
    manager = JobManager(tmp_path / "state", collector=collector, workers=1)
    server = ServiceServer(manager, port=0)
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    client = ServiceClient(port=server.port)
    yield client, collector
    try:
        client.shutdown()
    except (ServiceError, OSError):
        pass
    thread.join(timeout=30)
    assert not thread.is_alive(), "server thread failed to shut down"


class TestHttpApi:
    def test_healthz(self, live_service):
        client, _ = live_service
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled", "preempted"
        }
        assert health["cache"]["capacity"] >= 1
        assert health["queue"]["depth"] == 0
        assert "by_priority" in health["queue"]
        assert health["tier"]["enabled"] is True
        assert health["tier"]["degraded"] is False
        assert health["tier"]["restarts"] == 0

    def test_job_lifecycle_and_listing(self, live_service):
        client, _ = live_service
        job = client.submit(
            {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
        )
        assert job["status"] in ("queued", "running")
        done = client.wait(job["id"], timeout=300)
        assert done["status"] == "done", done["error"]
        assert done["result"]["fault_coverage"] > 0.5
        assert any(j["id"] == job["id"] for j in client.jobs())

    def test_run_result_matches_cli_bit_for_bit(self, live_service, tmp_path):
        client, _ = live_service
        out = tmp_path / "cli-tests.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "s27", "--seed", "5",
             "-o", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        cli_vectors = [
            [int(ch) for ch in line]
            for line in out.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        job = client.submit(
            {"kind": "run", "circuit": "s27", "config": {"seed": 5}}
        )
        done = client.wait(job["id"], timeout=300)
        assert done["status"] == "done", done["error"]
        assert done["result"]["test_sequence"] == cli_vectors

    def test_warm_counters_via_healthz(self, live_service):
        client, _ = live_service
        first = client.submit(
            {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
        )
        client.wait(first["id"], timeout=300)
        cold = client.healthz()["counters"]
        second = client.submit(
            {"kind": "run", "circuit": "s27", "config": {"seed": 2}}
        )
        client.wait(second["id"], timeout=300)
        warm = client.healthz()["counters"]
        assert warm["service.cache.hits"] == 1
        assert warm["service.cache.misses"] == cold["service.cache.misses"] == 1
        assert _kernel_builds(warm) == _kernel_builds(cold)

    def test_event_stream_is_a_valid_trace(self, live_service):
        client, _ = live_service
        job = client.submit(
            {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
        )
        records = list(client.events(job["id"]))
        validate_trace(records)  # meta first, every record schema-valid
        kinds = {record["kind"] for record in records}
        assert {"meta", "generation", "stage", "span", "counter"} <= kinds
        # The stream only completes once the job has.
        assert client.job(job["id"])["status"] == "done"

    def test_error_codes(self, live_service):
        client, _ = live_service
        with pytest.raises(ServiceError) as err:
            client.submit({"kind": "zap"})
        assert err.value.status == 400
        for config in ({"migration_interval": 0}, {"fault_sample": 0}):
            with pytest.raises(ServiceError) as err:
                client.submit({"kind": "run", "circuit": "s27",
                               "config": config})
            assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.job("j0000-nothere")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nowhere")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/healthz")
        assert err.value.status == 405

    def test_malformed_bench_is_a_400(self, live_service, tmp_path):
        bad = tmp_path / "bad.bench"
        bad.write_text("INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n")
        client, _ = live_service
        for payload in ({"kind": "run", "circuit": str(bad)},
                        {"kind": "fsim", "circuit": str(bad), "vectors": [[0]]}):
            with pytest.raises(ServiceError) as err:
                client.submit(payload)
            assert err.value.status == 400
            assert "unknown gate type 'FROB'" in str(err.value)
        assert client.jobs() == []

    def test_removed_numpy_kernel_is_rejected(self, live_service):
        """The deleted numpy and c backends are unknown names everywhere:
        the resolver, the config and both job kinds of ``POST /jobs``."""
        remaining = r"\('interp', 'codegen'\)"
        client, _ = live_service
        for name in ("numpy", "c"):
            with pytest.raises(ValueError, match=remaining):
                resolve_kernel_name(name)
            with pytest.raises(ValueError, match=remaining):
                TestGenConfig(sim_kernel=name)
            for payload in (
                {"kind": "fsim", "circuit": "s27", "kernel": name,
                 "vectors": [[0, 1, 0, 1]]},
                {"kind": "run", "circuit": "s27",
                 "config": {"sim_kernel": name}},
            ):
                with pytest.raises(ServiceError) as err:
                    client.submit(payload)
                assert err.value.status == 400


def _raw_request(port, data):
    """Send ``data`` on a fresh socket and read to EOF; returns
    ``(status, headers, body)`` with header names lower-cased."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body


class TestWire:
    """What a client sees on the socket, below ServiceClient."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1 extra\r\n\r\n", 400),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
             % (32 * 1024 * 1024 + 1), 413),
            (b"GET /nowhere HTTP/1.1\r\n\r\n", 404),
            (b"PUT /healthz HTTP/1.1\r\n\r\n", 405),
            (b"BREW /jobs HTTP/1.1\r\n\r\n", 405),
        ],
        ids=["request-line-one-word", "request-line-bad-version",
             "content-length-text", "content-length-negative",
             "body-over-32MiB", "unknown-path", "wrong-method",
             "unknown-method"],
    )
    def test_errors_are_json(self, live_service, request_bytes, status):
        client, _ = live_service
        got, headers, body = _raw_request(client.port, request_bytes)
        assert got == status
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert int(headers["content-length"]) == len(body)
        assert set(json.loads(body)) == {"error"}

    def test_event_stream_is_close_delimited_ndjson(self, live_service):
        client, _ = live_service
        job = client.submit(
            {"kind": "run", "circuit": "s27", "config": {"seed": 1}}
        )
        status, headers, body = _raw_request(
            client.port,
            b"GET /jobs/%s/events HTTP/1.1\r\n\r\n" % job["id"].encode(),
        )
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        assert "content-length" not in headers
        assert "transfer-encoding" not in headers
        assert body.endswith(b"\n")
        validate_trace([json.loads(line) for line in body.splitlines()])

    def test_submits_do_not_wait_behind_event_streams(self, tmp_path):
        """Each open event stream holds a thread while it waits for
        records; a submit must not wait for one of them.  The streams
        outnumber a default executor's threads (min(32, CPUs + 4)) by
        one, so a front that ran blocking calls on such a pool would
        keep each submit waiting up to a stream's 0.5 s read."""
        release = threading.Event()
        manager = JobManager(tmp_path / "state", workers=1, use_tier=False)
        execute = manager._execute_fsim

        def blocked(job):
            release.wait(60)
            execute(job)

        manager._execute_fsim = blocked
        server = ServiceServer(manager, port=0)
        thread = threading.Thread(target=server.serve, daemon=True)
        thread.start()
        client = ServiceClient(port=server.port)
        streams = []

        def fsim(n):
            return {"kind": "fsim", "circuit": "s27",
                    "vectors": [[(n >> k) & 1 for k in range(4)]]}

        try:
            client.submit(fsim(0))            # the worker blocks on it
            queued = client.submit(fsim(1))   # and this one waits behind
            for _ in range((os.cpu_count() or 1) + 5):
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=30
                )
                conn.request("GET", f"/jobs/{queued['id']}/events")
                assert conn.getresponse().status == 200
                streams.append(conn)
            seconds = []
            for n in range(2, 7):
                start = time.perf_counter()
                client.submit(fsim(n))
                seconds.append(time.perf_counter() - start)
            assert max(seconds) < 0.25, seconds
        finally:
            release.set()
            for conn in streams:
                conn.close()
            client.shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive(), "server thread failed to shut down"


# ----------------------------------------------------------------------
# SIGKILL the whole service, restart, resume bit-identically
# ----------------------------------------------------------------------


class TestKillServiceEndToEnd:
    def _serve(self, state_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env.pop("REPRO_CHAOS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--state-dir", str(state_dir), "--workers", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        line = proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        assert match, f"no listening line: {line!r}"
        return proc, ServiceClient(port=int(match.group(1)))

    def test_sigkill_then_restart_resumes_bit_identically(self, tmp_path):
        reference = GaTestGenerator(s27(), TestGenConfig(seed=4)).run()
        state = tmp_path / "state"

        victim, client = self._serve(state)
        try:
            job = client.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 4},
                 "checkpoint_every": 1}
            )
            # Checkpoints are keyed by the deterministic run key (so
            # resubmissions resume), not the job id — watch for any.
            ckpt_dir = state / "checkpoints"
            deadline = time.monotonic() + 60
            while not list(ckpt_dir.glob("*.ckpt")):
                assert time.monotonic() < deadline, "no checkpoint appeared"
                time.sleep(0.005)
        finally:
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)

        survivor, client = self._serve(state)
        try:
            done = client.wait(job["id"], timeout=300)
            assert done["status"] == "done", done["error"]
            assert done["result"]["test_sequence"] == [
                list(v) for v in reference.test_sequence
            ]
            assert done["result"]["detected"] == reference.detected
            health = client.healthz()
            assert health["counters"]["service.jobs.resumed"] == 1
            client.shutdown()
            assert survivor.wait(timeout=30) == 0
        finally:
            if survivor.poll() is None:  # pragma: no cover - cleanup
                survivor.kill()
                survivor.wait(timeout=30)


# ----------------------------------------------------------------------
# SIGTERM / SIGINT: drain, exit 0, leave nothing behind
# ----------------------------------------------------------------------


class TestSignals:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                             ids=["SIGTERM", "SIGINT"])
    def test_signal_drains_the_job_in_flight(self, tmp_path, signum):
        state = tmp_path / "state"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env.pop("REPRO_CHAOS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--state-dir", str(state), "--workers", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", line)
            assert match, f"no listening line: {line!r}"
            client = ServiceClient(port=int(match.group(1)))
            job = client.submit(
                {"kind": "run", "circuit": "s27", "config": {"seed": 3}}
            )
            deadline = time.monotonic() + 60
            while client.job(job["id"])["status"] == "queued":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.005)
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "shut down cleanly" in err
            assert "Traceback" not in err
            ledger = JobLedger(state / "ledger.jsonl").load()
            assert any(r["event"] == "completed" and r["id"] == job["id"]
                       for r in ledger)
            deadline = time.monotonic() + 30
            while True:  # tier workers and forkserver: all gone
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "processes left behind"
                time.sleep(0.05)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=30)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
