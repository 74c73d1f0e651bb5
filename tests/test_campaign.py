"""Campaign resilience: journaled resume, fault-isolated seed pools,
and worker telemetry shipback (docs/ROBUSTNESS.md, docs/TELEMETRY.md).

Chaos scoping: the seed pool numbers worker attempts with monotonic
``task_seq`` values in submission order — with ``jobs >= len(seeds)``,
seed *i* (0-based) draws sequence number *i* on its first attempt and
fresh numbers on retries.  The tests brute-force a ``ChaosConfig`` seed
whose crash/hang decisions hit exactly the sequence numbers of one
victim seed, so injected failures are scoped deterministically.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.checkpoint import (
    CheckpointError,
    result_from_json,
    result_to_json,
    seal_journal_record,
)
from repro.core.config import TestGenConfig
from repro.harness import CampaignJournal, ExecutionPlan, run_gatest
from repro.harness.experiments import main as experiments_main
from repro.parallel.resilience import ChaosConfig, RetryPolicy
from repro.telemetry import TelemetryCollector, use

SMALL = dict(scale=0.1)
CIRCUIT = "s298"


def _drain_children(timeout=10.0):
    """Wait for worker processes to exit; returns the stragglers."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


def _chaos_seed(predicate, crash=0.0, hang=0.0, limit=100_000):
    """Find a ChaosConfig seed whose decisions satisfy ``predicate``."""
    for seed in range(limit):
        cfg = ChaosConfig(crash=crash, hang=hang, seed=seed, hang_seconds=60.0)
        if predicate(cfg):
            return cfg
    raise AssertionError("no chaos seed found")  # pragma: no cover


def _run_serial(seeds):
    return run_gatest(CIRCUIT, TestGenConfig(), seeds, scale=0.1)


def _fingerprint(result):
    """Every deterministic field (elapsed wall time excluded)."""
    return (result.circuit_name, result.test_sequence, result.detected,
            result.total_faults, result.ga_evaluations, result.ga_runs,
            result.phase_transitions, result.trace, result.detections)


class TestResultRoundTrip:
    def test_result_survives_json(self):
        result = _run_serial([3]).runs[0]
        rebuilt = result_from_json(json.loads(json.dumps(result_to_json(result))))
        assert rebuilt == result

    def test_malformed_result_refused(self):
        with pytest.raises(CheckpointError, match="malformed"):
            result_from_json({"circuit_name": "s298"})


class TestJournalGuards:
    def _fresh(self, tmp_path, **kwargs):
        params = dict(table="4", scale=0.1, seeds=[1, 2])
        params.update(kwargs)
        return CampaignJournal.create(tmp_path / "j.jsonl", **params)

    def test_resume_missing_journal_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            self._fresh(tmp_path, resume=True)

    def test_corrupt_line_refused_with_line_number(self, tmp_path):
        journal = self._fresh(tmp_path)
        journal.record_cell(CIRCUIT, "lbl", 1, 0.1, "d" * 64,
                            result=result_to_json(_run_serial([1]).runs[0]))
        path = tmp_path / "j.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"seed":1', '"seed":2', 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=r"j\.jsonl:2.*content-hash"):
            self._fresh(tmp_path, resume=True)

    def test_unsealed_line_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._fresh(tmp_path)
        path.write_text(path.read_text() + '{"kind":"campaign-cell"}\n')
        with pytest.raises(CheckpointError, match="no seal"):
            self._fresh(tmp_path, resume=True)

    def test_non_json_line_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._fresh(tmp_path)
        path.write_text(path.read_text() + "not json\n")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            self._fresh(tmp_path, resume=True)

    def test_stale_schema_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = seal_journal_record(
            {"kind": "campaign-header", "format": 99, "table": "4",
             "scale": 0.1, "seeds": [1, 2]}
        )
        path.write_text(json.dumps(header, sort_keys=True) + "\n")
        with pytest.raises(CheckpointError, match="format 99"):
            self._fresh(tmp_path, resume=True)

    def test_different_campaign_identity_refused(self, tmp_path):
        self._fresh(tmp_path)
        with pytest.raises(CheckpointError, match="different campaign"):
            self._fresh(tmp_path, resume=True, seeds=[1, 2, 3])

    def test_config_digest_mismatch_refused(self, tmp_path):
        journal = self._fresh(tmp_path)
        journal.record_cell(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            error="boom", attempts=1)
        with pytest.raises(CheckpointError, match="config changed"):
            journal.lookup(CIRCUIT, "lbl", 1, 0.1, "b" * 64)

    def test_binding_change_refused(self, tmp_path):
        journal = self._fresh(tmp_path)
        journal.bind(["s298"], {"lbl": "a" * 64})
        resumed = self._fresh(tmp_path, resume=True)
        with pytest.raises(CheckpointError, match="digests changed"):
            resumed.bind(["s298"], {"lbl": "b" * 64})

    def test_failed_cell_is_not_replayed(self, tmp_path):
        journal = self._fresh(tmp_path)
        journal.record_cell(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            error="boom", attempts=3)
        assert journal.lookup(CIRCUIT, "lbl", 1, 0.1, "a" * 64) is None
        assert journal.cells(status="failed")[0]["attempts"] == 3


class TestCampaignReplay:
    def test_completed_cells_replay_bit_identically(self, tmp_path):
        collector = TelemetryCollector(source="test")
        plan = ExecutionPlan(journal=CampaignJournal.create(
            tmp_path / "j.jsonl", table="t", scale=0.1, seeds=[1, 2],
            collector=collector))
        first = run_gatest(CIRCUIT, TestGenConfig(), [1, 2], scale=0.1,
                           collector=collector, plan=plan)
        assert collector.counters.get("campaign.cells.completed") == 2
        resumed = CampaignJournal.create(
            tmp_path / "j.jsonl", table="t", scale=0.1, seeds=[1, 2],
            resume=True, collector=collector)
        second = run_gatest(CIRCUIT, TestGenConfig(), [1, 2], scale=0.1,
                            collector=collector,
                            plan=ExecutionPlan(journal=resumed))
        assert collector.counters.get("campaign.resumed") == 1
        assert collector.counters.get("campaign.cells.skipped") == 2
        assert [r.test_sequence for r in second.runs] == \
            [r.test_sequence for r in first.runs]
        assert second.runs == first.runs

    def test_experiments_resume_output_is_byte_identical(self, tmp_path, capsys):
        argv = ["--table", "4", "--scale", "0.1", "--seeds", "1",
                "--circuits", CIRCUIT, "--journal", str(tmp_path / "j.jsonl")]
        assert experiments_main(argv) == 0
        fresh = capsys.readouterr().out
        assert experiments_main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == fresh


class TestAggregationGuard:
    def test_total_faults_disagreement_fails_loudly(self, monkeypatch):
        import repro.harness.runner as runner

        real = runner._run_one_seed

        def skewed(compiled, config, seed, collector=None):
            result = real(compiled, config, seed, collector)
            if seed == 2:
                result.total_faults += 1
            return result

        monkeypatch.setattr(runner, "_run_one_seed", skewed)
        with pytest.raises(RuntimeError, match="disagree on the collapsed"):
            run_gatest(CIRCUIT, TestGenConfig(), [1, 2], scale=0.1)


class TestSeedPool:
    def test_pool_matches_serial_bit_identically(self):
        serial = _run_serial([1, 2])
        pooled = run_gatest(CIRCUIT, TestGenConfig(), [1, 2], scale=0.1,
                            plan=ExecutionPlan(seed_jobs=2))
        assert not pooled.failed_seeds
        assert list(map(_fingerprint, pooled.runs)) == \
            list(map(_fingerprint, serial.runs))
        assert not _drain_children()

    def test_chaos_crash_scoped_to_one_seed(self, monkeypatch):
        # Seed 2 draws task_seq 1, then 2 and 3 on its retries; seed 1
        # draws task_seq 0.  Crash every attempt of seed 2 only.
        chaos = _chaos_seed(
            lambda c: c.decide(0) is None
            and all(c.decide(i) == "crash" for i in (1, 2, 3)),
            crash=0.35,
        )
        monkeypatch.setenv("REPRO_CHAOS", f"crash:{chaos.crash},seed:{chaos.seed}")
        monkeypatch.setenv("REPRO_SEED_RETRIES", "2")
        collector = TelemetryCollector(source="test")
        agg = run_gatest(CIRCUIT, TestGenConfig(), [1, 2], scale=0.1,
                         collector=collector, plan=ExecutionPlan(seed_jobs=2))
        assert [f.seed for f in agg.failed_seeds] == [2]
        assert agg.failed_seeds[0].attempts == 3
        assert collector.counters.get("harness.seed.retries") == 2
        assert len(agg.runs) == 1
        monkeypatch.delenv("REPRO_CHAOS")
        clean = _run_serial([1, 2])
        assert _fingerprint(agg.runs[0]) == _fingerprint(clean.runs[0])
        assert agg.total_faults == clean.total_faults
        assert not _drain_children()

    def test_crashed_seed_recovers_on_retry(self, monkeypatch):
        # Crash only the *first* attempt of seed 1 (task_seq 0); its
        # retry (task_seq 2) and seed 2 (task_seq 1) run clean.
        chaos = _chaos_seed(
            lambda c: c.decide(0) == "crash"
            and c.decide(1) is None and c.decide(2) is None,
            crash=0.35,
        )
        monkeypatch.setenv("REPRO_CHAOS", f"crash:{chaos.crash},seed:{chaos.seed}")
        collector = TelemetryCollector(source="test")
        agg = run_gatest(CIRCUIT, TestGenConfig(), [1, 2], scale=0.1,
                         collector=collector, plan=ExecutionPlan(seed_jobs=2))
        assert not agg.failed_seeds
        assert collector.counters.get("harness.seed.retries") == 1
        monkeypatch.delenv("REPRO_CHAOS")
        assert list(map(_fingerprint, agg.runs)) == \
            list(map(_fingerprint, _run_serial([1, 2]).runs))
        assert not _drain_children()

    def test_hung_seed_times_out_and_fails(self, monkeypatch):
        chaos = _chaos_seed(
            lambda c: c.decide(0) is None and c.decide(1) == "hang",
            hang=0.35,
        )
        monkeypatch.setenv(
            "REPRO_CHAOS",
            f"hang:{chaos.hang},seed:{chaos.seed},hang_seconds:60",
        )
        agg = run_gatest(
            CIRCUIT, TestGenConfig(), [1, 2], scale=0.1,
            plan=ExecutionPlan(
                seed_jobs=2,
                seed_retry=RetryPolicy(max_retries=0, task_timeout=1.0),
            ),
        )
        assert [f.seed for f in agg.failed_seeds] == [2]
        assert "timeout" in agg.failed_seeds[0].error
        assert len(agg.runs) == 1
        assert not _drain_children()

    def test_failed_seeds_journal_as_failed_cells(self, tmp_path, monkeypatch):
        chaos = _chaos_seed(
            lambda c: c.decide(0) is None and c.decide(1) == "crash",
            crash=0.35,
        )
        monkeypatch.setenv("REPRO_CHAOS", f"crash:{chaos.crash},seed:{chaos.seed}")
        monkeypatch.setenv("REPRO_SEED_RETRIES", "0")
        journal = CampaignJournal.create(tmp_path / "j.jsonl", table="t",
                                         scale=0.1, seeds=[1, 2])
        agg = run_gatest(CIRCUIT, TestGenConfig(), [1, 2], scale=0.1,
                         plan=ExecutionPlan(journal=journal, seed_jobs=2))
        assert [f.seed for f in agg.failed_seeds] == [2]
        failed = journal.cells(status="failed")
        assert [c["seed"] for c in failed] == [2]
        # A resumed campaign re-attempts exactly the failed cell.
        monkeypatch.delenv("REPRO_CHAOS")
        resumed = CampaignJournal.create(tmp_path / "j.jsonl", table="t",
                                         scale=0.1, seeds=[1, 2], resume=True)
        healed = run_gatest(CIRCUIT, TestGenConfig(), [1, 2], scale=0.1,
                            plan=ExecutionPlan(journal=resumed, seed_jobs=2))
        assert not healed.failed_seeds
        assert not resumed.cells(status="failed")
        assert list(map(_fingerprint, healed.runs)) == \
            list(map(_fingerprint, _run_serial([1, 2]).runs))


class TestWorkerTelemetryShipback:
    def test_worker_traces_merge_under_seed_scopes(self):
        collector = TelemetryCollector(source="test")
        with use(collector):
            run_gatest(CIRCUIT, TestGenConfig(), [1, 2], scale=0.1,
                       collector=collector, plan=ExecutionPlan(seed_jobs=2))
        assert collector.counters.get("worker.trace.merged") == 2
        scopes = {r.get("scope") for r in collector.events("span")}
        assert {"worker.1", "worker.2"} <= scopes
        worker_spans = [r for r in collector.events("span")
                        if r.get("scope") == "worker.1"]
        assert all(r["path"].startswith("worker.1/") for r in worker_spans)
        # Worker-side counters folded into campaign-wide aggregates.
        assert collector.counters.get("ga.evaluations", 0) > 0

    def test_eval_jobs_default_reaches_seed_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_FORCE_SHARD", "1")
        collector = TelemetryCollector(source="test")
        agg = run_gatest(CIRCUIT, TestGenConfig(), [1, 2],
                         scale=0.1, collector=collector,
                         plan=ExecutionPlan(seed_jobs=2, eval_jobs=2))
        assert not agg.failed_seeds
        # The sharded-evaluation counter can only come from inside the
        # seed workers — proof the plan's eval_jobs crossed the pool.
        assert collector.counters.get("parallel.evaluate.sharded", 0) > 0
        assert not _drain_children()


class TestCampaignKillResumeEndToEnd:
    """SIGKILL a journaled campaign, resume it, compare output bytes."""

    ARGS = ["--table", "4", "--scale", "0.1", "--seeds", "2",
            "--circuits", CIRCUIT]

    def _campaign(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ) + "/src"
        env.pop("REPRO_CHAOS", None)
        return subprocess.Popen(
            [sys.executable, "-m", "repro.harness.experiments", *self.ARGS,
             *extra],
            env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        reference = self._campaign(tmp_path)
        ref_out, ref_err = reference.communicate(timeout=600)
        assert reference.returncode == 0, ref_err.decode()

        journal = tmp_path / "j.jsonl"
        victim = self._campaign(tmp_path, "--journal", str(journal))
        # Kill as soon as the first completed cell lands in the journal.
        deadline = time.monotonic() + 120
        while victim.poll() is None:
            if journal.exists() and "campaign-cell" in journal.read_text():
                break
            if time.monotonic() > deadline:  # pragma: no cover
                victim.kill()
                pytest.fail("no journaled cell appeared within 120s")
            time.sleep(0.002)
        if victim.poll() is None:
            os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
        assert "campaign-cell" in journal.read_text()

        trace = tmp_path / "trace.jsonl"
        resumer = self._campaign(
            tmp_path, "--journal", str(journal), "--resume",
            "--trace", str(trace),
        )
        res_out, res_err = resumer.communicate(timeout=600)
        assert resumer.returncode == 0, res_err.decode()

        # Everything up to the trailing trace-summary line must match
        # the uninterrupted run byte for byte.
        table_out = res_out.decode().rsplit("wrote ", 1)[0]
        assert table_out == ref_out.decode()

        counters = {
            r["name"]: r["value"]
            for r in map(json.loads, trace.read_text().splitlines())
            if r.get("kind") == "counter"
        }
        assert counters.get("campaign.resumed") == 1
        assert counters.get("campaign.cells.skipped", 0) > 0
