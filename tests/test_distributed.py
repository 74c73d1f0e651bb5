"""Distributed campaigns: leases, reaping, degradation, host chaos
(docs/ROBUSTNESS.md §6, src/repro/harness/distributed.py).

The journal is the only coordination channel, so most concurrency edges
are testable single-process by writing the records a peer would have
written (a lease that expired between load and claim, a torn tail from
a SIGKILLed appender, duplicate seals racing arbitration).  The
end-to-end classes then run real coordinator + worker processes and
hold the output to the serial run byte for byte.
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
    config_from_json,
    config_to_json,
    result_to_json,
    seal_journal_record,
)
from repro.core.config import TestGenConfig
from repro.harness import CampaignJournal, run_gatest
from repro.harness.distributed import (
    DistributedCoordinator,
    _next_claimable,
    campaign_worker_main,
)
from repro.harness.experiments import main as experiments_main
from repro.parallel.resilience import ChaosConfig, RetryPolicy
from repro.telemetry import TelemetryCollector

CIRCUIT = "s298"
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _drain_children(timeout=10.0):
    """Wait for worker processes to exit; returns the stragglers."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


def _counters(collector):
    out = {}
    for record in collector.records():
        if record.get("kind") == "counter":
            out[record["name"]] = out.get(record["name"], 0) + record["value"]
    return out


# ----------------------------------------------------------------------
# Host-level chaos: parsing and decisions
# ----------------------------------------------------------------------


class TestHostChaos:
    def test_parse_host_fault_modes(self):
        cfg = ChaosConfig.parse("lease-stall:0.4,worker-vanish:0.3,seed:5")
        assert cfg.lease_stall == 0.4
        assert cfg.worker_vanish == 0.3
        assert cfg.enabled

    def test_parse_underscore_aliases(self):
        cfg = ChaosConfig.parse("lease_stall:0.1,worker_vanish:0.2")
        assert (cfg.lease_stall, cfg.worker_vanish) == (0.1, 0.2)

    def test_bad_probability_names_the_token(self):
        with pytest.raises(ValueError, match=r"'2' in 'lease-stall:2'"):
            ChaosConfig.parse("lease-stall:2")

    def test_unknown_key_names_the_token(self):
        with pytest.raises(ValueError, match=r"unknown chaos key 'bogus'"):
            ChaosConfig.parse("crash:0.1,bogus:0.1")

    def test_missing_colon_names_the_entry(self):
        with pytest.raises(ValueError, match=r"'crash0.1' is not key:value"):
            ChaosConfig.parse("crash0.1")

    def test_non_number_names_the_token(self):
        with pytest.raises(ValueError, match=r"'x' in 'crash:x'"):
            ChaosConfig.parse("crash:x")

    def test_decide_host_is_deterministic_per_seq(self):
        cfg = ChaosConfig(lease_stall=0.5, worker_vanish=0.2, seed=11)
        first = [cfg.decide_host(seq) for seq in range(64)]
        assert first == [cfg.decide_host(seq) for seq in range(64)]
        assert set(first) <= {None, "lease-stall", "worker-vanish"}
        assert "lease-stall" in first and "worker-vanish" in first

    def test_decide_host_certainty(self):
        stall = ChaosConfig(lease_stall=1.0, seed=0)
        vanish = ChaosConfig(worker_vanish=1.0, seed=0)
        assert all(stall.decide_host(s) == "lease-stall" for s in range(8))
        assert all(vanish.decide_host(s) == "worker-vanish" for s in range(8))

    def test_host_probabilities_validated_together(self):
        with pytest.raises(ValueError, match="lease-stall"):
            ChaosConfig(lease_stall=0.8, worker_vanish=0.8)


# ----------------------------------------------------------------------
# Config wire format
# ----------------------------------------------------------------------


class TestConfigWire:
    def test_round_trip_keeps_execution_knobs(self):
        config = TestGenConfig(
            population_scale=0.5, eval_jobs=3, sim_kernel="interp",
        )
        rebuilt = config_from_json(json.loads(json.dumps(
            config_to_json(config)
        )))
        assert rebuilt == config
        assert rebuilt.eval_jobs == 3
        assert rebuilt.sim_kernel == "interp"
        assert isinstance(rebuilt.seq_length_multipliers, tuple)

    def test_unknown_field_refused(self):
        data = config_to_json(TestGenConfig())
        data["warp_factor"] = 9
        with pytest.raises(CheckpointError, match="warp_factor"):
            config_from_json(data)

    @pytest.mark.parametrize(
        "field, value",
        [("eval_cache", True), ("eval_task_timeout", 5.0), ("eval_retries", 2)],
    )
    def test_removed_field_refused(self, field, value):
        """Leases journaled by builds that still had these fields fail
        closed instead of running without them."""
        data = config_to_json(TestGenConfig())
        data[field] = value
        with pytest.raises(CheckpointError, match=field):
            config_from_json(data)


# ----------------------------------------------------------------------
# Journal concurrency edges (single-process, peer records written by hand)
# ----------------------------------------------------------------------


def _dist_journal(tmp_path, **kwargs):
    params = dict(table="4", scale=0.1, seeds=[1, 2])
    params.update(kwargs)
    return CampaignJournal.create(tmp_path / "j.jsonl", **params)


class TestJournalLeaseEdges:
    def test_peer_sees_appended_lease_after_refresh(self, tmp_path):
        journal = _dist_journal(tmp_path)
        peer = CampaignJournal.open(tmp_path / "j.jsonl")
        journal.grant_lease(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            host="alpha", ttl=60.0)
        assert peer.lease_for(CIRCUIT, "lbl", 1, 0.1) is None
        peer.refresh()
        lease = peer.lease_for(CIRCUIT, "lbl", 1, 0.1)
        assert lease is not None and lease["host"] == "alpha"

    def test_torn_tail_after_lease_is_skipped_on_attach(self, tmp_path):
        journal = _dist_journal(tmp_path)
        journal.grant_lease(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            host="alpha", ttl=60.0)
        path = tmp_path / "j.jsonl"
        path.write_text(path.read_text() + '{"kind":"campaign-cel')
        peer = CampaignJournal.open(path)
        assert peer.lease_for(CIRCUIT, "lbl", 1, 0.1) is not None

    def test_mid_file_corruption_still_refused(self, tmp_path):
        journal = _dist_journal(tmp_path)
        journal.grant_lease(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            host="alpha", ttl=60.0)
        journal.grant_lease(CIRCUIT, "lbl", 2, 0.1, "a" * 64,
                            host="beta", ttl=60.0)
        path = tmp_path / "j.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = '{"kind":"campaign-lea'  # torn, but not the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            CampaignJournal.open(path)

    def test_duplicate_ok_first_sealed_wins(self, tmp_path):
        collector = TelemetryCollector(source="test")
        journal = _dist_journal(tmp_path, collector=collector)
        result = run_gatest(CIRCUIT, TestGenConfig(), [1],
                            scale=0.1).runs[0]
        payload = result_to_json(result)
        journal.record_cell(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            result=payload, host="alpha")
        journal.record_cell(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            result=payload, host="beta")
        winner = journal.result_for(CIRCUIT, "lbl", 1, 0.1)
        assert winner["host"] == "alpha"
        assert _counters(collector).get("campaign.cells.duplicate") == 1
        # A fresh attach arbitrates from the file identically.
        peer = CampaignJournal.open(tmp_path / "j.jsonl")
        assert peer.result_for(CIRCUIT, "lbl", 1, 0.1)["host"] == "alpha"

    def test_ok_heals_earlier_failure(self, tmp_path):
        journal = _dist_journal(tmp_path)
        journal.record_cell(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            error="boom", attempts=1, host="alpha")
        result = run_gatest(CIRCUIT, TestGenConfig(), [1],
                            scale=0.1).runs[0]
        journal.record_cell(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            result=result_to_json(result), host="beta")
        assert journal.result_for(CIRCUIT, "lbl", 1, 0.1)["status"] == "ok"

    def test_pending_result_treats_stale_failure_as_superseded(self, tmp_path):
        journal = _dist_journal(tmp_path)
        journal.record_cell(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            error="boom", attempts=1, host="alpha")
        failed = journal.pending_result(CIRCUIT, "lbl", 1, 0.1)
        assert failed is not None and failed["status"] == "failed"
        # A newer lease supersedes the failure: the cell is pending again.
        journal.grant_lease(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            host="beta", ttl=60.0)
        assert journal.pending_result(CIRCUIT, "lbl", 1, 0.1) is None
        assert journal.result_for(CIRCUIT, "lbl", 1, 0.1) is not None

    def test_lease_expired_between_load_and_claim(self, tmp_path):
        journal = _dist_journal(tmp_path)
        journal.grant_lease(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            host="alpha", ttl=0.05)
        worker = CampaignJournal.open(tmp_path / "j.jsonl")
        live = _next_claimable(worker, "alpha", time.time())
        assert live is not None  # claimable while the TTL holds...
        time.sleep(0.06)
        # ...but not after it lapses: the reaper owns expired leases.
        assert _next_claimable(worker, "alpha", time.time()) is None

    def test_worker_once_does_not_execute_expired_lease(self, tmp_path):
        journal = _dist_journal(tmp_path)
        journal.grant_lease(CIRCUIT, "lbl", 1, 0.1, "a" * 64,
                            host="alpha", ttl=0.01,
                            config=config_to_json(TestGenConfig()))
        time.sleep(0.02)
        assert campaign_worker_main(tmp_path / "j.jsonl", "alpha",
                                    once=True) == 0
        journal.refresh()
        assert journal.result_for(CIRCUIT, "lbl", 1, 0.1) is None

    def test_peer_appends_after_torn_tail_are_kept(self, tmp_path, capsys):
        """A writer killed mid-append leaves a fragment with no newline.
        The next append cuts it, so a peer's records land on lines of
        their own: both load, a refresh works, and the campaign resumes
        without re-running them."""
        path = tmp_path / "j.jsonl"
        argv = ["--table", "4", "--scale", "0.1", "--seeds", "1",
                "--circuits", CIRCUIT, "--journal", str(path)]
        assert experiments_main(argv) == 0
        fresh = capsys.readouterr().out
        lines = path.read_text().splitlines(keepends=True)
        cells = [json.loads(line) for line in lines[-2:]]
        assert [c["kind"] for c in cells] == ["campaign-cell"] * 2
        # Drop the last two cells and leave a torn line in their place.
        path.write_text("".join(lines[:-2]) + lines[-2][:40])
        peer = CampaignJournal.open(path)
        for cell in cells:
            peer.record_cell(cell["circuit"], cell["label"], cell["seed"],
                             cell["scale"], cell["config_digest"],
                             result=cell["result"])
        assert path.read_text() == "".join(lines)
        peer.refresh()
        assert [c for c in peer.cells() if c in cells] == cells
        assert experiments_main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == fresh
        assert path.read_text() == "".join(lines)  # nothing re-ran

    def test_resume_refusal_names_field_and_both_values(self, tmp_path):
        _dist_journal(tmp_path)
        with pytest.raises(
            CheckpointError,
            match=r"seeds is \[1, 2\], this run wants \[1, 2, 3\]",
        ):
            _dist_journal(tmp_path, resume=True, seeds=[1, 2, 3])


# ----------------------------------------------------------------------
# Coordinator degradation (in-process; no workers ever attach)
# ----------------------------------------------------------------------


class TestDegradation:
    def test_no_workers_degrades_to_local_and_completes(self, tmp_path):
        collector = TelemetryCollector(source="test")
        journal = _dist_journal(tmp_path, seeds=[1], collector=collector)
        policy = RetryPolicy(task_timeout=0.05, max_retries=0)
        coordinator = DistributedCoordinator(
            journal, ["ghost"], poll=0.01, policy=policy,
            collector=collector,
        )
        from repro.sim import compiled_circuit_for
        config = TestGenConfig()
        compiled = compiled_circuit_for(CIRCUIT, 0.1)
        results, failures = coordinator.run_cells(
            CIRCUIT, compiled, config, [1], scale=0.1, label="lbl",
            digest=config.digest(),
        )
        assert not failures and 1 in results
        assert coordinator.degraded
        counters = _counters(collector)
        assert counters.get("campaign.lease.granted", 0) >= 1
        assert counters.get("campaign.lease.expired", 0) >= 1
        assert counters.get("campaign.lease.degraded") == 1
        assert counters.get("campaign.lease.healed", 0) >= 1
        # The locally-run cell is sealed with the coordinator as host.
        record = journal.result_for(CIRCUIT, "lbl", 1, 0.1)
        assert record["host"] == "coordinator"
        # Degradation is sticky: later groups skip leasing entirely.
        results2, _ = coordinator.run_cells(
            CIRCUIT, compiled, config, [2], scale=0.1, label="lbl",
            digest=config.digest(),
        )
        assert 2 in results2
        assert _counters(collector)["campaign.lease.granted"] == \
            counters["campaign.lease.granted"]

    def test_degraded_result_matches_direct_run(self, tmp_path):
        journal = _dist_journal(tmp_path, seeds=[1])
        policy = RetryPolicy(task_timeout=0.05, max_retries=0)
        coordinator = DistributedCoordinator(
            journal, ["ghost"], poll=0.01, policy=policy,
        )
        from repro.sim import compiled_circuit_for
        config = TestGenConfig()
        compiled = compiled_circuit_for(CIRCUIT, 0.1)
        results, _ = coordinator.run_cells(
            CIRCUIT, compiled, config, [1], scale=0.1, label="lbl",
            digest=config.digest(),
        )
        direct = run_gatest(CIRCUIT, config, [1], scale=0.1).runs[0]
        assert results[1].detected == direct.detected
        assert results[1].test_sequence == direct.test_sequence

    def test_coordinator_requires_hosts(self, tmp_path):
        journal = _dist_journal(tmp_path)
        with pytest.raises(ValueError, match="host"):
            DistributedCoordinator(journal, [])

    def test_nonpositive_lease_ttl_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEASE_TTL", "0")
        journal = _dist_journal(tmp_path)
        with pytest.raises(ValueError, match="REPRO_LEASE_TTL"):
            DistributedCoordinator(journal, ["alpha"])

    def test_nonpositive_lease_ttl_flag_rejected(self, tmp_path, capsys):
        hosts = tmp_path / "hosts"
        hosts.write_text("alpha\n")
        with pytest.raises(SystemExit) as info:
            experiments_main(ARGS + ["--journal", str(tmp_path / "j.jsonl"),
                                     "--workers-from", str(hosts),
                                     "--lease-ttl", "0"])
        assert info.value.code == 2
        assert "--lease-ttl must be a positive" in capsys.readouterr().err
        assert not (tmp_path / "j.jsonl").exists()


# ----------------------------------------------------------------------
# Lease fingerprints: a worker never seals another circuit's result
# ----------------------------------------------------------------------


class TestLeaseFingerprint:
    def test_worker_fails_leases_it_cannot_match_and_keeps_serving(
        self, tmp_path, monkeypatch
    ):
        """A leased ``.bench`` path that names another netlist on the
        worker, or none, comes back as a failed cell naming the worker
        host, reported like any failed seed; the worker then serves the
        next lease."""
        from repro.circuit import mini_fsm, s27, save_bench
        from repro.harness import ExecutionPlan

        coordinator_dir, worker_dir = tmp_path / "coord", tmp_path / "worker"
        coordinator_dir.mkdir()
        worker_dir.mkdir()
        save_bench(s27(), coordinator_dir / "lease-other.bench")
        save_bench(mini_fsm(), worker_dir / "lease-other.bench")
        save_bench(s27(), coordinator_dir / "lease-missing.bench")
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal.create(path, table="t", scale=1.0, seeds=[1])
        coordinator = DistributedCoordinator(
            journal, ["alpha"], poll=0.01,
            policy=RetryPolicy(task_timeout=120.0, max_retries=0),
        )
        plan = ExecutionPlan(journal=journal, coordinator=coordinator)
        worker = _spawn_worker(worker_dir, path, "alpha")
        monkeypatch.chdir(coordinator_dir)
        try:
            other = run_gatest("lease-other.bench", TestGenConfig(), [1],
                               plan=plan)
            missing = run_gatest("lease-missing.bench", TestGenConfig(), [1],
                                 plan=plan)
            served = run_gatest("s27", TestGenConfig(), [1], plan=plan)
        finally:
            coordinator.close()
        worker.communicate(timeout=120)
        assert worker.returncode == 0
        assert not other.runs and not missing.runs
        [mismatch], [unresolved] = other.failed_seeds, missing.failed_seeds
        assert mismatch.error.startswith(
            "host alpha: CheckpointError: lease names circuit "
            "'lease-other.bench' with a different structure")
        assert unresolved.error.startswith(
            "host alpha: ValueError: unknown circuit 'lease-missing.bench'")
        assert served.total_faults == 26 and not served.failed_seeds
        hosts = {cell["circuit"]: (cell["status"], cell["host"])
                 for cell in journal.cells()}
        assert hosts == {"lease-other.bench": ("failed", "alpha"),
                         "lease-missing.bench": ("failed", "alpha"),
                         "s27": ("ok", "alpha")}


# ----------------------------------------------------------------------
# End-to-end: coordinator + worker processes over one journal
# ----------------------------------------------------------------------


ARGS = ["--table", "4", "--scale", "0.1", "--seeds", "2",
        "--circuits", CIRCUIT]


def _spawn(tmp_path, argv, *, chaos=None, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_CHAOS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, "-m", *argv], env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _spawn_worker(tmp_path, journal, host, **kwargs):
    return _spawn(
        tmp_path,
        ["repro.cli", "campaign-worker", "--journal", str(journal),
         "--host", host, "--max-idle", "120"],
        **kwargs,
    )


def _spawn_coordinator(tmp_path, journal, *extra, **kwargs):
    hosts = tmp_path / "hosts.txt"
    if not hosts.exists():
        hosts.write_text("alpha\nbeta\n")
    return _spawn(
        tmp_path,
        ["repro.harness.experiments", *ARGS,
         "--journal", str(journal), "--workers-from", str(hosts), *extra],
        **kwargs,
    )


@pytest.fixture(scope="module")
def serial_table(tmp_path_factory):
    """The uninterrupted single-host reference output."""
    tmp = tmp_path_factory.mktemp("serial")
    proc = _spawn(tmp, ["repro.harness.experiments", *ARGS])
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err.decode()
    return out.decode()


def _await_first_cell(journal, timeout=180.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if "campaign-cell" in journal.read_text():
                return
        except OSError:
            pass
        time.sleep(0.01)
    pytest.fail("no journaled cell appeared in time")  # pragma: no cover


def _trace_counters(trace_path):
    out = {}
    for line in trace_path.read_text().splitlines():
        record = json.loads(line)
        if record.get("kind") == "counter":
            out[record["name"]] = out.get(record["name"], 0) + record["value"]
    return out


class TestDistributedEndToEnd:
    def test_two_workers_bit_identical_to_serial(self, tmp_path,
                                                 serial_table):
        journal = tmp_path / "j.jsonl"
        workers = [_spawn_worker(tmp_path, journal, h)
                   for h in ("alpha", "beta")]
        coordinator = _spawn_coordinator(tmp_path, journal)
        out, err = coordinator.communicate(timeout=600)
        assert coordinator.returncode == 0, err.decode()
        assert out.decode() == serial_table
        for worker in workers:
            worker.communicate(timeout=120)
            assert worker.returncode == 0
        text = journal.read_text()
        assert '"kind":"campaign-close"' in text
        hosts = {json.loads(line)["host"]
                 for line in text.splitlines()
                 if '"kind":"campaign-cell"' in line}
        assert hosts <= {"alpha", "beta", "coordinator"}
        assert hosts & {"alpha", "beta"}

    def test_sigkill_worker_with_lease_stall_chaos(self, tmp_path,
                                                   serial_table):
        """The acceptance scenario: two workers with ``lease-stall``
        chaos armed, one SIGKILLed mid-campaign; the reap / re-lease /
        degradation machinery must still complete the matrix with
        byte-identical tables, visibly in the lease counters."""
        journal = tmp_path / "j.jsonl"
        trace = tmp_path / "trace.jsonl"
        chaos = "lease-stall:0.4,seed:3"
        alpha = _spawn_worker(tmp_path, journal, "alpha", chaos=chaos)
        beta = _spawn_worker(tmp_path, journal, "beta", chaos=chaos)
        coordinator = _spawn_coordinator(
            tmp_path, journal, "--trace", str(trace), "--lease-ttl", "2",
        )
        _await_first_cell(journal)
        os.kill(beta.pid, signal.SIGKILL)
        beta.wait(timeout=30)
        out, err = coordinator.communicate(timeout=600)
        assert coordinator.returncode == 0, err.decode()
        table = out.decode().rsplit("wrote ", 1)[0]
        assert table == serial_table
        alpha.communicate(timeout=120)
        assert alpha.returncode == 0
        counters = _trace_counters(trace)
        assert counters.get("campaign.lease.expired", 0) >= 1
        assert counters.get("campaign.lease.healed", 0) >= 1
        assert counters["campaign.cells.completed"] == 10
        assert not _drain_children()

    def test_worker_vanish_chaos_is_reaped(self, tmp_path, serial_table):
        journal = tmp_path / "j.jsonl"
        trace = tmp_path / "trace.jsonl"
        # Every claimed lease kills the worker; the coordinator must
        # finish the campaign alone after exhausting the budget.
        worker = _spawn_worker(tmp_path, journal, "alpha",
                               chaos="worker-vanish:1.0,seed:0")
        hosts = tmp_path / "hosts.txt"
        hosts.write_text("alpha\n")
        coordinator = _spawn_coordinator(
            tmp_path, journal, "--trace", str(trace), "--lease-ttl", "1",
            extra_env={"REPRO_LEASE_RETRIES": "1"},
        )
        out, err = coordinator.communicate(timeout=600)
        assert coordinator.returncode == 0, err.decode()
        table = out.decode().rsplit("wrote ", 1)[0]
        assert table == serial_table
        worker.wait(timeout=120)
        assert worker.returncode == 86  # chaos vanish exit code
        counters = _trace_counters(trace)
        assert counters.get("campaign.lease.expired", 0) >= 1
        assert counters.get("campaign.lease.degraded") == 1
