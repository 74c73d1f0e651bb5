"""Files written by an earlier build still load, or are refused by name.

tests/data/formats holds one file (or directory) per persisted format,
written by the build before simulator checkpoints were sealed (see
tests/data/formats/make_formats.py).  Every format whose number did not
change since must still load and give what that build would have given;
the format-1 simulator checkpoint must be refused.
"""

import json
import shutil
from dataclasses import fields
from pathlib import Path

import pytest

from repro.circuit import s27
from repro.core import (
    CheckpointError,
    GaTestGenerator,
    TestGenConfig,
    load_checkpoint,
    load_run_checkpoint,
)
from repro.harness import CampaignJournal, ExecutionPlan, run_gatest, run_matrix
from repro.service.jobs import JobManager
from repro.telemetry import TelemetryCollector

DATA = Path(__file__).resolve().parent / "data" / "formats"


def _untimed(result):
    """Every field of a result except its wall time."""
    return {f.name: getattr(result, f.name) for f in fields(result)
            if f.name != "elapsed_seconds"}


def test_run_checkpoint_resumes_to_the_uninterrupted_test_set(tmp_path):
    path = tmp_path / "run.ckpt"
    shutil.copy(DATA / "run-s27-seed1.ckpt", path)
    config = TestGenConfig(seed=1)
    straight = GaTestGenerator(s27(), config).run()
    assert len(load_run_checkpoint(path)["test_sequence"]) < \
        len(straight.test_sequence)
    collector = TelemetryCollector()
    resumed = GaTestGenerator(s27(), config, collector=collector).run(
        checkpoint_path=path, resume=True)
    assert collector.counters["run.resumed"] == 1
    assert _untimed(resumed) == _untimed(straight)


def _journal_records(path):
    """A journal's records without seals and result wall times."""
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        del record["sha"]
        record.get("result", {}).pop("elapsed_seconds", None)
        records.append(record)
    return records


def test_campaign_journal_resumes_with_its_cells_replayed(tmp_path):
    path = tmp_path / "j.jsonl"
    shutil.copy(DATA / "campaign-s298.jsonl", path)
    collector = TelemetryCollector()
    journal = CampaignJournal.create(path, table="t", scale=0.1, seeds=[1, 2],
                                     resume=True, collector=collector)
    replayed = run_matrix(["s298"], {"base": TestGenConfig()}, [1, 2],
                          scale=0.1, collector=collector,
                          plan=ExecutionPlan(journal=journal))
    assert collector.counters["campaign.cells.skipped"] == 2
    assert "campaign.cells.completed" not in collector.counters
    assert path.read_bytes() == (DATA / "campaign-s298.jsonl").read_bytes()
    fresh = run_gatest("s298", TestGenConfig(), [1, 2], scale=0.1)
    assert [_untimed(r) for r in replayed["s298"]["base"].runs] == \
        [_untimed(r) for r in fresh.runs]


def test_campaign_journal_lines_are_written_as_before(tmp_path):
    """This build journals the same cells into the same records."""
    path = tmp_path / "j.jsonl"
    plan = ExecutionPlan(journal=CampaignJournal.create(
        path, table="t", scale=0.1, seeds=[1, 2]))
    run_matrix(["s298"], {"base": TestGenConfig()}, [1, 2], scale=0.1,
               plan=plan)
    assert _journal_records(path) == \
        _journal_records(DATA / "campaign-s298.jsonl")


def test_service_ledger_recovers_both_jobs(tmp_path):
    state = tmp_path / "state"
    shutil.copytree(DATA / "service-state", state)
    manager = JobManager(state, workers=1, use_tier=False)
    try:
        assert manager.wait_idle(120)
        done, unfinished = manager.jobs()
    finally:
        manager.close()
    assert (done.id, done.status, done.resumed) == ("j0001-7ec0689f", "done",
                                                    False)
    assert done.result["test_sequence"] == \
        GaTestGenerator(s27(), TestGenConfig(seed=1)).run().test_sequence
    assert (unfinished.status, unfinished.resumed) == ("done", True)
    counters = unfinished.collector.counters
    assert counters["run.resumed"] == 1
    assert "service.jobs.resume_fallback" not in counters
    assert unfinished.result["test_sequence"] == \
        GaTestGenerator(s27(), TestGenConfig(seed=2)).run().test_sequence


def test_format_1_simulator_checkpoint_is_refused():
    with pytest.raises(CheckpointError, match=(
            r"sim-format1\.json is not a gatest simulator checkpoint of "
            r"format 2 \(found kind None, format 1\)")):
        load_checkpoint(DATA / "sim-format1.json", s27())
