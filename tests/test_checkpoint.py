"""Tests for campaign checkpointing."""

import hashlib
import json
from dataclasses import fields

import pytest

from repro.circuit import mini_fsm, s27, synthesize_named
from repro.core import (
    RUN_FORMAT_VERSION,
    CheckpointError,
    GaTestGenerator,
    TestGenConfig,
    circuit_fingerprint,
    fault_list_digest,
    load_checkpoint,
    load_run_checkpoint,
    restore_sim_run_state,
    save_checkpoint,
    save_run_checkpoint,
    sim_run_state,
)
from repro.faults import FaultSimulator, TransitionFaultSimulator
from repro.harness import CampaignJournal

from tests.conftest import random_vectors


def _word_width_era_digest(config):
    """The digest builds with a ``word_width`` config field (default 64)
    gave ``config``: the same items plus that field."""
    items = sorted(
        [(f.name, repr(getattr(config, f.name))) for f in fields(config)
         if f.name not in config._EXECUTION_ONLY]
        + [("word_width", "64")]
    )
    return hashlib.sha256(repr(items).encode()).hexdigest()


class TestFingerprint:
    def test_stable(self, s27_circuit):
        assert circuit_fingerprint(s27_circuit) == circuit_fingerprint(s27())

    def test_distinguishes_circuits(self, s27_circuit, minifsm_circuit):
        assert circuit_fingerprint(s27_circuit) != circuit_fingerprint(minifsm_circuit)

    def test_distinguishes_seeds(self):
        a = synthesize_named("s298", seed=1, scale=0.2)
        b = synthesize_named("s298", seed=2, scale=0.2)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)


class TestRoundTrip:
    def test_continuation_equivalence(self, tmp_path, s27_circuit):
        """Resuming from a checkpoint must equal never having stopped."""
        vectors = random_vectors(s27_circuit, 24, seed=2)
        straight = FaultSimulator(s27_circuit)
        straight.commit(vectors)

        resumed = FaultSimulator(s27_circuit)
        resumed.commit(vectors[:12])
        path = tmp_path / "ck.json"
        save_checkpoint(path, resumed, test_sequence=vectors[:12])
        restored, stored = load_checkpoint(path, s27())
        assert stored == vectors[:12]
        restored.commit(vectors[12:])

        assert restored.detected_count == straight.detected_count
        assert restored.undetected_faults() == straight.undetected_faults()
        assert restored.good_state.ff_values == straight.good_state.ff_values
        assert restored.vectors_applied == straight.vectors_applied

    def test_detections_preserved(self, tmp_path, minifsm_circuit):
        sim = FaultSimulator(minifsm_circuit)
        sim.commit(random_vectors(minifsm_circuit, 10, seed=3))
        path = tmp_path / "ck.json"
        save_checkpoint(path, sim)
        restored, stored = load_checkpoint(path, mini_fsm())
        assert stored == []
        assert restored.detections == sim.detections

    def test_divergences_preserved(self, tmp_path, minifsm_circuit):
        sim = FaultSimulator(minifsm_circuit)
        sim.commit(random_vectors(minifsm_circuit, 3, seed=4))
        path = tmp_path / "ck.json"
        save_checkpoint(path, sim)
        restored, _ = load_checkpoint(path, mini_fsm())
        assert restored.divergence == sim.divergence


class TestGuards:
    def test_wrong_circuit_rejected(self, tmp_path, s27_circuit, minifsm_circuit):
        sim = FaultSimulator(s27_circuit)
        path = tmp_path / "ck.json"
        save_checkpoint(path, sim)
        with pytest.raises(CheckpointError, match="different structure"):
            load_checkpoint(path, minifsm_circuit)

    def test_wrong_version_rejected(self, tmp_path, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        path = tmp_path / "ck.json"
        save_checkpoint(path, sim)
        payload = json.loads(path.read_text())
        payload["format"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path, s27_circuit)

    def test_flipped_status_fails_the_content_hash(self, tmp_path,
                                                   s27_circuit):
        sim = FaultSimulator(s27_circuit)
        sim.commit(random_vectors(s27_circuit, 5, seed=5))
        path = tmp_path / "ck.json"
        save_checkpoint(path, sim)
        payload = json.loads(path.read_text())
        payload["status"] = [not s for s in payload["status"]]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="content-hash"):
            load_checkpoint(path, s27_circuit)

    def test_truncated_file_refused(self, tmp_path, s27_circuit):
        path = tmp_path / "ck.json"
        save_checkpoint(path, FaultSimulator(s27_circuit))
        path.write_text(path.read_text()[:-20])
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(path, s27_circuit)

    def test_json_is_plain(self, tmp_path, s27_circuit):
        """The checkpoint must be portable JSON (no pickled objects)."""
        sim = FaultSimulator(s27_circuit)
        sim.commit(random_vectors(s27_circuit, 5, seed=5))
        path = tmp_path / "ck.json"
        save_checkpoint(path, sim, test_sequence=[[0, 1, 0, 1]])
        payload = json.loads(path.read_text())
        assert set(payload) >= {
            "format", "circuit", "fingerprint", "faults", "status",
            "good_state", "divergence", "test_sequence",
        }


class TestSimulatorCheckpointCompatibility:
    def test_transition_simulator_round_trips(self, tmp_path, s27_circuit):
        """A transition simulator saved mid-stream loads as one, and its
        next commits are those of one that never stopped."""
        vectors = random_vectors(s27_circuit, 16, seed=1)
        sim = TransitionFaultSimulator(s27_circuit)
        sim.commit(vectors[:6])
        path = tmp_path / "ck.json"
        save_checkpoint(path, sim, test_sequence=vectors[:6])
        restored, stored = load_checkpoint(path, s27())
        assert isinstance(restored, TransitionFaultSimulator)
        assert stored == vectors[:6]
        assert restored.prev_good == sim.prev_good
        assert restored.detections == sim.detections
        for vector in vectors[6:]:
            assert restored.commit([vector]) == sim.commit([vector])

    def test_format_1_file_refused(self, tmp_path, s27_circuit):
        """Format-1 files (unsealed, with or without the ``word_width``
        key older builds wrote) are refused, naming what was found."""
        sim = FaultSimulator(s27_circuit)
        sim.commit(random_vectors(s27_circuit, 4, seed=4))
        path = tmp_path / "ck.json"
        save_checkpoint(path, sim)
        payload = json.loads(path.read_text())
        for key in ("kind", "content_hash"):
            del payload[key]
        payload.update(format=1, word_width=16)
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=(
                r"not a gatest simulator checkpoint of format 2 "
                r"\(found kind None, format 1\)")):
            load_checkpoint(path, s27())


class TestWordWidthEraStateRefused:
    """Dropping ``word_width`` changed every config digest, so state
    bound to a digest by builds that had it fails closed."""

    def test_run_checkpoint(self, tmp_path):
        config = TestGenConfig(seed=3, max_vectors=2)
        path = tmp_path / "run.ckpt"
        GaTestGenerator(s27(), config).run(checkpoint_path=path)
        payload = load_run_checkpoint(path)
        assert payload["config_digest"] == config.digest()
        payload["config_digest"] = _word_width_era_digest(config)
        save_run_checkpoint(path, payload)
        with pytest.raises(CheckpointError, match="configuration"):
            GaTestGenerator(s27(), config).run(checkpoint_path=path, resume=True)

    def test_campaign_journal(self, tmp_path):
        config = TestGenConfig()
        params = dict(table="4", scale=0.1, seeds=[1])
        journal = CampaignJournal.create(tmp_path / "j.jsonl", **params)
        journal.bind(["s27"], {"lbl": _word_width_era_digest(config)})
        resumed = CampaignJournal.create(tmp_path / "j.jsonl", resume=True,
                                         **params)
        with pytest.raises(CheckpointError, match="digests changed"):
            resumed.bind(["s27"], {"lbl": config.digest()})


class TestRunCheckpoints:
    """The generator-level (crash-safe, resumable) checkpoint layer."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_run_checkpoint(path, {"stage": "vectors", "data": [1, 2, 3]})
        payload = load_run_checkpoint(path)
        assert payload["kind"] == "gatest-run"
        assert payload["format"] == RUN_FORMAT_VERSION
        assert payload["stage"] == "vectors"
        assert payload["data"] == [1, 2, 3]

    def test_corrupt_bitflip_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_run_checkpoint(path, {"stage": "vectors", "count": 7})
        payload = json.loads(path.read_text())
        payload["count"] = 8  # silent corruption
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="content-hash"):
            load_run_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_run_checkpoint(path, {"stage": "done"})
        path.write_text(path.read_text()[:-20])
        with pytest.raises(CheckpointError, match="cannot read"):
            load_run_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_run_checkpoint(tmp_path / "nope.ckpt")

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(CheckpointError, match="not a gatest run checkpoint"):
            load_run_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_run_checkpoint(path, {"stage": "done"})
        payload = json.loads(path.read_text())
        payload["format"] = 99
        del payload["content_hash"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="format"):
            load_run_checkpoint(path)

    def test_sim_state_round_trip(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        sim.commit(random_vectors(s27_circuit, 12, seed=6))
        state = json.loads(json.dumps(sim_run_state(sim)))  # JSON-safe
        fresh = FaultSimulator(s27())
        restore_sim_run_state(fresh, state)
        assert fresh.detected_count == sim.detected_count
        assert fresh.detections == sim.detections
        assert fresh.divergence == sim.divergence
        assert fresh.good_state.ff_values == sim.good_state.ff_values
        assert fresh.vectors_applied == sim.vectors_applied

    def test_fault_digest_guard(self, s27_circuit, minifsm_circuit):
        sim = FaultSimulator(s27_circuit)
        state = sim_run_state(sim)
        other = FaultSimulator(minifsm_circuit)
        with pytest.raises(CheckpointError, match="fault list"):
            restore_sim_run_state(other, state)

    def test_fault_digest_orders(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        digest = fault_list_digest(sim.faults)
        assert digest == fault_list_digest(list(sim.faults))
        assert digest != fault_list_digest(list(reversed(sim.faults)))


class TestJournalIncrementalRefresh:
    """A campaign journal reads only the lines committed since its last
    read, each once and in file order."""

    @staticmethod
    def _big_journal(path, cells):
        """A journal of ``cells`` sealed cell records, written at once."""
        from repro.core.checkpoint import seal_journal_record

        CampaignJournal.create(path, table="4", scale=0.1, seeds=[1])
        lines = [
            json.dumps(seal_journal_record({
                "kind": "campaign-cell", "circuit": f"c{i}", "label": "lbl",
                "seed": 1, "scale": 0.1, "config_digest": "a" * 64,
                "status": "ok", "result": {"detected": i},
            }), sort_keys=True, separators=(",", ":"))
            for i in range(cells)
        ]
        with open(path, "a") as handle:
            handle.write("\n".join(lines) + "\n")

    def test_refresh_checks_only_new_lines(self, tmp_path, monkeypatch):
        import repro.core.checkpoint as checkpoint

        path = tmp_path / "j.jsonl"
        self._big_journal(path, 500)
        peer = CampaignJournal.open(path)
        writer = CampaignJournal.open(path)
        k = 3
        for seed in range(k):
            writer.grant_lease("c0", "lbl", seed, 0.1, "a" * 64,
                               host="alpha", ttl=60.0)
        checked = []
        seal = checkpoint._seal

        def counting(record, field):
            checked.append(record.get("kind"))
            return seal(record, field)

        monkeypatch.setattr(checkpoint, "_seal", counting)
        peer.refresh()
        assert checked == ["campaign-lease"] * k
        assert len(peer.leases()) == k
        assert len(peer.cells()) == 500
        checked.clear()
        peer.refresh()
        assert checked == []

    def test_own_record_keeps_its_file_position(self, tmp_path):
        """A peer's ok seal committed before this journal's own wins in
        this journal's view too, as it does for every later reader."""
        path = tmp_path / "j.jsonl"
        alpha = CampaignJournal.create(path, table="4", scale=0.1, seeds=[1])
        beta = CampaignJournal.open(path)
        beta.record_cell("c", "lbl", 1, 0.1, "a" * 64,
                         result={"detected": 1}, host="beta")
        alpha.record_cell("c", "lbl", 1, 0.1, "a" * 64,
                          result={"detected": 1}, host="alpha")
        assert alpha.result_for("c", "lbl", 1, 0.1)["host"] == "beta"
        fresh = CampaignJournal.open(path)
        assert fresh.result_for("c", "lbl", 1, 0.1)["host"] == "beta"

    def test_replaced_or_cut_file_is_read_whole(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = CampaignJournal.create(path, table="4", scale=0.1, seeds=[1])
        first.grant_lease("c", "lbl", 1, 0.1, "a" * 64, host="alpha",
                          ttl=60.0)
        peer = CampaignJournal.open(path)
        assert peer.lease_for("c", "lbl", 1, 0.1) is not None
        CampaignJournal.create(path, table="4", scale=0.1, seeds=[1])
        peer.refresh()
        assert peer.lease_for("c", "lbl", 1, 0.1) is None
        first = CampaignJournal.open(path)
        first.grant_lease("c", "lbl", 1, 0.1, "a" * 64, host="beta",
                          ttl=60.0)
        peer.refresh()
        assert peer.lease_for("c", "lbl", 1, 0.1)["host"] == "beta"
        header = path.read_text().splitlines(keepends=True)[0]
        path.write_text(header)  # cut in place: same file, shorter
        peer.refresh()
        assert peer.leases() == []
