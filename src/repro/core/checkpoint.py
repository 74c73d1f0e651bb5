"""Checkpointing for long test-generation campaigns.

The paper's largest run (s35932, full fault list) took 105 hours on its
hardware; campaigns of that length need to survive interruption.  Three
layers live here:

* **Simulator checkpoints** (:func:`save_checkpoint` /
  :func:`load_checkpoint`) — a faithful JSON rendering of one
  :class:`~repro.faults.simulator.FaultSimulator`'s committed state
  plus the vectors that produced it, for callers that manage their own
  campaign loop.
* **Run checkpoints** (:func:`save_run_checkpoint` /
  :func:`load_run_checkpoint` plus the ``sim_run_state`` helpers) — the
  *complete* :class:`~repro.core.generator.GaTestGenerator` run state:
  simulator state, test set, phase tracker, RNG state, GA counters and
  stage trace, guarded by a schema version, a circuit fingerprint, a
  config digest and a whole-payload content hash.  ``gatest run
  --checkpoint CKPT --checkpoint-every N`` writes them periodically and
  ``--resume`` continues a killed run bit-identically (the RNG state
  makes the continuation replay exactly what an uninterrupted run would
  have done).  See ``docs/ROBUSTNESS.md`` for the schema and
  compatibility rules.
* **Sealed logs** (:func:`append_journal_record` /
  :func:`load_sealed_log`) — append-only JSONL files whose every line
  carries its own content hash: the campaign journals of the harness's
  multi-run experiment campaigns (:mod:`repro.harness.campaign`, whose
  header, binding the campaign's identity, :func:`check_campaign_header`
  checks) and the job service's ledger.  One
  writer and one loader serve both, with one torn-line rule: a final
  line without a newline is a crashed append, dropped on load and cut
  by the next writer; any other bad line, an unknown schema version or
  a mismatched header is refused with :class:`CheckpointError`, never
  silently misread.

Simulator and run checkpoint writes are atomic (tmp + fsync + rename,
via :mod:`repro.atomicio`): a crash mid-write leaves the previous
checkpoint intact, never a torn file.

The circuit itself is *not* stored; a fingerprint (structural hash) is,
and both loaders refuse to restore onto a different netlist.  Typical
simulator-level usage::

    sim = FaultSimulator(circuit)
    sim.commit(first_batch)
    save_checkpoint("run.ckpt.json", sim, test_sequence=first_batch)
    ...
    sim, vectors = load_checkpoint("run.ckpt.json", circuit)
    sim.commit(next_batch)   # continues where the first session stopped
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..atomicio import atomic_write_text
from ..circuit.netlist import Circuit
from ..faults.model import Fault, FaultStatus
from ..faults.simulator import FaultSimulator, SimSnapshot
from ..faults.transition import TransitionFaultSimulator
from ..sim.compile import CompiledCircuit, compile_circuit
from ..sim.logic3 import GoodState

FORMAT_VERSION = 1

#: Schema version of *run* checkpoints (the generator-level payload).
RUN_FORMAT_VERSION = 1

#: Schema version of campaign journals (the harness-level sealed log).
CAMPAIGN_FORMAT_VERSION = 1


class CheckpointError(Exception):
    """Raised on version, fingerprint, digest or content-hash
    mismatches, and on corrupt checkpoint files."""


def circuit_fingerprint(circuit: Circuit) -> str:
    """Stable structural hash of a netlist (names, types, edges, I/O)."""
    hasher = hashlib.sha256()
    for node_id in range(circuit.num_nodes):
        hasher.update(circuit.node_names[node_id].encode())
        hasher.update(circuit.node_types[node_id].value.encode())
        for fanin in circuit.fanins[node_id]:
            hasher.update(str(fanin).encode())
    hasher.update(b"|")
    hasher.update(",".join(map(str, circuit.inputs)).encode())
    hasher.update(",".join(map(str, circuit.outputs)).encode())
    return hasher.hexdigest()


def save_checkpoint(
    path: Union[str, Path],
    simulator: FaultSimulator,
    test_sequence: Optional[Sequence[Sequence[int]]] = None,
) -> None:
    """Write the simulator's committed state (and the test set) as JSON.

    Only stuck-at simulators: a transition-fault simulator raises
    :class:`CheckpointError` (run checkpoints cover transition runs).
    """
    if isinstance(simulator, TransitionFaultSimulator):
        raise CheckpointError(
            "save_checkpoint stores stuck-at fault simulators only, not the "
            "transition fault model; use a run checkpoint "
            "(gatest run --checkpoint), which supports transition runs"
        )
    payload = {
        "format": FORMAT_VERSION,
        "circuit": simulator.circuit.name,
        "fingerprint": circuit_fingerprint(simulator.circuit),
        "faults": [
            [f.node, f.pin, f.stuck_at] for f in simulator.faults
        ],
        "status": [
            s is FaultStatus.DETECTED for s in simulator.status
        ],
        "good_state": simulator.good_state.ff_values,
        "divergence": {
            str(fault_id): divergence
            for fault_id, divergence in simulator.divergence.items()
        },
        "vectors_applied": simulator.vectors_applied,
        "detections": [
            [[f.node, f.pin, f.stuck_at], frame]
            for f, frame in simulator.detections
        ],
        "test_sequence": [list(v) for v in (test_sequence or [])],
    }
    atomic_write_text(path, json.dumps(payload))


def load_checkpoint(
    path: Union[str, Path],
    circuit: Union[Circuit, CompiledCircuit],
) -> Tuple[FaultSimulator, List[List[int]]]:
    """Reconstruct a simulator (and the stored test set) from JSON.

    The circuit must match the checkpoint's fingerprint exactly.  The
    word-width key older builds wrote is ignored.
    """
    compiled = compile_circuit(circuit)
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {payload.get('format')!r}"
        )
    found = circuit_fingerprint(compiled.circuit)
    if payload["fingerprint"] != found:
        raise CheckpointError(
            f"checkpoint was taken on circuit {payload['circuit']!r} with a "
            f"different structure (fingerprint {payload['fingerprint'][:12]}…, "
            f"this circuit fingerprints to {found[:12]}…); refusing to restore"
        )
    faults = [Fault(n, p, s) for n, p, s in payload["faults"]]
    simulator = FaultSimulator(compiled, faults=faults)
    _write_sim_state(simulator, payload, [
        (Fault(*fault), frame) for fault, frame in payload["detections"]
    ])
    return simulator, [list(v) for v in payload["test_sequence"]]


def _write_sim_state(simulator: FaultSimulator, payload: dict,
                     detections: List[tuple]) -> None:
    """Write the committed state both checkpoint kinds store (status
    flags, good state, string-keyed divergences, vector count) plus
    ``detections`` into ``simulator``."""
    status = [
        FaultStatus.DETECTED if detected else FaultStatus.UNDETECTED
        for detected in payload["status"]
    ]
    simulator._write_state(SimSnapshot(
        good_state=GoodState(list(payload["good_state"])),
        divergence={
            int(fault_id): {int(k): v for k, v in div.items()}
            for fault_id, div in payload["divergence"].items()
        },
        status=status,
        active=[i for i, s in enumerate(status) if s is FaultStatus.UNDETECTED],
        vectors_applied=payload["vectors_applied"],
        detections=detections,
    ))


# ----------------------------------------------------------------------
# Run checkpoints (full generator state; crash-safe, resumable)
# ----------------------------------------------------------------------


def fault_list_digest(faults: Sequence[object]) -> str:
    """Stable hash of a fault list's identity and order.

    Run checkpoints do not store the fault list — a resumed generator
    regenerates it deterministically from the circuit — they store this
    digest and refuse to restore per-index fault state onto a list that
    differs.  Works for any fault type with a stable ``repr`` (stuck-at
    ``Fault`` and ``TransitionFault`` are both frozen dataclasses).
    """
    hasher = hashlib.sha256()
    for fault in faults:
        hasher.update(repr(fault).encode())
        hasher.update(b"|")
    return hasher.hexdigest()


def sim_run_state(simulator: FaultSimulator) -> dict:
    """The simulator's committed state as a JSON-safe dict, keyed by
    fault *index* (the fault list itself is reproduced at resume)."""
    fault_index = {fault: i for i, fault in enumerate(simulator.faults)}
    return {
        "fault_digest": fault_list_digest(simulator.faults),
        "status": [s is FaultStatus.DETECTED for s in simulator.status],
        "good_state": list(simulator.good_state.ff_values),
        "divergence": {
            str(fault_id): {str(k): v for k, v in div.items()}
            for fault_id, div in simulator.divergence.items()
        },
        "vectors_applied": simulator.vectors_applied,
        "detections": [
            [fault_index[fault], frame] for fault, frame in simulator.detections
        ],
        "extra": simulator._checkpoint_extra(),
    }


def restore_sim_run_state(simulator: FaultSimulator, state: dict) -> None:
    """Overwrite a freshly built simulator's state from
    :func:`sim_run_state` (in place)."""
    if state["fault_digest"] != fault_list_digest(simulator.faults):
        raise CheckpointError(
            "checkpoint fault list does not match the regenerated fault "
            "list; refusing to restore per-fault state"
        )
    _write_sim_state(simulator, state, [
        (simulator.faults[index], frame)
        for index, frame in state["detections"]
    ])
    simulator._restore_checkpoint_extra(state["extra"])


def _content_hash(payload: dict) -> str:
    """Canonical hash over everything except the hash field itself."""
    body = {k: v for k, v in payload.items() if k != "content_hash"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_run_checkpoint(path: Union[str, Path], payload: dict) -> None:
    """Atomically write one run checkpoint (tmp + fsync + rename).

    Stamps the schema version and a content hash over the whole
    payload; :func:`load_run_checkpoint` verifies both, so a truncated
    or bit-flipped file is detected instead of silently resuming from
    garbage.
    """
    payload = dict(payload)
    payload["kind"] = "gatest-run"
    payload["format"] = RUN_FORMAT_VERSION
    payload["content_hash"] = _content_hash(payload)
    atomic_write_text(path, json.dumps(payload))


def load_run_checkpoint(path: Union[str, Path]) -> dict:
    """Read and integrity-check one run checkpoint."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read run checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "gatest-run":
        raise CheckpointError(f"{path} is not a gatest run checkpoint")
    if payload.get("format") != RUN_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported run checkpoint format {payload.get('format')!r} "
            f"(this build reads format {RUN_FORMAT_VERSION})"
        )
    stored = payload.get("content_hash")
    if stored != _content_hash(payload):
        raise CheckpointError(
            f"run checkpoint {path} failed its content-hash check "
            "(truncated or corrupted file)"
        )
    return payload


# ----------------------------------------------------------------------
# Sealed logs: campaign journals and the job ledger (append-only JSONL)
# ----------------------------------------------------------------------


def _line_hash(record: dict) -> str:
    """Canonical hash of one sealed-log record, excluding its seal."""
    body = {k: v for k, v in record.items() if k != "sha"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def seal_journal_record(record: dict) -> dict:
    """Return ``record`` with its per-line ``sha`` seal stamped in.

    Every line of a sealed log carries its own content hash so
    corruption is localized: :func:`load_sealed_log` reports exactly
    which line is bit-flipped instead of a whole-file parse error.
    """
    sealed = dict(record)
    sealed["sha"] = _line_hash(sealed)
    return sealed


def append_journal_record(path: Union[str, Path], record: dict) -> dict:
    """Append one sealed record to a sealed log: the only writer of
    campaign journals and of the service's job ledger.

    A log may have several writers at once — the coordinator and every
    ``gatest campaign-worker`` host share a distributed campaign's
    journal, the service's worker threads share its ledger — so the
    record is written as exactly one ``\\n``-terminated line under an
    exclusive ``fcntl.flock`` and fsynced before the lock is released.
    A line is committed once its newline is on disk.

    While the lock is held no live writer can be mid-line, so a final
    line without a newline is the fragment of a writer killed
    mid-append.  It is cut before the record is written; otherwise the
    record would land on the fragment's line and be dropped with it as
    a torn tail by :func:`load_sealed_log`.

    Returns the sealed record as written.
    """
    if record.get("sha") != _line_hash(record):
        record = seal_journal_record(record)
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX
        fcntl = None
    with open(path, "a+b") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            _cut_torn_tail(handle)
            handle.write(line.encode())
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    return record


def _cut_torn_tail(handle) -> None:
    """Truncate an append handle's file after its last newline.

    One read of the last byte when the file is empty or ends in a
    newline; the whole file is read only to cut a fragment.
    """
    end = handle.seek(0, os.SEEK_END)
    if end == 0:
        return
    handle.seek(end - 1)
    if handle.read(1) == b"\n":
        return
    handle.seek(0)
    handle.truncate(handle.read().rfind(b"\n") + 1)


def load_sealed_log(path: Union[str, Path]) -> List[dict]:
    """Read and integrity-check a sealed log; its records in file order.

    A final line with no newline is the fragment of a writer killed
    mid-append (:func:`append_journal_record` commits a line with its
    newline) and is dropped.  Any other line that is not sealed JSON
    raises :class:`CheckpointError` naming ``path:line``: that is bit
    rot or tampering, not a crash, and skipping it could silently lose
    a record.  Blank lines are ignored.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    return parse_sealed_lines(path, data)[0]


def parse_sealed_lines(
    path: Union[str, Path], data: bytes, line: int = 0
) -> Tuple[List[dict], int, int]:
    """Integrity-check the committed lines of ``data``, a sealed log's
    bytes from some line start on, under :func:`load_sealed_log`'s rules.

    ``line`` counts the log's lines before ``data``, so errors name the
    absolute ``path:line``.  Returns ``(records, used, lines)``: the
    records in file order, the bytes up to and including the last
    newline, and the line count there.  Bytes after the last newline
    are not committed yet and are left for a later read.
    """
    used = data.rfind(b"\n") + 1
    records: List[dict] = []
    for lineno, raw in enumerate(data[:used].split(b"\n")[:-1], line + 1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except ValueError as exc:
            raise CheckpointError(
                f"{path}:{lineno}: not valid JSON ({exc})"
            ) from exc
        if not isinstance(record, dict) or "sha" not in record:
            raise CheckpointError(
                f"{path}:{lineno}: record has no seal (not a sealed log, "
                "or written by an incompatible build)"
            )
        if record["sha"] != _line_hash(record):
            raise CheckpointError(
                f"{path}:{lineno}: line failed its content-hash check "
                "(corrupted record)"
            )
        records.append(record)
    return records, used, line + data.count(b"\n", 0, used)


def check_campaign_header(path: Union[str, Path], records: List[dict]) -> dict:
    """The header of a campaign journal, from its records in file order.

    Refuses, with a :class:`CheckpointError`, an empty journal, a
    missing or malformed header, and unknown schema versions.
    """
    if not records:
        raise CheckpointError(f"campaign journal {path} is empty")
    header = records[0]
    if header.get("kind") != "campaign-header":
        raise CheckpointError(
            f"campaign journal {path}: first record must be the "
            f"campaign-header, got {header.get('kind')!r}"
        )
    if header.get("format") != CAMPAIGN_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported campaign journal format {header.get('format')!r} "
            f"(this build reads format {CAMPAIGN_FORMAT_VERSION})"
        )
    return header
