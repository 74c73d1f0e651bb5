"""Every persisted JSON shape of the reproduction, and its one hash.

GATEST depends on storing and restoring the good and faulty circuit
states (paper §IV); a paper-scale run (105 hours for s35932) survives
interruption only if that state is saved faithfully.  This module owns
every format in which state, configs and results are stored or shipped:

* **Sealed documents**: one JSON object per file, written atomically
  (:mod:`repro.atomicio`) under a ``kind`` and a ``format`` number and
  sealed by a ``content_hash`` over every other field.  Loaders check
  kind and format, then the seal, so a truncated, bit-flipped or
  foreign file raises :class:`CheckpointError` instead of being misread.
  *Run checkpoints* (``gatest-run`` format 1, :func:`save_run_checkpoint`)
  hold a whole :class:`~repro.core.generator.GaTestGenerator` run, which
  ``gatest run --checkpoint CKPT --resume`` continues bit-identically.
  *Simulator checkpoints* (``gatest-sim`` format 2, :func:`save_checkpoint`)
  hold one simulator's committed state (:func:`sim_run_state`), its
  fault list, of either fault model, and a test set; format-1 files,
  which were unsealed, are refused.
* **Sealed logs** (:func:`append_journal_record`, :func:`load_sealed_log`):
  append-only JSONL files whose every line carries its own hash, the
  harness's campaign journals and the job service's ledger.  A final
  line without a newline is a crashed append, dropped on load and cut by
  the next writer; any other bad line is refused naming ``path:line``.
* **Codecs** for configs with every field (leases and service tier
  tasks ship them), run results (campaign cells, service job results),
  faults of both models and stage events.

One canonical rendering (:func:`canonical_json`) and its SHA-256
(:func:`canonical_sha256`) give every seal and log line, the job
service's payload digest and its run key.  Circuits are not stored,
their fingerprints are, and both checkpoint loaders refuse another
netlist (:func:`check_fingerprint`).  Simulator-level use::

    save_checkpoint("sim.json", sim, test_sequence=first_batch)
    sim, vectors = load_checkpoint("sim.json", circuit)
    sim.commit(next_batch)   # continues where the first session stopped

docs/ROBUSTNESS.md has the schemas and compatibility rules.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, fields
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..atomicio import atomic_write_text
from ..circuit.netlist import Circuit
from ..faults.model import Fault, FaultStatus
from ..faults.simulator import FaultSimulator, SimSnapshot
from ..faults.transition import TransitionFault, TransitionFaultSimulator
from ..sim.compile import CompiledCircuit, compile_circuit
from ..sim.logic3 import GoodState
from .config import TestGenConfig
from .fitness import Phase
from .results import StageEvent, TestGenResult

#: Schema version of *simulator* checkpoints.
FORMAT_VERSION = 2

#: Schema version of *run* checkpoints (the generator-level payload).
RUN_FORMAT_VERSION = 1

#: Schema version of campaign journals (the harness-level sealed log).
CAMPAIGN_FORMAT_VERSION = 1


class CheckpointError(Exception):
    """Raised on version, fingerprint, digest or content-hash
    mismatches, and on corrupt checkpoint files."""


def canonical_json(value: object) -> str:
    """The one canonical JSON rendering: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_sha256(value: object) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def _seal(record: dict, field: str) -> str:
    """The hash over everything in ``record`` except its seal ``field``."""
    return canonical_sha256({k: v for k, v in record.items() if k != field})


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


def check_fingerprint(payload: dict, circuit: Circuit,
                      what: str = "checkpoint") -> None:
    """Refuse a ``payload`` — a checkpoint, or a campaign lease — whose
    ``circuit`` and ``fingerprint`` name another netlist than ``circuit``."""
    named, found = str(payload.get("fingerprint")), circuit_fingerprint(circuit)
    if named != found:
        raise CheckpointError(
            f"{what} names circuit {payload['circuit']!r} with a "
            f"different structure ({what} fingerprint {named[:12]}…, "
            f"this circuit fingerprints to {found[:12]}…); refusing to use it"
        )


def _save_document(path: Union[str, Path], kind: str, version: int,
                   payload: dict) -> None:
    """Atomically write ``payload`` stamped with its kind, format and seal."""
    payload = dict(payload, kind=kind, format=version)
    payload["content_hash"] = _seal(payload, "content_hash")
    atomic_write_text(path, json.dumps(payload))


def _load_document(path: Union[str, Path], kind: str, version: int,
                   what: str) -> dict:
    """Read one sealed document: its kind and format first, then its seal."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read {what} {path}: {exc}") from exc
    found = (payload.get("kind"), payload.get("format")) \
        if isinstance(payload, dict) else (None, None)
    if found != (kind, version):
        raise CheckpointError(
            f"{path} is not a {what} of format {version} (found kind "
            f"{found[0]!r}, format {found[1]!r})"
        )
    if payload.get("content_hash") != _seal(payload, "content_hash"):
        raise CheckpointError(
            f"{what} {path} failed its content-hash check "
            "(truncated or corrupted file)"
        )
    return payload


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
    fault *index* (the fault list itself is stored or regenerated
    beside it)."""
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
    status = [
        FaultStatus.DETECTED if detected else FaultStatus.UNDETECTED
        for detected in state["status"]
    ]
    simulator._write_state(SimSnapshot(
        good_state=GoodState(list(state["good_state"])),
        divergence={
            int(fault_id): {int(k): v for k, v in div.items()}
            for fault_id, div in state["divergence"].items()
        },
        status=status,
        active=[i for i, s in enumerate(status) if s is FaultStatus.UNDETECTED],
        vectors_applied=state["vectors_applied"],
        detections=[
            (simulator.faults[index], frame)
            for index, frame in state["detections"]
        ],
    ))
    simulator._restore_checkpoint_extra(state["extra"])


def save_checkpoint(
    path: Union[str, Path],
    simulator: FaultSimulator,
    test_sequence: Optional[Sequence[Sequence[int]]] = None,
) -> None:
    """Write a simulator's committed state, its fault list and the test
    set as a sealed ``gatest-sim`` document (either fault model)."""
    _save_document(path, "gatest-sim", FORMAT_VERSION, {
        "circuit": simulator.circuit.name,
        "fingerprint": circuit_fingerprint(simulator.circuit),
        "faults": [fault_to_json(fault) for fault in simulator.faults],
        **sim_run_state(simulator),
        "test_sequence": [list(v) for v in (test_sequence or [])],
    })


def load_checkpoint(
    path: Union[str, Path],
    circuit: Union[Circuit, CompiledCircuit],
) -> Tuple[FaultSimulator, List[List[int]]]:
    """Rebuild the simulator :func:`save_checkpoint` stored, and its test set.

    Checks the format, then the seal, then that ``circuit`` matches the
    stored fingerprint; builds a transition or stuck-at simulator as the
    stored fault list says.
    """
    payload = _load_document(path, "gatest-sim", FORMAT_VERSION,
                             "gatest simulator checkpoint")
    compiled = compile_circuit(circuit)
    check_fingerprint(payload, compiled.circuit)
    faults = [fault_from_json(fault) for fault in payload["faults"]]
    transition = any(isinstance(fault, TransitionFault) for fault in faults)
    simulator = (TransitionFaultSimulator if transition else FaultSimulator)(
        compiled, faults=faults
    )
    restore_sim_run_state(simulator, payload)
    return simulator, [list(v) for v in payload["test_sequence"]]


def save_run_checkpoint(path: Union[str, Path], payload: dict) -> None:
    """Atomically write one run checkpoint (tmp + fsync + rename),
    stamped with its schema version and sealed by a content hash."""
    _save_document(path, "gatest-run", RUN_FORMAT_VERSION, payload)


def load_run_checkpoint(path: Union[str, Path]) -> dict:
    """Read and integrity-check one run checkpoint."""
    return _load_document(path, "gatest-run", RUN_FORMAT_VERSION,
                          "gatest run checkpoint")


# ----------------------------------------------------------------------
# Codecs: configs, results, faults, stage events
# ----------------------------------------------------------------------


def config_to_json(config: TestGenConfig) -> dict:
    """Every config field, execution knobs included.

    Unlike :meth:`TestGenConfig.digest` this keeps ``eval_jobs`` and
    ``sim_kernel``: a lease or tier task must reproduce the sender's
    execution environment, not just the result-affecting identity.
    """
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in asdict(config).items()}


def config_from_json(data: dict) -> TestGenConfig:
    """Rebuild a :class:`TestGenConfig` from :func:`config_to_json`."""
    unknown = sorted(set(data) - {f.name for f in fields(TestGenConfig)})
    if unknown:
        raise CheckpointError(
            f"config carries unknown field(s) {', '.join(unknown)} "
            "(written by an incompatible build?)"
        )
    return TestGenConfig(**data)


def fault_to_json(fault: object) -> list:
    """A stuck-at fault as ``["sa", node, pin, stuck_at]``, a transition
    fault as ``["tr", node, slow_to]``."""
    if isinstance(fault, TransitionFault):
        return ["tr", fault.node, fault.slow_to]
    return ["sa", fault.node, fault.pin, fault.stuck_at]


def fault_from_json(data: Sequence) -> object:
    """Rebuild a fault :func:`fault_to_json` wrote."""
    types = {"sa": Fault, "tr": TransitionFault}
    if data[0] not in types:
        raise CheckpointError(f"unknown fault tag {data[0]!r}")
    return types[data[0]](*data[1:])


def stage_event_to_json(event: StageEvent) -> list:
    """``[kind, phase name, frames, detected, committed]``."""
    return [event.kind, event.phase.name, event.frames, event.detected,
            event.committed]


def stage_event_from_json(data: Sequence) -> StageEvent:
    """Rebuild a stage event :func:`stage_event_to_json` wrote."""
    kind, phase, frames, detected, committed = data
    return StageEvent(kind, Phase[phase], frames, detected, committed)


def result_to_json(result: TestGenResult) -> dict:
    """A completed run's result, with everything the aggregate tables and
    figures read — the stage trace and per-fault detections included —
    so a replayed campaign cell is indistinguishable from a fresh one."""
    return {
        "circuit_name": result.circuit_name,
        "test_sequence": [list(v) for v in result.test_sequence],
        "detected": result.detected,
        "total_faults": result.total_faults,
        "elapsed_seconds": result.elapsed_seconds,
        "ga_evaluations": result.ga_evaluations,
        "ga_runs": result.ga_runs,
        "phase_transitions": [[i, p.name] for i, p in result.phase_transitions],
        "trace": [stage_event_to_json(e) for e in result.trace],
        "detections": [
            [fault_to_json(fault), frame] for fault, frame in result.detections
        ],
    }


def result_from_json(data: dict) -> TestGenResult:
    """Rebuild a :class:`TestGenResult` from :func:`result_to_json`."""
    try:
        return TestGenResult(
            circuit_name=data["circuit_name"],
            test_sequence=[list(v) for v in data["test_sequence"]],
            detected=data["detected"],
            total_faults=data["total_faults"],
            elapsed_seconds=data["elapsed_seconds"],
            ga_evaluations=data["ga_evaluations"],
            ga_runs=data["ga_runs"],
            phase_transitions=[
                (i, Phase[name]) for i, name in data["phase_transitions"]
            ],
            trace=[stage_event_from_json(e) for e in data["trace"]],
            detections=[
                (fault_from_json(fault), frame)
                for fault, frame in data["detections"]
            ],
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointError(f"result record is malformed: {exc!r}") from exc


# ----------------------------------------------------------------------
# Sealed logs: campaign journals and the job ledger (append-only JSONL)
# ----------------------------------------------------------------------


def seal_journal_record(record: dict) -> dict:
    """Return ``record`` with its per-line ``sha`` seal stamped in.

    Every line of a sealed log carries its own content hash so
    corruption is localized: :func:`load_sealed_log` reports exactly
    which line is bit-flipped instead of a whole-file parse error.
    """
    sealed = dict(record)
    sealed["sha"] = _seal(sealed, "sha")
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
    if record.get("sha") != _seal(record, "sha"):
        record = seal_journal_record(record)
    line = canonical_json(record) + "\n"
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
        if record["sha"] != _seal(record, "sha"):
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
