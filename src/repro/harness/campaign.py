"""Campaign journal: crash-safe resume for multi-run experiment campaigns.

PR 4 made a *single* GATEST run crash-safe (``gatest run --checkpoint``);
this module does the same for the harness's *campaign loop* — the
(circuit, config-label, seed) matrix behind every paper table.  Each
cell is a journaled unit of work:

* :class:`CampaignJournal` owns a sealed JSONL journal (appended and
  integrity-checked by :mod:`repro.core.checkpoint`, like the job
  service's ledger).  The header binds the campaign's
  identity — table, scale, seed list, schema version — and each
  ``run_matrix`` call additionally binds its circuit list and config
  digests (:meth:`CampaignJournal.bind`), so a resumed journal that no
  longer matches the code/config that wrote it is refused, never
  silently misread.
* Completed cells store the full :class:`~repro.core.results.TestGenResult`
  (round-tripped by :func:`~repro.core.checkpoint.result_to_json` /
  :func:`~repro.core.checkpoint.result_from_json`), so a resume
  *replays* them bit-identically — the re-emitted table text
  is byte-identical to an uninterrupted run's.
* Failed cells (a seed that crashed/hung past its retry budget) store
  the error instead; they are *not* replayed, so a resume re-attempts
  exactly the work that never finished.

A journal reaches the harness as the ``journal`` of an
:class:`~repro.harness.runner.ExecutionPlan`: ``run_gatest`` looks
each cell up in it and the executor that runs a cell seals it there.
``python -m repro.harness.experiments --journal J [--resume]`` builds
that plan from the command line.

Every write is one flocked, fsynced single-line append, so a SIGKILL
tears at most the final line: loaders drop it and the next writer cuts
it.  Distributed campaigns (:mod:`repro.harness.distributed`,
``--workers-from``) therefore reuse this journal unchanged as their
only coordination channel: ``campaign-lease`` / ``campaign-close``
records drive the worker protocol, and duplicate cell seals — a
stalled worker racing its re-leased peer — are arbitrated
**first-sealed-ok-wins in file order**, so every reader derives the
same winner from the same bytes (docs/ROBUSTNESS.md §6).

Counters (see docs/TELEMETRY.md): ``campaign.cells.completed`` /
``campaign.cells.skipped`` / ``campaign.cells.failed`` /
``campaign.cells.duplicate``, ``campaign.resumed`` and
``campaign.lease.granted`` (the reap-side ``campaign.lease.*``
counters live in the coordinator).
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.checkpoint import (
    CAMPAIGN_FORMAT_VERSION,
    CheckpointError,
    append_journal_record,
    check_campaign_header,
    parse_sealed_lines,
)
from ..telemetry import get_collector


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------


def _cell_key(circuit: str, label: str, seed: int, scale: float) -> Tuple:
    return (circuit, label, int(seed), repr(float(scale)))


class CampaignJournal:
    """One campaign's journal: header + bindings + one record per cell.

    Create with :meth:`create` (fresh campaign, overwrites any stale
    journal at ``path``) or :meth:`create` with ``resume=True`` (loads
    and integrity-checks the existing journal, refusing on any identity
    mismatch); peers attach with :meth:`open`.  Every binding, cell,
    lease and close marker is one sealed line appended by
    :func:`~repro.core.checkpoint.append_journal_record`, so a SIGKILL
    at any instant leaves every committed line loadable behind.

    The journal object reads its file incrementally: it keeps the byte
    offset after the last committed line it has read, and each
    :meth:`refresh` absorbs only the lines committed after it, each
    once and in file order.
    """

    def __init__(
        self,
        path: Union[str, Path],
        resumed: bool,
        collector=None,
    ) -> None:
        self.path = Path(path)
        self.resumed = resumed
        self.collector = collector if collector is not None else get_collector()
        self._bind_count = 0
        self._lease_seq = 0
        #: ``(st_dev, st_ino)`` of the file read so far, the byte offset
        #: after its last committed line read, and that line's number.
        self._file: Optional[Tuple[int, int]] = None
        self._offset = 0
        self._lines = 0
        self.refresh()

    def _restart(self, identity: Tuple[int, int]) -> None:
        """Forget every record read: the next read starts at byte 0."""
        self._file = identity
        self._offset = 0
        self._lines = 0
        self._records: List[dict] = []
        self._cells: Dict[Tuple, dict] = {}
        self._leases: Dict[Tuple, dict] = {}
        self._cell_pos: Dict[Tuple, int] = {}
        self._lease_pos: Dict[Tuple, int] = {}
        self.closed = False

    def _absorb(self, record: dict) -> None:
        """Fold one record, the next in file order, into the views.

        A cell may have several records: a failed cell re-run on resume
        appends its new outcome after the failure, and a host stalled
        past its lease TTL can seal a late result after a re-leased
        peer already sealed one.  They are arbitrated
        first-sealed-ok-wins: the earliest ``ok`` record in file order
        is the cell's result, later duplicates are ignored (counted as
        ``campaign.cells.duplicate``), and a ``failed`` record is
        superseded by any later record (a retry or a re-lease healing
        the cell).
        Leases keep only the latest grant per cell (highest ``seq``).
        """
        position = len(self._records)
        self._records.append(record)
        kind = record.get("kind")
        if kind == "campaign-close":
            self.closed = True
        elif kind in ("campaign-cell", "campaign-lease"):
            key = _cell_key(
                record["circuit"], record["label"],
                record["seed"], record["scale"],
            )
            if kind == "campaign-cell":
                previous = self._cells.get(key)
                if previous is not None and previous.get("status") == "ok":
                    self.collector.inc("campaign.cells.duplicate")
                    return
                self._cells[key] = record
                self._cell_pos[key] = position
                return
            seq = int(record.get("seq", 0))
            current = self._leases.get(key)
            if current is None or int(current.get("seq", 0)) <= seq:
                self._leases[key] = record
                self._lease_pos[key] = position
            self._lease_seq = max(self._lease_seq, seq)

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        *,
        table: str,
        scale: float,
        seeds: Sequence[int],
        resume: bool = False,
        collector=None,
    ) -> "CampaignJournal":
        """Open a campaign journal at ``path``.

        Fresh mode writes a new header (clobbering any previous journal
        at ``path`` — a journal is per-campaign state, not an archive).
        ``resume=True`` requires an existing journal whose header
        matches ``table`` / ``scale`` / ``seeds`` exactly; anything
        else — missing file, corrupt line, unknown schema, different
        campaign identity — raises :class:`CheckpointError`.  A torn
        final line (the tail a SIGKILLed appender leaves) is dropped.
        """
        header = {
            "kind": "campaign-header",
            "format": CAMPAIGN_FORMAT_VERSION,
            "table": str(table),
            "scale": float(scale),
            "seeds": [int(s) for s in seeds],
        }
        if resume:
            journal = cls(path, resumed=True, collector=collector)
            for field in ("table", "scale", "seeds"):
                if journal.header.get(field) != header[field]:
                    raise CheckpointError(
                        f"campaign journal {path} belongs to a different "
                        f"campaign: {field} is {journal.header.get(field)!r}, "
                        f"this run wants {header[field]!r} (use a fresh "
                        "journal or rerun with the original parameters)"
                    )
            journal.collector.inc("campaign.resumed")
            return journal
        Path(path).unlink(missing_ok=True)
        append_journal_record(path, header)
        return cls(path, resumed=False, collector=collector)

    @classmethod
    def open(
        cls, path: Union[str, Path], *, collector=None
    ) -> "CampaignJournal":
        """Attach to an existing journal as a peer writer (a worker).

        Campaign workers take no identity arguments — the header on
        disk *is* the campaign's identity.  The journal must exist and
        pass integrity checks (a torn final line is dropped, anything
        else is refused).
        """
        return cls(path, resumed=True, collector=collector)

    def _append(self, record: dict) -> dict:
        """Seal and append ``record``, then read on through it, so it
        takes its file position among peers' records."""
        sealed = append_journal_record(self.path, record)
        self.refresh()
        return sealed

    def refresh(self) -> None:
        """Absorb the records committed since the last read.

        Picks up records sealed by peer writers — the coordinator's
        poll step and the workers' claim step both live on this — each
        once, in file order, reading only the bytes after the last
        committed line read.  A line without its newline yet (a peer
        mid-append, or SIGKILLed there) is left for a later read.  The
        whole file is read again only when it was replaced or is now
        shorter than what was read; the first read checks the header.
        """
        try:
            with open(self.path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                identity = (stat.st_dev, stat.st_ino)
                if identity != self._file or stat.st_size < self._offset:
                    self._restart(identity)
                handle.seek(self._offset)
                data = handle.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read {self.path}: {exc}") from exc
        records, used, self._lines = parse_sealed_lines(
            self.path, data, self._lines
        )
        if not self._offset:
            self.header = check_campaign_header(self.path, records)
        self._offset += used
        for record in records:
            self._absorb(record)

    # -- identity bindings ---------------------------------------------

    def bind(self, circuits: Sequence[str], digests: Dict[str, str]) -> None:
        """Bind one ``run_matrix`` group's circuits and config digests.

        Groups are matched positionally across sessions (a campaign
        re-runs the same table code, so group ``i`` on resume must be
        the same group ``i`` that was journaled).  A mismatch means the
        configs or circuit lists changed since the journal was written;
        the journal is refused rather than silently mixing results.
        """
        binding = {
            "kind": "campaign-binding",
            "group": self._bind_count,
            "circuits": [str(c) for c in circuits],
            "digests": dict(sorted(digests.items())),
        }
        self._bind_count += 1
        for record in self._records:
            if (record.get("kind") == "campaign-binding"
                    and record.get("group") == binding["group"]):
                for field in ("circuits", "digests"):
                    if record.get(field) != binding[field]:
                        raise CheckpointError(
                            f"campaign journal {self.path}: group "
                            f"{binding['group']} {field} changed since the "
                            f"journal was written (journal has "
                            f"{record.get(field)!r}, this run produces "
                            f"{binding[field]!r}); configs or circuit lists "
                            "must not change across a resume"
                        )
                return
        self._append(binding)

    # -- cells ----------------------------------------------------------

    def lookup(
        self, circuit: str, label: str, seed: int, scale: float, digest: str
    ) -> Optional[dict]:
        """The journaled *completed* result for one cell, or ``None``.

        ``None`` means the cell must be (re-)executed: it was never
        journaled, or it was journaled as failed.  A journaled cell
        whose config digest differs from ``digest`` is a refusal, not a
        miss — executing it would silently mix two different configs'
        results in one table.  Completed hits count
        ``campaign.cells.skipped``.
        """
        record = self._cells.get(_cell_key(circuit, label, seed, scale))
        if record is None:
            return None
        if record["config_digest"] != digest:
            raise CheckpointError(
                f"campaign journal {self.path}: cell ({circuit!r}, "
                f"{label!r}, seed {seed}) was journaled under config "
                f"digest {record['config_digest'][:12]}…, but this run's "
                f"config digests to {digest[:12]}… — the config changed "
                "since the journal was written; use a fresh journal"
            )
        if record["status"] != "ok":
            return None
        self.collector.inc("campaign.cells.skipped")
        return record["result"]

    def record_cell(
        self,
        circuit: str,
        label: str,
        seed: int,
        scale: float,
        digest: str,
        *,
        result: Optional[dict] = None,
        error: Optional[str] = None,
        attempts: int = 1,
        host: Optional[str] = None,
        trace: Optional[List[dict]] = None,
    ) -> None:
        """Journal one executed cell (completed or failed) atomically.

        Exactly one of ``result`` (completed) / ``error`` (failed) must
        be given.  The record is always appended; arbitration
        (first-sealed-ok-wins, see :meth:`_absorb`) decides which of a
        cell's records is its result.  ``host`` stamps the sealing
        host's name and ``trace`` ships the executing worker's telemetry
        records along with the result (the coordinator merges them
        under ``host.<name>`` scopes).
        """
        if (result is None) == (error is None):
            raise ValueError("record_cell takes exactly one of result/error")
        record = {
            "kind": "campaign-cell",
            "circuit": str(circuit),
            "label": str(label),
            "seed": int(seed),
            "scale": float(scale),
            "config_digest": digest,
            "status": "ok" if result is not None else "failed",
        }
        if host is not None:
            record["host"] = str(host)
        if trace is not None:
            record["trace"] = trace
        if result is not None:
            record["result"] = result
            self.collector.inc("campaign.cells.completed")
        else:
            record["error"] = error
            record["attempts"] = attempts
            self.collector.inc("campaign.cells.failed")
        self._append(record)

    # -- leases (distributed campaigns) ----------------------------------

    def grant_lease(
        self,
        circuit: str,
        label: str,
        seed: int,
        scale: float,
        digest: str,
        *,
        host: str,
        ttl: float,
        config: Optional[dict] = None,
        fingerprint: Optional[str] = None,
        collect: bool = False,
    ) -> dict:
        """Seal a TTL-stamped lease granting one cell to ``host``.

        ``config`` carries the full execution-resolved
        :class:`~repro.core.config.TestGenConfig` rendering (including
        execution-only knobs like ``eval_jobs`` and the resolved
        ``sim_kernel``) so the worker reproduces the coordinator's
        execution environment exactly; ``fingerprint`` is the
        coordinator's :func:`~repro.core.checkpoint.circuit_fingerprint`
        of the cell's circuit, which the worker's must equal.  Leases
        are journal-global monotonic (``seq``); a re-lease of the same
        cell supersedes the previous lease by carrying a higher
        ``seq``.  Counts ``campaign.lease.granted``.
        """
        self._lease_seq += 1
        record = {
            "kind": "campaign-lease",
            "seq": self._lease_seq,
            "circuit": str(circuit),
            "label": str(label),
            "seed": int(seed),
            "scale": float(scale),
            "config_digest": digest,
            "host": str(host),
            "ttl": float(ttl),
            "expires_at": time.time() + float(ttl),
            "config": config,
            "fingerprint": fingerprint,
            "collect": bool(collect),
        }
        sealed = self._append(record)
        self.collector.inc("campaign.lease.granted")
        return sealed

    def lease_for(
        self, circuit: str, label: str, seed: int, scale: float
    ) -> Optional[dict]:
        """The latest lease for one cell (highest ``seq``), or ``None``."""
        return self._leases.get(_cell_key(circuit, label, seed, scale))

    def leases(self) -> List[dict]:
        """The latest lease per cell, in arbitrary order."""
        return list(self._leases.values())

    def result_for(
        self, circuit: str, label: str, seed: int, scale: float
    ) -> Optional[dict]:
        """The cell's effective record after arbitration, or ``None``.

        Unlike :meth:`lookup` this returns failed records too (the
        coordinator needs to distinguish "failed on the worker" from
        "no result yet") and does not touch counters or digests.
        """
        return self._cells.get(_cell_key(circuit, label, seed, scale))

    def pending_result(
        self, circuit: str, label: str, seed: int, scale: float
    ) -> Optional[dict]:
        """The cell's outcome *for the current lease epoch*, or ``None``.

        Like :meth:`result_for`, except a failed record that was sealed
        *before* the cell's latest lease is treated as superseded (the
        re-lease exists precisely to retry it) and yields ``None`` —
        both the coordinator's accept loop and the workers' claim check
        use this, so a resumed campaign re-attempts stale failures
        while fresh ones stay terminal.  ``ok`` records always win.
        """
        key = _cell_key(circuit, label, seed, scale)
        record = self._cells.get(key)
        if record is None:
            return None
        if record.get("status") == "ok":
            return record
        lease_pos = self._lease_pos.get(key)
        if lease_pos is not None and lease_pos > self._cell_pos.get(key, -1):
            return None
        return record

    def record_close(self) -> None:
        """Seal the campaign-close marker (the coordinator's last write).

        Workers exit their poll loop when a refresh shows the campaign
        closed; a journal with a close marker grants no further leases.
        """
        self._append({"kind": "campaign-close"})

    # -- inspection ------------------------------------------------------

    def cells(self, status: Optional[str] = None) -> List[dict]:
        """Each journaled cell's effective record (see :meth:`_absorb`),
        optionally filtered by status."""
        return [r for r in self._cells.values()
                if status is None or r.get("status") == status]
