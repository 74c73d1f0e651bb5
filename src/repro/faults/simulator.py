"""PROOFS-style parallel-fault sequential fault simulator.

The simulator maintains the *committed* circuit state: the fault-free
(good) flip-flop state plus, for every undetected fault, the set of
flip-flops where that fault's machine has diverged from the good
machine.  Every simulation runs one frame loop, the *population pass*:
each candidate test owns a block of bit slots, one per simulated fault
plus a fault-free top slot for its good machine, so one injected pass
of bitwise operations over the compiled program per time frame
evaluates every good and faulty machine at once (see DESIGN.md §6).

Two entry points mirror how GATEST uses PROOFS (paper §III/§IV):

* :meth:`FaultSimulator.evaluate` / :meth:`~FaultSimulator.evaluate_batch`
  — score candidate tests against the current state **without
  committing**: returns the observables every phase's fitness function
  needs (faults detected, fault effects at flip-flops, good/faulty event
  counts, flip-flops initialized).  The paper's §IV "store and restore
  the good and faulty circuit states" modification is realized by
  simply never writing candidate results back.
* :meth:`FaultSimulator.commit` — apply the selected test for real: a
  one-candidate pass over the *commit slot space* (:class:`_SlotSpace`)
  that advances the good state and every faulty state, marks newly
  detected faults (with their first detecting frame) and drops them
  from the active list.  Dropping is PROOFS-style, by masking: a fault
  keeps its slot from one repack to the next, so the slot space's
  injection is built once per repack, not once per commit.

Explicit :meth:`snapshot` / :meth:`restore` are also provided for
callers that need transactional experimentation beyond that model.

Candidate scoring has two executions with bit-identical results.  The
*serial* path (the default) runs the population pass in-process.  The
*sharded* path (``eval_jobs > 1``) hands :meth:`evaluate` /
:meth:`evaluate_batch` to a :class:`repro.parallel.ParallelEvaluator`:
the fault sample is split into contiguous shards scored by a persistent
worker-process pool and merged by summation (exact, because shards are
disjoint fault subsets).  Repeated candidates never reach either path
twice in one GA run: the GA memoizes fitness by chromosome
(:class:`repro.ga.engine.GeneticAlgorithm`).  See docs/ARCHITECTURE.md
and docs/PERFORMANCE.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..circuit.gates import X
from ..circuit.netlist import Circuit
from ..sim.codegen import kernel_for
from ..sim.compile import CompiledCircuit, compile_circuit
from ..sim.logic3 import GoodState, Vector
from ..telemetry.collector import NullCollector, get_collector
from .collapse import collapsed_fault_list
from .model import STEM, Fault, FaultStatus


@dataclass
class CandidateEval:
    """Observables from scoring one candidate test (never committed)."""

    frames: int
    detected: int            # distinct sampled faults detected at a PO
    prop_final: int          # faults with a definite effect at a FF, final frame
    prop_sum: int            # the same, summed over every frame
    faulty_events: int       # (fault, node, frame) triples where faulty != good
    good_events: int         # good-machine node changes, summed over frames
    ffs_set: int             # good-machine FFs definite after the last frame
    ffs_changed: int         # good-machine definite-to-definite FF toggles, last frame
    num_faults_simulated: int
    num_ffs: int


@dataclass
class CommitResult:
    """Outcome of committing a test to the simulator state."""

    frames: int
    detections: List[Tuple[Fault, int]]  # (fault, absolute frame)
    detected_count: int
    remaining: int


@dataclass
class SimSnapshot:
    """Opaque deep snapshot of all simulator state (§IV store/restore)."""

    good_state: GoodState
    divergence: Dict[int, Dict[int, int]]
    status: List[FaultStatus]
    active: List[int]
    vectors_applied: int
    detections: List[Tuple[Fault, int]]

    def copy(self) -> "SimSnapshot":
        """A deep copy that shares no mutable container with this one."""
        return SimSnapshot(
            good_state=self.good_state.copy(),
            divergence={f: dict(d) for f, d in self.divergence.items()},
            status=list(self.status),
            active=list(self.active),
            vectors_applied=self.vectors_applied,
            detections=list(self.detections),
        )


#: Dead share of the commit slot space past which a commit repacks it.
#: Over 2000 one-frame commits on s1423, repacking at a quarter dead ran
#: faster than at an eighth, a half or three quarters (CHANGES.md has
#: the times).
REPACK_DEAD_SHARE = 0.25


class _BatchLayout:
    """Slot layout and replicated injection of one population pass.

    Candidate ``c`` owns the ``S + 1`` slots starting at ``c * (S + 1)``:
    the ``S`` sampled faults in sample order, then one fault-free *top*
    slot.  Force words are the sample's ``S``-bit words times ``rep``
    (one set bit per block), so they never carry into a top slot, and
    the injected pass that simulates the faulty machines computes every
    candidate's good machine alongside them.  Nothing here reads the
    committed state: it depends only on the sample's order and the
    population size.  :meth:`replicate` builds a layout from the
    sample's forces (:meth:`FaultSimulator._injection_tables` at
    ``rep``); :meth:`trimmed` serves a smaller population of the same
    sample from a built one.  A model whose forces change per frame
    returns none from the tables and supplies them from
    :meth:`FaultSimulator._frame_forces`, which reads :attr:`launch`.
    """

    __slots__ = (
        "S", "n_cand", "mask", "rep", "top", "blocks", "tops",
        "pi_forces", "ff_out_rows", "ff_pin_forces", "out_force",
        "pin_force", "injection", "launch",
    )

    def __init__(self, sim: "FaultSimulator", S: int, n_cand: int,
                 pi_forces, ff_out_rows, ff_pin_forces, out_force,
                 pin_force, launch) -> None:
        B = S + 1
        self.S = S
        self.n_cand = n_cand
        self.mask = (1 << (n_cand * B)) - 1
        #: Bit ``c * B`` of every block; ``rep << S`` is every top slot.
        rep = self.mask // ((1 << B) - 1)
        self.rep = rep
        self.top = rep << S
        #: Per-candidate block masks, for the final split of whole-word
        #: results into per-candidate counts, and top slots.
        self.blocks = [((1 << B) - 1) << (c * B) for c in range(n_cand)]
        self.tops = [1 << (c * B + S) for c in range(n_cand)]
        #: ``(node, f1, f0)``: primary-input forces, applied at load.
        self.pi_forces = pi_forces
        #: ``(k, flip-flop node, f1, f0)``: forced at present-state load.
        self.ff_out_rows = ff_out_rows
        #: ``k -> (f1, f0)``: D-pin forces, applied at next-state capture.
        self.ff_pin_forces = ff_pin_forces
        #: The gate forces :attr:`injection` digests, kept for trimming.
        self.out_force = out_force
        self.pin_force = pin_force
        self.injection = sim._kernel.make_injection(
            out_force, pin_force, self.mask
        )
        #: The model's per-frame table (:meth:`FaultSimulator._launch_table`).
        #: It reads only the sample, so trimming keeps it.
        self.launch = launch

    @classmethod
    def replicate(cls, sim: "FaultSimulator", sample: Sequence[int],
                  n_cand: int) -> "_BatchLayout":
        """Build the layout: every force bit set in all ``n_cand`` blocks."""
        S = len(sample)
        B = S + 1
        rep = ((1 << (n_cand * B)) - 1) // ((1 << B) - 1)
        (out_force, pin_force, pi_forces,
         ff_out_forces, ff_pin_forces) = sim._injection_tables(sample, rep)
        ff_ids = sim.compiled.ff_ids
        return cls(
            sim, S, n_cand, pi_forces,
            [(k, ff_ids[k], f1, f0) for k, (f1, f0) in ff_out_forces.items()],
            ff_pin_forces, out_force, pin_force, sim._launch_table(sample),
        )

    def trimmed(self, sim: "FaultSimulator", n_cand: int) -> "_BatchLayout":
        """The layout of this sample's first ``n_cand`` blocks.

        Every block carries the same forces, so cutting each replicated
        word to the narrower mask gives what :meth:`replicate` would
        build for ``n_cand`` candidates, without building it again.
        """
        m = (1 << (n_cand * (self.S + 1))) - 1
        return _BatchLayout(
            sim, self.S, n_cand,
            [(node, f1 & m, f0 & m) for node, f1, f0 in self.pi_forces],
            [(k, ff, f1 & m, f0 & m) for k, ff, f1, f0 in self.ff_out_rows],
            {k: (f1 & m, f0 & m) for k, (f1, f0) in self.ff_pin_forces.items()},
            {node: (f1 & m, f0 & m) for node, (f1, f0) in self.out_force.items()},
            {gate: [(pin, f1 & m, f0 & m) for pin, f1, f0 in entries]
             for gate, entries in self.pin_force.items()},
            self.launch,
        )


class _SlotSpace:
    """The commit slot space: fault slots that survive commits.

    Slot ``s`` holds fault ``ids[s]`` from one repack to the next:
    ``ids`` is the active list at the repack, and :attr:`layout` its
    one-candidate :class:`_BatchLayout`, so a commit builds no
    injection.  A detected fault becomes a dead slot: it leaves
    :attr:`live`, and its detections and divergences are masked out
    (PROOFS-style fault dropping, done by masking).  Divergences are
    per-flip-flop slot planes: ``moved[k]`` marks the live slots whose
    faulty flip-flop ``k`` differs from the good machine's, ``ones[k]``
    and ``zeros[k]`` those where it is 1 or 0 (a move to X is in
    neither).
    """

    __slots__ = ("ids", "slot_of", "layout", "live", "moved", "ones", "zeros")

    def __init__(self, sim: "FaultSimulator", ids: List[int]) -> None:
        self.ids = ids
        self.slot_of = {fault_id: slot for slot, fault_id in enumerate(ids)}
        self.layout = _BatchLayout.replicate(sim, ids, 1)
        self.live = 0
        self.moved: List[int] = []
        self.ones: List[int] = []
        self.zeros: List[int] = []

    def covers(self, active: Sequence[int]) -> bool:
        """Whether every fault of ``active`` has a slot."""
        slot_of = self.slot_of
        return all(fault_id in slot_of for fault_id in active)

    def due(self) -> bool:
        """Whether the dead share has passed :data:`REPACK_DEAD_SHARE`."""
        S = len(self.ids)
        return S - self.live.bit_count() > REPACK_DEAD_SHARE * S

    def load(self, active: Sequence[int],
             divergence: Dict[int, Dict[int, int]], n_ffs: int) -> None:
        """Set :attr:`live` and the planes from the edge format
        (``active`` must be covered)."""
        slot_of = self.slot_of
        live = 0
        for fault_id in active:
            live |= 1 << slot_of[fault_id]
        self.live = live
        self.moved, self.ones, self.zeros = _divergence_words(
            self.ids, divergence, n_ffs
        )

    def divergence(self) -> Dict[int, Dict[int, int]]:
        """The planes in the edge format, flip-flop by flip-flop."""
        ids = self.ids
        out: Dict[int, Dict[int, int]] = {}
        for k, (m, o, z) in enumerate(zip(self.moved, self.ones, self.zeros)):
            while m:
                low = m & -m
                value = 1 if o & low else (0 if z & low else X)
                out.setdefault(ids[low.bit_length() - 1], {})[k] = value
                m ^= low
        return out


@dataclass
class _Frames:
    """What :meth:`FaultSimulator._run_frames` leaves after the last frame."""

    v1: List[int]             # node planes of the last frame (top slots:
    v0: List[int]             # the good machine)
    ff1: List[int]            # next-state planes after the last frame
    ff0: List[int]
    prev1: List[int]          # the present state the last frame started from
    prev0: List[int]
    det_word: int             # slots detected at a PO in any frame, or dead
    prop_words: List[int]     # per frame, slots with an effect at a FF
    good_counts: List[int]    # bit-sliced events counters (see _add_bits)
    faulty_counts: List[int]


def _add_bits(planes: List[int], words: Sequence[int]) -> None:
    """Add ``words`` (each a 0 or 1 per slot) into bit-sliced counters.

    ``planes[k]`` holds bit ``k`` of every slot's running count, so the
    cost is whole-word operations however many slots there are, and a
    count never spills into a neighbouring slot.  Each bit position is
    reduced with full adders (three words in, a sum and a carry out),
    so adding ``m`` words costs about ``10 m`` word operations.
    """
    column = [word for word in words if word]
    k = 0
    while column:
        if k < len(planes) and planes[k]:
            column.append(planes[k])
        carries = []
        while len(column) > 1:
            a = column.pop()
            b = column.pop()
            t = a ^ b
            if column:
                c = column.pop()
                column.append(t ^ c)
                carry = (a & b) | (t & c)
            else:
                column.append(t)
                carry = a & b
            if carry:
                carries.append(carry)
        if k < len(planes):
            planes[k] = column[0]
        else:
            planes.append(column[0])
        column = carries
        k += 1


def _fold_tops(words: List[int], S: int) -> List[int]:
    """Fold words that use only top slots into ``ceil(len / (S + 1))``.

    The ``j``-th word of each run of ``S + 1`` moves down ``j`` slots, so
    no two words of a run share a slot of any block: counting a folded
    word's bits per block counts the run's top bits per block.
    """
    folded = []
    for start in range(0, len(words), S + 1):
        word = 0
        for j, w in enumerate(words[start:start + S + 1]):
            if w:
                word |= w >> j
        folded.append(word)
    return folded


def _split_counts(planes: List[int], masks: List[int]) -> List[int]:
    """Total the bit-sliced counters under each mask (one per candidate)."""
    counts = [0] * len(masks)
    for k, plane in enumerate(planes):
        if plane:
            for c, m in enumerate(masks):
                counts[c] += (plane & m).bit_count() << k
    return counts


def _divergence_words(sample: Sequence[int],
                      divergence: Dict[int, Dict[int, int]], n_ffs: int):
    """Per flip-flop ``(moved, ones, zeros)`` words of ``sample``'s
    divergences, bit ``s`` standing for ``sample[s]``: the faults whose
    flip-flop differs from the good machine's, and of those the ones at
    1 and at 0 (a move to X is in neither)."""
    moved = [0] * n_ffs
    ones = [0] * n_ffs
    zeros = [0] * n_ffs
    bit = 1
    for fault_id in sample:
        div = divergence.get(fault_id)
        if div:
            for k, value in div.items():
                moved[k] |= bit
                if value == 1:
                    ones[k] |= bit
                elif value == 0:
                    zeros[k] |= bit
        bit <<= 1
    return moved, ones, zeros


def _open_planes(good_values: Sequence[int], moved: List[int],
                 ones: List[int], zeros: List[int], mask: int, rep: int):
    """Present-state planes ``(ff1, ff0)`` that open a pass: the good
    state in every slot, then each moved slot of every block (``rep``
    marks the blocks) overwritten by its faulty value."""
    ff1 = []
    ff0 = []
    for value, m, o, z in zip(good_values, moved, ones, zeros):
        a1 = mask if value == 1 else 0
        a0 = mask if value == 0 else 0
        if m:
            keep = ~(m * rep)
            a1 = (a1 & keep) | (o * rep)
            a0 = (a0 & keep) | (z * rep)
        ff1.append(a1)
        ff0.append(a0)
    return ff1, ff0


#: Fewest input values per candidate (frames times inputs) for which
#: :meth:`FaultSimulator._batch_pi_planes` builds in bulk: one strided
#: write per candidate costs about as much as eight per-value steps.
BULK_MIN_VALUES = 8

#: ``_ONES[b]`` translates a value byte of 1 to bit ``b`` and every other
#: byte to 0; ``_ZEROS[b]`` does the same for a value byte of 0.
_ONES = [bytes(1 << b if v == 1 else 0 for v in range(256)) for b in range(8)]
_ZEROS = [bytes(1 << b if v == 0 else 0 for v in range(256)) for b in range(8)]


def _top_rows(data: bytes, n_cand: int, S: int, rows: int, tables) -> List[int]:
    """Per (frame, input) row, the word of top slots whose value byte
    ``tables`` maps to a set bit; ``data`` holds ``rows`` value bytes
    per candidate, candidate by candidate.

    Candidate ``c``'s top slot is bit ``p = c * (S + 1) + S`` of a row,
    so its byte sits at ``p >> 3`` of every row: one strided write per
    candidate fills all its rows.  Needs ``S + 1 >= 8``, so that no two
    top slots share a byte.
    """
    B = S + 1
    width = (n_cand * B + 7) >> 3
    buf = bytearray(rows * width)
    p = S
    for lo in range(0, n_cand * rows, rows):
        buf[p >> 3::width] = data[lo:lo + rows].translate(tables[p & 7])
        p += B
    from_bytes = int.from_bytes
    return [from_bytes(buf[i:i + width], "little")
            for i in range(0, len(buf), width)]


def _pi_planes_per_value(candidates, S: int, tops: List[int]):
    """:meth:`FaultSimulator._batch_pi_planes` one value at a time:
    each value sets its candidate's top slot (``tops``) in the ones or
    the zeros word of its input, and each word is spread over its
    blocks."""
    planes = []
    for frame in range(len(candidates[0])):
        ones = []
        zeros = []
        for column in zip(*[c[frame] for c in candidates]):
            t1 = 0
            t0 = 0
            for bit, value in zip(tops, column):
                if value == 1:
                    t1 |= bit
                elif value == 0:
                    t0 |= bit
            ones.append((t1 << 1) - (t1 >> S))
            zeros.append((t0 << 1) - (t0 >> S))
        planes.append((ones, zeros))
    return planes


class FaultSimulator:
    """Sequential fault simulator over a collapsed stuck-at fault list.

    ``eval_jobs > 1`` scores candidates fault-shard-parallel over a
    persistent worker pool, leaving every result bit-identical to the
    serial path (see :mod:`repro.parallel`).
    """

    #: Whether candidate scoring may be sharded to pool workers (which
    #: rebuild a plain ``FaultSimulator``); subclasses with extra
    #: per-frame state they cannot ship (e.g. the transition-fault
    #: model) set this False and score in-process.
    _shardable = True

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        faults: Optional[List[Fault]] = None,
        collector: Optional[NullCollector] = None,
        eval_jobs: int = 1,
        kernel: Optional[str] = None,
    ) -> None:
        self.compiled = compile_circuit(circuit)
        self.collector = collector if collector is not None else get_collector()
        self._kernel = kernel_for(self.compiled, kernel, collector=self.collector)
        #: Backend actually evaluating the compiled program (one of
        #: ``KERNEL_NAMES``, after any fallback); workers must match it.
        self.kernel_name = self._kernel.name
        if self.collector.enabled:
            self.collector.inc(f"sim.kernel.{self.kernel_name}")
        self.circuit = self.compiled.circuit
        if faults is None:
            faults = collapsed_fault_list(self.circuit)
        if eval_jobs < 1:
            raise ValueError("eval_jobs must be >= 1")
        self.faults: List[Fault] = list(faults)
        #: The commit slot space, built by the first commit.  When set,
        #: its ``live`` word and planes hold the committed state.
        self._slots: Optional[_SlotSpace] = None
        # Committed state (status, active, good_state, divergence,
        # vectors_applied, detections), written by _write_state only.
        FaultSimulator.reset(self)
        #: The population pass's :class:`_BatchLayout` objects by
        #: population size, for the one sample passes used last: a GA
        #: run keeps one sample, and commits leave them valid.
        self._layout_sample: Optional[tuple] = None
        self._layouts: Dict[object, _BatchLayout] = {}
        if eval_jobs > 1:
            from ..parallel.evaluator import ParallelEvaluator

            self._parallel: Optional["ParallelEvaluator"] = ParallelEvaluator(
                self, jobs=eval_jobs, collector=self.collector
            )
        else:
            self._parallel = None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def num_faults(self) -> int:
        """Size of the simulated (collapsed) fault list."""
        return len(self.faults)

    @property
    def detected_count(self) -> int:
        """Faults detected so far by committed tests."""
        return len(self.faults) - len(self.active)

    @property
    def fault_coverage(self) -> float:
        """Detected fraction of the collapsed fault list."""
        if not self.faults:
            return 0.0
        return self.detected_count / len(self.faults)

    def undetected_faults(self) -> List[Fault]:
        """The remaining (active) faults, in list order."""
        return [self.faults[i] for i in self.active]

    @property
    def divergence(self) -> Dict[int, Dict[int, int]]:
        """fault index -> {ff index -> scalar faulty value} where an
        undetected fault's flip-flop state differs from the good machine's.

        The edge format that GA passes, shard payloads, snapshots and
        checkpoints read.  Commits keep divergences as slot planes
        (:class:`_SlotSpace`); this dict is derived from them at most
        once per commit and must not be modified.
        """
        if self._divergence is None:
            self._divergence = self._slots.divergence()
        return self._divergence

    # ------------------------------------------------------------------
    # Snapshot / restore (paper §IV)
    # ------------------------------------------------------------------

    def _write_state(self, state: SimSnapshot) -> None:
        """Overwrite all committed state: the one way to do it.

        Takes ``state``'s containers as they are.  A slot space that
        covers the written active list keeps its slots and loads its
        ``live`` word and planes from the written divergences; one that
        does not is dropped, so the next commit repacks.
        """
        self.good_state = state.good_state
        self.status = state.status
        self.active = state.active
        self.vectors_applied = state.vectors_applied
        self.detections = state.detections
        self._divergence: Optional[Dict[int, Dict[int, int]]] = state.divergence
        slots = self._slots
        if slots is not None:
            if slots.covers(state.active):
                slots.load(state.active, state.divergence, self.compiled.num_ffs)
            else:
                self._slots = None

    def snapshot(self) -> SimSnapshot:
        """Deep-copy all mutable state (paper §IV store)."""
        return SimSnapshot(
            good_state=self.good_state,
            divergence=self.divergence,
            status=self.status,
            active=self.active,
            vectors_applied=self.vectors_applied,
            detections=self.detections,
        ).copy()

    def restore(self, snap: SimSnapshot) -> None:
        """Roll every piece of state back to a snapshot (paper §IV)."""
        self._write_state(snap.copy())

    def reset(self) -> None:
        """Return to power-up: all faults undetected, all state unknown."""
        n = len(self.faults)
        self._write_state(SimSnapshot(
            good_state=GoodState.unknown(self.compiled.num_ffs),
            divergence={},
            status=[FaultStatus.UNDETECTED] * n,
            active=list(range(n)),
            vectors_applied=0,
            detections=[],
        ))

    def close(self) -> None:
        """Release the parallel evaluator's worker pool, if any.

        Safe to call repeatedly; scoring afterwards still works (the
        pool is recreated on demand).  A no-op on serial simulators.
        """
        if self._parallel is not None:
            self._parallel.close()

    # ------------------------------------------------------------------
    # Checkpoint hooks (run-level checkpoints, see repro.core.checkpoint)
    # ------------------------------------------------------------------

    def _checkpoint_extra(self) -> dict:
        """JSON-safe model-specific state beyond the common snapshot
        fields; subclasses with extra committed state (the transition
        model's previous-frame good values) override both hooks."""
        return {}

    def _restore_checkpoint_extra(self, extra: dict) -> None:
        """Restore what :meth:`_checkpoint_extra` captured."""

    # ------------------------------------------------------------------
    # Injection tables and the population pass's layout
    # ------------------------------------------------------------------

    def _injection_tables(self, sample: Sequence[int], rep: int = 1):
        """Static stuck-at forces of a sample, one bit per sample slot.

        A fault in slot ``s`` forces bit ``s`` of every block that
        ``rep`` marks (``rep << s``; ``rep = 1`` gives the sample's own
        ``S``-bit words): on unsampled s1196 that builds a 16-candidate
        layout in about 5 ms, where multiplying the ``S``-bit words by
        ``rep`` took about 70 ms.

        Returns ``(out_force, pin_force, pi_forces, ff_out_forces,
        ff_pin_forces)`` where the first two feed
        :func:`eval_program_injected` (combinational nodes), and the rest
        handle fault sites the program never writes: primary-input
        outputs, flip-flop outputs (forced at present-state load) and
        flip-flop D pins (forced at next-state capture).
        """
        compiled = self.compiled
        is_ff = {ff: k for k, ff in enumerate(compiled.ff_ids)}
        out_force: Dict[int, Tuple[int, int]] = {}
        pin_force: Dict[int, List[Tuple[int, int, int]]] = {}
        ff_out_forces: Dict[int, Tuple[int, int]] = {}
        ff_pin_forces: Dict[int, Tuple[int, int]] = {}

        def add_pair(table: Dict, key, bit: int, stuck_at: int) -> None:
            f1, f0 = table.get(key, (0, 0))
            if stuck_at == 1:
                f1 |= bit
            else:
                f0 |= bit
            table[key] = (f1, f0)

        for slot, fault_id in enumerate(sample):
            fault = self.faults[fault_id]
            bit = rep << slot
            if fault.pin == STEM:
                if fault.node in is_ff:
                    add_pair(ff_out_forces, is_ff[fault.node], bit, fault.stuck_at)
                else:
                    # PI stems land in out_force too; they are moved out
                    # into pi_forces below (the program never writes PIs).
                    add_pair(out_force, fault.node, bit, fault.stuck_at)
            else:
                if fault.node in is_ff:
                    add_pair(ff_pin_forces, is_ff[fault.node], bit, fault.stuck_at)
                else:
                    entries = pin_force.setdefault(fault.node, [])
                    for idx, (pin, f1, f0) in enumerate(entries):
                        if pin == fault.pin:
                            if fault.stuck_at == 1:
                                f1 |= bit
                            else:
                                f0 |= bit
                            entries[idx] = (pin, f1, f0)
                            break
                    else:
                        entries.append(
                            (fault.pin, bit if fault.stuck_at == 1 else 0,
                             bit if fault.stuck_at == 0 else 0)
                        )
        pi_forces = [
            (node,) + out_force.pop(node)
            for node in compiled.pi_ids if node in out_force
        ]
        return out_force, pin_force, pi_forces, ff_out_forces, ff_pin_forces

    def _launch_table(self, sample: Sequence[int]):
        """What :meth:`_frame_forces` reads of ``sample`` every frame,
        built with its layout.  Stuck-at forces are static: nothing."""
        return None

    def _batch_layout(self, sample: Sequence[int], n_cand: int) -> _BatchLayout:
        """The population pass's :class:`_BatchLayout`, memoized.

        Holds one sample's layouts at a time, by population size: a pass
        over another sample drops them.  A size wider than any built for
        the sample so far is replicated and becomes the ``"widest"``
        entry; smaller populations, which the GA's fitness memo
        produces, are trimmed from that entry.  Nothing in a layout reads
        the committed state, so layouts stay exact across commits,
        restores and pool workers' state overwrites (see
        :mod:`repro.parallel.worker`).
        """
        sample_key = tuple(sample)
        if sample_key != self._layout_sample:
            self._layouts = {}
            self._layout_sample = sample_key
        layout = self._layouts.get(n_cand)
        if layout is None:
            widest = self._layouts.get("widest")
            if widest is not None and widest.n_cand > n_cand:
                layout = widest.trimmed(self, n_cand)
            else:
                layout = _BatchLayout.replicate(self, sample, n_cand)
                self._layouts["widest"] = layout
            self._layouts[n_cand] = layout
        return layout

    def _batch_ff_planes(self, sample: Sequence[int], layout: _BatchLayout):
        """Present-state planes that open a population pass.

        The committed good state fills every slot (top slots included),
        then each sampled fault's divergences overwrite its slot in every
        block.  Rebuilt per pass: it reads the mutable committed state.
        Divergences are gathered into ``S``-bit words per flip-flop
        first, so only one replication per word touches the wide planes.
        """
        moved, ones, zeros = _divergence_words(
            sample, self.divergence, self.compiled.num_ffs
        )
        return _open_planes(self.good_state.ff_values, moved, ones, zeros,
                            layout.mask, layout.rep)

    @staticmethod
    def _batch_pi_planes(candidates, layout: _BatchLayout):
        """Per frame, ``(ones, zeros)``: one word per primary input.

        Every value of the population becomes one byte with one
        ``bytes()`` call, and each candidate's bytes land on its top
        slot with one strided write per plane, covering all its frames
        and inputs at once (:func:`_top_rows`).  Each (frame, input)
        word is read with one ``int.from_bytes`` and spread over its
        block with ``(t << 1) - (t >> S)``, which turns every top bit
        into the ``S + 1`` bits below and including it.  When no value
        is X, the zeros word is ``mask ^ ones``.

        Samples of fewer than seven faults (whose top slots would share
        a byte), candidates of too few values (:data:`BULK_MIN_VALUES`),
        and values that ``bytes()`` refuses (``1.0``, ``-1``, ``300``,
        ``None``) take the per-value loop instead.  Both follow one
        rule: a value ``== 1`` is 1, ``== 0`` is 0, anything else X.
        """
        frames = len(candidates[0])
        if not frames:
            return []
        n_pis = len(candidates[0][0])
        S = layout.S
        rows = frames * n_pis
        data = None
        if S >= 7 and rows >= BULK_MIN_VALUES:
            try:
                data = bytes(chain.from_iterable(chain.from_iterable(candidates)))
            except (TypeError, ValueError):
                pass
        if data is None:
            return _pi_planes_per_value(candidates, S, layout.tops)
        n_cand = len(candidates)
        ones = [(t << 1) - (t >> S)
                for t in _top_rows(data, n_cand, S, rows, _ONES)]
        if data.translate(None, b"\0\1"):
            zeros = [(t << 1) - (t >> S)
                     for t in _top_rows(data, n_cand, S, rows, _ZEROS)]
        else:
            mask = layout.mask
            zeros = [mask ^ w for w in ones]
        return [(ones[i:i + n_pis], zeros[i:i + n_pis])
                for i in range(0, rows, n_pis)]

    def _check_candidates(self, candidates) -> None:
        """Raise ``ValueError`` unless every candidate has the same
        number of frames and every vector one value per primary input.

        One C-level length set over every vector of the population; the
        vectors are walked only on failure, to name the first bad
        candidate and frame.
        """
        frames = len(candidates[0])
        if set(map(len, candidates)) != {frames}:
            raise ValueError("all candidates must have the same frame count")
        n_pis = len(self.compiled.pi_ids)
        if set(map(len, chain.from_iterable(candidates))) <= {n_pis}:
            return
        for c, candidate in enumerate(candidates):
            for frame, vector in enumerate(candidate):
                if len(vector) != n_pis:
                    raise ValueError(
                        f"candidate {c}, frame {frame}: {len(vector)} values "
                        f"for {n_pis} primary inputs"
                    )

    def _frame_forces(self, layout: _BatchLayout,
                      v1: List[int], v0: List[int], carry):
        """Forces of one frame of the population pass.

        Called once the frame's primary inputs and present state are
        loaded into ``v1``/``v0``, before any force is applied.  Returns
        ``(pi_forces, ff_out_rows, injection, carry)``: primary-input and
        flip-flop-output forces applied at load, the digested gate
        injection for the kernel, and whatever the next frame's call
        should receive as ``carry`` (``None`` at frame 0).  Stuck-at
        forces are static; the transition model overrides this.
        """
        return layout.pi_forces, layout.ff_out_rows, layout.injection, None

    # ------------------------------------------------------------------
    # The population pass: the one frame loop
    # ------------------------------------------------------------------

    def _run_frames(self, candidates, layout: _BatchLayout,
                    ff1: List[int], ff0: List[int], count_faulty_events: bool,
                    first_frames: Optional[Dict[int, int]] = None,
                    dead: int = 0) -> _Frames:
        """Run the population pass over every frame of ``candidates``.

        Candidate *c* owns the ``S + 1`` slots from ``c * (S + 1)`` on,
        *S* being the sample size: one slot per sampled fault, then a
        fault-free top slot that carries the candidate's good machine.
        ``ff1``/``ff0`` are the present-state planes of the first frame.
        One injected kernel call per frame evaluates every good and
        faulty machine of the population.  Good values live in the top
        slots: a good plane ``g = word & top`` spreads over its whole
        block as ``(g << 1) - (g >> S)``, and a faulty plane compared
        with that never differs in a top slot.  An empty sample (every
        slot a top slot) and zero frames need no special case.

        ``first_frames``, when given, receives the first detecting frame
        of every detected slot (commit).  ``dead`` slots (the commit's
        dropped faults) start out counted as detected, so they never
        reach ``first_frames``.  Callers check the candidates first
        (:meth:`_check_candidates`).
        """
        compiled = self.compiled
        n = compiled.num_nodes
        pi_planes = self._batch_pi_planes(candidates, layout)
        S = layout.S
        mask = layout.mask
        top = layout.top
        pi_ids = compiled.pi_ids
        ff_ids = compiled.ff_ids
        ff_d_ids = compiled.ff_d_ids
        po_ids = compiled.po_ids
        ff_pin_forces = layout.ff_pin_forces
        eval_injection = self._kernel.eval_injection

        prev1, prev0 = ff1, ff0
        v1 = [0] * n
        v0 = [0] * n
        det_word = dead
        prop_words: List[int] = []
        # Bit-sliced per-slot counters (see _add_bits) for the events
        # observables; words that use only top slots are folded first
        # (see _fold_tops).
        good_counts: List[int] = []
        faulty_counts: List[int] = []
        carry = None

        for frame, (ones, zeros) in enumerate(pi_planes):
            if count_faulty_events:
                old1 = v1[:]
                old0 = v0[:]
            for pi, w1, w0 in zip(pi_ids, ones, zeros):
                v1[pi] = w1
                v0[pi] = w0
            for k, ff in enumerate(ff_ids):
                v1[ff] = ff1[k]
                v0[ff] = ff0[k]
            pi_forces, ff_out_rows, injection, carry = self._frame_forces(
                layout, v1, v0, carry
            )
            for node, f1, f0 in pi_forces:
                if f1:
                    v1[node] |= f1
                    v0[node] &= ~f1
                if f0:
                    v0[node] |= f0
                    v1[node] &= ~f0
            for k, ff, f1, f0 in ff_out_rows:
                a1, a0 = ff1[k], ff0[k]
                if f1:
                    a1 |= f1
                    a0 &= ~f1
                if f0:
                    a0 |= f0
                    a1 &= ~f0
                v1[ff], v0[ff] = a1, a0

            eval_injection(v1, v0, mask, injection)

            if count_faulty_events:
                # The expensive observable (phase 3 only): per node, top
                # slots that changed since the last frame, and fault
                # slots that differ from their block's good machine.
                good_words = []
                faulty_words = []
                for a1, a0, o1, o0 in zip(v1, v0, old1, old0):
                    good_words.append(((a1 ^ o1) | (a0 ^ o0)) & top)
                    g1 = a1 & top
                    g0 = a0 & top
                    faulty_words.append((a1 ^ ((g1 << 1) - (g1 >> S)))
                                        | (a0 ^ ((g0 << 1) - (g0 >> S))))
                _add_bits(good_counts, _fold_tops(good_words, S))
                _add_bits(faulty_counts, faulty_words)

            # Detections: definite good vs definite-and-different faulty.
            frame_det = 0
            for po in po_ids:
                a1 = v1[po]
                a0 = v0[po]
                g1 = a1 & top
                g0 = a0 & top
                frame_det |= ((a0 & ((g1 << 1) - (g1 >> S)))
                              | (a1 & ((g0 << 1) - (g0 >> S))))
            if first_frames is not None:
                new = frame_det & ~det_word
                while new:
                    low = new & -new
                    first_frames[low.bit_length() - 1] = frame
                    new ^= low
            det_word |= frame_det

            # Capture the next state (D-pin faults applied here); its top
            # slots are the good next state the fault effects differ from.
            prop_word = 0
            next1 = []
            next0 = []
            for k, d_node in enumerate(ff_d_ids):
                a1, a0 = v1[d_node], v0[d_node]
                if k in ff_pin_forces:
                    f1, f0 = ff_pin_forces[k]
                    if f1:
                        a1 |= f1
                        a0 &= ~f1
                    if f0:
                        a0 |= f0
                        a1 &= ~f0
                next1.append(a1)
                next0.append(a0)
                g1 = a1 & top
                g0 = a0 & top
                prop_word |= ((a0 & ((g1 << 1) - (g1 >> S)))
                              | (a1 & ((g0 << 1) - (g0 >> S))))
            prop_words.append(prop_word)
            prev1, prev0 = ff1, ff0
            ff1, ff0 = next1, next0

        return _Frames(v1, v0, ff1, ff0, prev1, prev0, det_word,
                       prop_words, good_counts, faulty_counts)

    # ------------------------------------------------------------------
    # Public simulation entry points
    # ------------------------------------------------------------------

    def evaluate(
        self,
        vectors: Sequence[Vector],
        sample: Optional[Sequence[int]] = None,
        count_faulty_events: bool = False,
    ) -> CandidateEval:
        """Score a candidate test from the current state, without commit.

        ``sample`` is the list of fault indices to simulate (defaults to
        every active fault); pass a subset for the paper's fault-sampling
        speedup.  ``count_faulty_events`` additionally computes the
        phase-3 activity observable (it costs an extra pass over the
        node arrays per frame).  A one-candidate population pass.

        With ``eval_jobs > 1`` the call is served by the sharded
        evaluator; the result is bit-identical.
        """
        return self.evaluate_batch(
            [vectors], sample=sample, count_faulty_events=count_faulty_events
        )[0]

    def evaluate_batch(
        self,
        candidates: Sequence[Sequence[Vector]],
        sample: Optional[Sequence[int]] = None,
        count_faulty_events: bool = False,
    ) -> List[CandidateEval]:
        """Score many candidate tests at once (one GA population).

        Identical to ``[evaluate(c, sample) for c in candidates]`` but
        packs every (candidate, fault) pair into one slot of a single
        ultra-wide bit-plane word, so one injected pass over the
        compiled program per frame evaluates every good and faulty
        machine of the population (see :meth:`_run_frames`) — with
        arbitrary-precision integers the interpreter overhead per
        bitwise op dominates, so widening the word is nearly free.  The
        per-candidate observables accumulate in bit-sliced counter
        words (see :func:`_add_bits`) and are split per candidate once,
        at the end of the pass.

        All candidates must have the same number of frames, and every
        vector one value per primary input.  With ``eval_jobs > 1`` the
        population is served by the sharded evaluator instead (it fans
        out per fault shard); results are bit-identical.
        """
        if self._parallel is not None:
            return self._parallel.evaluate_batch(
                candidates, sample=sample, count_faulty_events=count_faulty_events
            )
        return self._evaluate_batch_serial(
            candidates, sample=sample, count_faulty_events=count_faulty_events
        )

    def _evaluate_batch_serial(
        self,
        candidates: Sequence[Sequence[Vector]],
        sample: Optional[Sequence[int]] = None,
        count_faulty_events: bool = False,
    ) -> List[CandidateEval]:
        """The in-process population pass behind :meth:`evaluate_batch`."""
        if sample is None:
            sample = self.active
        sample = list(sample)
        n_cand = len(candidates)
        if n_cand == 0:
            return []
        self._check_candidates(candidates)
        layout = self._batch_layout(sample, n_cand)
        ff1, ff0 = self._batch_ff_planes(sample, layout)
        run = self._run_frames(candidates, layout, ff1, ff0, count_faulty_events)
        frames = len(candidates[0])
        S = layout.S
        top = layout.top

        # Good-machine flip-flop observables of the last frame.
        set_words = []
        changed_words = []
        for n1, n0, p1, p0 in zip(run.ff1, run.ff0, run.prev1, run.prev0):
            g1 = n1 & top
            g0 = n0 & top
            set_words.append(g1 | g0)
            changed_words.append((p1 & g0) | (p0 & g1))
        prop_counts: List[int] = []
        set_counts: List[int] = []
        changed_counts: List[int] = []
        _add_bits(prop_counts, run.prop_words)
        _add_bits(set_counts, _fold_tops(set_words, S))
        _add_bits(changed_counts, _fold_tops(changed_words, S))

        blocks = layout.blocks
        prop_sum = _split_counts(prop_counts, blocks)
        ffs_set = _split_counts(set_counts, blocks)
        ffs_changed = _split_counts(changed_counts, blocks)
        if count_faulty_events:
            good_events = _split_counts(run.good_counts, blocks)
            faulty_events = _split_counts(run.faulty_counts, blocks)
        else:
            good_events = faulty_events = [0] * n_cand

        collector = self.collector
        if collector.enabled:
            collector.inc("sim.batch.calls")
            collector.inc("sim.batch.candidates", n_cand)
            collector.inc("sim.batch.frames", frames)
            collector.inc("sim.batch.faults", S)
            collector.inc("sim.batch.slot_frames", n_cand * S * frames)
            if count_faulty_events:
                collector.inc("sim.good_events", sum(good_events))
                collector.inc("sim.faulty_events", sum(faulty_events))

        det_word = run.det_word
        prop_word = run.prop_words[-1] if run.prop_words else 0
        return [
            CandidateEval(
                frames=frames,
                detected=(det_word & blocks[c]).bit_count(),
                prop_final=(prop_word & blocks[c]).bit_count(),
                prop_sum=prop_sum[c],
                faulty_events=faulty_events[c],
                good_events=good_events[c],
                ffs_set=ffs_set[c],
                ffs_changed=ffs_changed[c],
                num_faults_simulated=S,
                num_ffs=self.compiled.num_ffs,
            )
            for c in range(n_cand)
        ]

    def _open_slots(self) -> _SlotSpace:
        """The commit slot space, holding the committed state.

        Repacks first (slots for the active list, with their layout)
        when there is none, or when its dead share has passed
        :data:`REPACK_DEAD_SHARE`.
        """
        slots = self._slots
        if slots is not None and not slots.due():
            return slots
        slots = _SlotSpace(self, list(self.active))
        slots.load(self.active, self.divergence, self.compiled.num_ffs)
        self._slots = slots
        if self.collector.enabled:
            self.collector.inc("sim.commit.repacks")
        return slots

    def commit(self, vectors: Sequence[Vector]) -> CommitResult:
        """Apply a test for real: advance all state, drop detected faults.

        A one-candidate population pass over the commit slot space
        (:class:`_SlotSpace`), whose layout was built at its last
        repack.  The pass opens from the slot planes, and dead slots are
        masked out of its detections and next divergences, so its
        detections come out in active-list order, each with the
        absolute frame that first detected it.
        """
        self._check_candidates([vectors])
        slots = self._open_slots()
        layout = slots.layout
        S = layout.S
        top = layout.top
        live = slots.live
        ff1, ff0 = _open_planes(self.good_state.ff_values, slots.moved,
                                slots.ones, slots.zeros, layout.mask, 1)
        first_frames: Dict[int, int] = {}
        run = self._run_frames([vectors], layout, ff1, ff0, False, first_frames,
                               dead=((1 << S) - 1) & ~live)
        # Live slots left undetected whose next state differs from the
        # good machine's (the top slot spread over the block) diverge.
        live &= ~run.det_word
        mask = layout.mask
        good_next = []
        moved = []
        ones = []
        zeros = []
        for a1, a0 in zip(run.ff1, run.ff0):
            g1 = mask if a1 & top else 0
            g0 = mask if a0 & top else 0
            good_next.append(1 if g1 else (0 if g0 else X))
            diff = ((a1 ^ g1) | (a0 ^ g0)) & live
            moved.append(diff)
            ones.append(a1 & diff)
            zeros.append(a0 & diff)
        slots.live = live
        slots.moved = moved
        slots.ones = ones
        slots.zeros = zeros
        self._divergence = None
        detections: List[Tuple[Fault, int]] = []
        for slot in sorted(first_frames):
            fault_id = slots.ids[slot]
            self.status[fault_id] = FaultStatus.DETECTED
            detections.append(
                (self.faults[fault_id], self.vectors_applied + first_frames[slot])
            )
        if detections:
            dropped = {slots.ids[slot] for slot in first_frames}
            self.active = [f for f in self.active if f not in dropped]
        if vectors:
            self.good_state = GoodState(good_next)
            self._after_commit(run.v1, run.v0, top)
        self.vectors_applied += len(vectors)
        self.detections.extend(detections)
        collector = self.collector
        if collector.enabled:
            collector.inc("sim.commit.calls")
            collector.inc("sim.commit.frames", len(vectors))
            collector.inc("sim.commit.detected", len(detections))
        return CommitResult(
            frames=len(vectors),
            detections=detections,
            detected_count=len(detections),
            remaining=len(self.active),
        )

    def _after_commit(self, v1: List[int], v0: List[int], top: int) -> None:
        """Hook for subclasses needing the committed test's last frame:
        its node planes, whose ``top`` slot holds the good machine (the
        transition-fault model keeps those values for launching)."""
