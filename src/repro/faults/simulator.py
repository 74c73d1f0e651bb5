"""PROOFS-style parallel-fault sequential fault simulator.

The simulator maintains the *committed* circuit state: the fault-free
(good) flip-flop state plus, for every undetected fault, the set of
flip-flops where that fault's machine has diverged from the good
machine.  Faults are simulated in groups of ``word_width``: each bit
slot of the arbitrary-precision bit-plane words carries one faulty
machine, so one pass of bitwise operations over the compiled program
evaluates a whole group per time frame (see DESIGN.md §6).

Two entry points mirror how GATEST uses PROOFS (paper §III/§IV):

* :meth:`FaultSimulator.evaluate` — score a *candidate* test against the
  current state **without committing**: returns the observables every
  phase's fitness function needs (faults detected, fault effects at
  flip-flops, good/faulty event counts, flip-flops initialized).  The
  paper's §IV "store and restore the good and faulty circuit states"
  modification is realized by simply never writing candidate results
  back.
* :meth:`FaultSimulator.commit` — apply the selected test for real:
  advance the good state and every faulty state, mark newly detected
  faults and drop them from the active list.

Explicit :meth:`snapshot` / :meth:`restore` are also provided for
callers that need transactional experimentation beyond that model.

Candidate scoring has two executions with bit-identical results.  The
*serial* path (the default) runs every fault group in-process, one
``word_width``-wide pass per group.  The *sharded* path
(``eval_jobs > 1``) hands :meth:`evaluate` / :meth:`evaluate_batch` to a
:class:`repro.parallel.ParallelEvaluator`: the good-machine pass still
runs here, but the fault groups are split into contiguous shards scored
by a persistent worker-process pool and merged by summation (exact,
because shards are disjoint fault subsets), with a chromosome-level
memo cache in front keyed by ``(candidate bits, state_epoch)``.  The
``state_epoch`` counter — bumped by every :meth:`commit`,
:meth:`restore` and :meth:`reset` — is what lets that cache prove a
memoized score is still valid.  See docs/ARCHITECTURE.md and
docs/PERFORMANCE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..circuit.gates import X
from ..circuit.netlist import Circuit
from ..sim.codegen import kernel_for
from ..sim.compile import CompiledCircuit, compile_circuit
from ..sim.logic3 import GoodState, Vector
from ..telemetry.collector import NullCollector, get_collector
from .collapse import collapsed_fault_list
from .model import STEM, Fault, FaultStatus

DEFAULT_WORD_WIDTH = 64


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
    detections: List[Tuple[Fault, int]]  # (fault, frame index within this test)
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


@dataclass
class _GoodTrace:
    """Good-machine results for one candidate, reused by every group."""

    node_planes: List[Tuple[List[int], List[int]]]  # per frame (v1, v0), 1-bit
    ff_states: List[List[int]]                      # per frame next-state scalars
    good_events: int
    ffs_set: int
    ffs_changed: int


class _BatchLayout:
    """Slot layout and replicated injection of one population pass.

    Candidate ``c`` owns the ``S + 1`` slots starting at ``c * (S + 1)``:
    the ``S`` sampled faults in sample order, then one fault-free *top*
    slot.  Force words are the sample's ``S``-bit words times ``rep``
    (one set bit per block), so they never carry into a top slot, and
    the injected pass that simulates the faulty machines computes every
    candidate's good machine alongside them.  Nothing here reads the
    committed state: it depends only on the sample's order and the
    population size.
    """

    __slots__ = (
        "S", "width", "mask", "rep", "top", "blocks", "tops",
        "pi_forces", "ff_out_forces", "ff_pin_forces", "injection",
    )

    def __init__(self, sim: "FaultSimulator", sample: Sequence[int],
                 n_cand: int) -> None:
        S = len(sample)
        B = S + 1
        self.S = S
        self.width = n_cand * B
        self.mask = (1 << self.width) - 1
        #: Bit ``c * B`` of every block; ``rep << S`` is every top slot.
        rep = self.mask // ((1 << B) - 1)
        self.rep = rep
        self.top = rep << S
        #: Per-candidate block masks, for the final split of whole-word
        #: results into per-candidate counts, and top slots.
        self.blocks = [((1 << B) - 1) << (c * B) for c in range(n_cand)]
        self.tops = [1 << (c * B + S) for c in range(n_cand)]
        (out_force, pin_force, pi_forces,
         ff_out_forces, ff_pin_forces) = sim._injection_tables(sample)
        self.pi_forces = [(node, f1 * rep, f0 * rep)
                          for node, f1, f0 in pi_forces]
        self.ff_out_forces = {k: (f1 * rep, f0 * rep)
                              for k, (f1, f0) in ff_out_forces.items()}
        self.ff_pin_forces = {k: (f1 * rep, f0 * rep)
                              for k, (f1, f0) in ff_pin_forces.items()}
        self.injection = sim._kernel.make_injection(
            {node: (f1 * rep, f0 * rep) for node, (f1, f0) in out_force.items()},
            {gate: [(pin, f1 * rep, f0 * rep) for pin, f1, f0 in entries]
             for gate, entries in pin_force.items()},
        )


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


class FaultSimulator:
    """Sequential fault simulator over a collapsed stuck-at fault list.

    ``eval_jobs > 1`` scores candidates fault-shard-parallel over a
    persistent worker pool, and ``eval_cache`` memoizes candidate scores
    per committed-state epoch (default: enabled exactly when
    ``eval_jobs > 1``); both leave every result bit-identical to the
    serial path (see :mod:`repro.parallel`).
    """

    #: Whether candidate scoring may be sharded to pool workers (which
    #: rebuild a plain ``FaultSimulator``); subclasses with extra
    #: per-frame state they cannot ship (e.g. the transition-fault
    #: model) set this False and keep only the evaluation cache.
    _shardable = True

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        faults: Optional[List[Fault]] = None,
        word_width: int = DEFAULT_WORD_WIDTH,
        collector: Optional[NullCollector] = None,
        eval_jobs: int = 1,
        eval_cache: Optional[bool] = None,
        kernel: Optional[str] = None,
        eval_task_timeout: Optional[float] = None,
        eval_retries: Optional[int] = None,
    ) -> None:
        if isinstance(circuit, CompiledCircuit):
            self.compiled = circuit
        else:
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
        if word_width < 1:
            raise ValueError("word_width must be positive")
        if eval_jobs < 1:
            raise ValueError("eval_jobs must be >= 1")
        self.faults: List[Fault] = list(faults)
        self.word_width = word_width
        self._eval_jobs = eval_jobs
        self.status: List[FaultStatus] = [FaultStatus.UNDETECTED] * len(self.faults)
        self.active: List[int] = list(range(len(self.faults)))
        self.good_state: GoodState = GoodState.unknown(self.compiled.num_ffs)
        #: fault index -> {ff index -> scalar faulty value} where the faulty
        #: machine's flip-flop state differs from the good machine's.
        self.divergence: Dict[int, Dict[int, int]] = {}
        self.vectors_applied = 0
        self.detections: List[Tuple[Fault, int]] = []  # (fault, absolute frame)
        #: Monotonic committed-state version: bumped by every commit /
        #: restore / reset, consulted by the evaluation cache.
        self.state_epoch = 0
        #: Per-epoch memo of injection plans: grouped plans (groups +
        #: digested force tables) for evaluate and commit, and
        #: :class:`_BatchLayout` objects for the population pass.  Both
        #: depend only on the sample, so every call against the same
        #: sample and committed state reuses them.
        self._plan_cache: Dict[tuple, object] = {}
        self._plan_epoch = -1
        if eval_cache is None:
            eval_cache = eval_jobs > 1
        if eval_jobs > 1 or eval_cache:
            from ..parallel.evaluator import ParallelEvaluator
            from ..parallel.resilience import RetryPolicy

            self._parallel: Optional["ParallelEvaluator"] = ParallelEvaluator(
                self, jobs=eval_jobs, cache=eval_cache, collector=self.collector,
                retry=RetryPolicy.from_env(
                    task_timeout=eval_task_timeout, max_retries=eval_retries
                ),
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

    # ------------------------------------------------------------------
    # Snapshot / restore (paper §IV)
    # ------------------------------------------------------------------

    def snapshot(self) -> SimSnapshot:
        """Deep-copy all mutable state (paper §IV store)."""
        return SimSnapshot(
            good_state=self.good_state.copy(),
            divergence={f: dict(d) for f, d in self.divergence.items()},
            status=list(self.status),
            active=list(self.active),
            vectors_applied=self.vectors_applied,
        )

    def restore(self, snap: SimSnapshot) -> None:
        """Roll every piece of state back to a snapshot (paper §IV)."""
        self.good_state = snap.good_state.copy()
        self.divergence = {f: dict(d) for f, d in snap.divergence.items()}
        self.status = list(snap.status)
        self.active = list(snap.active)
        self.vectors_applied = snap.vectors_applied
        self.state_epoch += 1

    def reset(self) -> None:
        """Return to power-up: all faults undetected, all state unknown."""
        self.status = [FaultStatus.UNDETECTED] * len(self.faults)
        self.active = list(range(len(self.faults)))
        self.good_state = GoodState.unknown(self.compiled.num_ffs)
        self.divergence = {}
        self.vectors_applied = 0
        self.detections = []
        self.state_epoch += 1

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
    # Good-machine pass
    # ------------------------------------------------------------------

    def _run_good(self, vectors: Sequence[Vector], count_events: bool) -> _GoodTrace:
        compiled = self.compiled
        n = compiled.num_nodes
        v1 = [0] * n
        v0 = [0] * n
        ff_scalars = list(self.good_state.ff_values)
        node_planes: List[Tuple[List[int], List[int]]] = []
        ff_states: List[List[int]] = []
        good_events = 0
        ffs_changed_last = 0
        for vector in vectors:
            old_v1 = list(v1) if count_events else None
            old_v0 = list(v0) if count_events else None
            for j, pi in enumerate(compiled.pi_ids):
                value = vector[j]
                v1[pi] = 1 if value == 1 else 0
                v0[pi] = 1 if value == 0 else 0
            for k, ff in enumerate(compiled.ff_ids):
                value = ff_scalars[k]
                v1[ff] = 1 if value == 1 else 0
                v0[ff] = 1 if value == 0 else 0
            self._kernel.eval(v1, v0, 1)
            next_scalars = []
            ffs_changed_last = 0
            for k, d_node in enumerate(compiled.ff_d_ids):
                if v1[d_node]:
                    value = 1
                elif v0[d_node]:
                    value = 0
                else:
                    value = X
                prev = ff_scalars[k]
                if value != X and prev != X and value != prev:
                    ffs_changed_last += 1
                next_scalars.append(value)
            if count_events:
                good_events += sum(
                    1 for i in range(n) if v1[i] != old_v1[i] or v0[i] != old_v0[i]
                )
            node_planes.append((list(v1), list(v0)))
            ff_states.append(next_scalars)
            ff_scalars = next_scalars
        ffs_set = sum(1 for value in ff_scalars if value != X)
        return _GoodTrace(
            node_planes=node_planes,
            ff_states=ff_states,
            good_events=good_events,
            ffs_set=ffs_set,
            ffs_changed=ffs_changed_last,
        )

    # ------------------------------------------------------------------
    # Fault grouping and injection tables
    # ------------------------------------------------------------------

    def _make_groups(self, fault_ids: Sequence[int]) -> List[List[int]]:
        """Chunk faults into word groups, clustering state-divergent faults.

        Faults whose machines currently agree with the good machine can
        often be skipped frame-to-frame; packing divergent faults
        together maximizes how many groups stay quiescent.

        Kernels with a fused wide-group runner advertise a
        ``group_width`` (see docs/KERNELS.md); for them groups are
        widened up to that cap — but never below ``eval_jobs`` groups,
        so fault sharding still fans out, and only at the default word
        width (an explicit ``word_width`` is an explicit request).
        Observables are exact per-fault aggregates, so grouping never
        changes results.
        """
        ordered = sorted(
            fault_ids,
            key=lambda f: (0 if self.divergence.get(f) else 1, self.faults[f].node),
        )
        width = self.word_width
        cap = self._kernel.group_width
        if cap and width == DEFAULT_WORD_WIDTH and len(ordered) > width:
            per = -(-len(ordered) // max(1, self._eval_jobs))
            width = min(cap, max(width, ((per + 63) // 64) * 64))
        return [ordered[i:i + width] for i in range(0, len(ordered), width)]

    def _injection_tables(self, group: Sequence[int]):
        """Build injection structures for one fault group.

        Returns ``(out_force, pin_force, pi_forces, ff_out_forces,
        ff_pin_forces)`` where the first two feed
        :func:`eval_program_injected` (combinational nodes), and the rest
        handle fault sites the program never writes: primary-input
        outputs, flip-flop outputs (forced at present-state load) and
        flip-flop D pins (forced at next-state capture).
        """
        compiled = self.compiled
        is_ff = {ff: k for k, ff in enumerate(compiled.ff_ids)}
        is_pi = set(compiled.pi_ids)
        out_force: Dict[int, Tuple[int, int]] = {}
        pin_force: Dict[int, List[Tuple[int, int, int]]] = {}
        pi_forces: List[Tuple[int, int, int]] = []
        ff_out_forces: Dict[int, Tuple[int, int]] = {}
        ff_pin_forces: Dict[int, Tuple[int, int]] = {}

        def add_pair(table: Dict, key, bit: int, stuck_at: int) -> None:
            f1, f0 = table.get(key, (0, 0))
            if stuck_at == 1:
                f1 |= bit
            else:
                f0 |= bit
            table[key] = (f1, f0)

        for slot, fault_id in enumerate(group):
            fault = self.faults[fault_id]
            bit = 1 << slot
            if fault.pin == STEM:
                if fault.node in is_ff:
                    add_pair(ff_out_forces, is_ff[fault.node], bit, fault.stuck_at)
                else:
                    # PI stems land in out_force too; they are split out
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
            (node, f1, f0) for node, (f1, f0) in out_force.items() if node in is_pi
        ]
        return out_force, pin_force, pi_forces, ff_out_forces, ff_pin_forces

    def _group_injection(self, group: Sequence[int]):
        """Digest one group's injection tables for :meth:`_run_group`.

        Subclasses whose injection is rebuilt per frame (the transition
        model) return ``None``.
        """
        (out_force, pin_force, pi_forces,
         ff_out_forces, ff_pin_forces) = self._injection_tables(group)
        return (
            pi_forces,
            ff_out_forces,
            ff_pin_forces,
            self._kernel.make_injection(out_force, pin_force),
        )

    def _memo(self, key: tuple, build):
        """Per-epoch memo of injection plans, built on first use.

        Cleared whenever the committed state changes and bounded, since
        fault sampling can stream distinct subsets (the common
        full-sample key returns fast).
        """
        if self._plan_epoch != self.state_epoch:
            self._plan_cache.clear()
            self._plan_epoch = self.state_epoch
        value = self._plan_cache.get(key)
        if value is None:
            value = build()
            if len(self._plan_cache) >= 16:
                self._plan_cache.clear()
            self._plan_cache[key] = value
        return value

    def _injection_plan(self, sample: Sequence[int]):
        """``[(group, digested injection), ...]`` for one fault sample.

        Memoized per committed-state epoch: grouping and force tables
        depend only on the sample's membership and the divergence map,
        both frozen between state changes — so the GA's many evaluate
        calls against one committed state build them once.
        """
        return self._memo(tuple(sample), lambda: [
            (group, self._group_injection(group))
            for group in self._make_groups(sample)
        ])

    def _batch_layout(self, sample: Sequence[int], n_cand: int) -> _BatchLayout:
        """The population pass's :class:`_BatchLayout`, memoized.

        It reads only the sample order, so it stays exact in pool
        workers, which overwrite ``good_state`` and ``divergence``
        without an epoch change (see :mod:`repro.parallel.worker`).
        """
        return self._memo(("batch", n_cand, tuple(sample)),
                          lambda: _BatchLayout(self, sample, n_cand))

    def _batch_ff_planes(self, sample: Sequence[int], layout: _BatchLayout):
        """Present-state planes that open a population pass.

        The committed good state fills every slot (top slots included),
        then each sampled fault's divergences overwrite its slot in every
        block.  Rebuilt per pass: it reads the mutable committed state.
        Divergences are gathered into ``S``-bit words per flip-flop
        first, so only one replication per word touches the wide planes.
        """
        n_ffs = self.compiled.num_ffs
        moved = [0] * n_ffs
        ones = [0] * n_ffs
        zeros = [0] * n_ffs
        divergence = self.divergence
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
        mask = layout.mask
        rep = layout.rep
        ff1 = []
        ff0 = []
        for value, m, o, z in zip(self.good_state.ff_values, moved, ones, zeros):
            a1 = mask if value == 1 else 0
            a0 = mask if value == 0 else 0
            if m:
                keep = ~(m * rep)
                a1 = (a1 & keep) | (o * rep)
                a0 = (a0 & keep) | (z * rep)
            ff1.append(a1)
            ff0.append(a0)
        return ff1, ff0

    @staticmethod
    def _batch_pi_planes(candidates, layout: _BatchLayout):
        """Per frame, ``(ones, zeros)``: one word per primary input.

        Each candidate's input value is set on its top slot, then spread
        over its whole block with ``(t << 1) - (t >> S)``, which turns
        every top bit into the ``S + 1`` bits below and including it.
        """
        S = layout.S
        tops = layout.tops
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

    # ------------------------------------------------------------------
    # Faulty-machine pass for one group
    # ------------------------------------------------------------------

    def _run_group(
        self,
        group: Sequence[int],
        trace: _GoodTrace,
        count_faulty_events: bool,
        inj=None,
    ):
        """Simulate one fault group along the good trace.

        Returns ``(det_word, det_frame, prop_final, prop_per_frame,
        faulty_events, final_ff1, final_ff0)`` where ``det_word`` has a
        bit per slot whose fault was detected at a primary output in
        some frame and ``det_frame`` maps detected slots to the first
        detecting frame.  Kernel backends that bind ``run_group`` must
        reproduce this tuple bit for bit (docs/KERNELS.md).
        """
        compiled = self.compiled
        n = compiled.num_nodes
        n_slots = len(group)
        mask = (1 << n_slots) - 1
        if inj is None:
            inj = self._group_injection(group)
        runner = self._kernel.run_group
        if runner is not None and n_slots > DEFAULT_WORD_WIDTH:
            # Fused native path (C backend): bit-identical by the
            # kernel contract; narrow groups stay on bigints where
            # arbitrary-precision words are already faster.
            return runner(self, group, trace, count_faulty_events, inj)
        pi_forces, ff_out_forces, ff_pin_forces, injection = inj

        # Initialize faulty FF planes: good state broadcast + divergences.
        ff1 = [0] * compiled.num_ffs
        ff0 = [0] * compiled.num_ffs
        for k in range(compiled.num_ffs):
            value = self.good_state.ff_values[k]
            ff1[k] = mask if value == 1 else 0
            ff0[k] = mask if value == 0 else 0
        for slot, fault_id in enumerate(group):
            div = self.divergence.get(fault_id)
            if not div:
                continue
            bit = 1 << slot
            nbit = ~bit
            for k, value in div.items():
                ff1[k] &= nbit
                ff0[k] &= nbit
                if value == 1:
                    ff1[k] |= bit
                elif value == 0:
                    ff0[k] |= bit

        v1 = [0] * n
        v0 = [0] * n
        det_word = 0
        det_frame: Dict[int, int] = {}
        prop_per_frame: List[int] = []
        faulty_events = 0
        po_ids = compiled.po_ids
        pi_ids = compiled.pi_ids
        ff_ids = compiled.ff_ids
        ff_d_ids = compiled.ff_d_ids
        eval_injection = self._kernel.eval_injection
        # Hoist the (usually empty) per-flip-flop force probes out of
        # the frame loop: list of (k, node id, f1, f0) rows to patch.
        ff_out_rows = [
            (k, ff_ids[k], f1, f0) for k, (f1, f0) in ff_out_forces.items()
        ]
        ff_pin_items = list(ff_pin_forces.items())

        for frame, (g1, g0) in enumerate(trace.node_planes):
            # Load primary inputs (good values broadcast, then PI faults).
            for pi in pi_ids:
                v1[pi] = mask * g1[pi]
                v0[pi] = mask * g0[pi]
            for node, f1, f0 in pi_forces:
                if f1:
                    v1[node] |= f1
                    v0[node] &= ~f1
                if f0:
                    v0[node] |= f0
                    v1[node] &= ~f0
            # Load faulty present state, applying stuck-Q faults.
            for k, ff in enumerate(ff_ids):
                v1[ff] = ff1[k]
                v0[ff] = ff0[k]
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
                events = 0
                for i in range(n):
                    diff = (v1[i] ^ (mask * g1[i])) | (v0[i] ^ (mask * g0[i]))
                    if diff:
                        events += diff.bit_count()
                faulty_events += events

            # Detections: definite good vs definite-and-different faulty.
            frame_det = 0
            for po in po_ids:
                if g1[po]:
                    frame_det |= v0[po]
                elif g0[po]:
                    frame_det |= v1[po]
            new = frame_det & ~det_word
            while new:
                low = new & -new
                det_frame[low.bit_length() - 1] = frame
                new ^= low
            det_word |= frame_det

            # Capture faulty next state (D-pin faults applied here).
            good_next = trace.ff_states[frame]
            prop_word = 0
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
                ff1[k], ff0[k] = a1, a0
                value = good_next[k]
                if value == 1:
                    prop_word |= a0
                elif value == 0:
                    prop_word |= a1
            prop_per_frame.append(prop_word.bit_count())

        prop_final = prop_per_frame[-1] if prop_per_frame else 0
        return det_word, det_frame, prop_final, prop_per_frame, faulty_events, ff1, ff0

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
        node arrays per frame).

        With ``eval_jobs > 1`` / ``eval_cache`` the call is served by the
        sharded, memoized evaluator; the result is bit-identical.
        """
        if self._parallel is not None:
            return self._parallel.evaluate(
                vectors, sample=sample, count_faulty_events=count_faulty_events
            )
        return self._evaluate_serial(
            vectors, sample=sample, count_faulty_events=count_faulty_events
        )

    def _evaluate_serial(
        self,
        vectors: Sequence[Vector],
        sample: Optional[Sequence[int]] = None,
        count_faulty_events: bool = False,
    ) -> CandidateEval:
        """The in-process scoring pass behind :meth:`evaluate`."""
        if sample is None:
            sample = self.active
        trace = self._run_good(vectors, count_events=count_faulty_events)
        detected = 0
        prop_final = 0
        prop_sum = 0
        faulty_events = 0
        word_passes = 0
        for group, inj in self._injection_plan(sample):
            det_word, _, g_prop_final, prop_frames, g_events, _, _ = self._run_group(
                group, trace, count_faulty_events, inj
            )
            word_passes += 1
            detected += det_word.bit_count()
            prop_final += g_prop_final
            prop_sum += sum(prop_frames)
            faulty_events += g_events
        collector = self.collector
        if collector.enabled:
            frames = len(vectors)
            collector.inc("sim.evaluate.calls")
            collector.inc("sim.evaluate.frames", frames)
            collector.inc("sim.evaluate.faults", len(sample))
            collector.inc("sim.evaluate.words", word_passes * frames)
            if count_faulty_events:
                collector.inc("sim.good_events", trace.good_events)
                collector.inc("sim.faulty_events", faulty_events)
        return CandidateEval(
            frames=len(vectors),
            detected=detected,
            prop_final=prop_final,
            prop_sum=prop_sum,
            faulty_events=faulty_events,
            good_events=trace.good_events,
            ffs_set=trace.ffs_set,
            ffs_changed=trace.ffs_changed,
            num_faults_simulated=len(sample),
            num_ffs=self.compiled.num_ffs,
        )

    def evaluate_batch(
        self,
        candidates: Sequence[Sequence[Vector]],
        sample: Optional[Sequence[int]] = None,
        count_faulty_events: bool = False,
    ) -> List[CandidateEval]:
        """Score many candidate tests at once (one GA population).

        Semantically identical to ``[evaluate(c, sample) for c in
        candidates]`` but packs every (candidate, fault) pair into one
        slot of a single ultra-wide bit-plane word.  Candidate *c* owns
        the ``S + 1`` slots from ``c * (S + 1)`` on, *S* being the sample
        size: one slot per sampled fault plus a fault-free top slot that
        carries the candidate's good machine.  One injected pass over
        the compiled program per frame then evaluates every good and
        faulty machine of the population — with arbitrary-precision
        integers the interpreter overhead per bitwise op dominates, so
        widening the word is nearly free and this replaces
        ``len(candidates) * ceil(S / word_width)`` narrow passes.  The
        per-candidate observables accumulate in bit-sliced counter
        words (see :func:`_add_bits`) and are split per candidate once,
        at the end of the pass.

        All candidates must have the same number of frames.  With
        ``eval_jobs > 1`` / ``eval_cache`` the population is served by
        the sharded, memoized evaluator instead (duplicates are scored
        once; misses fan out per fault shard); results are bit-identical.
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
        """The in-process wide-word pass behind :meth:`evaluate_batch`."""
        if sample is None:
            sample = self.active
        sample = list(sample)
        n_cand = len(candidates)
        if n_cand == 0:
            return []
        frames = len(candidates[0])
        if any(len(c) != frames for c in candidates):
            raise ValueError("all candidates must have the same frame count")
        if not sample or frames == 0:
            return [
                self._evaluate_serial(
                    c, sample=sample, count_faulty_events=count_faulty_events
                )
                for c in candidates
            ]

        compiled = self.compiled
        n = compiled.num_nodes
        layout = self._batch_layout(sample, n_cand)
        S = layout.S
        mask = layout.mask
        top = layout.top
        pi_ids = compiled.pi_ids
        ff_ids = compiled.ff_ids
        ff_d_ids = compiled.ff_d_ids
        po_ids = compiled.po_ids
        pi_forces = layout.pi_forces
        ff_out_rows = [
            (k, ff_ids[k], f1, f0) for k, (f1, f0) in layout.ff_out_forces.items()
        ]
        ff_pin_forces = layout.ff_pin_forces
        injection = layout.injection
        eval_injection = self._kernel.eval_injection

        ff1, ff0 = self._batch_ff_planes(sample, layout)
        prev1, prev0 = ff1, ff0
        v1 = [0] * n
        v0 = [0] * n
        det_word = 0
        prop_word = 0
        prop_words: List[int] = []
        # Bit-sliced per-slot counters (see _add_bits) for the events
        # observables; words that use only top slots are folded first
        # (see _fold_tops).
        good_counts: List[int] = []
        faulty_counts: List[int] = []

        # Good values live in the top slots: a good plane g = word & top
        # spreads over its whole block as (g << 1) - (g >> S), and a
        # faulty plane compared with that never differs in a top slot.
        for ones, zeros in self._batch_pi_planes(candidates, layout):
            if count_faulty_events:
                old1 = v1[:]
                old0 = v0[:]
            for pi, w1, w0 in zip(pi_ids, ones, zeros):
                v1[pi] = w1
                v0[pi] = w0
            for node, f1, f0 in pi_forces:
                if f1:
                    v1[node] |= f1
                    v0[node] &= ~f1
                if f0:
                    v0[node] |= f0
                    v1[node] &= ~f0
            for k, ff in enumerate(ff_ids):
                v1[ff] = ff1[k]
                v0[ff] = ff0[k]
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
            for po in po_ids:
                a1 = v1[po]
                a0 = v0[po]
                g1 = a1 & top
                g0 = a0 & top
                det_word |= ((a0 & ((g1 << 1) - (g1 >> S)))
                             | (a1 & ((g0 << 1) - (g0 >> S))))

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

        # Good-machine flip-flop observables of the last frame.
        set_words = []
        changed_words = []
        for n1, n0, p1, p0 in zip(ff1, ff0, prev1, prev0):
            g1 = n1 & top
            g0 = n0 & top
            set_words.append(g1 | g0)
            changed_words.append((p1 & g0) | (p0 & g1))
        prop_counts: List[int] = []
        set_counts: List[int] = []
        changed_counts: List[int] = []
        _add_bits(prop_counts, prop_words)
        _add_bits(set_counts, _fold_tops(set_words, S))
        _add_bits(changed_counts, _fold_tops(changed_words, S))

        blocks = layout.blocks
        prop_sum = _split_counts(prop_counts, blocks)
        ffs_set = _split_counts(set_counts, blocks)
        ffs_changed = _split_counts(changed_counts, blocks)
        if count_faulty_events:
            good_events = _split_counts(good_counts, blocks)
            faulty_events = _split_counts(faulty_counts, blocks)
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
                num_ffs=compiled.num_ffs,
            )
            for c in range(n_cand)
        ]

    def commit(self, vectors: Sequence[Vector]) -> CommitResult:
        """Apply a test for real: advance all state, drop detected faults."""
        trace = self._run_good(vectors, count_events=False)
        detections: List[Tuple[Fault, int]] = []
        new_divergence: Dict[int, Dict[int, int]] = {}
        detected_ids: List[int] = []
        for group, inj in self._injection_plan(self.active):
            det_word, det_frame, _, _, _, ff1, ff0 = self._run_group(
                group, trace, False, inj
            )
            final_good = (
                trace.ff_states[-1] if trace.ff_states else self.good_state.ff_values
            )
            for slot, fault_id in enumerate(group):
                bit = 1 << slot
                if det_word & bit:
                    detected_ids.append(fault_id)
                    detections.append(
                        (self.faults[fault_id],
                         self.vectors_applied + det_frame.get(slot, 0))
                    )
                    continue
                div: Dict[int, int] = {}
                for k in range(self.compiled.num_ffs):
                    if ff1[k] & bit:
                        value = 1
                    elif ff0[k] & bit:
                        value = 0
                    else:
                        value = X
                    if value != final_good[k]:
                        div[k] = value
                if div:
                    new_divergence[fault_id] = div
        for fault_id in detected_ids:
            self.status[fault_id] = FaultStatus.DETECTED
        detected_set = set(detected_ids)
        self.active = [f for f in self.active if f not in detected_set]
        self.divergence = new_divergence
        if trace.ff_states:
            self.good_state = GoodState(list(trace.ff_states[-1]))
        self.vectors_applied += len(vectors)
        self.detections.extend(detections)
        self.state_epoch += 1
        self._after_commit(trace)
        collector = self.collector
        if collector.enabled:
            collector.inc("sim.commit.calls")
            collector.inc("sim.commit.frames", len(vectors))
            collector.inc("sim.commit.detected", len(detected_ids))
        return CommitResult(
            frames=len(vectors),
            detections=detections,
            detected_count=len(detected_ids),
            remaining=len(self.active),
        )

    def _after_commit(self, trace: _GoodTrace) -> None:
        """Hook for subclasses needing committed-trace bookkeeping
        (e.g. the transition-fault model's previous-value state)."""

    def run_test_set(self, vectors: Sequence[Vector]) -> CommitResult:
        """Convenience: commit an entire pre-built test set at once."""
        return self.commit(vectors)
