"""Transition (gate-delay) fault model — a reproduction extension.

The paper closes by noting that the GA framework "is not limited to the
single stuck-at fault model, and other fault models can easily be
accommodated with appropriate fitness functions."  This module makes
that concrete: slow-to-rise / slow-to-fall transition faults simulated
with the standard *conditional stuck-at* approximation —

* a **slow-to-rise** fault at node *n* is excited in time frame *t* when
  the fault-free machine drives *n* from 0 (frame *t*-1) to 1 (frame
  *t*); while excited, the faulty machine sees the *old* value 0 at *n*;
* symmetrically for **slow-to-fall**.

Excitation is judged on the fault-free machine's values (the classic
first-order approximation used by sequential transition-fault
simulators); the launched error then propagates, latches into flip-flops
and persists exactly like a stuck-at effect, which is what the inherited
machinery already models.  :class:`TransitionFaultSimulator` exposes the
same interface as :class:`~repro.faults.simulator.FaultSimulator`, so
the GATEST generator runs unmodified on top of it — only the fault
universe and the injection rule change, exactly as the paper promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..circuit.gates import X
from ..circuit.netlist import Circuit
from ..sim.compile import CompiledCircuit
from .simulator import FaultSimulator, _GoodTrace


@dataclass(frozen=True, order=True)
class TransitionFault:
    """One transition fault on a node's output.

    ``slow_to`` is the *destination* value of the slow transition:
    1 = slow-to-rise, 0 = slow-to-fall.
    """

    node: int
    slow_to: int

    def describe(self, circuit: Circuit) -> str:
        """Human-readable name like ``G11 slow-to-rise``."""
        kind = "slow-to-rise" if self.slow_to == 1 else "slow-to-fall"
        return f"{circuit.node_names[self.node]} {kind}"

    @property
    def stuck_value(self) -> int:
        """The value the excited faulty node is held at (the old value)."""
        return 1 - self.slow_to


def generate_transition_faults(circuit: Circuit) -> List[TransitionFault]:
    """Both transition faults on every node output."""
    faults: List[TransitionFault] = []
    for node_id in range(circuit.num_nodes):
        faults.append(TransitionFault(node_id, 1))
        faults.append(TransitionFault(node_id, 0))
    return faults


class TransitionFaultSimulator(FaultSimulator):
    """Sequential transition-fault simulator (conditional stuck-at).

    Inherits all state management (good state, per-fault flip-flop
    divergences, snapshot/rollback, fault dropping) from the stuck-at
    simulator; only the per-frame injection differs — force masks are
    rebuilt each frame from the good machine's value *transitions*
    instead of being static.
    """

    #: Pool workers rebuild a plain stuck-at simulator, which cannot
    #: replay this model's per-frame conditional injection; only the
    #: epoch-keyed evaluation cache applies (``eval_jobs`` is accepted
    #: but scoring stays in-process).
    _shardable = False

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        faults: Optional[List[TransitionFault]] = None,
        word_width: int = 64,
        collector=None,
        eval_jobs: int = 1,
        eval_cache: Optional[bool] = None,
        kernel: Optional[str] = None,
        eval_task_timeout: Optional[float] = None,
        eval_retries: Optional[int] = None,
    ) -> None:
        if isinstance(circuit, CompiledCircuit):
            compiled = circuit
        else:
            from ..sim.compile import compile_circuit

            compiled = compile_circuit(circuit)
        if faults is None:
            faults = generate_transition_faults(compiled.circuit)
        super().__init__(compiled, faults=faults, word_width=word_width,  # type: ignore[arg-type]
                         collector=collector, eval_jobs=eval_jobs,
                         eval_cache=eval_cache, kernel=kernel,
                         eval_task_timeout=eval_task_timeout,
                         eval_retries=eval_retries)
        #: Fault-free node values at the last committed frame (scalars);
        #: the excitation condition for the first frame of any new test.
        self.prev_good: List[int] = [X] * compiled.num_nodes

    # ------------------------------------------------------------------
    # State management additions
    # ------------------------------------------------------------------

    def snapshot(self):
        """Base snapshot plus the previous-frame good values."""
        return (super().snapshot(), list(self.prev_good))

    def restore(self, snap) -> None:
        """Restore base state and the previous-frame good values."""
        base, prev_good = snap
        super().restore(base)
        self.prev_good = list(prev_good)

    def reset(self) -> None:
        """Power-up reset, clearing the previous-value state too."""
        super().reset()
        self.prev_good = [X] * self.compiled.num_nodes

    def _after_commit(self, trace: _GoodTrace) -> None:
        if not trace.node_planes:
            return
        g1, g0 = trace.node_planes[-1]
        self.prev_good = [
            1 if g1[i] else (0 if g0[i] else X)
            for i in range(self.compiled.num_nodes)
        ]

    def _checkpoint_extra(self) -> dict:
        return {"prev_good": list(self.prev_good)}

    def _restore_checkpoint_extra(self, extra: dict) -> None:
        self.prev_good = list(extra["prev_good"])

    # ------------------------------------------------------------------
    # Per-frame conditional injection
    # ------------------------------------------------------------------

    def _frame_forces(self, group: Sequence[int], prev, g1, g0):
        """Force tables for one frame: only faults whose transition the
        good machine launches this frame are injected."""
        out_force: Dict[int, tuple] = {}
        pi_forces = []
        ff_forces: Dict[int, tuple] = {}
        is_ff = {ff: k for k, ff in enumerate(self.compiled.ff_ids)}
        is_pi = set(self.compiled.pi_ids)
        for slot, fault_id in enumerate(group):
            fault = self.faults[fault_id]
            node = fault.node
            old = prev[node]
            new = 1 if g1[node] else (0 if g0[node] else X)
            if old != 1 - fault.slow_to or new != fault.slow_to:
                continue  # no launching transition this frame
            bit = 1 << slot
            held = fault.stuck_value
            if node in is_ff:
                f1, f0 = ff_forces.get(is_ff[node], (0, 0))
                ff_forces[is_ff[node]] = (
                    (f1 | bit, f0) if held == 1 else (f1, f0 | bit)
                )
            else:
                f1, f0 = out_force.get(node, (0, 0))
                entry = (f1 | bit, f0) if held == 1 else (f1, f0 | bit)
                out_force[node] = entry
                if node in is_pi:
                    pi_forces.append((node, *entry))
        return out_force, pi_forces, ff_forces

    def _group_injection(self, group):
        """No precomputed tables: forces depend on per-frame transitions."""
        return None

    def _run_group(self, group, trace: _GoodTrace, count_faulty_events: bool,
                   inj=None):
        compiled = self.compiled
        n = compiled.num_nodes
        n_slots = len(group)
        mask = (1 << n_slots) - 1

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
        prev_scalars = list(self.prev_good)

        for frame, (g1, g0) in enumerate(trace.node_planes):
            out_force, pi_forces, ff_forces = self._frame_forces(
                group, prev_scalars, g1, g0
            )
            for pi in compiled.pi_ids:
                v1[pi] = mask * g1[pi]
                v0[pi] = mask * g0[pi]
            for node, f1, f0 in pi_forces:
                if f1:
                    v1[node] |= f1
                    v0[node] &= ~f1
                if f0:
                    v0[node] |= f0
                    v1[node] &= ~f0
            for k, ff in enumerate(compiled.ff_ids):
                a1, a0 = ff1[k], ff0[k]
                if k in ff_forces:
                    f1, f0 = ff_forces[k]
                    if f1:
                        a1 |= f1
                        a0 &= ~f1
                    if f0:
                        a0 |= f0
                        a1 &= ~f0
                v1[ff], v0[ff] = a1, a0

            # Forces change every frame (conditional injection), so the
            # injection tables are rebuilt per frame — cheap next to the
            # pass itself, and the generated kernel is reused as-is.
            self._kernel.eval_injection(
                v1, v0, mask, self._kernel.make_injection(out_force, {})
            )

            if count_faulty_events:
                events = 0
                for i in range(n):
                    diff = (v1[i] ^ (mask * g1[i])) | (v0[i] ^ (mask * g0[i]))
                    if diff:
                        events += diff.bit_count()
                faulty_events += events

            frame_det = 0
            for po in compiled.po_ids:
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

            good_next = trace.ff_states[frame]
            prop_word = 0
            for k, d_node in enumerate(compiled.ff_d_ids):
                a1, a0 = v1[d_node], v0[d_node]
                ff1[k], ff0[k] = a1, a0
                value = good_next[k]
                if value == 1:
                    prop_word |= a0
                elif value == 0:
                    prop_word |= a1
            prop_per_frame.append(prop_word.bit_count())

            prev_scalars = [
                1 if g1[i] else (0 if g0[i] else X) for i in range(n)
            ]

        prop_final = prop_per_frame[-1] if prop_per_frame else 0
        return det_word, det_frame, prop_final, prop_per_frame, faulty_events, ff1, ff0

    # The wide-word batch path builds static injection masks, which is
    # wrong for per-frame conditional injection; fall back to serial.
    def evaluate_batch(self, candidates, sample=None, count_faulty_events=False):
        """Serial fallback (per-frame conditional masks defeat the
        static wide-word packing of the stuck-at batch path)."""
        return [
            self.evaluate(c, sample=sample, count_faulty_events=count_faulty_events)
            for c in candidates
        ]
