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
from typing import List, Optional, Sequence, Union

from ..circuit.gates import X
from ..circuit.netlist import Circuit
from ..sim.compile import CompiledCircuit, compile_circuit
from .simulator import FaultSimulator


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
    divergences, snapshot/rollback, fault dropping) and the population
    pass from the stuck-at simulator; only the per-frame forces differ
    — they are rebuilt each frame from the good machine's value
    *transitions* instead of being static.
    """

    #: Pool workers rebuild a plain stuck-at simulator, which cannot
    #: replay this model's per-frame conditional injection
    #: (``eval_jobs`` is accepted but scoring stays in-process).
    _shardable = False

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        faults: Optional[List[TransitionFault]] = None,
        collector=None,
        eval_jobs: int = 1,
        kernel: Optional[str] = None,
    ) -> None:
        compiled = compile_circuit(circuit)
        if faults is None:
            faults = generate_transition_faults(compiled.circuit)
        super().__init__(compiled, faults=faults,  # type: ignore[arg-type]
                         collector=collector, eval_jobs=eval_jobs,
                         kernel=kernel)
        #: Fault-free node values at the last committed frame (scalars);
        #: the excitation condition for the first frame of any new test.
        self.prev_good: List[int] = [X] * compiled.num_nodes
        #: The kernel's empty injection: the per-frame good pass.  It
        #: carries no force words, so it serves a pass over any mask.
        self._no_forces = self._kernel.make_injection({}, {}, 0)
        #: Primary-input and flip-flop nodes: what the good pass reads
        #: before the program writes it (other unwritten nodes stay 0).
        self._loaded = compiled.pi_ids + compiled.ff_ids

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

    def _after_commit(self, v1: List[int], v0: List[int], top: int) -> None:
        self.prev_good = [
            1 if a1 & top else (0 if a0 & top else X) for a1, a0 in zip(v1, v0)
        ]

    def _checkpoint_extra(self) -> dict:
        return {"prev_good": list(self.prev_good)}

    def _restore_checkpoint_extra(self, extra: dict) -> None:
        self.prev_good = list(extra["prev_good"])

    # ------------------------------------------------------------------
    # Per-frame conditional injection
    # ------------------------------------------------------------------

    def _injection_tables(self, sample: Sequence[int], rep: int = 1):
        """No static forces: every force depends on a frame's transitions."""
        return {}, {}, [], {}, {}

    def _launch_table(self, sample: Sequence[int]):
        """Per fault node of ``sample``: ``(node, flip-flop index or
        None, is_pi, rise shifts, fall shifts)``.

        A shift ``S - slot`` moves a launch bit from a block's top slot
        down to the fault's own slot.  Built with the sample's layout
        (:attr:`~repro.faults.simulator._BatchLayout.launch`).
        """
        compiled = self.compiled
        is_ff = {ff: k for k, ff in enumerate(compiled.ff_ids)}
        is_pi = set(compiled.pi_ids)
        S = len(sample)
        shifts = {}
        for slot, fault_id in enumerate(sample):
            fault = self.faults[fault_id]
            shifts.setdefault(fault.node, ([], []))[fault.slow_to].append(
                S - slot
            )
        return [
            (node, is_ff.get(node), node in is_pi, rises, falls)
            for node, (falls, rises) in shifts.items()
        ]

    def _frame_forces(self, layout, v1, v0, carry):
        """Forces of the faults whose transition launches this frame.

        The loaded top slots hold each candidate's primary inputs and
        good present state, so one kernel pass over them with no forces
        (mask = the top slots) gives every candidate's good values for
        the frame.  The good pass is fed only its primary-input and
        flip-flop words: the kernel reads only the nodes the program
        does not write, and every gate entry is written by the pass
        before the launch loop reads it.  A fault launches where its
        node moves to ``slow_to`` from the previous frame's good value
        (the committed ``prev_good`` at frame 0); the faulty machine
        then holds the node at the old value in that block.  The
        frame's good planes are the next frame's ``carry``.
        """
        top = layout.top
        n = len(v1)
        g1 = [0] * n
        g0 = [0] * n
        for node in self._loaded:
            g1[node] = v1[node] & top
            g0[node] = v0[node] & top
        self._kernel.eval_injection(g1, g0, top, self._no_forces)
        if carry is None:
            carry = ([top if value == 1 else 0 for value in self.prev_good],
                     [top if value == 0 else 0 for value in self.prev_good])
        p1, p0 = carry
        out_force = {}
        pi_forces = []
        ff_out_rows = []
        for node, k, is_pi, rises, falls in layout.launch:
            rise = p0[node] & g1[node]   # slow-to-rise: held at 0
            fall = p1[node] & g0[node]   # slow-to-fall: held at 1
            f0 = 0
            if rise:
                for shift in rises:
                    f0 |= rise >> shift
            f1 = 0
            if fall:
                for shift in falls:
                    f1 |= fall >> shift
            if not (f1 or f0):
                continue
            if k is not None:
                ff_out_rows.append((k, node, f1, f0))
            elif is_pi:
                pi_forces.append((node, f1, f0))
            else:
                out_force[node] = (f1, f0)
        injection = self._kernel.make_injection(out_force, {}, layout.mask)
        return pi_forces, ff_out_rows, injection, (g1, g0)


#: The fault simulator of each fault model ``TestGenConfig.fault_model`` names.
SIMULATORS = {"stuck-at": FaultSimulator, "transition": TransitionFaultSimulator}
