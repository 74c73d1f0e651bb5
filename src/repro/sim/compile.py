"""Compilation of a netlist into a flat word-parallel evaluation program.

Simulation is the hot path of the whole reproduction (DESIGN.md §6), so
instead of dispatching on :class:`~repro.circuit.gates.GateType` per gate
per frame, a circuit is compiled once into a list of small tuples
``(out_id, opcode, invert, fanin_ids)`` in levelized order.  The
kernels of :mod:`repro.sim.codegen` then evaluate that program, once
per frame of the population pass in :mod:`repro.faults.simulator`,
over two bit-plane lists ``v1``/``v0`` (see :mod:`repro.circuit.gates`
for the encoding); :func:`eval_program_injected` is the reference
interpreter they must match.

:func:`compiled_circuit_for` is the one cache of compiled circuits by
name.  Kernels are cached per compiled-circuit *object*, so the object a
name maps to decides both which netlist runs and how often a kernel is
built: the harness, campaign workers, the job service and its tier
workers all take their circuits from it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple, Union

from ..circuit import library
from ..circuit.gates import GateType
from ..circuit.netlist import Circuit

# Opcodes for the compiled program.
OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_COPY = 3  # BUFF / NOT (invert flag distinguishes them)

_OPCODE_OF = {
    GateType.AND: (OP_AND, False),
    GateType.NAND: (OP_AND, True),
    GateType.OR: (OP_OR, False),
    GateType.NOR: (OP_OR, True),
    GateType.XOR: (OP_XOR, False),
    GateType.XNOR: (OP_XOR, True),
    GateType.BUFF: (OP_COPY, False),
    GateType.NOT: (OP_COPY, True),
}

Instruction = Tuple[int, int, bool, Tuple[int, ...]]


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit plus its flat evaluation program and index tables."""

    circuit: Circuit
    program: Tuple[Instruction, ...]
    pi_ids: Tuple[int, ...]
    po_ids: Tuple[int, ...]
    ff_ids: Tuple[int, ...]
    ff_d_ids: Tuple[int, ...]  # node driving each DFF's D input
    num_nodes: int

    @property
    def num_pis(self) -> int:
        """Primary input count."""
        return len(self.pi_ids)

    @property
    def num_pos(self) -> int:
        """Primary output count."""
        return len(self.po_ids)

    @property
    def num_ffs(self) -> int:
        """Flip-flop count."""
        return len(self.ff_ids)


def compile_circuit(circuit: Union[Circuit, CompiledCircuit]) -> CompiledCircuit:
    """Compile a finalized circuit into its evaluation program.

    A :class:`CompiledCircuit` is returned unchanged, so every consumer
    that accepts either form compiles with this one call.
    """
    if isinstance(circuit, CompiledCircuit):
        return circuit
    program: List[Instruction] = []
    for node_id in circuit.topo_order:
        gate_type = circuit.node_types[node_id]
        opcode, invert = _OPCODE_OF[gate_type]
        program.append((node_id, opcode, invert, circuit.fanins[node_id]))
    return CompiledCircuit(
        circuit=circuit,
        program=tuple(program),
        pi_ids=tuple(circuit.inputs),
        po_ids=tuple(circuit.outputs),
        ff_ids=tuple(circuit.dffs),
        ff_d_ids=tuple(circuit.fanins[ff][0] for ff in circuit.dffs),
        num_nodes=circuit.num_nodes,
    )


#: Compiled circuits one process keeps resident; the least recently
#: used is dropped first.
CIRCUIT_CACHE_SIZE = 8

_circuits: "OrderedDict[tuple, CompiledCircuit]" = OrderedDict()
_circuits_lock = threading.Lock()


def _circuit_key(spec: str, scale: float, seed: int) -> tuple:
    """:func:`~repro.circuit.library.canonical_spec`, plus the SHA-256 of
    the file a ``.bench`` path reaches now, so a changed directory or an
    in-place edit is another key."""
    key = library.canonical_spec(spec, scale, seed)
    if not library.is_bench_path(key[0]):
        return key
    try:
        data = Path(key[0]).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot load circuit file {key[0]!r}: {exc}") from exc
    return key + (hashlib.sha256(data).hexdigest(),)


def compiled_circuit_for(
    spec: str, scale: float = 1.0, seed: int = 0
) -> CompiledCircuit:
    """The compiled circuit ``spec`` names now, resolved by
    :func:`~repro.circuit.library.resolve_spec`.

    Every spelling of one circuit is one object while it stays among the
    :data:`CIRCUIT_CACHE_SIZE` most recently used, so its kernel is built
    once; a ``.bench`` path whose file changed resolves afresh.  Safe to
    call from several threads.  Raises :class:`ValueError` for a spec
    that names no circuit, or a file that cannot be loaded.
    """
    key = _circuit_key(spec, scale, seed)
    with _circuits_lock:
        compiled = _circuits.get(key)
        if compiled is not None:
            _circuits.move_to_end(key)
            return compiled
    # Resolve outside the lock: synthesis and compilation can be slow.
    compiled = compile_circuit(library.resolve_spec(*key[:3]))
    with _circuits_lock:
        # Keep the object a racing thread cached first, so kernels
        # (cached per object) converge on one build.
        compiled = _circuits.setdefault(key, compiled)
        _circuits.move_to_end(key)
        while len(_circuits) > CIRCUIT_CACHE_SIZE:
            _circuits.popitem(last=False)
        return compiled


def cached_circuit_count() -> int:
    """How many compiled circuits :func:`compiled_circuit_for` holds."""
    with _circuits_lock:
        return len(_circuits)


def clear_circuit_cache() -> None:
    """Forget every compiled circuit :func:`compiled_circuit_for` holds."""
    with _circuits_lock:
        _circuits.clear()


def _force(b1: int, b0: int, f1: int, f0: int) -> Tuple[int, int]:
    """Overwrite slots of a (v1, v0) pair with stuck values."""
    if f1:
        b1 |= f1
        b0 &= ~f1
    if f0:
        b0 |= f0
        b1 &= ~f0
    return b1, b0


def eval_program_injected(
    program: Tuple[Instruction, ...],
    v1: List[int],
    v0: List[int],
    mask: int,
    out_force: dict,
    pin_force: dict,
) -> None:
    """Evaluate the program in place over the bit planes, with per-slot
    stuck-at injection: the reference semantics of every kernel.

    ``v1[i]``/``v0[i]`` must hold the PI and FF (present state) values on
    entry; on exit every combinational node's planes are filled in.
    ``mask`` is the all-slots-active word, contiguous or not (the
    transition model's good pass runs over the top slots alone).
    ``out_force[node] -> (force1_word, force0_word)`` forces slots of a
    node's *output*; ``pin_force[gate] -> [(pin, force1, force0), ...]``
    forces specific fanin pins of a gate.  Forcing wins over the computed
    value; the population pass puts at most one fault in a slot, so
    the forced-to-1 and forced-to-0 slot sets are disjoint.  With both
    dicts empty this is the good-machine pass.
    """
    for out, opcode, invert, fanins in program:
        pins = pin_force.get(out)
        if pins is None:
            # Fast path: no pin faults on this gate.
            if opcode == OP_AND:
                a1 = mask
                a0 = 0
                for f in fanins:
                    a0 |= v0[f]
                    a1 &= v1[f]
            elif opcode == OP_OR:
                a1 = 0
                a0 = mask
                for f in fanins:
                    a1 |= v1[f]
                    a0 &= v0[f]
            elif opcode == OP_XOR:
                f = fanins[0]
                a1, a0 = v1[f], v0[f]
                for f in fanins[1:]:
                    b1, b0 = v1[f], v0[f]
                    a1, a0 = (a1 & b0) | (a0 & b1), (a1 & b1) | (a0 & b0)
            else:  # OP_COPY
                f = fanins[0]
                a1, a0 = v1[f], v0[f]
        else:
            forced = {pin: (f1, f0) for pin, f1, f0 in pins}
            values = []
            for pin, f in enumerate(fanins):
                b1, b0 = v1[f], v0[f]
                if pin in forced:
                    b1, b0 = _force(b1, b0, *forced[pin])
                values.append((b1, b0))
            if opcode == OP_AND:
                a1 = mask
                a0 = 0
                for b1, b0 in values:
                    a0 |= b0
                    a1 &= b1
            elif opcode == OP_OR:
                a1 = 0
                a0 = mask
                for b1, b0 in values:
                    a1 |= b1
                    a0 &= b0
            elif opcode == OP_XOR:
                a1, a0 = values[0]
                for b1, b0 in values[1:]:
                    a1, a0 = (a1 & b0) | (a0 & b1), (a1 & b1) | (a0 & b0)
            else:  # OP_COPY
                a1, a0 = values[0]
        if invert:
            a1, a0 = a0, a1
        if out in out_force:
            a1, a0 = _force(a1, a0, *out_force[out])
        v1[out], v0[out] = a1, a0
