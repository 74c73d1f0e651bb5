"""Gate types and word-parallel three-valued gate evaluation primitives.

Signals are represented in a two-bit-plane encoding: a signal value is a
pair of machine words ``(v1, v0)``.  Bit *i* of ``v1`` set means slot *i*
carries logic 1; bit *i* of ``v0`` set means slot *i* carries logic 0;
neither bit set means unknown (X).  Both bits set is illegal and never
produced by the operators below.  Because Python integers have arbitrary
width, a single pair of words evaluates a gate for any number of parallel
slots (patterns or faulty machines) in one bitwise operation — this is the
core trick that makes pure-Python fault simulation viable (see DESIGN.md
section 6).
"""

from __future__ import annotations

import enum
from typing import Iterable, Tuple

Word = int
Val3 = Tuple[Word, Word]  # (v1 plane, v0 plane)


class GateType(enum.Enum):
    """All node types supported by the netlist model.

    ``INPUT`` is a primary input, ``DFF`` is a D flip-flop (one fanin, its
    D input; its output is the present-state value).  The remaining types
    are combinational gates with one or more fanins.
    """

    INPUT = "input"
    DFF = "dff"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    NOT = "not"
    BUFF = "buff"
    XOR = "xor"
    XNOR = "xnor"

    @property
    def is_sequential(self) -> bool:
        """True for state-holding node types (DFF)."""
        return self is GateType.DFF

    @property
    def is_combinational(self) -> bool:
        """True for gate types evaluated within a time frame."""
        return self not in (GateType.INPUT, GateType.DFF)


# Names accepted by the .bench parser, lowercase, mapped to GateType.
BENCH_NAMES = {
    "and": GateType.AND,
    "nand": GateType.NAND,
    "or": GateType.OR,
    "nor": GateType.NOR,
    "not": GateType.NOT,
    "inv": GateType.NOT,
    "buf": GateType.BUFF,
    "buff": GateType.BUFF,
    "xor": GateType.XOR,
    "xnor": GateType.XNOR,
    "dff": GateType.DFF,
}


# ---------------------------------------------------------------------------
# Three-valued word-parallel operators.
# ---------------------------------------------------------------------------

def v3_const0(mask: Word) -> Val3:
    """All slots at logic 0."""
    return (0, mask)


def v3_const1(mask: Word) -> Val3:
    """All slots at logic 1."""
    return (mask, 0)


def v3_constx() -> Val3:
    """All slots unknown."""
    return (0, 0)


def v3_not(a: Val3) -> Val3:
    """Three-valued NOT: swap the bit planes."""
    return (a[1], a[0])


def v3_and(a: Val3, b: Val3) -> Val3:
    """Three-valued AND: 1 where both 1; 0 where either 0 (controlling
    value dominates X); X otherwise."""
    return (a[0] & b[0], a[1] | b[1])


def v3_or(a: Val3, b: Val3) -> Val3:
    """Three-valued OR: 1 where either 1; 0 where both 0; X otherwise."""
    return (a[0] | b[0], a[1] & b[1])


def v3_xor(a: Val3, b: Val3) -> Val3:
    """Three-valued XOR: defined only where both inputs are definite."""
    return ((a[0] & b[1]) | (a[1] & b[0]), (a[0] & b[0]) | (a[1] & b[1]))


_and2, _or2, _xor2 = v3_and, v3_or, v3_xor


def v3_fold(gate_type: GateType, inputs: Iterable[Val3], mask: Word) -> Val3:
    """Evaluate an arbitrary-fanin gate over three-valued words.

    ``mask`` is the word of active slots (all ones up to the slot count);
    it is needed to express the identity element of AND (all ones).
    """
    if gate_type is GateType.NOT:
        (a,) = inputs
        return v3_not(a)
    if gate_type in (GateType.BUFF, GateType.DFF):
        (a,) = inputs
        return a

    it = iter(inputs)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError(f"gate of type {gate_type} requires at least one input")

    if gate_type in (GateType.AND, GateType.NAND):
        for v in it:
            acc = _and2(acc, v)
        return v3_not(acc) if gate_type is GateType.NAND else acc
    if gate_type in (GateType.OR, GateType.NOR):
        for v in it:
            acc = _or2(acc, v)
        return v3_not(acc) if gate_type is GateType.NOR else acc
    if gate_type in (GateType.XOR, GateType.XNOR):
        for v in it:
            acc = _xor2(acc, v)
        return v3_not(acc) if gate_type is GateType.XNOR else acc
    raise ValueError(f"cannot evaluate gate type {gate_type}")


# ---------------------------------------------------------------------------
# Scalar three-valued helpers (used by tests, the VCD writer, PODEM and
# anywhere readability beats throughput).  Scalar values are encoded as 0,
# 1, or the module-level constant X.
# ---------------------------------------------------------------------------

X = 2  #: scalar encoding of the unknown value


def scalar_to_v3(value: int, mask: Word = 1) -> Val3:
    """Broadcast a scalar 0/1/X to all slots of a word pair."""
    if value == 0:
        return v3_const0(mask)
    if value == 1:
        return v3_const1(mask)
    if value == X:
        return v3_constx()
    raise ValueError(f"not a three-valued scalar: {value!r}")


def v3_to_scalar(value: Val3, slot: int = 0) -> int:
    """Extract the scalar 0/1/X held in one slot of a word pair."""
    bit = 1 << slot
    one = bool(value[0] & bit)
    zero = bool(value[1] & bit)
    if one and zero:
        raise ValueError(f"slot {slot} holds the illegal 11 encoding")
    if one:
        return 1
    if zero:
        return 0
    return X


def eval_gate_scalar(gate_type: GateType, inputs: Iterable[int]) -> int:
    """Evaluate one gate on scalar 0/1/X inputs (reference implementation).

    This is the simple, obviously-correct evaluator the word-parallel path
    is property-tested against.
    """
    vals = list(inputs)
    out = v3_fold(gate_type, [scalar_to_v3(v) for v in vals], 1)
    return v3_to_scalar(out)


def v3_valid(value: Val3, mask: Word) -> bool:
    """True when no slot holds the illegal 11 encoding and no bit exceeds the mask."""
    v1, v0 = value
    return (v1 & v0) == 0 and (v1 | v0) & ~mask == 0
