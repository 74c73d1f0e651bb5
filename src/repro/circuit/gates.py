"""Gate types and the scalar three-valued gate evaluator.

Scalar signal values are 0, 1 or the module-level constant :data:`X`
(unknown).  :func:`eval_gate_scalar` is the simple, obviously-correct
reference that PODEM, the VCD writer and the test oracle evaluate gates
with; word-parallel evaluation of many slots at once lives in
:mod:`repro.sim.compile` and the kernels built from it (DESIGN.md
section 6).
"""

from __future__ import annotations

import enum
from typing import Iterable


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


X = 2  #: scalar encoding of the unknown value

_INVERT = {0: 1, 1: 0, X: X}
_INVERTING = (GateType.NAND, GateType.NOR, GateType.XNOR)


def eval_gate_scalar(gate_type: GateType, inputs: Iterable[int]) -> int:
    """Evaluate one gate on scalar 0/1/X inputs (reference implementation).

    A controlling input decides AND/NAND (any 0) and OR/NOR (any 1)
    even beside an X; any X leaves XOR/XNOR unknown; inverting X gives
    X.  Raises :class:`ValueError` for a value that is not 0, 1 or X,
    a NOT/BUFF/DFF without exactly one input, or a gate without inputs.
    """
    vals = list(inputs)
    for value in vals:
        if value not in _INVERT:
            raise ValueError(f"not a three-valued scalar: {value!r}")
    if gate_type in (GateType.NOT, GateType.BUFF, GateType.DFF):
        (out,) = vals
        return _INVERT[out] if gate_type is GateType.NOT else out
    if not vals:
        raise ValueError(f"gate of type {gate_type} requires at least one input")
    if gate_type in (GateType.AND, GateType.NAND):
        out = 0 if 0 in vals else X if X in vals else 1
    elif gate_type in (GateType.OR, GateType.NOR):
        out = 1 if 1 in vals else X if X in vals else 0
    elif gate_type in (GateType.XOR, GateType.XNOR):
        out = X if X in vals else sum(vals) & 1
    else:
        raise ValueError(f"cannot evaluate gate type {gate_type}")
    return _INVERT[out] if gate_type in _INVERTING else out
