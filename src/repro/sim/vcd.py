"""VCD (Value Change Dump, IEEE 1364) waveform writer.

Dumps the fault-free simulation of a vector sequence so any standard
waveform viewer (GTKWave etc.) can inspect what a generated test set
actually does to a circuit — indispensable when debugging why a fault
escapes.  One VCD time unit corresponds to one clock cycle (time frame).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Sequence, TextIO, Union

from ..circuit.gates import X, eval_gate_scalar
from ..circuit.netlist import Circuit
from .logic3 import GoodState, Vector

_VALUE_CHAR = {0: "0", 1: "1", X: "x"}

#: Printable VCD identifier characters.
_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Compact VCD identifier for signal ``index``."""
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(chars)


def _good_frames(
    circuit: Circuit, vectors: Sequence[Vector], state: Optional[GoodState]
) -> Iterator[List[int]]:
    """Every node's fault-free value, one list per frame (scalar walk)."""
    ffs = state.ff_values if state is not None else [X] * circuit.num_dffs
    if len(ffs) != circuit.num_dffs:
        raise ValueError(
            f"state has {len(ffs)} flip-flops, circuit has {circuit.num_dffs}"
        )
    for t, vector in enumerate(vectors):
        if len(vector) != circuit.num_inputs:
            raise ValueError(
                f"vector {t} has {len(vector)} values for "
                f"{circuit.num_inputs} primary inputs"
            )
        values = [X] * circuit.num_nodes
        for pi, value in zip(circuit.inputs, vector):
            values[pi] = value if value in (0, 1) else X
        for ff, value in zip(circuit.dffs, ffs):
            values[ff] = value if value in (0, 1) else X
        for node in circuit.topo_order:
            values[node] = eval_gate_scalar(
                circuit.node_types[node], [values[f] for f in circuit.fanins[node]]
            )
        ffs = [values[circuit.fanins[ff][0]] for ff in circuit.dffs]
        yield values


def dump_vcd(
    circuit: Circuit,
    vectors: Sequence[Vector],
    path: Union[str, Path, TextIO],
    state: Optional[GoodState] = None,
    signals: Optional[Sequence[str]] = None,
) -> None:
    """Simulate ``vectors`` and write the node waveforms as VCD.

    ``signals`` restricts the dump to named nodes (default: all nodes).
    ``state`` is the starting flip-flop state (default: power-up X).
    """
    if signals is None:
        node_ids = list(range(circuit.num_nodes))
    else:
        node_ids = [circuit.id_of(name) for name in signals]
    idents = {node: _identifier(i) for i, node in enumerate(node_ids)}

    own_handle = not hasattr(path, "write")
    handle: TextIO = open(path, "w") if own_handle else path  # type: ignore[arg-type]
    try:
        handle.write("$date reproduced-gatest $end\n")
        handle.write("$version repro VCD writer $end\n")
        handle.write("$timescale 1 ns $end\n")
        handle.write(f"$scope module {circuit.name} $end\n")
        for node in node_ids:
            handle.write(
                f"$var wire 1 {idents[node]} {circuit.node_names[node]} $end\n"
            )
        handle.write("$upscope $end\n$enddefinitions $end\n")

        previous = {node: None for node in node_ids}
        handle.write("$dumpvars\n")
        for node in node_ids:
            handle.write(f"x{idents[node]}\n")
        handle.write("$end\n")
        for t, values in enumerate(_good_frames(circuit, vectors, state)):
            handle.write(f"#{t}\n")
            for node in node_ids:
                value = values[node]
                if value != previous[node]:
                    handle.write(f"{_VALUE_CHAR[value]}{idents[node]}\n")
                    previous[node] = value
        handle.write(f"#{len(vectors)}\n")
    finally:
        if own_handle:
            handle.close()
