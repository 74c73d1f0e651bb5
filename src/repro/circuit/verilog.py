"""Structural Verilog export and (restricted) import.

Lets circuits cross the boundary to real EDA tooling: the writer emits
synthesizable gate-level Verilog-2001 (primitive gate instantiations
plus an always-block flip-flop per DFF), and the reader accepts the
same restricted structural subset back — enough for round trips and for
netlists exported by most academic tools:

* one module; ``input``/``output``/``wire`` declarations (scalar only);
* primitive gates: ``and/nand/or/nor/xor/xnor/not/buf (out, in...)``;
* flip-flops written either as this module's always-blocks or as
  instances of a cell named ``dff`` with ``.q/.d`` or positional ports.

Anything else (vectors, expressions, behavioural code) is rejected with
a clear error — this is a netlist bridge, not a Verilog front end.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Union

from .gates import GateType
from .netlist import Circuit, CircuitError

_PRIMITIVES = {
    GateType.AND: "and",
    GateType.NAND: "nand",
    GateType.OR: "or",
    GateType.NOR: "nor",
    GateType.XOR: "xor",
    GateType.XNOR: "xnor",
    GateType.NOT: "not",
    GateType.BUFF: "buf",
}
_PRIMITIVE_OF = {v: k for k, v in _PRIMITIVES.items()}

def _sanitize(name: str) -> str:
    """Make a netlist name a legal Verilog identifier (escape if needed)."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", name):
        return name
    return f"\\{name} "


class VerilogError(CircuitError):
    """Raised for unsupported or malformed Verilog input."""


def write_verilog(circuit: Circuit, module_name: Optional[str] = None) -> str:
    """Serialize a circuit as structural Verilog."""
    module = module_name or re.sub(r"\W", "_", circuit.name)
    names = {i: _sanitize(circuit.node_names[i]) for i in range(circuit.num_nodes)}
    pis = [names[i] for i in circuit.inputs]
    pos = [names[i] for i in circuit.outputs]

    lines = [f"// generated by repro (GATEST reproduction) from {circuit.name!r}"]
    ports = ["clk"] + pis + pos
    lines.append(f"module {module} ({', '.join(ports)});")
    lines.append("  input clk;")
    for name in pis:
        lines.append(f"  input {name};")
    for name in pos:
        lines.append(f"  output {name};")
    internal = [
        names[i] for i in range(circuit.num_nodes)
        if i not in circuit.inputs
    ]
    for name in internal:
        lines.append(f"  wire {name};")

    gate_index = 0
    for node_id, gate_type in enumerate(circuit.node_types):
        if gate_type in (GateType.INPUT, GateType.DFF):
            continue
        primitive = _PRIMITIVES[gate_type]
        fanins = ", ".join(names[f] for f in circuit.fanins[node_id])
        lines.append(f"  {primitive} g_{gate_index} ({names[node_id]}, {fanins});")
        gate_index += 1
    for k, ff in enumerate(circuit.dffs):
        d = names[circuit.fanins[ff][0]]
        q = names[ff]
        lines.append(f"  dff ff_{k} (.q({q}), .d({d}), .clk(clk));")
    lines.append("endmodule")
    lines.append("")
    lines.append("// Simple positive-edge D flip-flop cell.")
    lines.append("module dff (q, d, clk);")
    lines.append("  output reg q;")
    lines.append("  input d, clk;")
    lines.append("  always @(posedge clk) q <= d;")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def save_verilog(circuit: Circuit, path: Union[str, Path]) -> None:
    """Write structural Verilog to a file."""
    Path(path).write_text(write_verilog(circuit))


# ---------------------------------------------------------------------------
# Reader (restricted structural subset)
# ---------------------------------------------------------------------------

_MODULE_RE = re.compile(r"module\s+(\w+)\s*\((.*?)\)\s*;", re.DOTALL)
_DECL_RE = re.compile(r"^(input|output|wire|reg|output\s+reg)\s+(.+)$")
_GATE_RE = re.compile(r"^(\w+)\s+(\S+)\s*\((.*)\)$", re.DOTALL)
_NAMED_PORT_RE = re.compile(r"\.(\w+)\s*\(\s*([^)]*?)\s*\)")


def _strip_comments(text: str) -> str:
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)


def parse_verilog(text: str, name: Optional[str] = None, top: Optional[str] = None) -> Circuit:
    """Parse restricted structural Verilog into a :class:`Circuit`.

    ``top`` selects the module to elaborate (default: the first module
    that is not the ``dff`` cell).  The ``clk`` port is recognized and
    dropped — the netlist model's clock is implicit.
    """
    text = _strip_comments(text)
    modules = {}
    for match in _MODULE_RE.finditer(text):
        mod_name = match.group(1)
        end = text.find("endmodule", match.end())
        if end < 0:
            raise VerilogError(f"module {mod_name}: missing endmodule")
        modules[mod_name] = text[match.end():end]
    if not modules:
        raise VerilogError("no module found")
    if top is None:
        candidates = [m for m in modules if m != "dff"]
        if not candidates:
            raise VerilogError("only the dff cell module found")
        top = candidates[0]
    if top not in modules:
        raise VerilogError(f"module {top!r} not found (have {sorted(modules)})")
    body = modules[top]

    circuit = Circuit(name or top)
    inputs: List[str] = []
    outputs: List[str] = []

    statements = [s.strip() for s in body.split(";") if s.strip()]
    instances = []
    for statement in statements:
        statement = " ".join(statement.split())
        decl = _DECL_RE.match(statement)
        if decl:
            kind = decl.group(1).split()[0]
            names = [n.strip() for n in decl.group(2).split(",")]
            for signal in names:
                if "[" in signal:
                    raise VerilogError(f"vector signals unsupported: {signal!r}")
                if kind == "input":
                    if signal != "clk":
                        inputs.append(signal)
                elif kind == "output":
                    outputs.append(signal)
            continue
        instances.append(statement)

    for signal in inputs:
        circuit.add_input(signal)

    for statement in instances:
        gate = _GATE_RE.match(statement)
        if not gate:
            if statement.startswith("always") or statement.startswith("assign"):
                raise VerilogError(
                    f"behavioural construct unsupported in netlist reader: "
                    f"{statement[:40]!r}"
                )
            raise VerilogError(f"unparseable statement: {statement[:60]!r}")
        cell, _instance, ports_text = gate.groups()
        cell = cell.lower()
        named = _NAMED_PORT_RE.findall(ports_text)
        if named:
            port_map = {k.lower(): v for k, v in named}
            ports = None
        else:
            ports = [p.strip() for p in ports_text.split(",") if p.strip()]
            port_map = None
        if cell == "dff":
            if port_map is not None:
                q, d = port_map.get("q"), port_map.get("d")
            else:
                q, d = ports[0], ports[1]
            if not q or not d:
                raise VerilogError(f"dff instance missing q/d: {statement[:60]!r}")
            circuit.add_dff(q, d)
        elif cell in _PRIMITIVE_OF:
            if port_map is not None:
                raise VerilogError(
                    f"primitive gates use positional ports: {statement[:60]!r}"
                )
            out, fanins = ports[0], ports[1:]
            if not fanins:
                raise VerilogError(f"gate with no inputs: {statement[:60]!r}")
            circuit.add_gate(out, _PRIMITIVE_OF[cell], fanins)
        else:
            raise VerilogError(f"unsupported cell {cell!r}")

    for signal in outputs:
        circuit.mark_output(signal)
    return circuit.finalize()


def load_verilog(path: Union[str, Path], top: Optional[str] = None) -> Circuit:
    """Read restricted structural Verilog from a file."""
    path = Path(path)
    return parse_verilog(path.read_text(), name=path.stem, top=top)
