"""Codegen simulation kernels: each circuit compiled to straight-line Python.

The reference interpreter in :mod:`repro.sim.compile` pays per-gate
dispatch on every pass: tuple unpacking, opcode branching and an inner
fanin loop per gate per frame.  PROOFS and the compiled-simulation line
of work it builds on (see PAPERS.md) get their speed from translating
the levelized netlist into straight-line code evaluated without any
dispatch.  This module does the same for the bit-plane programs of
:class:`~repro.sim.compile.CompiledCircuit`: one generated function per
circuit, with fanin loops unrolled, the ``invert`` flag folded into the
expressions, and node planes register-allocated into Python locals and
spilled back into the ``v1``/``v0`` lists with a single bulk list
assignment per plane.

The function is *parameterized*: it reads per-run ``out_force`` /
``pin_force`` words from one dense per-node table, so it serves every
injection signature — fault samples never trigger a recompile, and an
empty table is the good-machine pass.  Each gate's expressions are
written twice.  An unforced gate pays one table load and one branch on
top of its straight-line expressions.  A forced gate copies its fanins
into operand temporaries, applies its pin forces to them and its
output force to the result, replicating the interpreter's forced
branch bit for bit.  In a wide pass nearly every gate is forced (at
commit width, all but 34 of s1423's 758 gates), so the forced path
applies each force with positive complement words that
:func:`make_force_tables` computes once per injection against the
injection's mask: ``(e | f1) & n0`` and ``(e & n1) | f0``, never a
``~f``, which CPython would rebuild as a negative bigint on every use.

The generated kernel is **bit-identical** to the interpreter under the
bit-plane contract (``v1[i] & v0[i] == 0``, both planes and every force
word subsets of ``mask``, and each injection used only for passes over
the mask it was built for — what every caller in this repo maintains):
the algebraic liberties taken are dropping ``mask &`` where the
operands are already subsets of ``mask``, and ``mask ^ f`` for ``~f``,
which agree inside ``mask``.

The kernel is built once per circuit per process and held in a small
keyed cache (every population pass shares the one generated function);
building is metered with the ``codegen.compile.seconds`` /
``codegen.kernels.built`` counters.  Any failure to generate, compile
or ``exec`` it falls back to the interpreter automatically
(``codegen.fallbacks``), so ``codegen`` is a safe default everywhere.

Backend selection: :func:`resolve_kernel_name` resolves an explicit
``"interp"``/``"codegen"`` request, else the ``REPRO_SIM_KERNEL``
environment variable, else :data:`DEFAULT_KERNEL` (``"codegen"``).
See docs/KERNELS.md for the kernel-author contract, and
docs/ARCHITECTURE.md ("Simulation kernels") / docs/PERFORMANCE.md for
the measured speedups.
"""

from __future__ import annotations

import os
import time
import warnings
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from .compile import (
    OP_AND,
    OP_COPY,
    OP_OR,
    OP_XOR,
    CompiledCircuit,
    eval_program_injected,
)

#: The default kernel backend (overridable via ``REPRO_SIM_KERNEL``).
DEFAULT_KERNEL = "codegen"

#: Recognized backend names.
KERNEL_NAMES = ("interp", "codegen")

#: Environment variable consulted when no explicit backend is requested.
KERNEL_ENV = "REPRO_SIM_KERNEL"


def resolve_kernel_name(name: Optional[str] = None) -> str:
    """Resolve a kernel request to a concrete backend name.

    Order: explicit ``name`` > ``REPRO_SIM_KERNEL`` environment variable
    > :data:`DEFAULT_KERNEL`.  ``None``/``""``/``"auto"`` mean "no
    explicit request".  Unknown names raise ``ValueError``.
    """
    if name in KERNEL_NAMES:
        return name  # type: ignore[return-value]
    if name not in (None, "", "auto"):
        raise ValueError(
            f"unknown simulation kernel {name!r}; choose one of {KERNEL_NAMES}"
        )
    env = os.environ.get(KERNEL_ENV, "").strip()
    if env in KERNEL_NAMES:
        return env
    if env:
        raise ValueError(
            f"unknown simulation kernel {env!r} in ${KERNEL_ENV}; "
            f"choose one of {KERNEL_NAMES}"
        )
    return DEFAULT_KERNEL


class SimKernel:
    """One circuit's evaluation backend: two bound callables.

    * ``make_injection(out_force, pin_force, mask)`` — prepare one
      injection's force tables in whatever form ``eval_injection``
      wants.  ``mask`` is the word of the passes the injection serves,
      and every force word must lie inside it (the codegen tables hold
      complements against it; the interpreter ignores it).  The
      population pass builds one per layout (once per frame for the
      transition model), outside the kernel call; the transition model
      builds an empty one once, for its good pass over any mask.
    * ``eval_injection(v1, v0, mask, injection)`` — the pass; same
      contract as :func:`~repro.sim.compile.eval_program_injected` with
      the program bound and the force dicts pre-digested, non-contiguous
      ``mask`` words included.

    The frame loop itself lives in the simulator
    (:meth:`~repro.faults.simulator.FaultSimulator._run_frames`).
    ``name`` is the backend actually running (after any fallback);
    ``requested`` is what the caller asked for.
    """

    __slots__ = ("name", "requested", "make_injection", "eval_injection")

    def __init__(
        self,
        name: str,
        requested: str,
        make_injection: Callable[[Dict, Dict, int], object],
        eval_injection: Callable[[List[int], List[int], int, object], None],
    ) -> None:
        self.name = name
        self.requested = requested
        self.make_injection = make_injection
        self.eval_injection = eval_injection

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimKernel(name={self.name!r}, requested={self.requested!r})"


# ----------------------------------------------------------------------
# Source generation
# ----------------------------------------------------------------------


def _gate_exprs(opcode: int, ones: List[str], zeros: List[str]) -> Tuple[List[str], str, str]:
    """Pre-invert (v1, v0) expressions for one gate over named locals.

    ``ones``/``zeros`` are the per-fanin 1-plane/0-plane local names.
    Returns ``(setup_lines, expr1, expr0)``; ``setup_lines`` holds the
    pairwise-fold temporaries a multi-input XOR needs (its plane
    expressions reference each other, so nesting would duplicate
    subexpressions exponentially).
    """
    if opcode == OP_AND:
        return [], " & ".join(ones), " | ".join(zeros)
    if opcode == OP_OR:
        return [], " | ".join(ones), " & ".join(zeros)
    if opcode == OP_COPY:
        return [], ones[0], zeros[0]
    # OP_XOR: fold pairwise exactly like the interpreter.
    x1, x0 = ones[0], zeros[0]
    setup: List[str] = []
    for y1, y0 in zip(ones[1:-1], zeros[1:-1]):
        setup.append(
            f"_t1, _t0 = ({x1} & {y0}) | ({x0} & {y1}), "
            f"({x1} & {y1}) | ({x0} & {y0})"
        )
        x1, x0 = "_t1", "_t0"
    y1, y0 = ones[-1], zeros[-1]
    return (
        setup,
        f"({x1} & {y0}) | ({x0} & {y1})",
        f"({x1} & {y1}) | ({x0} & {y0})",
    )


def generate_source(compiled: CompiledCircuit) -> str:
    """Generate the straight-line kernel source for one circuit.

    The function is ``_kernel_injected(v1, v0, M, _FX)`` where ``_FX``
    is one dense per-node table: ``None`` for an unforced gate, else the
    ``(pins, f1, n0, f0, n1)`` row built by :func:`make_force_tables`.
    Each gate's expressions are written twice.  The unforced pair reads
    the fanin locals directly, behind the one ``_FX`` probe.  The forced
    pair reads operand temporaries ``_i{k}``/``_j{k}`` copied from the
    fanins: each forced pin overwrites its own pair, and then the output
    force step runs.  Every force is applied with the row's positive
    complement words, ``(e | f1) & n0`` and ``(e & n1) | f0``, so no
    generated expression takes a ``~``.
    """
    n = compiled.num_nodes
    written = {instr[0] for instr in compiled.program}
    lines: List[str] = ["def _kernel_injected(v1, v0, M, _FX):"]
    # Register allocation: load every node the program does not write
    # (primary inputs, flip-flop outputs, isolated nodes) into locals so
    # the final spill can rebuild both planes in full.
    for i in range(n):
        if i not in written:
            lines.append(f"    a{i} = v1[{i}]; b{i} = v0[{i}]")
    for out, opcode, invert, fanins in compiled.program:
        pins = range(len(fanins))
        setup, e1, e0 = _gate_exprs(
            opcode, [f"a{f}" for f in fanins], [f"b{f}" for f in fanins]
        )
        fsetup, fe1, fe0 = _gate_exprs(
            opcode, [f"_i{k}" for k in pins], [f"_j{k}" for k in pins]
        )
        if invert:
            e1, e0 = e0, e1
            fe1, fe0 = fe0, fe1
        lines.append(f"    if (_e := _FX[{out}]) is None:")
        lines.extend(f"        {stmt}" for stmt in setup)
        lines.append(f"        a{out} = {e1}")
        lines.append(f"        b{out} = {e0}")
        lines.append("    else:")
        lines.append("        _p, _f1, _n0, _f0, _n1 = _e")
        lines.append("        " + "; ".join(
            f"_i{k} = a{f}; _j{k} = b{f}" for k, f in enumerate(fanins)
        ))
        lines.append("        if _p is not None:")
        for k in pins:
            lines.append(f"            if (_q := _p[{k}]) is not None:")
            lines.append(
                f"                _q1, _m0, _q0, _m1 = _q; "
                f"_i{k} = (_i{k} | _q1) & _m0; _j{k} = (_j{k} & _m1) | _q0"
            )
        lines.extend(f"        {stmt}" for stmt in fsetup)
        lines.append(f"        a{out} = (({fe1}) | _f1) & _n0")
        lines.append(f"        b{out} = (({fe0}) & _n1) | _f0")
    spill1 = ", ".join(f"a{i}" for i in range(n))
    spill0 = ", ".join(f"b{i}" for i in range(n))
    lines.append(f"    v1[:] = [{spill1}]")
    lines.append(f"    v0[:] = [{spill0}]")
    lines.append("")
    return "\n".join(lines)


def make_force_tables(
    num_nodes: int,
    out_force: Dict,
    pin_force: Dict,
    mask: int,
    arity: Optional[Dict[int, int]] = None,
) -> List:
    """Digest the interpreter's force dicts into one dense per-node table.

    Each force pair ``(f1, f0)`` is stored with its positive complements
    against ``mask``, computed here once per injection.  A forced node's
    row is ``(pins, f1, mask ^ f0, f0, mask ^ f1)``: ``pins`` is a
    per-fanin list of ``None`` / ``(q1, mask ^ q0, q0, mask ^ q1)``
    entries (``None`` in the row when only the output is forced, so the
    generated kernel skips the per-pin probes), and a row with pin forces
    only carries the identity output words ``(0, mask, 0, mask)``.
    Unforced nodes hold ``None``.  ``arity`` maps gate node id to fanin
    count (sizes the pin lists so the kernel can index them directly).

    The complements equal ``~f`` only inside ``mask``: force words must
    lie inside it, and the table serves passes over that mask alone.
    """
    fx: List = [None] * num_nodes
    for node, (f1, f0) in out_force.items():
        fx[node] = (None, f1, mask ^ f0, f0, mask ^ f1)
    for node, entries in pin_force.items():
        width = arity.get(node) if arity is not None else None
        if width is None:
            width = max(pin for pin, _q1, _q0 in entries) + 1
        pins: List = [None] * width
        for pin, q1, q0 in entries:
            pins[pin] = (q1, mask ^ q0, q0, mask ^ q1)
        prev = fx[node]
        if prev is None:
            fx[node] = (pins, 0, mask, 0, mask)
        else:
            fx[node] = (pins,) + prev[1:]
    return fx


# ----------------------------------------------------------------------
# Build + cache
# ----------------------------------------------------------------------

#: Kernel cache: ``id(compiled) -> (weakref, kernel, source)``.  Keyed
#: by identity (``CompiledCircuit`` holds an unhashable ``Circuit``) and
#: validated against the weakref so a recycled id can never alias; the
#: weakref callback evicts entries when a circuit is collected.
_CACHE: Dict[int, Tuple["weakref.ref", Callable, str]] = {}


def clear_kernel_cache() -> None:
    """Drop every cached generated kernel (tests / memory pressure)."""
    _CACHE.clear()


def _build_kernel(compiled: CompiledCircuit, collector) -> Tuple[Callable, str]:
    """Generate, compile and ``exec`` one circuit's kernel function."""
    t0 = time.perf_counter()
    label = compiled.circuit.name or "circuit"
    namespace: Dict[str, object] = {}
    source = generate_source(compiled)
    exec(compile(source, f"<codegen:{label}>", "exec"), namespace)
    if collector.enabled:
        collector.inc("codegen.compile.seconds", time.perf_counter() - t0)
        collector.inc("codegen.kernels.built")
    return namespace["_kernel_injected"], source  # type: ignore[return-value]


def _kernel_for(compiled: CompiledCircuit, collector) -> Tuple[Callable, str]:
    """The cached generated kernel and its source for one circuit."""
    key = id(compiled)
    entry = _CACHE.get(key)
    if entry is not None and entry[0]() is compiled:
        return entry[1], entry[2]
    fn, source = _build_kernel(compiled, collector)
    ref = weakref.ref(compiled, lambda _r, _k=key: _CACHE.pop(_k, None))
    _CACHE[key] = (ref, fn, source)
    return fn, source


def _interp_kernel(compiled: CompiledCircuit, requested: str) -> SimKernel:
    """The reference interpreter wrapped in the kernel interface."""
    program = compiled.program

    def make_injection(out_force: Dict, pin_force: Dict, mask: int):
        return (out_force, pin_force)

    def eval_injection(v1, v0, mask, injection):
        out_force, pin_force = injection
        eval_program_injected(program, v1, v0, mask, out_force, pin_force)

    return SimKernel(
        name="interp",
        requested=requested,
        make_injection=make_injection,
        eval_injection=eval_injection,
    )


def _fallback_kernel(
    compiled: CompiledCircuit, requested: str, exc: Exception, collector
) -> SimKernel:
    """Warn (naming the requested backend and the exception class), count
    ``<requested>.fallbacks``, and return the interpreter kernel."""
    if collector.enabled:
        collector.inc(f"{requested}.fallbacks")
    warnings.warn(
        f"{requested} kernel build failed for "
        f"{compiled.circuit.name or 'circuit'!r} "
        f"({type(exc).__name__}: {exc}); falling back to the interpreter",
        RuntimeWarning,
        stacklevel=3,
    )
    return _interp_kernel(compiled, requested)


def kernel_for(
    compiled: CompiledCircuit,
    name: Optional[str] = None,
    collector=None,
) -> SimKernel:
    """Resolve and build the simulation kernel for one circuit.

    ``name`` follows :func:`resolve_kernel_name`.  A ``codegen`` request
    that fails to build (pathological circuit, interpreter limit, …)
    falls back to the interpreter with a warning naming the requested
    backend and the ``<requested>.fallbacks`` counter — never an
    exception.
    """
    if collector is None:
        from ..telemetry.collector import get_collector

        collector = get_collector()
    requested = resolve_kernel_name(name)
    if requested == "interp":
        return _interp_kernel(compiled, requested)
    try:
        injected = _kernel_for(compiled, collector)[0]
    except Exception as exc:  # automatic interpreter fallback
        return _fallback_kernel(compiled, requested, exc, collector)
    num_nodes = compiled.num_nodes
    arity = {instr[0]: len(instr[3]) for instr in compiled.program}

    def make_injection(out_force: Dict, pin_force: Dict, mask: int):
        return make_force_tables(num_nodes, out_force, pin_force, mask, arity)

    return SimKernel(
        name="codegen",
        requested=requested,
        make_injection=make_injection,
        eval_injection=injected,
    )


def kernel_source(compiled: CompiledCircuit) -> str:
    """The generated source of a circuit's cached kernel (introspection/tests)."""
    from ..telemetry.collector import get_collector

    return _kernel_for(compiled, get_collector())[1]
