"""Simulation substrate: the compiled program and its kernels.

Word-parallel simulation bottoms out in one of two bit-identical
kernel backends behind :func:`kernel_for` — ``interp`` (reference
interpreter) and ``codegen`` (generated straight-line Python, the
default).  The fault simulator's population pass owns the one frame
loop around them and simulates good and faulty machines alike — see
docs/KERNELS.md.  :func:`compiled_circuit_for` is the process's one
cache of compiled circuits by name.  :func:`dump_vcd` writes a test's
fault-free waveforms.
"""

from .codegen import (
    DEFAULT_KERNEL,
    KERNEL_NAMES,
    SimKernel,
    kernel_for,
    kernel_source,
    resolve_kernel_name,
)
from .compile import (
    CompiledCircuit,
    compile_circuit,
    compiled_circuit_for,
    eval_program_injected,
)
from .logic3 import GoodState, Vector
from .vcd import dump_vcd

__all__ = [
    "CompiledCircuit",
    "DEFAULT_KERNEL",
    "GoodState",
    "KERNEL_NAMES",
    "SimKernel",
    "Vector",
    "dump_vcd",
    "compile_circuit",
    "compiled_circuit_for",
    "eval_program_injected",
    "kernel_for",
    "kernel_source",
    "resolve_kernel_name",
]
