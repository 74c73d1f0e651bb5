"""Simulation substrate: compiled word-parallel and event-driven simulators.

Word-parallel simulation bottoms out in one of two bit-identical
kernel backends behind :func:`kernel_for` — ``interp`` (reference
interpreter) and ``codegen`` (generated straight-line Python, the
default); the fault simulator's population pass owns the frame loop
around them — see docs/KERNELS.md.
"""

from .codegen import (
    DEFAULT_KERNEL,
    KERNEL_NAMES,
    SimKernel,
    kernel_for,
    kernel_source,
    resolve_kernel_name,
)
from .compile import CompiledCircuit, compile_circuit, eval_program, eval_program_injected
from .events import EventFrameResult, EventSimulator
from .logic3 import FrameStats, GoodState, PatternSimulator, SerialSimulator, Vector
from .vcd import dump_vcd

__all__ = [
    "CompiledCircuit",
    "DEFAULT_KERNEL",
    "EventFrameResult",
    "EventSimulator",
    "FrameStats",
    "GoodState",
    "KERNEL_NAMES",
    "PatternSimulator",
    "SerialSimulator",
    "SimKernel",
    "Vector",
    "dump_vcd",
    "compile_circuit",
    "eval_program",
    "eval_program_injected",
    "kernel_for",
    "kernel_source",
    "resolve_kernel_name",
]
