"""Workload time corrected for the speed of a shared host.

The benchmark runs on a shared 2-CPU virtual machine whose speed moves
by ±30% within seconds and over minutes, with other tenants' load.
Over ten seeds that drift alone spread the raw work rate of a workload
by up to 0.33 (interquartile range ÷ median).

A :class:`HostClock` therefore interleaves short *calibration slices*
with the workload: a fixed piece of pure-Python work of the same kind
as the program's (straight-line big-integer gate evaluation, as the
code-generated kernels do, and list shuffling, as the GA operators
do).  It uses no code of the program, so a change to the program never
changes a slice.  The workload's time is cut into *segments* between
calls of :meth:`HostClock.lap`; each segment is scaled by how long the
slices around it took compared with :data:`REFERENCE_SLICE_S`:

    reference seconds = segment seconds × REFERENCE_SLICE_S / local slice seconds

where the local slice time is the median of the slice before the
segment, the one before that and the one after it.  A workload's rate
per reference second is then its rate on a host whose slice takes
:data:`REFERENCE_SLICE_S`.  Slices run at most every
:data:`SLICE_EVERY_S` seconds, at operation boundaries only, and never
inside a measured segment.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from contextlib import nullcontext
from typing import Callable, List, Optional, Tuple

#: About the median time of one calibration slice in a GA workload on
#: the 2-CPU host the benchmark was built on, so that reference seconds
#: are close to that host's seconds.  Only ratios to it matter.
REFERENCE_SLICE_S = 0.003
#: Least workload time between two slices; a slice takes about 1/60 of it.
SLICE_EVERY_S = 0.25

_INPUTS = 32
_GATES = 400
_WORD_BITS = 1024
_WORDS = 48
_POPULATION = 32
_GENES = 64


def _gate_function() -> Callable:
    """A fixed random netlist as one straight-line Python function of
    big-integer words, the shape of the program's generated kernels."""
    rng = random.Random(7)
    names = [f"v[{i}]" for i in range(_INPUTS)]
    lines = ["def evaluate(v, mask):"]
    for gate in range(_GATES):
        a, b = rng.sample(names[-60:], 2)
        op = rng.choice(["&", "|", "^", "nand"])
        if op == "nand":
            lines.append(f"    g{gate} = ~({a} & {b}) & mask")
        else:
            lines.append(f"    g{gate} = {a} {op} {b}")
        names.append(f"g{gate}")
    lines.append("    return " + " ^ ".join(names[-16:]))
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["evaluate"]


class CalibrationSlice:
    """One fixed piece of work; every call does exactly the same.
    Building one takes a few slices' time, so a process builds one."""

    def __init__(self) -> None:
        rng = random.Random(3)
        self._evaluate = _gate_function()
        self._words = [
            [rng.getrandbits(_WORD_BITS) for _ in range(_INPUTS)]
            for _ in range(_WORDS)
        ]
        self._mask = (1 << _WORD_BITS) - 1
        self()  # the first call pays for lazy set-up

    def __call__(self) -> int:
        out = 0
        for word in self._words:
            out ^= self._evaluate(word, self._mask)
        rng = random.Random(5)
        population = [
            [rng.getrandbits(1) for _ in range(_GENES)] for _ in range(_POPULATION)
        ]
        fitness = [sum(c) for c in population]
        for _ in range(_POPULATION):
            a, b = rng.sample(range(_POPULATION), 2)
            winner = population[a] if fitness[a] > fitness[b] else population[b]
            mate = population[rng.randrange(_POPULATION)]
            child = [x if rng.random() < 0.5 else y for x, y in zip(winner, mate)]
            out += sum(child)
        return out


class HostClock:
    """Segments of workload time and the calibration slices between them.

    ``every`` is the least time between slices (0: after every segment).
    ``span`` wraps each slice, so that a traced run attributes slices to
    their own row.
    """

    def __init__(self, work: CalibrationSlice, every: float = SLICE_EVERY_S,
                 span: Optional[Callable] = None) -> None:
        self.every = every
        self._span = span or (lambda row: nullcontext())
        self._work = work
        self.slices: List[float] = []
        #: ``(seconds, slices before its end)`` per segment.
        self.segments: List[Tuple[float, int]] = []
        self._last_slice = 0.0
        self._start = 0.0

    def calibrate(self) -> None:
        """Run one slice and record its time."""
        with self._span("bench.calibration_s"):
            enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                self._work()
                self.slices.append(time.perf_counter() - t0)
            finally:
                if enabled:
                    gc.enable()
        self._last_slice = time.perf_counter()

    def begin(self) -> None:
        """Start a segment."""
        self._start = time.perf_counter()

    def lap(self) -> float:
        """End the current segment, calibrate if a slice is due, start the
        next segment; returns the ended segment's seconds."""
        now = time.perf_counter()
        seconds = now - self._start
        self.segments.append((seconds, len(self.slices)))
        if now - self._last_slice >= self.every:
            self.calibrate()
        self._start = time.perf_counter()
        return seconds

    def raw_seconds(self) -> float:
        return sum(seconds for seconds, _ in self.segments)

    def reference_segments(self) -> List[float]:
        """Every segment in reference seconds."""
        if not self.slices:
            raise RuntimeError("no calibration slice was run")
        out = []
        for seconds, before in self.segments:
            around = self.slices[max(0, before - 2):before + 1]
            out.append(seconds * REFERENCE_SLICE_S / statistics.median(around))
        return out

    def reference_seconds(self) -> float:
        return sum(self.reference_segments())
