"""Outside-in per-layer attribution for the traced benchmark run.

The traced run (``--trace 1``) wraps the public entry point of each
layer from inside the benchmark process and keeps, per layer, the *self
time* (elapsed time minus the time spent in wrapped children) and the
call count.  Self times of nested rows never double count, so the rows
plus ``unattributed_s`` add up to the traced wall time.

Totals are kept in memory per layer rather than as per-call spans: a
transition-fault workload makes about 600k kernel calls.  A target that
no longer exists is reported as absent instead of failing, so later
refactors of the program do not break the traced run.  The untraced run
never calls :func:`install`, so it patches nothing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List

#: ``(row, module, attribute path)`` of every wrapped public entry point.
#: Class methods are wrapped only where the class itself defines them,
#: so an override and its base are separate targets.
TARGETS = [
    ("circuit.resolve_s", "repro.circuit.library", "resolve_spec"),
    ("sim.compile_s", "repro.sim.compile", "compile_circuit"),
    ("sim.kernel.build_s", "repro.faults.simulator", "kernel_for"),
    ("sim.kernel.build_s", "repro.sim.logic3", "kernel_for"),
    ("faults.init_s", "repro.faults.simulator", "FaultSimulator.__init__"),
    ("faults.init_s", "repro.faults.transition", "TransitionFaultSimulator.__init__"),
    ("core.generator_s", "repro.core.generator", "GaTestGenerator.run"),
    ("ga.operators_s", "repro.ga.engine", "GeneticAlgorithm.run"),
    ("faults.batch_s", "repro.faults.simulator", "FaultSimulator.evaluate_batch"),
    ("faults.batch_s", "repro.faults.transition",
     "TransitionFaultSimulator.evaluate_batch"),
    ("faults.evaluate_s", "repro.faults.simulator", "FaultSimulator.evaluate"),
    ("faults.commit_s", "repro.faults.simulator", "FaultSimulator.commit"),
    ("sim.pattern_s", "repro.sim.logic3", "PatternSimulator.step"),
    ("parallel.evaluate_s", "repro.parallel.evaluator",
     "ParallelEvaluator.evaluate_batch"),
    ("parallel.evaluate_s", "repro.parallel.evaluator", "ParallelEvaluator.evaluate"),
    ("parallel.evaluate_s", "repro.parallel.evaluator", "ParallelEvaluator.close"),
    ("service.submit_s", "repro.service.client", "ServiceClient.submit"),
    ("service.poll_s", "repro.service.client", "ServiceClient.job"),
    ("service.wait_s", "repro.service.client", "ServiceClient.wait"),
]

#: Callables of the ``SimKernel`` that ``kernel_for`` returns, by row.
KERNEL_TARGETS = {
    "eval": "sim.kernel.good_s",
    "eval_injection": "sim.kernel.faulty_s",
    "run_group": "sim.kernel.faulty_s",
    "run_batch": "sim.kernel.faulty_s",
    "make_injection": "sim.kernel.inject_prep_s",
}

#: Rows whose per-call durations are kept for percentiles (few calls).
SAMPLED_ROWS = {"service.poll_s"}

#: Every self-time row, in report order, with the public call it times
#: and the end-to-end metric it should move.
ROWS = {
    "circuit.resolve_s": ("library.resolve_spec", "setup_s"),
    "sim.compile_s": ("compile_circuit", "setup_s"),
    "sim.kernel.build_s": ("kernel_for", "setup_s, work_per_s"),
    "faults.init_s": ("FaultSimulator.__init__ (fault list, evaluator)",
                      "setup_s"),
    "core.generator_s": ("GaTestGenerator.run", "work_per_s"),
    "ga.operators_s": ("GeneticAlgorithm.run", "work_per_s"),
    "faults.batch_s": ("FaultSimulator.evaluate_batch", "work_per_s"),
    "faults.evaluate_s": ("FaultSimulator.evaluate", "work_per_s"),
    "faults.commit_s": ("FaultSimulator.commit", "work_per_s"),
    "sim.pattern_s": ("PatternSimulator.step", "work_per_s"),
    "sim.kernel.good_s": ("SimKernel.eval", "work_per_s"),
    "sim.kernel.faulty_s": ("SimKernel.eval_injection/run_group/run_batch",
                            "work_per_s"),
    "sim.kernel.inject_prep_s": ("SimKernel.make_injection", "work_per_s"),
    "parallel.evaluate_s": ("ParallelEvaluator.evaluate_batch/evaluate/close",
                            "work_per_s"),
    "service.spawn_s": ("gatest serve start and stop", "setup_s"),
    "service.submit_s": ("ServiceClient.submit", "work_per_s"),
    "service.poll_s": ("ServiceClient.job", "work_per_s"),
    "service.wait_s": ("ServiceClient.wait (sleeping between polls)",
                       "work_per_s"),
    "bench.calibration_s": ("HostClock calibration slices (benchmark code)",
                            "nothing: excluded from every metric"),
}


class LayerTracer:
    """Per-layer self time and call counts of one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.absent: List[str] = []
        # Child time of every open frame; the bottom entry collects the
        # time spent in top-level wrapped calls.
        self._stack: List[float] = [0.0]
        self._undo: List[tuple] = []
        self.started = time.perf_counter()
        #: Set by :meth:`freeze`: traced wall time, self time and calls.
        self.wall_s = 0.0
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, row: str, t0: float, keep: bool) -> None:
        elapsed = time.perf_counter() - t0
        child = self._stack.pop()
        self._stack[-1] += elapsed
        self.self_s[row] += elapsed - child
        self.calls[row] += 1
        if keep:
            self.samples[row].append(elapsed)

    def wrap(self, row: str, fn: Callable) -> Callable:
        """``fn`` timed under ``row`` (idempotent)."""
        if getattr(fn, "_bench_row", None) is not None:
            return fn
        keep = row in SAMPLED_ROWS

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(row, t0, keep)

        timed._bench_row = row
        return timed

    @contextmanager
    def span(self, row: str):
        """Time a block of benchmark code under ``row``."""
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(row, t0, False)

    def _instrument_kernel(self, kernel):
        for attr, row in KERNEL_TARGETS.items():
            fn = getattr(kernel, attr, None)
            if fn is not None:
                setattr(kernel, attr, self.wrap(row, fn))
        return kernel

    def _kernel_factory(self, row: str, kernel_for: Callable) -> Callable:
        timed = self.wrap(row, kernel_for)

        @functools.wraps(kernel_for)
        def build(*args, **kwargs):
            return self._instrument_kernel(timed(*args, **kwargs))

        build._bench_row = row
        return build

    def patch(self, row: str, module: str, path: str) -> None:
        """Wrap ``module.path``; record the row as absent if it is gone."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.absent.append(f"{row}: {module}")
            return
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        fn = (
            vars(owner).get(attr) if isinstance(owner, type)
            else getattr(owner, attr, None)
        )
        if fn is None:
            self.absent.append(f"{row}: {module}.{path}")
            return
        if attr == "kernel_for":
            wrapped = self._kernel_factory(row, fn)
        else:
            wrapped = self.wrap(row, fn)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, fn))

    def freeze(self) -> None:
        """End the traced interval: undo the patches and fix the totals,
        so work done afterwards (the correctness checks) is not counted."""
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
        self.wall_s = time.perf_counter() - self.started
        self.totals = dict(self.self_s)
        self.counts = dict(self.calls)


def install() -> LayerTracer:
    """A tracer with every target in :data:`TARGETS` wrapped."""
    tracer = LayerTracer()
    for row, module, path in TARGETS:
        tracer.patch(row, module, path)
    return tracer
