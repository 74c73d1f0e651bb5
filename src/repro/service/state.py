"""Warm-state registry: resident fault simulators.

The whole point of running ATPG as a resident service instead of a
fresh ``gatest`` process per request is that the expensive, run-invariant
work — parsing/synthesizing the circuit, levelizing and compiling it,
building the simulation kernel (:func:`repro.sim.codegen.kernel_for`),
and spinning up ``eval_jobs`` worker pools — happens once and is reused
by every later job that asks for the same thing.  Circuits come from
the process's one compiled-circuit cache,
:func:`repro.sim.compile.compiled_circuit_for`, keyed by the
:data:`CircuitKey` that :func:`~repro.service.jobs.parse_job` puts on
every job; kernels are cached per compiled-circuit *object*, so a
resident object is what lets repeat requests skip kernel compilation
(the ``codegen.kernels.built`` counter stays flat).  This module keeps
the rest: a keyed, LRU-evicting registry of **fault simulators**, keyed
by the circuit key plus every config field that shapes the simulator
(fault model, kernel, eval parallelism — the same fields
:func:`repro.core.generator.make_fault_simulator` consumes).  A
resident simulator keeps its parallel evaluator's worker pool warm
across jobs.

Simulators are handed out under a **lease**: :meth:`WarmRegistry.lease`
removes the entry from the registry (exclusive use — two jobs never
share one mutable simulator), and :meth:`WarmRegistry.release` resets
it to power-up state and puts it back.  A concurrent job that misses
because the entry is out on lease simply builds its own; whichever
returns last wins the registry slot, the other is closed.  Stale-cache
bugs are prevented structurally: any config change that would alter the
simulator lands in the key, so it can only miss, never alias, and a
simulator is leased only while it simulates the compiled object its
name reaches now — after a ``.bench`` file changes, the old one is
closed instead (see docs/ROBUSTNESS.md §5).

Counters (on the registry's collector, surfaced via ``GET /healthz``):
``service.cache.hits``, ``service.cache.misses``,
``service.cache.evictions``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from ..core.config import TestGenConfig
from ..core.generator import make_fault_simulator
from ..parallel.shutdown import close_quietly
from ..sim.compile import cached_circuit_count, compiled_circuit_for
from ..telemetry import NullCollector, get_collector

#: Default maximum number of resident simulators.
DEFAULT_CACHE_SIZE = 8

#: (spec, scale, seed) as :func:`repro.circuit.library.canonical_spec`
#: spells it: one key for every spelling of one circuit (``s298@0.3``,
#: or ``s298`` at scale 0.3).  ``seed`` is the synthesis seed: an
#: ``fsim`` job's ``seed`` field, and 0 for every run job, whose GA seed
#: never chooses the circuit.  A ``.bench`` path or builtin name keys at
#: scale 1.0 and seed 0, so a seed-7 ``fsim`` job on ``s27`` warm-hits
#: the simulator a seed-1 job left behind.
CircuitKey = Tuple[str, float, int]


def sim_key(ckey: CircuitKey, config: TestGenConfig) -> tuple:
    """The registry key for one resident simulator.

    Covers every :class:`TestGenConfig` field that
    :func:`~repro.core.generator.make_fault_simulator` reads — a config
    change that would produce a different simulator produces a
    different key, so a warm entry can never be served stale.
    """
    return (
        ckey,
        config.fault_model,
        config.sim_kernel,
        config.eval_jobs,
    )


class WarmRegistry:
    """Thread-safe LRU cache of leased simulators."""

    def __init__(
        self,
        collector: Optional[NullCollector] = None,
        max_sims: Optional[int] = None,
    ) -> None:
        self.collector = collector if collector is not None else get_collector()
        self.max_sims = max_sims if max_sims is not None else DEFAULT_CACHE_SIZE
        self._lock = threading.Lock()
        self._sims: "OrderedDict[tuple, object]" = OrderedDict()

    def lease(self, ckey: CircuitKey, config: TestGenConfig):
        """Lease a simulator for ``(ckey, config)``, building on miss.

        The returned simulator is at power-up state, simulates the
        circuit ``ckey`` reaches now, and is exclusively owned by the
        caller until :meth:`release` (or :meth:`discard`).  Raises
        :class:`ValueError` for a circuit that does not resolve.
        Simulator-side telemetry (kernel builds, simulated frames,
        cache traffic) lands on the registry's collector, which owns
        the simulator's lifetime; per-job collectors only see
        generator-side records.
        """
        compiled = compiled_circuit_for(*ckey)
        skey = sim_key(ckey, config)
        with self._lock:
            sim = self._sims.pop(skey, None)
        if sim is not None and sim.compiled is compiled:
            if self.collector.enabled:
                self.collector.inc("service.cache.hits")
            return sim
        if sim is not None:
            # Built on a netlist the name no longer reaches.
            close_quietly(sim)
        if self.collector.enabled:
            self.collector.inc("service.cache.misses")
        return make_fault_simulator(compiled, config, collector=self.collector)

    def release(self, ckey: CircuitKey, config: TestGenConfig, sim) -> None:
        """Return a leased simulator to the registry, reset to power-up.

        If the slot was refilled by a racing job (or capacity forces an
        eviction), the loser is closed — worker pools never leak.
        """
        skey = sim_key(ckey, config)
        try:
            sim.reset()
        except Exception:
            # A simulator that cannot reset is not safe to reuse.
            close_quietly(sim)
            return
        evicted = []
        with self._lock:
            if skey in self._sims:
                evicted.append(sim)  # racing release won the slot
            else:
                self._sims[skey] = sim
                self._sims.move_to_end(skey)
            while len(self._sims) > self.max_sims:
                _, old = self._sims.popitem(last=False)
                evicted.append(old)
        for old in evicted:
            if self.collector.enabled:
                self.collector.inc("service.cache.evictions")
            close_quietly(old)

    def discard(self, sim) -> None:
        """Close a leased simulator instead of returning it (failed job)."""
        close_quietly(sim)

    def stats(self) -> dict:
        """Resident-entry counts for ``GET /healthz``: the process's
        compiled circuits, and this registry's simulators and capacity."""
        with self._lock:
            sims = len(self._sims)
        return {
            "circuits": cached_circuit_count(),
            "sims": sims,
            "capacity": self.max_sims,
        }

    def close(self) -> None:
        """Close every resident simulator (service shutdown)."""
        with self._lock:
            sims = list(self._sims.values())
            self._sims.clear()
        for sim in sims:
            close_quietly(sim)
