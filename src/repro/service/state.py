"""Warm-state registry: compiled circuits and resident fault simulators.

The whole point of running ATPG as a resident service instead of a
fresh ``gatest`` process per request is that the expensive, run-invariant
work — parsing/synthesizing the circuit, levelizing and compiling it,
building the simulation kernel (:func:`repro.sim.codegen.kernel_for`),
and spinning up ``eval_jobs`` worker pools — happens once and is reused
by every later job that asks for the same thing.  This module is that
reuse: a keyed, LRU-evicting registry of

* **compiled circuits**, keyed by :data:`CircuitKey`, the canonical
  ``(spec, scale, seed)`` of :func:`repro.circuit.library.canonical_spec`
  that :func:`~repro.service.jobs.parse_job` puts on every job, so jobs
  naming one circuit in any spelling share one
  :class:`CompiledCircuit` object.  Kernels are cached per
  compiled-circuit *object* inside :mod:`repro.sim.codegen`, so keeping
  the object resident is what makes repeat requests skip kernel
  compilation (the ``codegen.kernels.built`` counter stays flat).
* **fault simulators**, keyed by the circuit key plus every
  config field that shapes the simulator (fault model, kernel, eval
  parallelism — the same fields
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
simulator lands in the key, so it can only miss, never alias (see
docs/ROBUSTNESS.md §5).

Counters (on the registry's collector, surfaced via ``GET /healthz``):
``service.cache.hits``, ``service.cache.misses``,
``service.cache.evictions``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from ..circuit.library import resolve_spec
from ..core.config import TestGenConfig
from ..core.generator import make_fault_simulator
from ..parallel.shutdown import close_quietly
from ..sim.compile import CompiledCircuit, compile_circuit
from ..telemetry import NullCollector, get_collector

#: Default maximum number of resident simulators (compiled circuits
#: follow the same bound).
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
    """Thread-safe LRU cache of compiled circuits and leased simulators."""

    def __init__(
        self,
        collector: Optional[NullCollector] = None,
        max_sims: Optional[int] = None,
    ) -> None:
        self.collector = collector if collector is not None else get_collector()
        self.max_sims = max_sims if max_sims is not None else DEFAULT_CACHE_SIZE
        self._lock = threading.Lock()
        self._circuits: "OrderedDict[CircuitKey, CompiledCircuit]" = OrderedDict()
        self._sims: "OrderedDict[tuple, object]" = OrderedDict()

    # ------------------------------------------------------------------
    # Compiled circuits
    # ------------------------------------------------------------------

    def compiled(self, ckey: CircuitKey) -> CompiledCircuit:
        """The compiled circuit for ``ckey``, parsing/compiling on miss.

        Raises :class:`ValueError` for an unresolvable spec (the HTTP
        layer maps that to a 400).
        """
        with self._lock:
            cached = self._circuits.get(ckey)
            if cached is not None:
                self._circuits.move_to_end(ckey)
                return cached
        # Resolve outside the lock: synthesis/compilation can be slow.
        compiled = compile_circuit(resolve_spec(*ckey))
        with self._lock:
            # A racing thread may have resolved the same key; keep the
            # first object so kernel caches (keyed by object identity)
            # converge on one CompiledCircuit per key.
            existing = self._circuits.get(ckey)
            if existing is not None:
                return existing
            self._circuits[ckey] = compiled
            while len(self._circuits) > self.max_sims:
                self._circuits.popitem(last=False)
            return compiled

    # ------------------------------------------------------------------
    # Resident simulators
    # ------------------------------------------------------------------

    def lease(self, ckey: CircuitKey, config: TestGenConfig):
        """Lease a simulator for ``(ckey, config)``, building on miss.

        The returned simulator is at power-up state and exclusively
        owned by the caller until :meth:`release` (or :meth:`discard`).
        Simulator-side telemetry (kernel builds, simulated frames,
        cache traffic) lands on the registry's collector, which owns
        the simulator's lifetime; per-job collectors only see
        generator-side records.
        """
        skey = sim_key(ckey, config)
        with self._lock:
            sim = self._sims.pop(skey, None)
        if sim is not None:
            if self.collector.enabled:
                self.collector.inc("service.cache.hits")
            return sim
        if self.collector.enabled:
            self.collector.inc("service.cache.misses")
        compiled = self.compiled(ckey)
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

    # ------------------------------------------------------------------
    # Introspection / teardown
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Resident-entry counts for ``GET /healthz``."""
        with self._lock:
            return {
                "circuits": len(self._circuits),
                "sims": len(self._sims),
                "capacity": self.max_sims,
            }

    def close(self) -> None:
        """Close every resident simulator (service shutdown)."""
        with self._lock:
            sims = list(self._sims.values())
            self._sims.clear()
            self._circuits.clear()
        for sim in sims:
            close_quietly(sim)
