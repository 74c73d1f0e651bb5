"""Telemetry collectors: the no-op default and the recording collector.

Two implementations share one interface:

* :class:`NullCollector` — the default everywhere.  Every method is a
  cheap no-op so instrumented hot paths cost a single attribute access
  and branch (``if collector.enabled:``) when telemetry is off; the
  throughput guard in ``tests/test_telemetry.py`` pins this.
* :class:`TelemetryCollector` — records spans, counters, gauges, GA
  generation statistics and StageEvent-aligned stage records, and dumps
  them as a schema-versioned JSONL trace (see ``docs/TELEMETRY.md``).

Instrumented classes accept an explicit ``collector`` argument and fall
back to the module-level default (:func:`get_collector`), which callers
switch with :func:`install` or scope with the :func:`use` context
manager — that is how the CLI's ``--trace`` and the benchmark suite's
``REPRO_BENCH_TRACE`` hook attach one collector to a whole run without
threading it through every constructor.

Spans *always* measure elapsed time (two ``perf_counter`` calls), even
under the null collector — callers like the harness runner and the
generator read ``span.elapsed`` for their own reporting, which is
exactly how reported wall-clock and trace timings are kept from
drifting apart.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from .records import SCHEMA_VERSION, make_record


class Span:
    """One scoped timer.  Use as a context manager::

        with collector.span("generator.run", circuit="s27") as sp:
            ...
        print(sp.elapsed)

    Under a recording collector the span is pushed on the collector's
    scope stack at entry (giving children a hierarchical ``path``) and
    emitted as a ``span`` record at exit.  Under the null collector it
    only measures ``elapsed``.
    """

    __slots__ = ("name", "attrs", "elapsed", "_collector", "_start", "_t0")

    def __init__(self, collector: Optional["TelemetryCollector"], name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.elapsed = 0.0
        self._collector = collector
        self._start = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        collector = self._collector
        if collector is not None:
            self._t0 = collector.now()
            collector._stack.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._start
        collector = self._collector
        if collector is not None:
            path = "/".join(collector._stack)
            depth = len(collector._stack) - 1
            collector._stack.pop()
            collector._emit(
                make_record(
                    "span",
                    name=self.name,
                    path=path,
                    depth=depth,
                    t0=round(self._t0, 9),
                    dur=round(self.elapsed, 9),
                    **self.attrs,
                )
            )


class _NullBind:
    """Shared no-op context manager for :meth:`NullCollector.bind`."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_BIND = _NullBind()


class NullCollector:
    """Disabled telemetry: measures span time, records nothing."""

    enabled = False

    def span(self, name: str, **attrs) -> Span:
        """A timer that measures but does not record."""
        return Span(None, name, attrs)

    def bind(self, **attrs) -> _NullBind:
        """No-op context scope."""
        return _NULL_BIND

    def inc(self, name: str, value: float = 1) -> None:
        """No-op counter increment."""

    def gauge(self, name: str, value: float) -> None:
        """No-op gauge sample."""

    def generation(self, **fields) -> None:
        """No-op GA generation record."""

    def stage(self, **fields) -> None:
        """No-op stage record."""

    def merge_worker_trace(self, scope: Optional[str], records: List[dict]) -> None:
        """No-op merge of a worker process's shipped-back trace."""

    def records(self) -> List[dict]:
        """The null collector holds no records."""
        return []

    def dump(self, path) -> int:
        """Nothing to write; returns 0 without touching ``path``."""
        return 0


#: The process-wide disabled collector (also the initial default).
NULL = NullCollector()

_default: NullCollector = NULL


def get_collector() -> NullCollector:
    """The current default collector (``NULL`` unless installed)."""
    return _default


def install(collector: NullCollector) -> NullCollector:
    """Replace the default collector; returns the previous one."""
    global _default
    previous = _default
    _default = collector
    return previous


@contextmanager
def use(collector: NullCollector) -> Iterator[NullCollector]:
    """Scope ``collector`` as the default for a ``with`` block."""
    previous = install(collector)
    try:
        yield collector
    finally:
        install(previous)


class TelemetryCollector(NullCollector):
    """Recording collector: spans, counters, gauges, generations, stages.

    All timestamps (``t``, ``t0``) are seconds relative to collector
    construction.  Counters and gauges aggregate in memory and are
    appended to the trace as final ``counter`` / last-value records only
    at :meth:`records` / :meth:`dump` time; everything else is emitted
    live in chronological order after the leading ``meta`` record.
    Counter increments are atomic, so threads may share a collector's
    counters (the job service's collector is shared by its job threads).
    """

    enabled = True

    def __init__(self, source: str = "repro.telemetry") -> None:
        self._origin = time.perf_counter()
        self._events: List[dict] = []
        self._counters: Dict[str, float] = {}
        self._counters_lock = threading.Lock()
        self._gauges: Dict[str, float] = {}
        self._stack: List[str] = []
        self._ctx: Dict[str, object] = {}
        self._meta = make_record("meta", schema=SCHEMA_VERSION, source=source)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def now(self) -> float:
        """Seconds since collector construction."""
        return time.perf_counter() - self._origin

    def _emit(self, record: dict) -> None:
        self._events.append(record)

    def span(self, name: str, **attrs) -> Span:
        """A recording scoped timer (hierarchical path from nesting)."""
        return Span(self, name, attrs)

    @contextmanager
    def bind(self, **attrs) -> Iterator[None]:
        """Attach context attributes to generation/stage records emitted
        inside the ``with`` block (nested binds stack and restore)."""
        saved = self._ctx
        self._ctx = {**saved, **attrs}
        try:
            yield
        finally:
            self._ctx = saved

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named monotonic counter (atomically)."""
        with self._counters_lock:
            counters = self._counters
            counters[name] = counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Sample an instantaneous value (also emitted live with ``t``)."""
        self._gauges[name] = value
        self._emit(
            make_record("gauge", name=name, value=value, t=round(self.now(), 9))
        )

    def generation(
        self,
        generation: int,
        best: float,
        mean: float,
        evaluations: int,
        population: int,
        **attrs,
    ) -> None:
        """Record one GA generation's statistics (plus bound context)."""
        self._emit(
            make_record(
                "generation",
                t=round(self.now(), 9),
                generation=generation,
                best=best,
                mean=mean,
                evaluations=evaluations,
                population=population,
                **{**self._ctx, **attrs},
            )
        )

    def stage(
        self,
        event: str,
        phase: str,
        frames: int,
        detected: int,
        committed: bool,
        coverage: float,
        vectors_total: int,
        faults_active: int,
        **attrs,
    ) -> None:
        """Record one generator stage event (mirrors ``StageEvent``)."""
        self._emit(
            make_record(
                "stage",
                t=round(self.now(), 9),
                event=event,
                phase=phase,
                frames=frames,
                detected=detected,
                committed=committed,
                coverage=coverage,
                vectors_total=vectors_total,
                faults_active=faults_active,
                **{**self._ctx, **attrs},
            )
        )

    def merge_worker_trace(self, scope: Optional[str], records: List[dict]) -> None:
        """Fold a worker process's trace into this (parent) collector.

        ``records`` is what the worker's own ``TelemetryCollector``
        returned from :meth:`records`, shipped across the pool boundary
        with its result.  Events are re-emitted here under ``scope``
        (e.g. ``worker.3`` for the seed-3 worker): span ``path``s are
        prefixed with ``scope/`` and every event gains a ``scope``
        attribute, so a merged trace remains one valid trace in which
        worker-side activity is attributable.  Worker counters are
        added into the parent's same-named aggregates — campaign-wide
        totals (simulated frames, cache traffic, retries, …) stay
        meaningful across the pool boundary.  Worker timestamps are
        kept worker-relative (each worker's clock starts at its own
        collector construction); the ``scope`` attribute marks them.
        ``scope=None`` re-emits events as they are, as if recorded
        here: a service job folds in its tier worker's trace this way.

        Scopes *compose*: a record that already carries a ``scope``
        (it was merged once on another host — e.g. ``worker.3`` from a
        campaign worker's seed pool) is re-scoped to
        ``<scope>.<existing>``, so a distributed campaign's doubly
        shipped spans land under ``host.<name>.worker.<seed>`` with the
        path prefixed once per hop.

        Increments ``worker.trace.merged`` once per merged trace.
        """
        for record in records:
            kind = record.get("kind")
            if kind == "meta":
                continue
            if kind == "counter":
                self.inc(record["name"], record["value"])
                continue
            if scope is not None:
                record = dict(record)
                existing = record.get("scope")
                record["scope"] = f"{scope}.{existing}" if existing else scope
                if kind == "span":
                    record["path"] = f"{scope}/{record['path']}"
                    record["depth"] = record["depth"] + 1
            self._emit(record)
        self.inc("worker.trace.merged")

    # ------------------------------------------------------------------
    # Inspection / export
    # ------------------------------------------------------------------

    @property
    def counters(self) -> Dict[str, float]:
        """Current counter aggregates (live view, name -> value)."""
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        """Last sampled value of every gauge."""
        return dict(self._gauges)

    def events(self, kind: Optional[str] = None) -> List[dict]:
        """Chronological event records, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [r for r in self._events if r["kind"] == kind]

    def records(self) -> List[dict]:
        """The full trace: meta, chronological events, counter finals."""
        trace = [dict(self._meta)]
        trace.extend(self._events)
        for name in sorted(self._counters):
            trace.append(
                make_record("counter", name=name, value=self._counters[name])
            )
        return trace

    def drain(self) -> List[dict]:
        """:meth:`records`, then forget every event, counter and gauge.

        A long-lived collector (the one a service tier worker keeps for
        its whole life) hands each task's trace over this way and holds
        nothing between tasks; the next drain starts from zero.
        """
        with self._counters_lock:
            trace = self.records()
            self._counters = {}
        self._events = []
        self._gauges = {}
        return trace

    def dump(self, path) -> int:
        """Write the trace as JSONL; returns the number of records."""
        from .sink import write_trace

        return write_trace(path, self.records())
