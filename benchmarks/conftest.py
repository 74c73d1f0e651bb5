"""Shared fixtures and helpers for the benchmark suite.

Every bench regenerates one of the paper's tables or figures at reduced
scale (see DESIGN.md §4): the synthetic circuits are shrunk with
``SCALE`` and seeds reduced to ``SEEDS`` so the whole suite runs in
minutes.  Shapes (who wins, rough ratios) are asserted; absolute values
are printed for EXPERIMENTS.md.  Set the environment variable
``REPRO_BENCH_SCALE=1.0`` / ``REPRO_BENCH_SEEDS=10`` to run a bench at
the paper's full protocol.

Telemetry hook: set ``REPRO_BENCH_TRACE=out.jsonl`` to install a
recording collector for the whole session — every ``bench_*`` script
then dumps one combined JSONL run trace (schema: docs/TELEMETRY.md)
without any per-bench changes, because the instrumented stack picks up
the installed default collector.
"""

from __future__ import annotations

import os

import pytest

from repro.atomicio import atomic_write_json
from repro.sim import compiled_circuit_for
from repro.telemetry import TelemetryCollector, install

#: Circuit scale used by the benchmark suite.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
#: Number of GA seeds per configuration.
SEEDS = list(range(1, int(os.environ.get("REPRO_BENCH_SEEDS", "2")) + 1))

#: Circuits exercised by the parameter-study benches.
STUDY_CIRCUITS = ["s298", "s386"]


#: Records accumulated by :func:`record_bench` for ``REPRO_BENCH_JSON``.
_BENCH_RECORDS: list = []


def record_bench(name: str, params: dict, seconds: float, speedup=None) -> dict:
    """Record one benchmark measurement for machine consumption.

    Benches call this with their headline numbers; when the environment
    variable ``REPRO_BENCH_JSON`` names a path, the session teardown
    writes every record there as a JSON array of
    ``{name, params, seconds, speedup}`` objects (``speedup`` is null
    for benches that measure a single configuration).  Returns the
    record so callers can embed it in their own artifacts too.
    """
    record = {
        "name": name,
        "params": dict(params),
        "seconds": seconds,
        "speedup": speedup,
    }
    _BENCH_RECORDS.append(record)
    return record


@pytest.fixture(scope="session", autouse=True)
def bench_json():
    """Per-bench JSON dump hook (``REPRO_BENCH_JSON=path``)."""
    yield
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path or not _BENCH_RECORDS:
        return
    atomic_write_json(path, _BENCH_RECORDS, indent=2)
    print(f"\n[bench] wrote {len(_BENCH_RECORDS)} records to {path}")


@pytest.fixture(scope="session", autouse=True)
def bench_trace():
    """Session-wide telemetry attach point (``REPRO_BENCH_TRACE``).

    When the environment variable names an output path, a recording
    collector is installed as the process default for the whole bench
    session and the combined trace is written on teardown.  Without it
    this fixture is a no-op and the null collector stays in place.
    """
    path = os.environ.get("REPRO_BENCH_TRACE")
    if not path:
        yield None
        return
    collector = TelemetryCollector(source="repro.benchmarks")
    previous = install(collector)
    try:
        yield collector
    finally:
        install(previous)
        count = collector.dump(path)
        print(f"\n[telemetry] wrote {count} trace records to {path}")


@pytest.fixture()
def telemetry_collector():
    """A per-test recording collector, installed as the default.

    For benches that want their own isolated trace (e.g. to assert on
    simulator counters) rather than the session-wide one.
    """
    collector = TelemetryCollector(source="repro.benchmarks")
    previous = install(collector)
    try:
        yield collector
    finally:
        install(previous)


@pytest.fixture(scope="session")
def scaled_circuit():
    """The default benchmark circuit (scaled s298)."""
    return compiled_circuit_for("s298", SCALE)


def circuit(name: str):
    return compiled_circuit_for(name, SCALE)


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0
