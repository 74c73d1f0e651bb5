"""Telemetry layer: timers, counters, schema, no-op guarantees.

Covers the ISSUE-1 checklist: hierarchical timer nesting, counter
aggregation, JSONL round-trip against the documented schema, the
disabled (null) path adding no records and leaking no attributes into
the GA/generator result records, and a benchmark-style guard that the
no-op collector path keeps ``FaultSimulator.evaluate`` throughput
within 5%.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
import threading
import time

import pytest

from repro.circuit import s27
from repro.core import GaTestGenerator, TestGenConfig
from repro.core.results import TestGenResult
from repro.faults import FaultSimulator
from repro.ga.engine import GAResult
from repro.harness.runner import run_matrix
from repro.telemetry import (
    NULL,
    NullCollector,
    SCHEMA_VERSION,
    SchemaError,
    TelemetryCollector,
    get_collector,
    install,
    make_record,
    metrics_summary,
    read_trace,
    trace_summary,
    use,
    validate_record,
    validate_trace,
    write_trace,
)


def small_config(**kw) -> TestGenConfig:
    return TestGenConfig(seed=1, **kw)


def run_s27(collector=None) -> TestGenResult:
    return GaTestGenerator(s27(), small_config(), collector=collector).run()


# ----------------------------------------------------------------------
# Scoped timers
# ----------------------------------------------------------------------


class TestSpans:
    def test_nesting_builds_hierarchical_paths(self):
        collector = TelemetryCollector()
        with collector.span("outer"):
            with collector.span("mid", tag="x"):
                with collector.span("inner"):
                    pass
            with collector.span("mid2"):
                pass
        spans = collector.events("span")
        # Children close before parents, so records are inner-first.
        assert [s["path"] for s in spans] == [
            "outer/mid/inner", "outer/mid", "outer/mid2", "outer",
        ]
        assert [s["depth"] for s in spans] == [2, 1, 1, 0]
        assert spans[1]["tag"] == "x"

    def test_parent_elapsed_covers_children(self):
        collector = TelemetryCollector()
        with collector.span("parent") as parent:
            with collector.span("child") as child:
                time.sleep(0.002)
        assert parent.elapsed >= child.elapsed > 0
        records = {s["name"]: s for s in collector.events("span")}
        assert records["parent"]["dur"] >= records["child"]["dur"]
        # t0 offsets are relative to collector construction and ordered.
        assert records["parent"]["t0"] <= records["child"]["t0"]

    def test_null_span_still_measures_elapsed(self):
        # Callers (runner progress lines, TestGenResult.elapsed_seconds)
        # read span.elapsed even when telemetry is disabled.
        with NULL.span("anything") as span:
            time.sleep(0.002)
        assert span.elapsed > 0
        assert NULL.records() == []

    def test_sibling_spans_do_not_inherit_closed_scope(self):
        collector = TelemetryCollector()
        with collector.span("a"):
            pass
        with collector.span("b"):
            pass
        assert [s["path"] for s in collector.events("span")] == ["a", "b"]


# ----------------------------------------------------------------------
# Counters / gauges / context
# ----------------------------------------------------------------------


class TestCountersAndGauges:
    def test_counter_aggregation(self):
        collector = TelemetryCollector()
        collector.inc("x")
        collector.inc("x", 4)
        collector.inc("y", 2.5)
        assert collector.counters == {"x": 5, "y": 2.5}
        finals = {
            r["name"]: r["value"] for r in collector.records()
            if r["kind"] == "counter"
        }
        assert finals == {"x": 5, "y": 2.5}

    def test_gauge_keeps_last_value_and_emits_samples(self):
        collector = TelemetryCollector()
        collector.gauge("coverage", 0.25)
        collector.gauge("coverage", 0.75)
        assert collector.gauges == {"coverage": 0.75}
        samples = collector.events("gauge")
        assert [s["value"] for s in samples] == [0.25, 0.75]
        assert samples[0]["t"] <= samples[1]["t"]

    def test_bind_attaches_and_restores_context(self):
        collector = TelemetryCollector()
        with collector.bind(phase="P1", ga_run=3):
            collector.generation(generation=0, best=1.0, mean=0.5,
                                 evaluations=8, population=8)
            with collector.bind(phase="P2"):
                collector.generation(generation=1, best=2.0, mean=1.0,
                                     evaluations=16, population=8)
        collector.generation(generation=2, best=3.0, mean=2.0,
                             evaluations=24, population=8)
        gens = collector.events("generation")
        assert (gens[0]["phase"], gens[0]["ga_run"]) == ("P1", 3)
        assert (gens[1]["phase"], gens[1]["ga_run"]) == ("P2", 3)
        assert "phase" not in gens[2] and "ga_run" not in gens[2]

    def test_concurrent_increments_are_not_lost(self):
        """Threads share one collector's counters (the job service's
        job threads do): a lost read-modify-write would show as a total
        short of every increment made."""
        collector = TelemetryCollector()
        n_threads = max(4, (os.cpu_count() or 1) + 1)
        per_thread = 400_000 // n_threads
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(per_thread):
                collector.inc("shared")

        workers = [threading.Thread(target=work) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert collector.counters == {"shared": n_threads * per_thread}

    def test_drain_hands_over_the_trace_and_forgets_it(self):
        """A long-lived collector hands each task's trace over once;
        folded in unscoped, the task reads as if recorded in place."""
        worker = TelemetryCollector(source="worker")
        job = TelemetryCollector(source="job")
        for task in range(2):
            with worker.span("task", task=task):
                worker.gauge("coverage", 0.5 * task)
            worker.inc("frames", 3)
            expected = worker.records()
            shipped = worker.drain()
            assert shipped == expected
            assert worker.events() == [] and worker.counters == {}
            assert worker.gauges == {}
            job.merge_worker_trace(None, shipped)
        validate_trace(job.records())
        assert [(r["kind"], r.get("path"), "scope" in r)
                for r in job.events()] == [
            ("gauge", None, False), ("span", "task", False),
        ] * 2
        assert job.counters == {"frames": 6, "worker.trace.merged": 2}

    def test_install_and_use_swap_default(self):
        assert get_collector() is NULL
        collector = TelemetryCollector()
        with use(collector):
            assert get_collector() is collector
            inner = NullCollector()
            previous = install(inner)
            assert previous is collector
            install(previous)
        assert get_collector() is NULL


# ----------------------------------------------------------------------
# Schema + JSONL round-trip
# ----------------------------------------------------------------------


class TestSchema:
    def test_round_trip_preserves_records(self, tmp_path):
        collector = TelemetryCollector()
        with collector.span("outer", circuit="s27"):
            collector.inc("sim.evaluate.calls", 7)
        collector.gauge("coverage", 0.5)
        collector.stage(event="vector", phase="INITIALIZATION", frames=1,
                        detected=2, committed=True, coverage=0.1,
                        vectors_total=1, faults_active=24)
        path = tmp_path / "trace.jsonl"
        count = collector.dump(path)
        loaded = read_trace(path)
        assert len(loaded) == count
        assert loaded == collector.records()
        validate_trace(loaded)

    def test_write_trace_validates_on_write(self, tmp_path):
        with pytest.raises(SchemaError):
            write_trace(tmp_path / "bad.jsonl", [{"v": SCHEMA_VERSION,
                                                  "kind": "nope"}])

    def test_validate_rejects_bad_version(self):
        with pytest.raises(SchemaError, match="schema version"):
            validate_record({"v": 99, "kind": "meta", "schema": 99,
                             "source": "x"})

    def test_validate_rejects_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown record kind"):
            validate_record(make_record("frobnicate"))

    def test_validate_rejects_missing_and_mistyped_fields(self):
        with pytest.raises(SchemaError, match="missing required field"):
            validate_record(make_record("counter", name="x"))
        with pytest.raises(SchemaError, match="counter.value"):
            validate_record(make_record("counter", name="x", value="high"))
        # bool must not satisfy a numeric field
        with pytest.raises(SchemaError, match="got bool"):
            validate_record(make_record("counter", name="x", value=True))

    def test_trace_must_lead_with_meta(self):
        with pytest.raises(SchemaError, match="must be meta"):
            validate_trace([make_record("counter", name="x", value=1)])

    def test_read_trace_reports_line_numbers(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"v": 1, "kind": "meta", "schema": 1, "source": "t"}\n'
                        "not json\n")
        with pytest.raises(SchemaError, match=":2:"):
            read_trace(path)


# ----------------------------------------------------------------------
# Instrumented stack, enabled
# ----------------------------------------------------------------------


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def traced(self):
        collector = TelemetryCollector()
        result = run_s27(collector)
        return collector, result

    def test_trace_validates_against_schema(self, traced):
        collector, _ = traced
        validate_trace(collector.records())

    def test_stage_records_mirror_result_trace(self, traced):
        collector, result = traced
        stages = collector.events("stage")
        assert len(stages) == len(result.trace)
        for record, event in zip(stages, result.trace):
            assert record["event"] == event.kind
            assert record["phase"] == event.phase.name
            assert record["frames"] == event.frames
            assert record["detected"] == event.detected
            assert record["committed"] == event.committed
        final = stages[-1]
        assert final["coverage"] == pytest.approx(result.fault_coverage)
        assert final["vectors_total"] == result.vectors

    def test_generation_records_carry_phase_context(self, traced):
        collector, result = traced
        gens = collector.events("generation")
        assert gens, "expected per-generation GA records"
        assert all("phase" in g and "ga_run" in g and "stage" in g
                   for g in gens)
        assert max(g["ga_run"] for g in gens) == result.ga_runs - 1
        # Evaluations tally: final counter equals the result's total.
        assert collector.counters["ga.evaluations"] == result.ga_evaluations
        assert collector.counters["ga.runs"] == result.ga_runs

    def test_simulator_counters_present(self, traced):
        collector, result = traced
        counters = collector.counters
        assert counters["sim.commit.calls"] >= 1
        assert counters["sim.commit.detected"] == result.detected
        # Every fitness lookup (phase 1 included) is either a GA memo
        # hit or a candidate of a population pass.
        assert counters["ga.evaluations"] == (
            counters["ga.dedup.skipped"] + counters["sim.batch.candidates"]
        )
        assert counters["ga.dedup.skipped"] > 0
        # Phase 1 has no simulator of its own, so no counters of one.
        assert not [name for name in counters if name.startswith("sim.pattern")]

    def test_run_span_matches_elapsed_seconds(self, traced):
        collector, result = traced
        spans = {s["name"]: s for s in collector.events("span")}
        assert spans["generator.run"]["dur"] == pytest.approx(
            result.elapsed_seconds, abs=1e-6
        )
        assert spans["generator.vectors"]["path"] == \
            "generator.run/generator.vectors"

    def test_summary_renders(self, traced):
        collector, _ = traced
        text = metrics_summary(collector)
        assert "counters" in text and "GA generations" in text
        assert trace_summary(collector.records())


class TestHarnessSpans:
    def test_run_matrix_uses_cell_spans(self):
        collector = TelemetryCollector()
        lines = []
        config = TestGenConfig(seed=1)
        run_matrix(["s298"], {"base": config}, seeds=[1], scale=0.1,
                   progress=lines.append, collector=collector)
        spans = {s["name"] for s in collector.events("span")}
        assert "harness.cell" in spans and "harness.run_gatest" in spans
        cell = [s for s in collector.events("span")
                if s["name"] == "harness.cell"][0]
        assert cell["circuit"] == "s298" and cell["label"] == "base"
        # The progress line's elapsed is the span's measurement.
        assert lines and f"({cell['dur']:.1f}s)" in lines[0]


# ----------------------------------------------------------------------
# Disabled (no-op) path
# ----------------------------------------------------------------------


class TestDisabledPath:
    def test_default_collector_is_null(self):
        assert get_collector() is NULL
        assert not NULL.enabled

    def test_null_collector_records_nothing(self):
        fsim = FaultSimulator(s27())
        fsim.evaluate([[0, 1, 0, 1]])
        fsim.commit([[1, 1, 0, 0]])
        assert fsim.collector is NULL
        assert NULL.records() == []
        assert NULL.dump("/nonexistent/should-not-be-written") == 0

    def test_no_attributes_leak_into_result_records(self):
        result = run_s27()  # default (null) collector
        assert {f.name for f in dataclasses.fields(TestGenResult)} == {
            "circuit_name", "test_sequence", "detected", "total_faults",
            "elapsed_seconds", "ga_evaluations", "ga_runs",
            "phase_transitions", "trace", "detections",
        }
        assert {f.name for f in dataclasses.fields(GAResult)} == {
            "best", "best_generation", "generations_run", "evaluations",
            "history",
        }
        assert not hasattr(result, "telemetry")
        assert not any(hasattr(e, "telemetry") for e in result.trace)

    def test_disabled_runs_match_enabled_runs_bit_for_bit(self):
        baseline = run_s27()
        traced = run_s27(TelemetryCollector())
        assert traced.test_sequence == baseline.test_sequence
        assert traced.detected == baseline.detected
        assert traced.ga_evaluations == baseline.ga_evaluations

    def test_noop_collector_evaluate_throughput_within_5pct(self):
        """Benchmark-style guard: instrumentation with the no-op
        collector must not change ``FaultSimulator.evaluate`` throughput
        by more than 5%.  The enabled collector path is measured as the
        upper bound — the null path does strictly less work.

        Timing discipline (this test used to flake on loaded CI hosts,
        where throughput drifts 20%+ between measurement blocks under
        frequency scaling): the two paths are timed *interleaved* in
        back-to-back pairs so host drift hits both sides alike, the
        slowdown is the median of the per-pair best-of-3 ratios, and a
        measurement outside the contract is retried once before it
        fails — a genuine regression fails both rounds, a noisy run
        does not.  The 5% contract itself is unchanged.
        """
        rng = random.Random(7)
        circuit = s27()
        vectors = [[rng.randint(0, 1) for _ in range(4)] for _ in range(8)]

        def measured_slowdown() -> float:
            sims = {
                "disabled": FaultSimulator(circuit, collector=NullCollector()),
                "enabled": FaultSimulator(
                    circuit, collector=TelemetryCollector()
                ),
            }

            def timed_loop(fsim) -> float:
                t0 = time.perf_counter()
                for _ in range(40):
                    fsim.evaluate(vectors)
                return time.perf_counter() - t0

            for fsim in sims.values():
                timed_loop(fsim)  # warm-up
            ratios = sorted(
                min(timed_loop(sims["disabled"]) for _ in range(3))
                / min(timed_loop(sims["enabled"]) for _ in range(3))
                for _ in range(5)
            )
            return 1.0 / ratios[len(ratios) // 2]

        slowdown = measured_slowdown()
        if abs(slowdown - 1.0) > 0.05:  # one retry sheds transient load
            slowdown = measured_slowdown()
        assert slowdown == pytest.approx(1.0, abs=0.05), (
            f"telemetry overhead too high: enabled path is "
            f"{(slowdown - 1) * 100:.1f}% slower than the no-op path"
        )
