"""C kernel backend: compile cache, artifact shipping, fallback, telemetry.

Bit-identity of the C backend against the other two lives in
tests/test_codegen.py (the cross-backend equivalence suite); this module
covers everything *around* the compiled function — the on-disk artifact
cache and its version stamping, parent-to-worker artifact shipping with
the recompile-in-worker fallback, the compiler-less degradation to the
interpreter, and the ``c.*`` telemetry counters (docs/KERNELS.md,
docs/TELEMETRY.md).
"""

from __future__ import annotations

import os

import pytest

from repro.circuit import s27, synthesize_named
from repro.faults import FaultSimulator
from repro.parallel import worker
from repro.sim import ckernel, compile_circuit, kernel_for
from repro.sim.codegen import clear_kernel_cache
from repro.telemetry import TelemetryCollector

from tests.conftest import random_vectors

needs_cc = pytest.mark.skipif(
    not ckernel.available(), reason="no C compiler on PATH"
)


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """Isolated artifact cache; in-process caches cleared around the test."""
    cdir = tmp_path / "ck"
    monkeypatch.setenv(ckernel.CACHE_ENV, str(cdir))
    monkeypatch.setattr(ckernel, "_PRELOADED", {})
    clear_kernel_cache()
    yield cdir
    clear_kernel_cache()


def _wide_circuit():
    """Active fault list > 64 slots, so commits engage the C run_group."""
    return synthesize_named("s298", seed=3, scale=0.3)


class TestSourceAndDigest:
    def test_source_exports_contract_symbol(self, s27_circuit):
        src = ckernel.generate_c_source(compile_circuit(s27_circuit))
        assert "ck_run_group" in src
        assert src.count("ck_run_group") == 1  # one exported symbol
        assert "for (" in src  # frame/word loops, unlike the codegen body

    def test_digest_keyed_by_source_and_version(self, s27_circuit,
                                                monkeypatch):
        src = ckernel.generate_c_source(compile_circuit(s27_circuit))
        d1 = ckernel.source_digest(src)
        assert d1 == ckernel.source_digest(src)
        assert ckernel.source_digest(src + "\n") != d1
        path = ckernel.artifact_path(d1)
        assert f"ck-v{ckernel.CKERNEL_VERSION}-" in os.path.basename(path)
        monkeypatch.setattr(ckernel, "CKERNEL_VERSION",
                            ckernel.CKERNEL_VERSION + 1)
        assert ckernel.source_digest(src) != d1


class TestArtifactCache:
    @needs_cc
    def test_compile_then_disk_cache_hit(self, s27_circuit, fresh_cache):
        compiled = compile_circuit(s27_circuit)
        collector = TelemetryCollector()
        kernel = kernel_for(compiled, "c", collector=collector)
        assert kernel.name == "c"
        counters = collector.counters
        assert counters["c.kernels.built"] == 1
        assert counters["c.cache.misses"] == 1
        assert counters["c.compile.seconds"] > 0
        built = sorted(os.listdir(fresh_cache))
        assert [p.rsplit(".", 1)[1] for p in built] == ["c", "so"]

        # A fresh process (simulated by clearing the in-memory caches)
        # loads the artifact without invoking the compiler.
        clear_kernel_cache()
        reload = TelemetryCollector()
        kernel2 = kernel_for(compiled, "c", collector=reload)
        assert kernel2.name == "c"
        assert reload.counters["c.cache.hits"] == 1
        assert "c.kernels.built" not in reload.counters
        assert sorted(os.listdir(fresh_cache)) == built

    @needs_cc
    def test_version_bump_invalidates_stale_artifact(self, s27_circuit,
                                                     fresh_cache,
                                                     monkeypatch):
        compiled = compile_circuit(s27_circuit)
        kernel_for(compiled, "c", collector=TelemetryCollector())
        stale = {p for p in os.listdir(fresh_cache) if p.endswith(".so")}

        monkeypatch.setattr(ckernel, "CKERNEL_VERSION",
                            ckernel.CKERNEL_VERSION + 1)
        clear_kernel_cache()
        collector = TelemetryCollector()
        kernel = kernel_for(compiled, "c", collector=collector)
        assert kernel.name == "c"
        # The stale artifact was not reused: a new one was compiled
        # under the bumped version tag, next to the old one.
        assert collector.counters["c.cache.misses"] == 1
        assert collector.counters["c.kernels.built"] == 1
        fresh = {p for p in os.listdir(fresh_cache) if p.endswith(".so")}
        assert stale < fresh and len(fresh) == 2

    @needs_cc
    def test_cached_artifact_loads_without_compiler(self, s27_circuit,
                                                    fresh_cache,
                                                    monkeypatch):
        """``available()`` gates *compiling*; a warm cache still serves."""
        compiled = compile_circuit(s27_circuit)
        kernel_for(compiled, "c", collector=TelemetryCollector())
        monkeypatch.setenv(ckernel.CC_ENV, "/nonexistent-cc")
        assert not ckernel.available()
        clear_kernel_cache()
        collector = TelemetryCollector()
        kernel = kernel_for(compiled, "c", collector=collector)
        assert kernel.name == "c"
        assert collector.counters["c.cache.hits"] == 1


class TestCompilerAbsentFallback:
    def test_falls_back_to_interpreter_with_warning(self, s27_circuit,
                                                    fresh_cache,
                                                    monkeypatch):
        """No compiler, cold cache: ``--kernel c`` degrades to the
        interpreter with a warning naming the backend — never an error,
        never a wrong result."""
        monkeypatch.setenv(ckernel.CC_ENV, "/nonexistent-cc")
        assert not ckernel.available()
        compiled = compile_circuit(s27_circuit)
        collector = TelemetryCollector()
        with pytest.warns(RuntimeWarning, match="c kernel.*falling back"):
            sim = FaultSimulator(compiled, kernel="c", collector=collector)
        assert sim.kernel_name == "interp"
        assert collector.counters["c.fallbacks"] == 1
        # ... and the fallback still simulates correctly end to end.
        ref = FaultSimulator(compiled, kernel="interp")
        vectors = random_vectors(s27_circuit, 4, seed=1)
        assert sim.commit(vectors) == ref.commit(vectors)

    def test_relative_cc_override_is_not_path_backed(self, monkeypatch):
        monkeypatch.setenv(ckernel.CC_ENV, "definitely-not-a-compiler")
        assert ckernel._find_cc() is None
        monkeypatch.delenv(ckernel.CC_ENV)
        # Environment restored: the PATH search resumes.
        assert ckernel._find_cc() is not None or not ckernel.available()


class TestArtifactShipping:
    @needs_cc
    def test_shipping_payload_round_trip(self, s27_circuit, fresh_cache,
                                         tmp_path, monkeypatch):
        compiled = compile_circuit(s27_circuit)
        assert ckernel.shipping_payload(compiled) is None  # not built yet
        kernel_for(compiled, "c", collector=TelemetryCollector())
        payload = ckernel.shipping_payload(compiled)
        assert payload is not None
        digest, path = payload
        assert os.path.exists(path) and digest in path

        # A "worker" with an empty cache and a preloaded artifact loads
        # the shipped library directly — no compile, no disk-cache miss.
        monkeypatch.setenv(ckernel.CACHE_ENV, str(tmp_path / "worker-ck"))
        clear_kernel_cache()
        ckernel.preload_artifact(digest, path)
        collector = TelemetryCollector()
        kernel = kernel_for(compiled, "c", collector=collector)
        assert kernel.name == "c"
        assert collector.counters["c.cache.hits"] == 1
        assert "c.kernels.built" not in collector.counters

    @needs_cc
    def test_unusable_preload_recompiles(self, s27_circuit, fresh_cache):
        """The recompile-in-worker fallback: a shipped path that does not
        exist on this host falls through to a local compile."""
        compiled = compile_circuit(s27_circuit)
        src = ckernel.generate_c_source(compiled)
        digest = ckernel.source_digest(src)
        ckernel.preload_artifact(digest, "/nonexistent/shipped.so")
        collector = TelemetryCollector()
        kernel = kernel_for(compiled, "c", collector=collector)
        assert kernel.name == "c"
        assert collector.counters["c.cache.misses"] == 1
        assert collector.counters["c.kernels.built"] == 1

    @needs_cc
    def test_init_worker_registers_artifact(self, s27_circuit, fresh_cache):
        compiled = compile_circuit(s27_circuit)
        parent = FaultSimulator(compiled, kernel="c")
        payload = ckernel.shipping_payload(compiled)
        assert payload is not None
        worker.init_worker(compiled, list(parent.faults), 64,
                           kernel="c", kernel_artifact=payload)
        try:
            assert ckernel._PRELOADED.get(payload[0]) == payload[1]
            assert worker._SIM is not None
            assert worker._SIM.kernel_name == "c"
        finally:
            worker._SIM = None

    @needs_cc
    def test_sharded_matches_serial(self, fresh_cache, monkeypatch):
        """eval_jobs=2 through the real pool with the C backend: shipped
        or recompiled, shard results stay bit-identical to serial."""
        monkeypatch.setenv("REPRO_EVAL_FORCE_SHARD", "1")
        circuit = _wide_circuit()
        serial = FaultSimulator(circuit, kernel="c")
        sharded = FaultSimulator(
            serial.compiled, kernel="c", eval_jobs=2, eval_cache=False
        )
        warm = random_vectors(circuit, 4, seed=2)
        serial.commit(warm)
        sharded.commit(warm)
        try:
            for seed in (3, 4):
                vectors = random_vectors(circuit, 2, seed=seed)
                assert sharded.evaluate(vectors) == serial.evaluate(vectors)
        finally:
            sharded.close()


class TestTelemetry:
    @needs_cc
    def test_selection_and_group_counters(self, fresh_cache):
        circuit = _wide_circuit()
        collector = TelemetryCollector()
        sim = FaultSimulator(circuit, kernel="c", collector=collector)
        assert sim.kernel_name == "c"
        assert collector.counters["sim.kernel.c"] == 1
        sim.commit(random_vectors(circuit, 4, seed=1))
        counters = collector.counters
        assert counters["c.kernels.built"] == 1
        assert counters["c.group.passes"] >= 1
        assert counters["c.group.slot_frames"] > 0

    @needs_cc
    def test_narrow_groups_stay_on_bigints(self, fresh_cache):
        """s27's whole fault list fits one 64-slot word, so commits never
        touch the compiled runner (the width guard in _run_group)."""
        circuit = s27()
        collector = TelemetryCollector()
        sim = FaultSimulator(circuit, kernel="c", collector=collector)
        sim.commit(random_vectors(circuit, 6, seed=1))
        assert "c.group.passes" not in collector.counters
        assert sim.detected_count > 0
