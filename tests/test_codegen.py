"""Kernel backend suite: compiled backends vs the reference interpreter.

The contract under test (docs/KERNELS.md): every backend behind the
kernel seam — the generated straight-line Python ("codegen") — must be
*bit-identical* to the reference interpreter in
:mod:`repro.sim.compile` — at the plane level
for random inputs and injections, at the ``CandidateEval`` level
through :class:`~repro.faults.simulator.FaultSimulator`, and at the
final test-set level through full GATEST runs, serial and sharded
alike — because a kernel must never change a result, only the wall
clock.
"""

from __future__ import annotations

import random

import pytest

from repro.circuit import c17, s27, synthesize_named
from repro.core import GaTestGenerator, TestGenConfig
from repro.faults import FaultSimulator
from repro.faults.transition import TransitionFaultSimulator
from repro.sim import compile_circuit, kernel_for, kernel_source
from repro.sim.codegen import (
    DEFAULT_KERNEL,
    SimKernel,
    clear_kernel_cache,
    generate_source,
    make_force_tables,
    resolve_kernel_name,
)
from repro.sim.compile import eval_program_injected
from repro.telemetry import TelemetryCollector

from tests.conftest import random_vectors


def _compiled_kernel_params():
    """The non-interpreter backends."""
    return [pytest.param("codegen")]


def _sweep_circuits():
    """Bundled netlists plus random synthesized circuits (varied seeds)."""
    return [
        s27(),
        c17(),
        synthesize_named("s298", seed=3, scale=0.15),
        synthesize_named("s386", seed=5, scale=0.2),
        synthesize_named("s526", seed=11, scale=0.15),
    ]


def _random_planes(rng, n, width):
    v1 = [rng.getrandbits(width) for _ in range(n)]
    v0 = [rng.getrandbits(width) & ~v1[i] for i in range(n)]
    return v1, v0


def _random_masks(rng, width):
    """A contiguous mask, a block-top mask (one bit per block, as the
    transition model's good pass uses) and a random sparse mask."""
    block = rng.choice([1, 2, 5, 33])
    tops = ((1 << width) - 1) // ((1 << block) - 1) << (block - 1)
    sparse = rng.getrandbits(width) & rng.getrandbits(width)
    return [(1 << width) - 1, tops & ((1 << width) - 1), sparse]


def _random_forces(rng, compiled, width, mask):
    """Random disjoint force pairs, every word inside ``mask``."""

    def pair():
        f1 = rng.getrandbits(width) & mask
        return f1, rng.getrandbits(width) & mask & ~f1

    out_force, pin_force = {}, {}
    for out, _opcode, _invert, fanins in compiled.program:
        if rng.random() < 0.2:
            out_force[out] = pair()
        if fanins and rng.random() < 0.15:
            pin_force[out] = [
                (pin, *pair())
                for pin in rng.sample(range(len(fanins)),
                                      rng.randint(1, len(fanins)))
            ]
    return out_force, pin_force


class TestGeneratedSource:
    def test_injected_kernel_probes_force_table(self, s27_circuit):
        compiled = compile_circuit(s27_circuit)
        src = kernel_source(compiled)
        assert src.startswith("def _kernel_injected(v1, v0, M, _FX):")
        assert src.count("def ") == 1  # one generated function per circuit
        assert "for " not in src  # branches on table rows, never loops
        assert "_FX[" in src

    def test_template_stays_small(self):
        """Forces apply as positive complement words and each gate's
        expressions are written twice: no generated source takes a
        ``~``, and s1423's stays within 16 lines per gate."""
        for circuit in _sweep_circuits():
            assert "~" not in generate_source(compile_circuit(circuit)), (
                circuit.name
            )
        compiled = compile_circuit(synthesize_named("s1423"))
        lines = kernel_source(compiled).count("\n")
        assert lines <= 16 * len(compiled.program)

    def test_generate_source_compiles_for_every_circuit(self):
        for circuit in _sweep_circuits():
            compiled = compile_circuit(circuit)
            compile(generate_source(compiled), "<test>", "exec")

    def test_kernels_cached_per_circuit(self, s27_circuit):
        compiled = compile_circuit(s27_circuit)
        a = kernel_for(compiled, "codegen")
        b = kernel_for(compiled, "codegen")
        assert a.eval_injection is b.eval_injection  # same generated function
        clear_kernel_cache()
        c = kernel_for(compiled, "codegen")
        assert c.eval_injection is not a.eval_injection

    def test_kernel_interface_is_two_callables(self, s27_circuit):
        assert SimKernel.__slots__ == (
            "name", "requested", "make_injection", "eval_injection",
        )
        compiled = compile_circuit(s27_circuit)
        for name in ("interp", "codegen"):
            kernel = kernel_for(compiled, name)
            assert not hasattr(kernel, "eval")
            # The mask has no default: a forgotten one would silently
            # clear every forced gate's complement words.
            with pytest.raises(TypeError):
                kernel.make_injection({}, {})


class TestPlaneEquivalence:
    """Property-style sweep: random planes and injections, every circuit."""

    def test_good_pass_matches_interpreter(self):
        """The empty injection is the good-machine pass, over any mask:
        the transition model runs it over the top slots alone, one bit
        per block, so non-contiguous masks are part of the contract."""
        rng = random.Random(101)
        for circuit in _sweep_circuits():
            compiled = compile_circuit(circuit)
            kernel = kernel_for(compiled, "codegen")
            assert kernel.name == "codegen"
            # An empty injection carries no force words, so one serves
            # a pass over any mask.
            no_forces = kernel.make_injection({}, {}, 0)
            for _ in range(4):
                width = rng.choice([1, 8, 64, 200])
                for mask in _random_masks(rng, width):
                    v1, v0 = _random_planes(rng, compiled.num_nodes, width)
                    v1 = [w & mask for w in v1]
                    v0 = [w & mask for w in v0]
                    r1, r0 = list(v1), list(v0)
                    eval_program_injected(
                        compiled.program, r1, r0, mask, {}, {}
                    )
                    kernel.eval_injection(v1, v0, mask, no_forces)
                    assert (v1, v0) == (r1, r0), circuit.name

    def test_injected_pass_matches_interpreter(self):
        """Random injections over contiguous, block-top and sparse
        masks, with every force word inside its injection's mask."""
        rng = random.Random(202)
        for circuit in _sweep_circuits():
            compiled = compile_circuit(circuit)
            kernel = kernel_for(compiled, "codegen")
            for _ in range(6):
                width = rng.choice([1, 8, 64, 200])
                for mask in _random_masks(rng, width):
                    out_force, pin_force = _random_forces(
                        rng, compiled, width, mask
                    )
                    v1, v0 = _random_planes(rng, compiled.num_nodes, width)
                    v1 = [w & mask for w in v1]
                    v0 = [w & mask for w in v0]
                    r1, r0 = list(v1), list(v0)
                    eval_program_injected(
                        compiled.program, r1, r0, mask, out_force, pin_force
                    )
                    injection = kernel.make_injection(
                        out_force, pin_force, mask
                    )
                    kernel.eval_injection(v1, v0, mask, injection)
                    assert (v1, v0) == (r1, r0), (circuit.name, bin(mask))

    def test_force_tables_shape(self):
        """Rows carry each force pair with its complements against the
        mask; a pin-only row carries the identity output words."""
        mask = 0b1111
        fx = make_force_tables(
            5,
            {1: (0b10, 0b01), 3: (0b100, 0)},
            {2: [(1, 0b1, 0b0)], 3: [(0, 0, 0b1000)]},
            mask,
            {2: 3, 3: 2},
        )
        assert fx[0] is None and fx[4] is None
        assert fx[1] == (None, 0b10, 0b1110, 0b01, 0b1101)
        pins, f1, n0, f0, n1 = fx[2]  # pin forces only
        assert (f1, n0, f0, n1) == (0, mask, 0, mask)
        assert pins == [None, (0b1, 0b1111, 0b0, 0b1110), None]  # sized to arity
        pins, f1, n0, f0, n1 = fx[3]  # output and pin forces
        assert (f1, n0, f0, n1) == (0b100, 0b1111, 0, 0b1011)
        assert pins == [(0, 0b0111, 0b1000, 0b1111), None]


class TestSimulatorEquivalence:
    """FaultSimulator observables must not depend on the kernel."""

    def test_candidate_evals_and_commits_identical(self):
        for circuit in _sweep_circuits():
            sims = {
                name: FaultSimulator(circuit, kernel=name)
                for name in ("interp", "codegen")
            }
            assert sims["codegen"].kernel_name == "codegen"
            assert sims["interp"].kernel_name == "interp"
            for round_ in range(3):
                vectors = random_vectors(circuit, 3, seed=round_)
                evals = {
                    name: sim.evaluate(vectors, count_faulty_events=True)
                    for name, sim in sims.items()
                }
                assert evals["codegen"] == evals["interp"], circuit.name
                commits = {
                    name: sim.commit(vectors) for name, sim in sims.items()
                }
                assert commits["codegen"] == commits["interp"], circuit.name
                assert sims["codegen"].detected_count == sims["interp"].detected_count

    def test_batch_path_identical(self):
        circuit = synthesize_named("s298", seed=3, scale=0.15)
        sims = {
            name: FaultSimulator(circuit, kernel=name)
            for name in ("interp", "codegen")
        }
        warm = random_vectors(circuit, 4, seed=2)
        for sim in sims.values():
            sim.commit(warm)
        candidates = [[v] for v in random_vectors(circuit, 12, seed=3)]
        assert (
            sims["codegen"].evaluate_batch(candidates)
            == sims["interp"].evaluate_batch(candidates)
        )

    def test_transition_model_identical(self):
        circuit = synthesize_named("s298", seed=3, scale=0.15)
        sims = {
            name: TransitionFaultSimulator(circuit, kernel=name)
            for name in ("interp", "codegen")
        }
        for round_ in range(3):
            vectors = random_vectors(circuit, 3, seed=round_)
            evals = {name: sim.evaluate(vectors) for name, sim in sims.items()}
            assert evals["codegen"] == evals["interp"]
            for sim in sims.values():
                sim.commit(vectors)
            assert sims["codegen"].detected_count == sims["interp"].detected_count

    def test_final_test_sets_identical(self):
        for circuit in _sweep_circuits()[:3]:
            runs = {
                name: GaTestGenerator(
                    circuit, TestGenConfig(seed=5, sim_kernel=name)
                ).run()
                for name in ("interp", "codegen")
            }
            assert runs["codegen"].test_sequence == runs["interp"].test_sequence
            assert runs["codegen"].detected == runs["interp"].detected
            assert (
                runs["codegen"].ga_evaluations == runs["interp"].ga_evaluations
            )

    def test_sharded_evaluation_identical(self, monkeypatch):
        """eval_jobs=2 through the real pool (forced on 1-CPU hosts):
        workers rebuild the parent's kernel, results stay bit-identical."""
        monkeypatch.setenv("REPRO_EVAL_FORCE_SHARD", "1")
        circuit = synthesize_named("s298", seed=3, scale=0.15)
        serial = FaultSimulator(circuit, kernel="codegen")
        sharded = FaultSimulator(circuit, kernel="codegen", eval_jobs=2)
        warm = random_vectors(circuit, 4, seed=2)
        serial.commit(warm)
        sharded.commit(warm)
        for seed in (3, 4):
            vectors = random_vectors(circuit, 2, seed=seed)
            assert sharded.evaluate(vectors) == serial.evaluate(vectors)
        sharded.close()

    def test_sharded_run_identical_across_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_FORCE_SHARD", "1")
        circuit = s27()
        config = TestGenConfig(seed=5, max_vectors=8)
        baseline = GaTestGenerator(circuit, config).run()
        for name in ("interp", "codegen"):
            from dataclasses import replace

            sharded = GaTestGenerator(
                circuit, replace(config, sim_kernel=name, eval_jobs=2)
            ).run()
            assert sharded.test_sequence == baseline.test_sequence
            assert sharded.detected == baseline.detected


class TestFourWayEquivalence:
    """interp / codegen × eval_jobs 1/2/4 × stuck-at/transition."""

    CIRCUIT_SCALE = 0.3  # 123 active faults

    @pytest.mark.parametrize("model", ["stuck-at", "transition"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("kernel", _compiled_kernel_params())
    def test_candidate_evals_identical(self, kernel, jobs, model,
                                       monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_FORCE_SHARD", "1")
        circuit = synthesize_named("s298", seed=3, scale=self.CIRCUIT_SCALE)
        cls = (FaultSimulator if model == "stuck-at"
               else TransitionFaultSimulator)
        ref = cls(circuit, kernel="interp")
        sim = cls(circuit, kernel=kernel, eval_jobs=jobs)
        assert sim.kernel_name == kernel
        warm = random_vectors(circuit, 4, seed=2)
        ref.commit(warm)
        sim.commit(warm)
        try:
            for seed in (3, 4):
                cand = random_vectors(circuit, 2, seed=seed)
                assert sim.evaluate(cand) == ref.evaluate(cand), (
                    f"{kernel}/jobs={jobs}/{model} CandidateEval diverged")
            if model == "stuck-at":
                cand = random_vectors(circuit, 2, seed=5)
                assert (sim.evaluate(cand, count_faulty_events=True)
                        == ref.evaluate(cand, count_faulty_events=True))
            more = random_vectors(circuit, 2, seed=9)
            assert sim.commit(more) == ref.commit(more)
            assert sim.detected_count == ref.detected_count
        finally:
            sim.close()

    @pytest.mark.parametrize("model", ["stuck-at", "transition"])
    @pytest.mark.parametrize("kernel", _compiled_kernel_params())
    def test_final_test_sets_identical(self, kernel, model):
        circuit = s27()
        runs = {
            name: GaTestGenerator(
                circuit,
                TestGenConfig(seed=5, fault_model=model, sim_kernel=name),
            ).run()
            for name in ("interp", kernel)
        }
        assert runs[kernel].test_sequence == runs["interp"].test_sequence
        assert runs[kernel].detected == runs["interp"].detected
        assert runs[kernel].ga_evaluations == runs["interp"].ga_evaluations


class TestKernelSelection:
    def test_resolve_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "interp")
        assert resolve_kernel_name("codegen") == "codegen"

    def test_resolve_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "interp")
        for no_request in (None, "", "auto"):
            assert resolve_kernel_name(no_request) == "interp"

    def test_resolve_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        assert resolve_kernel_name(None) == DEFAULT_KERNEL == "codegen"

    def test_resolve_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            resolve_kernel_name("turbo")

    def test_resolve_rejects_unknown_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "turbo")
        with pytest.raises(ValueError, match="REPRO_SIM_KERNEL"):
            resolve_kernel_name(None)

    def test_config_validates_sim_kernel(self):
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            TestGenConfig(sim_kernel="turbo")
        assert TestGenConfig(sim_kernel="interp").sim_kernel == "interp"

    def test_build_failure_falls_back_to_interpreter(
        self, s27_circuit, monkeypatch
    ):
        """A codegen build failure must degrade, never raise."""
        import repro.sim.codegen as codegen

        def boom(compiled, collector):
            raise RuntimeError("synthetic build failure")

        monkeypatch.setattr(codegen, "_build_kernel", boom)
        clear_kernel_cache()
        compiled = compile_circuit(s27_circuit)
        collector = TelemetryCollector()
        with pytest.warns(RuntimeWarning, match="falling back"):
            kernel = kernel_for(compiled, "codegen", collector=collector)
        assert kernel.name == "interp"
        assert kernel.requested == "codegen"
        assert collector.counters["codegen.fallbacks"] == 1
        # ... and the fallback kernel still works end to end.
        with pytest.warns(RuntimeWarning, match="falling back"):
            sim = FaultSimulator(
                compiled, kernel="codegen", collector=collector
            )
        assert sim.kernel_name == "interp"
        sim.commit(random_vectors(s27_circuit, 4, seed=1))


class TestKernelTelemetry:
    def test_build_and_selection_counters(self, s27_circuit):
        clear_kernel_cache()
        collector = TelemetryCollector()
        compiled = compile_circuit(s27_circuit)
        sim = FaultSimulator(compiled, kernel="codegen", collector=collector)
        assert sim.kernel_name == "codegen"
        counters = collector.counters
        assert counters["codegen.kernels.built"] == 1
        assert counters["codegen.compile.seconds"] > 0
        assert counters["sim.kernel.codegen"] == 1
        # A second simulator on the same circuit reuses the cache.
        FaultSimulator(compiled, kernel="codegen", collector=collector)
        assert collector.counters["codegen.kernels.built"] == 1
        assert collector.counters["sim.kernel.codegen"] == 2

    def test_interp_selection_counter(self, s27_circuit):
        collector = TelemetryCollector()
        sim = FaultSimulator(
            compile_circuit(s27_circuit), kernel="interp", collector=collector
        )
        assert sim.kernel_name == "interp"
        assert collector.counters["sim.kernel.interp"] == 1
        assert "codegen.kernels.built" not in collector.counters
