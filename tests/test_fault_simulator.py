"""Tests for the PROOFS-style parallel-fault sequential fault simulator.

The key guarantee: the word-parallel population pass agrees exactly
with the scalar fault-at-a-time oracle (tests/oracle.py) on every
circuit, sequence, committed state and kernel.
"""

import functools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    library,
    mini_fsm,
    resettable_counter,
    s27,
    synthesize_named,
)
from repro.circuit.gates import X
from repro.core import (
    load_checkpoint,
    restore_sim_run_state,
    save_checkpoint,
    sim_run_state,
)
from repro.faults import (
    STEM,
    Fault,
    FaultSimulator,
    FaultStatus,
    TransitionFaultSimulator,
    collapsed_fault_list,
)
from repro.faults.simulator import BULK_MIN_VALUES, REPACK_DEAD_SHARE
from repro.parallel import worker as pool_worker
from repro.sim import compile_circuit
from repro.telemetry import TelemetryCollector

from tests import oracle
from tests.conftest import random_vectors
from tests.test_sim import make_random_circuit

#: Every kernel backend.
KERNELS = ("interp", "codegen")


@functools.lru_cache(maxsize=1)
def _batch_circuit():
    """A compiled s298 stand-in (> 64 faults, so a full sample forms wide
    groups) and a fault list holding every injection site kind: the
    collapsed list plus explicit flip-flop D-pin faults, which
    collapsing removes."""
    circuit = synthesize_named("s298", seed=3, scale=0.3)
    faults = collapsed_fault_list(circuit)
    faults += [Fault(ff, 0, sa) for ff in circuit.dffs for sa in (0, 1)]
    return compile_circuit(circuit), faults


def _site_faults(sim):
    """One active PI-stem, flip-flop-output and flip-flop-D-pin fault each
    (fewer if commits already detected every fault of a kind)."""
    inputs = set(sim.circuit.inputs)
    dffs = set(sim.circuit.dffs)
    kinds = [
        lambda f: f.pin == STEM and f.node in inputs,
        lambda f: f.pin == STEM and f.node in dffs,
        lambda f: f.pin != STEM and f.node in dffs,
    ]
    found = [next((i for i in sim.active if kind(sim.faults[i])), None)
             for kind in kinds]
    return [i for i in found if i is not None]


# ---------------------------------------------------------------------------
# Agreement with the scalar oracle (tests/oracle.py)
# ---------------------------------------------------------------------------

class TestAgainstReference:
    @pytest.mark.parametrize("factory,seed,n", [
        (s27, 7, 30),
        (mini_fsm, 3, 25),
        (lambda: resettable_counter(3), 5, 25),
    ])
    def test_known_circuits(self, factory, seed, n):
        """Two commits (the second from a warm state) change the state
        exactly as the oracle says, on every kernel."""
        circuit = factory()
        vectors = random_vectors(circuit, n, seed=seed)
        for kernel in KERNELS:
            sim = FaultSimulator(circuit, kernel=kernel)
            oracle.assert_commit_matches(sim, vectors[:n // 2])
            oracle.assert_commit_matches(sim, vectors[n // 2:])

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 3000), vec_seed=st.integers(0, 100),
           split=st.integers(0, 10))
    def test_random_circuits(self, seed, vec_seed, split):
        circuit = make_random_circuit(seed, n_pi=3, n_ff=2, n_gates=10)
        vectors = random_vectors(circuit, 10, seed=vec_seed)
        for kernel in KERNELS:
            sim = FaultSimulator(circuit, kernel=kernel)
            oracle.assert_commit_matches(sim, vectors[:split])
            oracle.assert_commit_matches(sim, vectors[split:])

    def test_incremental_commits_match_single_commit(self, minifsm_circuit):
        """State (good + faulty divergences) must carry across commits."""
        vectors = random_vectors(minifsm_circuit, 24, seed=13)
        whole = FaultSimulator(minifsm_circuit)
        whole.commit(vectors)
        pieces = FaultSimulator(minifsm_circuit)
        for i in range(0, 24, 3):
            pieces.commit(vectors[i:i + 3])
        assert whole.detected_count == pieces.detected_count
        assert whole.good_state.ff_values == pieces.good_state.ff_values
        assert whole.undetected_faults() == pieces.undetected_faults()


class TestEvaluate:
    def test_evaluate_does_not_mutate(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        sim.commit(random_vectors(s27_circuit, 5, seed=1))
        before = sim.snapshot()
        sim.evaluate(random_vectors(s27_circuit, 6, seed=2))
        after = sim.snapshot()
        assert before.good_state.ff_values == after.good_state.ff_values
        assert before.divergence == after.divergence
        assert before.active == after.active

    def test_evaluate_matches_commit_detection_count(self, minifsm_circuit):
        vectors = random_vectors(minifsm_circuit, 8, seed=3)
        sim = FaultSimulator(minifsm_circuit)
        eval_result = sim.evaluate(vectors)
        commit_result = sim.commit(vectors)
        assert eval_result.detected == commit_result.detected_count

    def test_sample_restricts_simulation(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        sample = sim.active[:5]
        result = sim.evaluate(random_vectors(s27_circuit, 10, seed=4), sample=sample)
        assert result.num_faults_simulated == 5
        assert result.detected <= 5

    def test_empty_sample_good_machine_only(self, counter3_circuit):
        sim = FaultSimulator(counter3_circuit)
        result = sim.evaluate([[1, 0]], sample=[])
        assert result.detected == 0
        assert result.ffs_set == 3  # reset initializes all FFs

    def test_ffs_changed_reported(self, counter3_circuit):
        sim = FaultSimulator(counter3_circuit)
        sim.commit([[1, 0]])  # reset -> 000
        result = sim.evaluate([[0, 1]], sample=[])
        assert result.ffs_changed == 1  # bit 0 toggles

    def test_faulty_events_counted_when_requested(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        with_events = sim.evaluate(
            random_vectors(s27_circuit, 3, seed=5), count_faulty_events=True
        )
        without = sim.evaluate(
            random_vectors(s27_circuit, 3, seed=5), count_faulty_events=False
        )
        assert with_events.faulty_events > 0
        assert without.faulty_events == 0
        assert with_events.detected == without.detected

    def test_prop_counts_monotone_with_frames(self, minifsm_circuit):
        sim = FaultSimulator(minifsm_circuit)
        result = sim.evaluate(random_vectors(minifsm_circuit, 6, seed=6))
        assert result.prop_sum >= result.prop_final
        assert result.frames == 6


class TestEvaluateBatch:
    """The population pass must equal the scalar oracle exactly."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2000),
        n_cand=st.integers(1, 6),
        frames=st.integers(1, 4),
        events=st.booleans(),
    )
    def test_batch_equals_serial(self, seed, n_cand, frames, events):
        circuit = make_random_circuit(seed, n_pi=3, n_ff=2, n_gates=10)
        rng = random.Random(seed)
        candidates = [
            [
                [rng.randint(0, 1) for _ in range(circuit.num_inputs)]
                for _ in range(frames)
            ]
            for _ in range(n_cand)
        ]
        for kernel in KERNELS:
            sim = FaultSimulator(circuit, kernel=kernel)
            sim.commit(random_vectors(circuit, 4, seed=seed))  # create divergences
            expected = [
                oracle.evaluate_like(sim, c, count_faulty_events=events)
                for c in candidates
            ]
            serial = [
                sim.evaluate(c, count_faulty_events=events) for c in candidates
            ]
            batch = sim.evaluate_batch(candidates, count_faulty_events=events)
            assert serial == batch == expected

    def test_batch_with_sample(self, s27_circuit):
        candidates = [[v] for v in random_vectors(s27_circuit, 8, seed=3)]
        for kernel in KERNELS:
            sim = FaultSimulator(s27_circuit, kernel=kernel)
            sample = sim.active[:7]
            expected = [oracle.evaluate_like(sim, c, sample) for c in candidates]
            serial = [sim.evaluate(c, sample=sample) for c in candidates]
            batch = sim.evaluate_batch(candidates, sample=sample)
            assert serial == batch == expected

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("warm", [0, 5])
    def test_empty_sample(self, kernel, warm, s27_circuit):
        """With no sampled fault every block is a lone top slot: the
        good-machine observables still come out right."""
        sim = FaultSimulator(s27_circuit, kernel=kernel)
        sim.commit(random_vectors(s27_circuit, warm, seed=8))
        candidates = [random_vectors(s27_circuit, 3, seed=s) for s in range(4)]
        expected = [oracle.evaluate_like(sim, c, [], count_faulty_events=True)
                    for c in candidates]
        assert sim.evaluate_batch(
            candidates, sample=[], count_faulty_events=True) == expected
        assert [sim.evaluate(c, sample=[], count_faulty_events=True)
                for c in candidates] == expected

    def test_x_inputs_supported(self, s27_circuit):
        """X-valued primary inputs score (with and without a fault
        sample) and commit exactly as the oracle says, on every kernel."""
        rng = random.Random(11)
        candidates = [
            [[rng.choice((0, 1, X)) for _ in range(s27_circuit.num_inputs)]
             for _ in range(3)]
            for _ in range(4)
        ]
        candidates[0][0] = [X] * s27_circuit.num_inputs
        for kernel in KERNELS:
            sim = FaultSimulator(s27_circuit, kernel=kernel)
            for sample in (None, []):
                expected = [oracle.evaluate_like(sim, c, sample,
                                                 count_faulty_events=True)
                            for c in candidates]
                assert sim.evaluate_batch(
                    candidates, sample=sample, count_faulty_events=True
                ) == expected
            oracle.assert_commit_matches(sim, candidates[0])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_zero_frames(self, kernel, s27_circuit):
        """Zero-frame candidates score the committed state, and a
        zero-frame commit leaves every piece of state as it was."""
        sim = FaultSimulator(s27_circuit, kernel=kernel)
        sim.commit(random_vectors(s27_circuit, 4, seed=9))
        expected = oracle.evaluate_like(sim, [], count_faulty_events=True)
        assert expected.ffs_set > 0
        assert sim.evaluate_batch([[], []], count_faulty_events=True) == [
            expected, expected]
        assert sim.evaluate([], count_faulty_events=True) == expected
        before = sim.snapshot()
        oracle.assert_commit_matches(sim, [])
        assert sim.divergence == before.divergence
        assert sim.active == before.active

    def test_batch_empty_cases(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        assert sim.evaluate_batch([]) == []
        result = sim.evaluate_batch([[[0, 0, 0, 0]]], sample=[])
        assert result[0].detected == 0

    def test_batch_frame_count_checked(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        with pytest.raises(ValueError, match="same frame count"):
            sim.evaluate_batch([
                [[0, 0, 0, 0]],
                [[0, 0, 0, 0], [1, 1, 1, 1]],
            ])

    def test_batch_does_not_mutate(self, minifsm_circuit):
        sim = FaultSimulator(minifsm_circuit)
        sim.commit(random_vectors(minifsm_circuit, 3, seed=1))
        before = sim.snapshot()
        sim.evaluate_batch([
            random_vectors(minifsm_circuit, 2, seed=s) for s in range(4)
        ])
        after = sim.snapshot()
        assert before.good_state.ff_values == after.good_state.ff_values
        assert before.divergence == after.divergence

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_cand=st.integers(1, 32),
        frames=st.integers(1, 3),
        size=st.sampled_from(["one", "below-population", "64", "all"]),
        warm=st.integers(0, 6),
        events=st.booleans(),
    )
    def test_block_layout_matches_per_candidate_evaluate(
        self, kernel, seed, n_cand, frames, size, warm, events
    ):
        """Every CandidateEval field of the population pass (S fault
        slots plus one fault-free top slot per candidate) equals the
        scalar oracle, for shuffled samples of every size and every
        injection-site kind; then a commit from the same warm state
        changes the state exactly as the oracle says."""
        compiled, faults = _batch_circuit()
        circuit = compiled.circuit
        sim = FaultSimulator(compiled, faults=faults, kernel=kernel)
        sim.commit(random_vectors(circuit, warm, seed=seed))
        rng = random.Random(seed)
        active = list(sim.active)
        want = {
            "one": 1,
            "below-population": max(1, n_cand - 1 - rng.randrange(n_cand)),
            "64": 64,
            "all": len(active),
        }[size]
        sites = _site_faults(sim)
        rest = [f for f in active if f not in sites]
        rng.shuffle(rest)
        sample = (sites + rest)[:want]
        rng.shuffle(sample)
        candidates = [
            random_vectors(circuit, frames, seed=rng.randrange(10**6))
            for _ in range(n_cand)
        ]
        expected = [
            oracle.evaluate_like(sim, c, sample, count_faulty_events=events)
            for c in candidates
        ]
        assert sim.evaluate_batch(
            candidates, sample=sample, count_faulty_events=events
        ) == expected
        assert sim.evaluate(
            candidates[0], sample=sample, count_faulty_events=events
        ) == expected[0]
        oracle.assert_commit_matches(sim, candidates[0])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_worker_state_overwrite_without_epoch_bump(self, kernel,
                                                       monkeypatch):
        """Pool workers overwrite ``good_state``/``divergence`` per task
        and keep their memoized layout: a second batch on the same
        sample reuses the layout but must still score against the new
        state."""
        compiled, faults = _batch_circuit()
        circuit = compiled.circuit
        monkeypatch.setattr(pool_worker, "_SIM", None)
        parent = FaultSimulator(compiled, faults=faults, kernel=kernel)
        pool_worker.init_worker(compiled, faults, kernel=parent.kernel_name)
        sample = _site_faults(parent) + list(parent.active)[:40]
        candidates = [random_vectors(circuit, 2, seed=s) for s in range(4)]
        scores = []
        layouts = []
        for commit_seed in (21, 22):
            parent.commit(random_vectors(circuit, 5, seed=commit_seed))
            task = pool_worker.shard_payload(parent, candidates, sample, True)
            rows, _seconds = pool_worker.run_batch_shard(task)
            expected = [
                oracle.evaluate_like(parent, c, sample, count_faulty_events=True)
                for c in candidates
            ]
            assert rows == [
                (e.detected, e.prop_final, e.prop_sum, e.faulty_events,
                 e.good_events, e.ffs_set, e.ffs_changed)
                for e in expected
            ]
            scores.append(rows)
            layouts.append(pool_worker._SIM._batch_layout(sample, len(candidates)))
        assert layouts[0] is layouts[1]  # one layout served both tasks
        assert scores[0] != scores[1]  # the overwrite changed the scores

    def test_backends_never_share_a_memoized_layout(self):
        """Simulators of different backends on one compiled circuit and
        one sample each keep their own injection (the memo lives on the
        instance, never in a module-level table)."""
        compiled, faults = _batch_circuit()
        sims = [FaultSimulator(compiled, faults=faults, kernel=k)
                for k in KERNELS]
        sample = list(sims[0].active)[:50]
        candidates = [random_vectors(compiled.circuit, 2, seed=s)
                      for s in range(3)]
        expected = [oracle.evaluate_like(sims[0], c, sample) for c in candidates]
        for _round in range(2):
            for sim in sims:
                assert sim.evaluate_batch(candidates, sample=sample) == expected
        layouts = [sim._batch_layout(sample, len(candidates)) for sim in sims]
        assert len({id(layout) for layout in layouts}) == len(sims)
        assert len({id(layout.injection) for layout in layouts}) == len(sims)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_slot_frames_count_fault_slots_only(self, kernel):
        """``sim.batch.slot_frames`` is candidates x faults x frames; the
        fault-free top slot of each block is not a simulated fault."""
        compiled, faults = _batch_circuit()
        collector = TelemetryCollector()
        sim = FaultSimulator(compiled, faults=faults, kernel=kernel,
                             collector=collector)
        sample = list(sim.active)[:30]
        candidates = [random_vectors(compiled.circuit, 3, seed=s)
                      for s in range(5)]
        sim.evaluate_batch(candidates, sample=sample)
        assert collector.counters["sim.batch.slot_frames"] == 5 * 30 * 3


# ---------------------------------------------------------------------------
# The input stage: PI planes and the layout's injection tables
# ---------------------------------------------------------------------------

#: Input values the PI-plane builder must read by today's rule: ``== 1``
#: is 1, ``== 0`` is 0, anything else is X.  ``bytes()`` refuses the
#: last four.
PI_VALUES = (0, 1, X, True, 1.0, -1, 300, None)


def _reference_pi_planes(candidates, S):
    """Per frame, ``(ones, zeros)``, one value at a time: a value ``== 1``
    sets its candidate's whole block of ``S + 1`` slots in its input's
    ones word, a value ``== 0`` in the zeros word."""
    B = S + 1
    planes = []
    for frame in range(len(candidates[0])):
        ones = []
        zeros = []
        for i in range(len(candidates[0][frame])):
            w1 = w0 = 0
            for c, candidate in enumerate(candidates):
                block = ((1 << B) - 1) << (c * B)
                value = candidate[frame][i]
                if value == 1:
                    w1 |= block
                elif value == 0:
                    w0 |= block
            ones.append(w1)
            zeros.append(w0)
        planes.append((ones, zeros))
    return planes


@functools.lru_cache(maxsize=1)
def _layout_sim():
    compiled, faults = _batch_circuit()
    return FaultSimulator(compiled, faults=faults)


class TestInputStage:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_cand=st.integers(1, 40),
        frames=st.integers(0, 6),
        width=st.integers(1, 5),
        size=st.one_of(st.integers(0, 12), st.integers(64, 80)),
        values=st.sampled_from([(0, 1), (0, 1, X), PI_VALUES]),
    )
    def test_pi_planes_match_per_value_reference(
        self, seed, n_cand, frames, width, size, values
    ):
        """The input builder gives the per-value planes for samples on
        both sides of seven faults (``S + 1 < 8`` and not), populations
        on both sides of :data:`BULK_MIN_VALUES`, and every value kind."""
        sim = _layout_sim()
        layout = sim._batch_layout(list(sim.active)[:size], n_cand)
        rng = random.Random(seed)
        candidates = [
            [[rng.choice(values) for _ in range(width)] for _ in range(frames)]
            for _ in range(n_cand)
        ]
        assert FaultSimulator._batch_pi_planes(candidates, layout) == (
            _reference_pi_planes(candidates, layout.S))

    @pytest.mark.parametrize("odd", [1.0, -1, 300, None])
    def test_refused_value_in_a_bulk_population(self, odd):
        """One value ``bytes()`` refuses anywhere in a population large
        enough for the bulk path still reads by the per-value rule."""
        sim = _layout_sim()
        layout = sim._batch_layout(list(sim.active)[:7], 6)
        rng = random.Random(3)
        candidates = [[[rng.randint(0, 1) for _ in range(3)]
                       for _ in range(BULK_MIN_VALUES)] for _ in range(6)]
        candidates[4][2][1] = odd
        assert FaultSimulator._batch_pi_planes(candidates, layout) == (
            _reference_pi_planes(candidates, layout.S))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_pi_stem_forces_live_only_in_pi_forces(self, kernel):
        """Primary-input stem forces are applied at load, so no layout's
        gate injection holds a row for a primary input: replicated,
        trimmed and commit-slot layouts alike."""
        compiled, faults = _batch_circuit()
        sim = FaultSimulator(compiled, faults=faults, kernel=kernel)
        inputs = set(compiled.pi_ids)
        sample = [f for f in sim.active if faults[f].pin == STEM
                  and faults[f].node in inputs]
        sample += [f for f in sim.active if f not in sample][:30]
        replicated = sim._batch_layout(sample, 8)
        trimmed = sim._batch_layout(sample, 3)
        sim.commit(random_vectors(compiled.circuit, 1, seed=2))
        committed = sim._slots.layout
        for layout in (replicated, trimmed, committed):
            assert layout.pi_forces
            assert {node for node, _f1, _f0 in layout.pi_forces} == inputs & {
                faults[f].node for f in sample if faults[f].pin == STEM}
            assert not inputs & set(layout.out_force)
            if kernel == "codegen":
                assert all(layout.injection[pi] is None for pi in inputs)
            else:
                assert not inputs & set(layout.injection[0])
        assert trimmed is not replicated and trimmed.n_cand == 3


class TestStateManagement:
    def test_snapshot_restore_round_trip(self, minifsm_circuit):
        sim = FaultSimulator(minifsm_circuit)
        sim.commit(random_vectors(minifsm_circuit, 6, seed=7))
        snap = sim.snapshot()
        detected_before = sim.detected_count
        sim.commit(random_vectors(minifsm_circuit, 12, seed=8))
        sim.restore(snap)
        assert sim.detected_count == detected_before
        # After restore, continuing must be equivalent to never diverging.
        replay = random_vectors(minifsm_circuit, 4, seed=9)
        a = sim.evaluate(replay)
        sim.restore(snap)
        b = sim.evaluate(replay)
        assert a.detected == b.detected

    def test_restore_is_deep(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        sim.commit(random_vectors(s27_circuit, 4, seed=10))
        snap = sim.snapshot()
        snap_divergence = {f: dict(d) for f, d in snap.divergence.items()}
        sim.commit(random_vectors(s27_circuit, 8, seed=11))
        assert snap.divergence == snap_divergence  # snapshot untouched

    def test_reset(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        sim.commit(random_vectors(s27_circuit, 10, seed=12))
        sim.reset()
        assert sim.detected_count == 0
        assert sim.good_state.ff_values == [X, X, X]
        assert sim.divergence == {}
        assert sim.vectors_applied == 0

    def test_restore_rolls_back_detections(self, s27_circuit):
        """Detections of rolled-back commits leave with them, so a
        checkpoint or result never names a fault that is active again."""
        sim = FaultSimulator(s27_circuit)
        vectors = random_vectors(s27_circuit, 13, seed=13)
        sim.commit(vectors[:3])
        first = sim.detected_count
        assert len(sim.detections) == first
        snap = sim.snapshot()
        sim.commit(vectors[3:])
        assert len(sim.detections) == sim.detected_count > first
        sim.restore(snap)
        assert sim.detected_count == len(sim.detections) == first
        detected = {sim.faults.index(fault) for fault, _ in sim.detections}
        assert detected.isdisjoint(sim.active)
        sim.commit(vectors[3:])  # the snapshot's list is not aliased
        sim.restore(snap)
        assert len(sim.detections) == first

    def test_detected_faults_dropped(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        result = sim.commit(random_vectors(s27_circuit, 15, seed=13))
        for fault_id in range(len(sim.faults)):
            if sim.status[fault_id] is FaultStatus.DETECTED:
                assert fault_id not in sim.active
                assert fault_id not in sim.divergence

    def test_vectors_applied_tracked(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        sim.commit(random_vectors(s27_circuit, 5, seed=1))
        sim.commit(random_vectors(s27_circuit, 7, seed=2))
        assert sim.vectors_applied == 12

    def test_coverage_properties(self, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        assert sim.fault_coverage == 0.0
        sim.commit(random_vectors(s27_circuit, 30, seed=14))
        assert 0.0 < sim.fault_coverage <= 1.0
        assert sim.detected_count + len(sim.active) == sim.num_faults


class TestConstruction:
    def test_custom_fault_list(self, s27_circuit):
        faults = collapsed_fault_list(s27_circuit)[:4]
        sim = FaultSimulator(s27_circuit, faults=faults)
        assert sim.num_faults == 4

    def test_synthetic_circuit_smoke(self):
        circuit = synthesize_named("s386", scale=0.2)
        sim = FaultSimulator(circuit)
        sim.commit(random_vectors(circuit, 50, seed=15))
        assert sim.detected_count > 0


class TestVectorWidth:
    """A vector must carry exactly one value per primary input."""

    @pytest.mark.parametrize("width", [3, 5])
    def test_evaluate_batch_rejects(self, width, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        bad = [[0] * width]
        with pytest.raises(ValueError, match=(
                rf"candidate 1, frame 0: {width} values .* 4 primary inputs")):
            sim.evaluate_batch([[[0, 1, 0, 1]], bad])

    @pytest.mark.parametrize("width", [3, 5])
    def test_evaluate_rejects(self, width, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        with pytest.raises(ValueError, match=(
                rf"candidate 0, frame 1: {width} values .* 4 primary inputs")):
            sim.evaluate([[0, 1, 0, 1], [1] * width])

    @pytest.mark.parametrize("width", [3, 5])
    def test_commit_rejects_before_changing_state(self, width, s27_circuit):
        sim = FaultSimulator(s27_circuit)
        sim.commit(random_vectors(s27_circuit, 3, seed=2))
        before = sim.snapshot()
        detections = list(sim.detections)
        with pytest.raises(ValueError, match=(
                rf"candidate 0, frame 2: {width} values .* 4 primary inputs")):
            sim.commit([[0, 1, 0, 1], [1, 1, 0, 0], [0] * width])
        after = sim.snapshot()
        assert after.good_state.ff_values == before.good_state.ff_values
        assert after.divergence == before.divergence
        assert after.active == before.active
        assert sim.vectors_applied == before.vectors_applied
        assert sim.detections == detections

    @settings(max_examples=25, deadline=None)
    @given(
        n_cand=st.integers(1, 5),
        frames=st.integers(1, 5),
        seed=st.integers(0, 1000),
        delta=st.sampled_from([-1, 1]),
    )
    def test_any_bad_vector_is_named_before_any_state_changes(
        self, n_cand, frames, seed, delta
    ):
        """A short or long vector at any (candidate, frame) is named by
        ``evaluate_batch`` and, as a one-candidate test, by ``commit``,
        and neither changes any state."""
        circuit = s27()
        rng = random.Random(seed)
        sim = FaultSimulator(circuit)
        sim.commit(random_vectors(circuit, 3, seed=seed))
        before = sim.snapshot()
        candidates = [random_vectors(circuit, frames, seed=rng.randrange(10**6))
                      for _ in range(n_cand)]
        c = rng.randrange(n_cand)
        frame = rng.randrange(frames)
        candidates[c][frame] = [0] * (4 + delta)
        with pytest.raises(ValueError, match=(
                rf"candidate {c}, frame {frame}: {4 + delta} values .* "
                r"4 primary inputs")):
            sim.evaluate_batch(candidates)
        with pytest.raises(ValueError, match=(
                rf"candidate 0, frame {frame}: {4 + delta} values")):
            sim.commit(candidates[c])
        after = sim.snapshot()
        assert after.good_state.ff_values == before.good_state.ff_values
        assert after.divergence == before.divergence
        assert after.active == before.active
        assert after.detections == before.detections
        assert sim.vectors_applied == before.vectors_applied


# ---------------------------------------------------------------------------
# The commit slot space: stable slots, dead-slot masking, repacks
# ---------------------------------------------------------------------------

def _slot_sim(kernel, model):
    """A simulator of ``model`` on the s298 stand-in, counting repacks."""
    compiled, faults = _batch_circuit()
    collector = TelemetryCollector()
    if model == "transition":
        sim = TransitionFaultSimulator(compiled, kernel=kernel,
                                       collector=collector)
    else:
        sim = FaultSimulator(compiled, faults=faults, kernel=kernel,
                             collector=collector)
    return sim, collector


def _repacks(collector):
    return collector.counters.get("sim.commit.repacks", 0)


def _has_dead_slots(sim):
    slots = sim._slots
    return slots.live != (1 << len(slots.ids)) - 1


def _checked_commit(sim, vector):
    """Commit one frame, checked against the oracle; detections must come
    out in active-list order."""
    active = list(sim.active)
    oracle.assert_commit_matches(sim, [vector])
    index = {fault: i for i, fault in enumerate(sim.faults)}
    frame = sim.vectors_applied - 1
    got = [index[fault] for fault, at in sim.detections if at == frame]
    detected = set(got)
    assert got == [f for f in active if f in detected]


def _same_next_commits(original, restored, vectors):
    """Both simulators commit ``vectors`` one frame at a time; the restored
    one is checked against the oracle, and every result must agree."""
    for vector in vectors:
        want = original.commit([vector])
        before = len(restored.detections)
        _checked_commit(restored, vector)
        assert restored.detections[before:] == want.detections
        assert restored.divergence == original.divergence
        assert restored.good_state.ff_values == original.good_state.ff_values
        assert restored.active == original.active
    assert restored.detections == original.detections


@pytest.mark.parametrize("model", ["stuck-at", "transition"])
@pytest.mark.parametrize("kernel", KERNELS)
class TestCommitSlotSpace:
    """Commits run over slots that survive them: a detected fault becomes
    a dead slot, and the slot space repacks once REPACK_DEAD_SHARE of it
    is dead.  Every state change must still be what the oracle says."""

    STREAM = 48

    def _stream(self, sim):
        return random_vectors(sim.circuit, self.STREAM, seed=31)

    def test_one_frame_stream_crosses_repacks(self, kernel, model):
        """Every one-frame commit matches the oracle across at least two
        repacks after the first build, and a shuffled-sample pass between
        commits scores what the oracle scores."""
        sim, collector = _slot_sim(kernel, model)
        rng = random.Random(7)
        for step, vector in enumerate(self._stream(sim)):
            _checked_commit(sim, vector)
            if step % 8 == 3 and sim.active:
                sample = list(sim.active)
                rng.shuffle(sample)
                sample = sample[:max(1, len(sample) // 2)]
                candidates = [random_vectors(sim.circuit, 2, seed=step + c)
                              for c in range(3)]
                assert sim.evaluate_batch(candidates, sample=sample) == [
                    oracle.evaluate_like(sim, c, sample) for c in candidates
                ]
        assert _repacks(collector) >= 3

    def test_snapshot_before_repack_restored_after(self, kernel, model):
        """A snapshot whose active list the repacked slots no longer cover
        restores, and the next commits are the original's."""
        sim, collector = _slot_sim(kernel, model)
        vectors = self._stream(sim)
        _checked_commit(sim, vectors[0])
        snap = sim.snapshot()
        repacks = _repacks(collector)
        step = 1
        while _repacks(collector) == repacks:
            _checked_commit(sim, vectors[step])
            step += 1
        sim.restore(snap)
        original, _ = _slot_sim(kernel, model)
        original.commit([vectors[0]])
        _same_next_commits(original, sim, vectors[1:step + 8])

    def test_reset_after_repack(self, kernel, model):
        """``reset`` after a repack gives back power-up: a stream from
        there commits what a fresh simulator commits."""
        sim, collector = _slot_sim(kernel, model)
        vectors = self._stream(sim)
        step = 0
        while _repacks(collector) < 2:
            _checked_commit(sim, vectors[step])
            step += 1
        sim.reset()
        fresh, _ = _slot_sim(kernel, model)
        _same_next_commits(fresh, sim, vectors[:12])

    def test_run_state_round_trip_with_dead_slots(self, kernel, model):
        """A run checkpoint taken mid-stream, while the slot space holds
        dead slots, restores into a simulator whose next commits are the
        original's."""
        sim, _ = _slot_sim(kernel, model)
        vectors = self._stream(sim)
        step = 0
        while step < 6 or not _has_dead_slots(sim):
            _checked_commit(sim, vectors[step])
            step += 1
        state = json.loads(json.dumps(sim_run_state(sim)))
        restored, _ = _slot_sim(kernel, model)
        restore_sim_run_state(restored, state)
        _same_next_commits(sim, restored, vectors[step:step + 12])


def _checkpoint_round_trip(kernel, model, path):
    """A simulator checkpoint saved mid-stream, while the slot space
    holds dead slots, loads as a simulator of the same model whose next
    commits are the original's."""
    sim, _ = _slot_sim(kernel, model)
    vectors = random_vectors(sim.circuit, TestCommitSlotSpace.STREAM, seed=31)
    step = 0
    while step < 6 or not _has_dead_slots(sim):
        _checked_commit(sim, vectors[step])
        step += 1
    save_checkpoint(path, sim)
    restored, _ = load_checkpoint(path, sim.compiled)
    assert type(restored) is type(sim)
    _same_next_commits(sim, restored, vectors[step:step + 12])


@pytest.mark.parametrize("kernel", KERNELS)
def test_simulator_checkpoint_round_trip_with_dead_slots(kernel, tmp_path):
    """The same through ``save_checkpoint``/``load_checkpoint``."""
    _checkpoint_round_trip(kernel, "stuck-at", tmp_path / "sim.json")


@pytest.mark.parametrize("kernel", KERNELS)
def test_transition_simulator_checkpoint_round_trip(kernel, tmp_path):
    """Simulator checkpoints cover the transition model too."""
    _checkpoint_round_trip(kernel, "transition", tmp_path / "sim.json")


def test_one_frame_stream_repacks_within_the_dead_share_bound():
    """200 one-frame commits from power-up on full-size s1423 build the
    slot space, then repack only past REPACK_DEAD_SHARE dead.  Each
    repack after the first shrinks the slot space below ``1 - share`` of
    its size, and it never shrinks below the faults still active, so

        repacks <= 1 + log(initial faults / final active) / log(1 / (1 - share)).

    Every repack builds one injection, and commits build none."""
    circuit = library.resolve_spec("s1423", scale=1.0, seed=0)
    collector = TelemetryCollector()
    sim = FaultSimulator(circuit, collector=collector)
    calls = []
    make_injection = sim._kernel.make_injection

    def counting(*args):
        calls.append(args)
        return make_injection(*args)

    sim._kernel.make_injection = counting
    for vector in random_vectors(circuit, 200, seed=1):
        sim.commit([vector])
    repacks = _repacks(collector)
    bound = 1 + math.log(sim.num_faults / len(sim.active)) / math.log(
        1 / (1 - REPACK_DEAD_SHARE))
    assert 1 <= repacks <= bound
    assert len(calls) == repacks
