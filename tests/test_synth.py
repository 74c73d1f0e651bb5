"""Tests for profiles and the synthetic circuit generator."""

import pytest

from repro.circuit import (
    ISCAS89_PROFILES,
    CircuitProfile,
    Severity,
    get_profile,
    profile_of,
    synthesize,
    synthesize_named,
    validate,
    write_bench,
)
from repro.circuit.profiles import (
    TABLE2_CIRCUITS,
    TABLE3_CIRCUITS,
    TABLE6_CIRCUITS,
    TABLE7_CIRCUITS,
)

SMALL = ["s298", "s344", "s386", "s526", "s820", "s1196"]


class TestProfiles:
    def test_table2_circuits_have_profiles(self):
        for name in TABLE2_CIRCUITS:
            assert name in ISCAS89_PROFILES

    def test_study_lists_subset_of_table2(self):
        for names in (TABLE3_CIRCUITS, TABLE6_CIRCUITS, TABLE7_CIRCUITS):
            assert set(names) <= set(TABLE2_CIRCUITS)

    def test_paper_table2_values_spot_checks(self):
        p = get_profile("s298")
        assert (p.n_pi, p.seq_depth, p.total_faults) == (3, 8, 308)
        p = get_profile("s5378")
        assert (p.n_pi, p.seq_depth, p.total_faults) == (35, 36, 4603)

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            get_profile("s999")

    def test_scaled_preserves_pis_and_scales_depth(self):
        p = get_profile("s1423").scaled(0.25)
        assert p.n_pi == 17
        assert p.seq_depth == round(10 * 0.25)
        assert p.n_ff == round(74 * 0.25)
        assert p.total_faults is None

    def test_scaled_depth_floor_two(self):
        p = get_profile("s1423").scaled(0.1)  # depth 10 * 0.1 -> floor 2
        assert p.seq_depth == 2

    def test_scaled_depth_capped_by_ffs(self):
        p = get_profile("s820").scaled(0.1)  # only 1 FF left
        assert p.seq_depth == 1

    def test_scaled_identity(self):
        p = get_profile("s298")
        assert p.scaled(1.0) is p

    def test_scaled_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            get_profile("s298").scaled(0)
        with pytest.raises(ValueError):
            get_profile("s298").scaled(1.5)


class TestSynthesis:
    @pytest.mark.parametrize("name", SMALL)
    def test_profile_match(self, name):
        profile = get_profile(name)
        circuit = synthesize_named(name)
        assert circuit.num_inputs == profile.n_pi
        assert circuit.num_outputs == profile.n_po
        assert circuit.num_dffs == profile.n_ff
        assert circuit.sequential_depth() == profile.seq_depth
        # Gate count tracks the profile loosely (tree folding adds a few).
        assert abs(circuit.num_gates - profile.n_gates) <= 0.35 * profile.n_gates

    @pytest.mark.parametrize("name", SMALL)
    def test_deterministic_given_seed(self, name):
        a = write_bench(synthesize_named(name, seed=7, scale=0.3))
        b = write_bench(synthesize_named(name, seed=7, scale=0.3))
        assert a == b

    def test_different_seed_differs(self):
        a = write_bench(synthesize_named("s298", seed=1))
        b = write_bench(synthesize_named("s298", seed=2))
        assert a != b

    @pytest.mark.parametrize("name", SMALL)
    def test_no_error_violations(self, name):
        circuit = synthesize_named(name, scale=0.4)
        errors = [v for v in validate(circuit) if v.severity is Severity.ERROR]
        assert errors == []

    def test_scaled_depth_matches_scaled_profile(self):
        circuit = synthesize_named("s5378", scale=0.05)
        assert circuit.sequential_depth() == get_profile("s5378").scaled(0.05).seq_depth

    def test_profile_of_round_trip(self):
        circuit = synthesize_named("s386", scale=0.5)
        realized = profile_of(circuit)
        assert realized.n_pi == circuit.num_inputs
        assert realized.seq_depth == circuit.sequential_depth()

    def test_custom_profile(self):
        profile = CircuitProfile("tiny", n_pi=4, n_po=2, n_ff=5, n_gates=30, seq_depth=3)
        circuit = synthesize(profile, seed=1)
        assert circuit.num_dffs == 5
        assert circuit.sequential_depth() == 3

    def test_depth_one_profile(self):
        profile = CircuitProfile("flat", n_pi=3, n_po=1, n_ff=2, n_gates=12, seq_depth=1)
        circuit = synthesize(profile)
        assert circuit.sequential_depth() == 1


class TestSynthesizedTestability:
    """The substrate must be *testable* for the paper's dynamics to
    reproduce: random vectors must reach reasonable coverage and the
    deep core must initialize (DESIGN.md §3)."""

    def test_core_initializes_within_depth_frames(self):
        import random
        from repro.circuit.gates import X
        from tests import oracle

        circuit = synthesize_named("s298", scale=0.5)
        depth = circuit.sequential_depth()
        rng = random.Random(0)
        vectors = [
            [rng.randint(0, 1) for _ in range(circuit.num_inputs)]
            for _ in range(depth)
        ]
        core_ffs = [
            k for k, ff in enumerate(circuit.dffs)
            if circuit.node_names[ff].startswith("cff")
        ]
        values = oracle.good_run(circuit, vectors).ff_states[-1]
        assert all(values[k] != X for k in core_ffs)

    def test_random_vectors_reach_majority_coverage(self):
        import random
        from repro.faults import FaultSimulator

        circuit = synthesize_named("s298", scale=0.5)
        fsim = FaultSimulator(circuit)
        rng = random.Random(0)
        vectors = [
            [rng.randint(0, 1) for _ in range(circuit.num_inputs)]
            for _ in range(400)
        ]
        fsim.commit(vectors)
        assert fsim.fault_coverage > 0.5
