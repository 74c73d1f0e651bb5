"""Behavioral tests for the bundled parametric circuits."""

import pytest

from repro.circuit import (
    build_builtin,
    list_builtin,
    mini_fsm,
    parity_tracker,
    resettable_counter,
    resolve_spec,
    shift_register,
    synthesize_named,
    uninitializable_loop,
)
from repro.circuit.gates import X
from repro.circuit.library import canonical_spec

from tests import oracle


class TestShiftRegister:
    def test_depth_equals_stages(self):
        for n in (1, 3, 6):
            assert shift_register(n).sequential_depth() == n

    def test_shifts_data(self):
        c = shift_register(3)
        # Push 1,0,1,0... and observe it emerge 3 cycles later.
        stream = [1, 0, 1, 1, 0, 0, 1]
        trace = oracle.po_trace(c, [[b] for b in stream])
        # Output at time t is input at time t-3 (X before that).
        for t, po in enumerate(trace):
            expect = stream[t - 3] if t >= 3 else X
            assert po[0] == expect

    def test_rejects_zero_stages(self):
        with pytest.raises(ValueError):
            shift_register(0)


class TestCounter:
    def test_reset_initializes(self):
        c = resettable_counter(3)
        run = oracle.good_run(c, [[1, 0]])  # rst=1, en=0
        assert run.ff_states[-1] == [0, 0, 0]

    def test_counts_up(self):
        c = resettable_counter(3)
        counts = [1, 2, 3, 4, 5, 6, 7, 0, 1]
        # Reset, then count.
        run = oracle.good_run(c, [[1, 0]] + [[0, 1]] * len(counts))
        for expected, bits in zip(counts, run.ff_states[1:]):
            assert sum(b << i for i, b in enumerate(bits)) == expected

    def test_hold_when_disabled(self):
        c = resettable_counter(2)
        run = oracle.good_run(c, [[1, 0], [0, 1], [0, 0]])  # enable off: hold
        assert run.ff_states[2] == run.ff_states[1]

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            resettable_counter(0)


class TestParityTracker:
    def test_stays_unknown_without_clear(self):
        c = parity_tracker()
        run = oracle.good_run(c, [[1, 0]] * 10)  # din=1, clr=0
        assert run.ff_states[-1] == [X]

    def test_clear_then_tracks_parity(self):
        c = parity_tracker()
        bits = [1, 1, 0, 1, 0, 0, 1]
        run = oracle.good_run(c, [[0, 1]] + [[bit, 0] for bit in bits])  # clear
        assert run.ff_states[0] == [0]
        parity = 0
        for bit, state in zip(bits, run.ff_states[1:]):
            parity ^= bit
            assert state == [parity]


class TestUninitializableLoop:
    def test_never_initializes(self):
        c = uninitializable_loop()
        run = oracle.good_run(c, [[bit] for bit in [0, 1, 1, 0, 1, 0, 0, 1, 1, 1]])
        assert run.ff_states[-1] == [X]


class TestMiniFsm:
    def test_walks_states(self):
        c = mini_fsm()
        # Reset, walk three states, then idle.
        vectors = [[1, 0], [0, 1], [0, 1], [0, 1], [0, 0]]
        run = oracle.good_run(c, vectors)
        assert run.ff_states[0] == [0, 0]
        # Walk: 1, 2, 3 (s0 is bit 0, s1 is bit 1).
        seen = [s[0] + 2 * s[1] for s in run.ff_states[1:4]]
        assert seen == [1, 2, 3]
        # In state 3, output asserts.
        assert oracle.po_trace(c, vectors)[-1] == [1]


class TestRegistry:
    def test_all_builtins_build(self):
        for name in list_builtin():
            circuit = build_builtin(name)
            assert circuit.num_nodes > 0

    def test_unknown_builtin_raises(self):
        with pytest.raises(KeyError, match="unknown builtin"):
            build_builtin("nope")


class TestResolveSpec:
    def test_scaled_name_resolves_to_that_circuit(self):
        from repro.core.checkpoint import circuit_fingerprint

        scaled = synthesize_named("s298", scale=0.3)
        assert scaled.name == "s298@0.3"
        for scale in (1.0, 0.3):  # the default defers to the suffix
            resolved = resolve_spec(scaled.name, scale=scale)
            assert circuit_fingerprint(resolved) == circuit_fingerprint(scaled)
        assert (circuit_fingerprint(resolve_spec("s298"))
                != circuit_fingerprint(scaled))

    @pytest.mark.parametrize("spec, scale", [
        ("s298", 1.0), ("s298", 0.3), ("s298@0.3", 1.0), ("s298@0.3", 0.3),
        ("s27", 1.0), ("s27", 0.5), ("s27@0.5", 1.0), ("s27@1.0", 1.0),
    ])
    def test_canonical_spec_resolves_to_the_same_circuit(self, spec, scale):
        """The warm-registry key of a spelling resolves to the circuit
        the spelling names, also where a bundled name (``s27``) is an
        ISCAS89 profile too and only the suffix names the stand-in."""
        from repro.core.checkpoint import circuit_fingerprint

        key = canonical_spec(spec, scale)
        assert canonical_spec(*key) == key
        assert circuit_fingerprint(resolve_spec(*key)) == \
            circuit_fingerprint(resolve_spec(spec, scale=scale))

    @pytest.mark.parametrize("spec, scale, message", [
        ("s298@x", 1.0, "not a number"),
        ("s298@", 1.0, "not a number"),
        ("s298@0.3", 0.5, "also given"),
        ("s298@0", 1.0, "scale must be in"),
    ])
    def test_bad_scale_suffix_is_refused(self, spec, scale, message):
        with pytest.raises(ValueError, match=message):
            resolve_spec(spec, scale=scale)
