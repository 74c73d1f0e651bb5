"""Unit and property tests for the scalar three-valued gate evaluator."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit.gates import BENCH_NAMES, GateType, X, eval_gate_scalar

SCALARS = [0, 1, X]


class TestScalarTruthTables:
    @pytest.mark.parametrize("a,b,expect", [
        (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1),
        (0, X, 0), (X, 0, 0),       # controlling 0 dominates X
        (1, X, X), (X, 1, X), (X, X, X),
    ])
    def test_and(self, a, b, expect):
        assert eval_gate_scalar(GateType.AND, [a, b]) == expect

    @pytest.mark.parametrize("a,b,expect", [
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1),
        (1, X, 1), (X, 1, 1),       # controlling 1 dominates X
        (0, X, X), (X, 0, X), (X, X, X),
    ])
    def test_or(self, a, b, expect):
        assert eval_gate_scalar(GateType.OR, [a, b]) == expect

    @pytest.mark.parametrize("a,b,expect", [
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
        (0, X, X), (X, 1, X), (X, X, X),  # XOR never masks X
    ])
    def test_xor(self, a, b, expect):
        assert eval_gate_scalar(GateType.XOR, [a, b]) == expect

    @pytest.mark.parametrize("a,expect", [(0, 1), (1, 0), (X, X)])
    def test_not(self, a, expect):
        assert eval_gate_scalar(GateType.NOT, [a]) == expect

    @pytest.mark.parametrize("a", SCALARS)
    def test_buff_identity(self, a):
        assert eval_gate_scalar(GateType.BUFF, [a]) == a

    @pytest.mark.parametrize("gate,inverse", [
        (GateType.NAND, GateType.AND),
        (GateType.NOR, GateType.OR),
        (GateType.XNOR, GateType.XOR),
    ])
    def test_inverting_duals(self, gate, inverse):
        for a in SCALARS:
            for b in SCALARS:
                base = eval_gate_scalar(inverse, [a, b])
                expect = X if base == X else 1 - base
                assert eval_gate_scalar(gate, [a, b]) == expect


class TestMultiInputGates:
    @given(st.lists(st.sampled_from(SCALARS), min_size=2, max_size=6),
           st.sampled_from([GateType.AND, GateType.OR, GateType.NAND,
                            GateType.NOR, GateType.XOR, GateType.XNOR]))
    def test_n_input_gate_is_pairwise_fold(self, inputs, gate_type):
        """An n-input gate equals the left fold of its 2-input truth
        table (the non-inverting one, inverted once at the end)."""
        base = {GateType.NAND: GateType.AND, GateType.NOR: GateType.OR,
                GateType.XNOR: GateType.XOR}.get(gate_type, gate_type)
        expect = inputs[0]
        for value in inputs[1:]:
            expect = eval_gate_scalar(base, [expect, value])
        if base is not gate_type:
            expect = eval_gate_scalar(GateType.NOT, [expect])
        assert eval_gate_scalar(gate_type, inputs) == expect

    def test_gate_without_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least one input"):
            eval_gate_scalar(GateType.AND, [])

    def test_bad_scalar_rejected(self):
        with pytest.raises(ValueError, match="not a three-valued scalar"):
            eval_gate_scalar(GateType.OR, [0, 7])


def test_bench_name_table_covers_all_types():
    assert set(BENCH_NAMES.values()) == set(GateType) - {GateType.INPUT}


def test_sequential_flags():
    assert GateType.DFF.is_sequential
    assert not GateType.DFF.is_combinational
    assert not GateType.INPUT.is_combinational
    assert GateType.NAND.is_combinational
