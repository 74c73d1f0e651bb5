"""Tests for the simulation layer: the compiled program and circuit state.

Simulation itself is checked against the scalar oracle (tests/oracle.py)
in tests/test_fault_simulator.py; :func:`make_random_circuit` builds the
random netlists those property tests use.
"""

import random

from repro.circuit import Circuit, GateType
from repro.circuit.gates import X
from repro.sim import GoodState, compile_circuit


# ---------------------------------------------------------------------------
# Random circuit construction for property tests
# ---------------------------------------------------------------------------

def make_random_circuit(seed: int, n_pi: int = 4, n_ff: int = 3, n_gates: int = 12) -> Circuit:
    rng = random.Random(seed)
    c = Circuit(f"rand{seed}")
    signals = []
    for i in range(n_pi):
        c.add_input(f"pi{i}")
        signals.append(f"pi{i}")
    ff_names = [f"ff{i}" for i in range(n_ff)]
    signals.extend(ff_names)  # forward references via declare
    gate_types = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
                  GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUFF]
    gates = []
    for i in range(n_gates):
        gt = rng.choice(gate_types)
        if gt in (GateType.NOT, GateType.BUFF):
            fanins = [rng.choice(signals + gates)]
        else:
            pool = signals + gates
            fanins = rng.sample(pool, min(len(pool), rng.randint(2, 3)))
        name = f"g{i}"
        c.add_gate(name, gt, fanins)
        gates.append(name)
    for i, ff in enumerate(ff_names):
        c.add_dff(ff, rng.choice(gates))
    for _ in range(2):
        c.mark_output(rng.choice(gates))
    return c.finalize()


class TestGoodState:
    def test_unknown(self):
        state = GoodState.unknown(4)
        assert state.ff_values == [X, X, X, X]
        assert state.num_set == 0
        assert not state.all_set

    def test_copy_is_independent(self):
        a = GoodState([0, 1])
        b = a.copy()
        b.ff_values[0] = 1
        assert a.ff_values == [0, 1]

    def test_counts(self):
        state = GoodState([0, 1, X, 1])
        assert state.num_set == 3
        assert not state.all_set
        assert GoodState([0, 1]).all_set


class TestCompile:
    def test_program_covers_comb_gates(self, s27_circuit):
        compiled = compile_circuit(s27_circuit)
        assert len(compiled.program) == s27_circuit.num_gates
        assert compiled.num_pis == 4
        assert compiled.num_ffs == 3
        assert compiled.num_pos == 1

    def test_ff_d_ids(self, s27_circuit):
        compiled = compile_circuit(s27_circuit)
        for ff, d in zip(compiled.ff_ids, compiled.ff_d_ids):
            assert s27_circuit.fanins[ff] == (d,)

    def test_program_in_topo_order(self, tiny_synth):
        compiled = compile_circuit(tiny_synth)
        seen = set(compiled.pi_ids) | set(compiled.ff_ids)
        for out, _op, _inv, fanins in compiled.program:
            assert all(f in seen for f in fanins)
            seen.add(out)
