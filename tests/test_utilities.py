"""Tests for the analysis utilities: SCOAP testability, VCD, reports."""

import io
import math
from collections import Counter

import pytest

from repro.circuit import (
    Circuit,
    GateType,
    analyze_testability,
    c17,
    s27,
    shift_register,
    synthesize_named,
)
from repro.faults import FaultSimulator, FaultStatus, coverage_report
from repro.faults.reports import _region_of
from repro.sim import dump_vcd

from tests.conftest import random_vectors


class TestScoap:
    def test_primary_inputs_cost_one(self, s27_circuit):
        report = analyze_testability(s27_circuit)
        for pi in s27_circuit.inputs:
            assert report.cc0[pi] == 1.0
            assert report.cc1[pi] == 1.0

    def test_and_gate_rules(self):
        c = Circuit("t")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("g", GateType.AND, ["a", "b"])
        c.mark_output("g")
        c.finalize()
        report = analyze_testability(c)
        g = c.id_of("g")
        assert report.cc1[g] == 3.0  # both inputs to 1: 1 + 1 + 1
        assert report.cc0[g] == 2.0  # one input to 0: 1 + 1
        # Observing `a` through the AND needs b=1: co(g)=0 + cc1(b) + 1.
        assert report.co[c.id_of("a")] == 2.0

    def test_not_swaps(self):
        c = Circuit("t")
        c.add_input("a")
        c.add_gate("n", GateType.NOT, ["a"])
        c.mark_output("n")
        c.finalize()
        report = analyze_testability(c)
        n = c.id_of("n")
        assert report.cc0[n] == 2.0
        assert report.cc1[n] == 2.0

    def test_xor_parity(self):
        c = Circuit("t")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("g", GateType.XOR, ["a", "b"])
        c.mark_output("g")
        c.finalize()
        report = analyze_testability(c)
        g = c.id_of("g")
        assert report.cc0[g] == 3.0  # equal inputs
        assert report.cc1[g] == 3.0  # differing inputs

    def test_sequential_chain_costs_grow(self):
        report = analyze_testability(shift_register(4))
        circuit = report.circuit
        costs = [report.cc1[circuit.id_of(f"ff{i}")] for i in range(4)]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_outputs_observable_at_zero(self, c17_circuit):
        report = analyze_testability(c17_circuit)
        for po in c17_circuit.outputs:
            assert report.co[po] == 0.0

    def test_all_finite_on_synthetic(self):
        circuit = synthesize_named("s386", scale=0.3)
        report = analyze_testability(circuit)
        assert not any(math.isinf(v) for v in report.cc0)
        assert not any(math.isinf(v) for v in report.cc1)
        # Dangling-free circuits: everything observable.
        assert sum(1 for v in report.co if math.isinf(v)) == 0

    def test_rankings(self, s27_circuit):
        report = analyze_testability(s27_circuit)
        hard_control = report.hardest_to_control(5)
        assert len(hard_control) == 5
        assert hard_control[0][1] >= hard_control[-1][1]
        hard_observe = report.hardest_to_observe(3)
        assert len(hard_observe) == 3

    def test_fault_difficulty_combines(self, s27_circuit):
        report = analyze_testability(s27_circuit)
        node = s27_circuit.id_of("G10")
        assert report.fault_difficulty(node, 0) == report.cc1[node] + report.co[node]

    def test_correlates_with_detection_difficulty(self):
        """SCOAP-hard faults should be over-represented among the faults
        random vectors miss (a sanity link between the two worlds)."""
        import random

        circuit = synthesize_named("s298", scale=0.5)
        report = analyze_testability(circuit)
        fsim = FaultSimulator(circuit)
        rng = random.Random(0)
        fsim.commit([
            [rng.randint(0, 1) for _ in range(circuit.num_inputs)]
            for _ in range(150)
        ])
        if not fsim.active or fsim.detected_count == 0:
            pytest.skip("degenerate run")
        import statistics

        detected = [
            report.fault_difficulty(f.node, f.stuck_at)
            for i, f in enumerate(fsim.faults) if i not in set(fsim.active)
        ]
        undetected = [
            report.fault_difficulty(f.node, f.stuck_at)
            for f in fsim.undetected_faults()
        ]
        # Medians, not means: SCOAP assigns *infinite* difficulty to
        # faults whose activation value is structurally unreachable,
        # which is informative but wrecks averages.
        assert statistics.median(undetected) > statistics.median(detected)


class TestVcd:
    def test_header_and_timesteps(self, s27_circuit):
        buffer = io.StringIO()
        vectors = random_vectors(s27_circuit, 6, seed=1)
        dump_vcd(s27_circuit, vectors, buffer)
        text = buffer.getvalue()
        assert "$timescale 1 ns $end" in text
        assert "$enddefinitions $end" in text
        for t in range(7):
            assert f"#{t}" in text
        assert text.count("$var wire 1 ") == s27_circuit.num_nodes

    def test_signal_subset(self, s27_circuit):
        buffer = io.StringIO()
        dump_vcd(
            s27_circuit, random_vectors(s27_circuit, 3, seed=2), buffer,
            signals=["G17", "G10"],
        )
        text = buffer.getvalue()
        assert text.count("$var wire 1 ") == 2
        assert "G17" in text and "G10" in text

    def test_values_match_simulation(self, s27_circuit):
        from tests import oracle

        buffer = io.StringIO()
        vectors = random_vectors(s27_circuit, 5, seed=3)
        dump_vcd(s27_circuit, vectors, buffer, signals=["G17"])
        # Parse the single-signal changes back out.
        ident = None
        changes = {}
        current_time = None
        for line in buffer.getvalue().splitlines():
            if line.startswith("$var"):
                ident = line.split()[3]
            elif line.startswith("#"):
                current_time = int(line[1:])
            elif ident and line.endswith(ident) and current_time is not None:
                changes[current_time] = line[: -len(ident)]
        run = oracle.good_run(s27_circuit, vectors)
        value = "x"
        trace = []
        for t, values in enumerate(run.values):
            po = values[s27_circuit.id_of("G17")]
            expected = {0: "0", 1: "1", 2: "x"}[po]
            if t in changes:
                value = changes[t]
            trace.append(value == expected)
        assert all(trace)

    def test_file_output(self, tmp_path, s27_circuit):
        path = tmp_path / "trace.vcd"
        dump_vcd(s27_circuit, random_vectors(s27_circuit, 2, seed=1), path)
        assert path.read_text().startswith("$date")

    def test_malformed_inputs_rejected(self, s27_circuit):
        from repro.sim import GoodState

        with pytest.raises(ValueError, match="1 flip-flops, circuit has 3"):
            dump_vcd(s27_circuit, [[0, 0, 0, 0]], io.StringIO(),
                     state=GoodState([0]))
        with pytest.raises(ValueError, match="3 values for 4 primary inputs"):
            dump_vcd(s27_circuit, [[0, 0, 0, 0], [0, 0, 0]], io.StringIO())


class TestCoverageReport:
    def make_report(self):
        circuit = s27()
        fsim = FaultSimulator(circuit)
        for vector in random_vectors(circuit, 25, seed=4):
            fsim.commit([vector])
        return fsim, coverage_report(fsim)

    def test_counts_match_simulator(self):
        fsim, report = self.make_report()
        assert report.detected == fsim.detected_count
        assert report.total_faults == fsim.num_faults
        assert report.vectors == 25
        assert len(report.undetected) == len(fsim.active)

    def test_curve_monotone(self):
        _, report = self.make_report()
        frames = [f for f, _ in report.curve]
        counts = [c for _, c in report.curve]
        assert frames == sorted(frames)
        assert counts == sorted(counts)
        assert counts[-1] == report.detected

    def test_regions_partition(self):
        _, report = self.make_report()
        assert sum(total for _, total in report.by_region.values()) == report.total_faults
        assert sum(det for det, _ in report.by_region.values()) == report.detected

    def test_region_counts_recount_from_status(self):
        """After commits, each region's detected count is a recount of
        the simulator's fault status, and the regions sum to
        ``detected_count``."""
        circuit = synthesize_named("s298", scale=0.5)
        fsim = FaultSimulator(circuit)
        for vector in random_vectors(circuit, 40, seed=9):
            fsim.commit([vector])
        report = coverage_report(fsim)
        recount = Counter(
            _region_of(circuit, fault)
            for fault, status in zip(fsim.faults, fsim.status)
            if status is FaultStatus.DETECTED
        )
        assert 0 < fsim.detected_count < fsim.num_faults
        assert {region: det for region, (det, _) in report.by_region.items()
                if det} == dict(recount)
        assert sum(det for det, _ in report.by_region.values()) == (
            fsim.detected_count)

    def test_render(self):
        _, report = self.make_report()
        text = report.render()
        assert "Fault coverage report" in text
        assert "per-region coverage" in text
