"""Tests for the structural Verilog bridge."""

import pytest

from repro.circuit import (
    Circuit,
    GateType,
    VerilogError,
    load_verilog,
    mini_fsm,
    parse_verilog,
    s27,
    save_verilog,
    synthesize_named,
    write_verilog,
)
from tests import oracle
from tests.conftest import random_vectors


class TestWriter:
    def test_module_structure(self, s27_circuit):
        text = write_verilog(s27_circuit)
        assert "module s27 (clk, G0, G1, G2, G3, G17);" in text
        assert text.count("dff ff_") == 3
        assert "module dff (q, d, clk);" in text
        assert "endmodule" in text

    def test_gate_primitives(self, s27_circuit):
        text = write_verilog(s27_circuit)
        assert "nor " in text and "nand " in text and "not " in text

    def test_custom_module_name(self, s27_circuit):
        assert "module my_top (" in write_verilog(s27_circuit, module_name="my_top")

    def test_escaped_identifiers(self):
        c = Circuit("t")
        c.add_input("a.b")  # not a legal Verilog identifier
        c.add_gate("y", GateType.NOT, ["a.b"])
        c.mark_output("y")
        c.finalize()
        text = write_verilog(c)
        assert "\\a.b " in text


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [s27, mini_fsm])
    def test_structure_preserved(self, factory):
        circuit = factory()
        back = parse_verilog(write_verilog(circuit), name=circuit.name)
        assert back.num_nodes == circuit.num_nodes
        assert back.num_dffs == circuit.num_dffs
        assert back.num_inputs == circuit.num_inputs
        assert back.num_outputs == circuit.num_outputs

    def test_behaviour_preserved(self):
        circuit = synthesize_named("s386", scale=0.25)
        back = parse_verilog(write_verilog(circuit), name=circuit.name)
        vectors = random_vectors(circuit, 12, seed=5)
        assert oracle.po_trace(circuit, vectors) == oracle.po_trace(back, vectors)

    def test_file_io(self, tmp_path, s27_circuit):
        path = tmp_path / "s27.v"
        save_verilog(s27_circuit, path)
        loaded = load_verilog(path)
        assert loaded.num_nodes == s27_circuit.num_nodes


class TestReader:
    def test_positional_dff_ports(self):
        text = """
        module t (clk, a, q);
          input clk; input a; output q;
          wire q;
          dff f0 (q, a, clk);
        endmodule
        """
        circuit = parse_verilog(text)
        assert circuit.num_dffs == 1

    def test_top_selection(self):
        text = write_verilog(s27())
        circuit = parse_verilog(text, top="s27")
        assert circuit.name == "s27"
        with pytest.raises(VerilogError, match="not found"):
            parse_verilog(text, top="nope")

    def test_vector_signals_rejected(self):
        text = """
        module t (clk, a, y);
          input clk; input [3:0] a; output y;
          buf g (y, a);
        endmodule
        """
        with pytest.raises(VerilogError, match="vector"):
            parse_verilog(text)

    def test_behavioural_rejected(self):
        text = """
        module t (clk, a, y);
          input clk; input a; output y;
          assign y = ~a;
        endmodule
        """
        with pytest.raises(VerilogError, match="behavioural"):
            parse_verilog(text)

    def test_unknown_cell_rejected(self):
        text = """
        module t (clk, a, y);
          input clk; input a; output y;
          mux2 g (y, a, a);
        endmodule
        """
        with pytest.raises(VerilogError, match="unsupported cell"):
            parse_verilog(text)

    def test_no_module_rejected(self):
        with pytest.raises(VerilogError, match="no module"):
            parse_verilog("wire x;")

    def test_comments_stripped(self):
        text = """
        // header comment
        module t (clk, a, y);
          input clk; input a; output y; /* block
          comment */ not g (y, a);
        endmodule
        """
        circuit = parse_verilog(text)
        assert circuit.num_gates == 1
