"""Tests for the experiment harness: tables, runner, paper data."""

import pytest

from repro.circuit.profiles import TABLE2_CIRCUITS
from repro.core import TestGenConfig
from repro.harness import (
    ExecutionPlan,
    TextTable,
    fmt_mean_std,
    fmt_time,
    mean_std,
    paper_data,
    run_gatest,
    run_matrix,
)
from repro.harness.experiments import TABLES, table_1


class TestFormatting:
    def test_fmt_time(self):
        assert fmt_time(3600 * 4.44) == "4.44h"
        assert fmt_time(60 * 6.05) == "6.05m"
        assert fmt_time(12.3) == "12.30s"
        assert fmt_time(None) == "-"

    def test_fmt_mean_std(self):
        assert fmt_mean_std(264.7, 0.5) == "264.7(0.5)"
        assert fmt_mean_std(161, 28, digits=0) == "161(28)"
        assert fmt_mean_std(3.14159) == "3.1"

    def test_mean_std(self):
        mean, std = mean_std([2.0, 4.0, 6.0])
        assert mean == 4.0
        assert std == pytest.approx((8 / 3) ** 0.5)
        assert mean_std([]) == (0.0, 0.0)

    def test_text_table_render(self):
        table = TextTable(["A", "Blah"], title="T")
        table.add_row("x", 1)
        table.add_row("yyyy", None)
        out = table.render()
        assert "T" in out and "A" in out
        assert "yyyy  -" in out

    def test_text_table_row_width_checked(self):
        table = TextTable(["A"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)


class TestPaperData:
    def test_table2_covers_all_circuits(self):
        assert set(paper_data.TABLE2) == set(TABLE2_CIRCUITS)

    def test_table2_row_consistency(self):
        row = paper_data.TABLE2["s298"]
        assert row.total_faults == 308
        assert row.ga_det == pytest.approx(264.7)
        assert row.ga_time_s == pytest.approx(6.05 * 60)
        assert row.ga_coverage == pytest.approx(264.7 / 308)
        assert paper_data.TABLE2["s1423"].hitec_det is None

    def test_table3_shape(self):
        for circuit, schemes in paper_data.TABLE3.items():
            assert set(schemes) == {"roulette", "sus", "tournament", "tournament-r"}
            for xo in schemes.values():
                assert set(xo) == {"1-point", "2-point", "uniform"}

    def test_paper_claim_tournament_best(self):
        """The transcription must reproduce the paper's own conclusion:
        tournament selection (both kinds) beats proportionate selection."""
        means = paper_data.table3_scheme_means()
        assert means["tournament"] > means["roulette"]
        assert means["tournament"] > means["sus"]
        assert means["tournament-r"] > means["sus"]

    def test_paper_claim_uniform_competitive(self):
        means = paper_data.table3_crossover_means()
        assert means["uniform"] >= means["1-point"]
        assert means["uniform"] >= means["2-point"]

    def test_table6_speedups_grow_with_circuit_size(self):
        # Headline: s5378's sampling speedup dwarfs s298's.
        assert paper_data.TABLE6["s5378"][100][2] > paper_data.TABLE6["s298"][100][2]

    def test_table7_values(self):
        det, vec, speedup = paper_data.TABLE7["s298"]["3/4"]
        assert (det, vec, speedup) == (265.0, 167, 1.27)


class TestRunner:
    def test_run_gatest_aggregates(self, s27_circuit):
        agg = run_gatest("s27", TestGenConfig(), seeds=[1, 2], circuit=s27_circuit)
        assert agg.n_runs == 2
        assert agg.total_faults == 26
        assert agg.det_mean > 0
        assert agg.vec_mean > 0
        assert agg.coverage_mean <= 1.0

    def test_parallel_jobs_match_serial(self, s27_circuit):
        serial = run_gatest("s27", TestGenConfig(), [1, 2], circuit=s27_circuit)
        parallel = run_gatest(
            "s27", TestGenConfig(), [1, 2], circuit=s27_circuit,
            plan=ExecutionPlan(seed_jobs=2),
        )
        assert [r.detected for r in serial.runs] == [
            r.detected for r in parallel.runs
        ]
        assert [r.test_sequence for r in serial.runs] == [
            r.test_sequence for r in parallel.runs
        ]

    def test_run_matrix_structure(self):
        configs = {"a": TestGenConfig(), "b": TestGenConfig(crossover="1-point")}
        lines = []
        results = run_matrix(
            ["s298"], configs, seeds=[1], scale=0.1, progress=lines.append
        )
        assert set(results["s298"]) == {"a", "b"}
        assert len(lines) == 2


class TestExperimentDrivers:
    def test_table_registry_complete(self):
        assert set(TABLES) == {"1", "2", "3", "4", "5", "6", "7", "fig1", "fig2"}

    def test_table_1_output(self):
        out = table_1(1.0, [1])
        assert "1/8" in out and "1/16" in out and "1/35" in out

    def test_fig2_trace(self):
        out = TABLES["fig2"](0.1, [1], ["s298"])
        assert "INITIALIZATION" in out
        assert "SEQUENCES" in out
