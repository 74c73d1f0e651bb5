"""Tests for the experiment harness: tables, runner, paper data."""

import json

import pytest

from repro.circuit import s27
from repro.circuit.profiles import TABLE2_CIRCUITS
from repro.cli import main as cli_main
from repro.core import TestGenConfig, circuit_fingerprint
from repro.harness import (
    CampaignJournal,
    ExecutionPlan,
    TextTable,
    experiments,
    fmt_mean_std,
    fmt_time,
    mean_std,
    paper_data,
    run_gatest,
    run_matrix,
)
from repro.harness.experiments import TABLES, table_1
from repro.service import JobManager
from repro.sim import compiled_circuit_for
from repro.telemetry import TelemetryCollector


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
    def test_run_gatest_aggregates(self):
        agg = run_gatest("s27", TestGenConfig(), seeds=[1, 2])
        assert agg.n_runs == 2
        assert agg.total_faults == 26
        assert agg.det_mean > 0
        assert agg.vec_mean > 0
        assert agg.coverage_mean <= 1.0

    def test_parallel_jobs_match_serial(self):
        serial = run_gatest("s27", TestGenConfig(), [1, 2])
        parallel = run_gatest(
            "s27", TestGenConfig(), [1, 2], plan=ExecutionPlan(seed_jobs=2),
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


class TestOneCircuitIdentity:
    """Every surface that names a circuit resolves the name through
    ``repro.circuit.library``: one spelling, one circuit."""

    def test_s27_is_the_bundled_netlist_everywhere(self, tmp_path, capsys):
        bundled = circuit_fingerprint(s27())
        checkpoint = tmp_path / "run.ckpt"
        assert cli_main(["run", "s27", "--seed", "1",
                         "--checkpoint", str(checkpoint)]) == 0
        assert "det 26/26" in capsys.readouterr().out
        assert json.loads(checkpoint.read_text())["fingerprint"] == bundled

        assert circuit_fingerprint(compiled_circuit_for("s27").circuit) == bundled
        assert run_gatest("s27", TestGenConfig(), [1]).total_faults == 26
        assert experiments.main(["--table", "4", "--scale", "0.1",
                                 "--seeds", "1", "--circuits", "s27"]) == 0
        progress = capsys.readouterr().err
        assert progress.count("/26 vec=") == len(experiments.MUTATION_RATES)

        manager = JobManager(tmp_path / "state", workers=1, use_tier=False)
        try:
            job, _ = manager.submit({"kind": "run", "circuit": "s27",
                                     "config": {"seed": 1}})
            assert manager.wait_idle(timeout=120)
            assert job.result["total_faults"] == 26
            compiled = compiled_circuit_for(*job.spec.key)
            assert circuit_fingerprint(compiled.circuit) == bundled
        finally:
            manager.close()

    def test_two_spellings_are_one_circuit_and_one_cell(self, tmp_path):
        assert compiled_circuit_for("s298@0.3") is compiled_circuit_for("s298", 0.3)
        collector = TelemetryCollector(source="test")
        journal = CampaignJournal.create(tmp_path / "j.jsonl", table="t",
                                         scale=0.1, seeds=[1],
                                         collector=collector)
        plan = ExecutionPlan(journal=journal)
        first = run_gatest("s298@0.1", TestGenConfig(), [1], label="lbl",
                           plan=plan)
        again = run_gatest("s298", TestGenConfig(), [1], scale=0.1,
                           label="lbl", plan=plan)
        assert [(c["circuit"], c["scale"]) for c in journal.cells()] == \
            [("s298", 0.1)]
        assert collector.counters["campaign.cells.skipped"] == 1
        assert again.runs[0].test_sequence == first.runs[0].test_sequence

    def test_unknown_circuit_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown circuit 'nosuch'"):
            run_gatest("nosuch", TestGenConfig(), [1])


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
