"""Smoke tests for the per-table experiment drivers.

Each driver runs end to end at minimal scale (tiny circuits, one seed)
so regressions in the regeneration pipeline surface in the unit suite,
not only during long benchmark runs.
"""

import json

import pytest

from repro.core import TestGenConfig
from repro.harness import CampaignJournal, ExecutionPlan, experiments, run_gatest, runner
from repro.telemetry import TelemetryCollector


SMALL = dict(scale=0.1, seeds=[1], circuits=["s298"])


def test_table_1():
    out = experiments.table_1(1.0, [1])
    assert "1/8" in out


def test_table_2_driver():
    out = experiments.table_2(**SMALL)
    assert "Table 2 (measured" in out
    assert "Table 2 (paper)" in out
    assert "s298" in out


def test_table_3_driver():
    out = experiments.table_3(**SMALL)
    assert "Selection-scheme summary" in out
    assert "tournament" in out
    assert "supplement" in out  # the vectors grid


def test_table_4_driver():
    out = experiments.table_4(**SMALL)
    assert "1/256" in out


def test_table_5_driver():
    out = experiments.table_5(**SMALL)
    assert "non64" in out


def test_table_6_driver():
    out = experiments.table_6(**SMALL)
    assert "spdup" in out


def test_table_6_runs_each_scaled_size_once(monkeypatch):
    """Below scale 0.1 the scaled sample sizes collide at the floor of
    10; each distinct size is one config and one column."""
    labels = []
    run_matrix = experiments.run_matrix

    def recording_run_matrix(circuits, configs, *args, **kwargs):
        labels.append(list(configs))
        return run_matrix(circuits, configs, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_matrix", recording_run_matrix)
    out = experiments.table_6(0.05, [1], ["s298"])
    assert labels == [["full", "10", "15"]]
    header = out.splitlines()[2]
    assert header.split("  ")[1:] == ["10: det/vec/spdup", "15: det/vec/spdup"]


def test_table_7_driver():
    out = experiments.table_7(**SMALL)
    assert "3/4" in out


#: The config labels each driver runs its cells under: table 2 calls
#: ``run_gatest`` directly (label: the config digest's prefix), the
#: others run a labelled matrix.
DRIVER_LABELS = {
    "2": [TestGenConfig().digest()[:12]],
    "3": [f"{sel}/{xo}" for sel in experiments.SELECTIONS
          for xo in experiments.CROSSOVERS],
    "4": list(experiments.MUTATION_RATES),
    "5": ["bin16", "non16", "bin32", "non32", "bin64", "non64"],
    "6": ["full", "10", "20", "30"],
    "7": ["nonoverlap", *experiments.OVERLAP_SETTINGS],
}


@pytest.mark.parametrize("table", sorted(DRIVER_LABELS))
def test_driver_journals_each_cell(tmp_path, table):
    """A driver run under a plan with a fresh journal seals exactly one
    ``ok`` cell per (circuit, config label, seed) it ran."""
    path = tmp_path / "j.jsonl"
    journal = CampaignJournal.create(path, table=table, scale=0.1, seeds=[1])
    experiments.TABLES[table](**SMALL, plan=ExecutionPlan(journal=journal))
    cells = [json.loads(line) for line in path.read_text().splitlines()]
    cells = [c for c in cells if c["kind"] == "campaign-cell"]
    assert all(c["status"] == "ok" for c in cells)
    keys = [(c["circuit"], c["label"], c["seed"]) for c in cells]
    assert sorted(keys) == sorted(
        ("s298", label, 1) for label in DRIVER_LABELS[table]
    )


def test_figures():
    out1 = experiments.figure_1(0.1, [1], ["s298"])
    assert "stage 1" in out1
    out2 = experiments.figure_2(0.1, [1], ["s298"])
    assert "INITIALIZATION" in out2


def test_main_cli(capsys):
    code = experiments.main(["--table", "1"])
    assert code == 0
    assert "Table 1" in capsys.readouterr().out


def test_main_leaves_no_execution_state_behind(capsys, monkeypatch):
    """The flags of one ``main`` call build that call's plan and nothing
    else: a later ``run_gatest`` with the default plan runs in-process,
    one seed at a time, with each config's own ``eval_jobs``."""
    assert experiments.main(
        ["--table", "1", "--jobs", "3", "--eval-jobs", "2"]) == 0
    capsys.readouterr()
    eval_jobs = []
    real = runner._run_one_seed

    def spy(compiled, config, seed, collector=None):
        eval_jobs.append(config.eval_jobs)
        return real(compiled, config, seed, collector)

    monkeypatch.setattr(runner, "_run_one_seed", spy)
    collector = TelemetryCollector(source="test")
    agg = run_gatest("s27", TestGenConfig(), [1, 2], collector=collector)
    assert agg.n_runs == 2
    spans = [s for s in collector.events("span")
             if s["name"] == "harness.run_gatest"]
    assert [s["jobs"] for s in spans] == [1]
    assert not [r for r in collector.records()
                if str(r.get("scope", "")).startswith("worker.")]
    assert eval_jobs == [1, 1]


@pytest.mark.parametrize("flag", ["--jobs", "--eval-jobs", "--seeds"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_worker_count_below_one_is_a_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        experiments.main(["--table", "4", "--scale", "0.1", "--seeds", "1",
                          "--circuits", "s298", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"{flag} must be at least 1, got {value}" in captured.err
    assert not captured.out  # refused before any table ran


@pytest.mark.parametrize("value", ["0", "-0.5", "1.5"])
def test_scale_outside_profiles_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        experiments.main(["--table", "4", "--seeds", "1", "--circuits",
                          "s298", "--scale", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"--scale must be in (0, 1], got {value}" in captured.err
    assert not captured.out


@pytest.mark.parametrize("spec, message", [
    ("nosuch", "unknown circuit 'nosuch'"),
    ("s298@0.5", "names scale 0.5 but scale 0.1 was also given"),
])
def test_unresolvable_circuit_is_a_usage_error(tmp_path, capsys, spec, message):
    journal = tmp_path / "j.jsonl"
    with pytest.raises(SystemExit) as exc:
        experiments.main(["--table", "4", "--scale", "0.1", "--seeds", "1",
                          "--circuits", "s298", spec, "--journal", str(journal)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert not captured.out
    assert not journal.exists()  # refused before any journal is written


def test_malformed_bench_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n")
    journal = tmp_path / "j.jsonl"
    with pytest.raises(SystemExit) as exc:
        experiments.main(["--table", "4", "--scale", "0.1", "--seeds", "1",
                          "--circuits", str(bad), "--journal", str(journal)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unknown gate type 'FROB'" in captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert not journal.exists()  # refused before any journal is written


def test_builtin_and_bench_circuits_run(tmp_path, capsys):
    """``--circuits`` takes every spelling ``gatest run`` takes."""
    from repro.circuit import mini_fsm, save_bench

    bench = tmp_path / "fsm.bench"
    save_bench(mini_fsm(), bench)
    assert experiments.main(["--table", "4", "--scale", "0.1", "--seeds", "1",
                             "--circuits", "minifsm", str(bench)]) == 0
    measured = capsys.readouterr().out.split("\n\n")[0].splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in measured[4:]}
    assert set(rows) == {"minifsm", str(bench)}
    assert rows["minifsm"] == rows[str(bench)]  # one netlist, two names


def test_cells_without_a_surviving_seed_print_dashes(capsys, monkeypatch):
    """Every seed of every cell crashes: the measured table shows ``-``
    in each cell, not a measurement of zero detections."""
    monkeypatch.setenv("REPRO_CHAOS", "crash:1.0,seed:1")
    monkeypatch.setenv("REPRO_SEED_RETRIES", "0")
    assert experiments.main(["--table", "4", "--scale", "0.1", "--seeds", "2",
                             "--circuits", "s298", "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    measured = captured.out.split("\n\n")[0].splitlines()
    assert measured[-1].split() == ["s298"] + ["-"] * len(experiments.MUTATION_RATES)
    assert captured.err.count("FAILED seeds [1, 2]") == len(experiments.MUTATION_RATES)


def test_summaries_and_speedups_leave_failed_cells_out():
    from repro.harness.experiments import _det_vec_speedup, _normalized_mean
    from repro.harness.runner import AggregateResult, SeedFailure

    ok = run_gatest("s27", TestGenConfig(), [1])
    failed = AggregateResult(circuit="s27", total_faults=0,
                             failed_seeds=[SeedFailure(1, "boom", 1)])
    assert _det_vec_speedup(failed, ok) is None
    assert _det_vec_speedup(ok, failed).endswith("/-")
    assert _normalized_mean([{"a": ok, "b": failed}], ["a", "b"]) == "1.0000"
    assert _normalized_mean([{"a": failed}], ["a"]) is None
