"""Tests for the ``gatest`` command-line interface."""

import pytest

from repro.circuit import s27
from repro.cli import main
from repro.core import HybridAtpg, TestGenConfig
from repro.faults import FaultSimulator, TransitionFaultSimulator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestInfo:
    def test_builtin(self, capsys):
        code, out = run_cli(capsys, "info", "s27")
        assert code == 0
        assert "dffs       3" in out
        assert "faults" in out

    def test_synthetic(self, capsys):
        code, out = run_cli(capsys, "info", "s298", "--scale", "0.1")
        assert code == 0
        assert "inputs     3" in out

    def test_unknown_circuit(self, capsys):
        with pytest.raises(SystemExit, match="unknown circuit"):
            main(["info", "nosuch"])

    def test_counts_faults_without_building_a_kernel(self, capsys,
                                                     monkeypatch):
        faults = FaultSimulator(s27()).num_faults

        def no_kernel(*args, **kwargs):
            raise AssertionError("gatest info built a simulation kernel")

        monkeypatch.setattr("repro.faults.simulator.kernel_for", no_kernel)
        code, out = run_cli(capsys, "info", "s27")
        assert code == 0
        assert f"faults     {faults} (collapsed)" in out


class TestRun:
    def test_ga_engine_writes_tests(self, capsys, tmp_path):
        out_file = tmp_path / "tests.txt"
        code, out = run_cli(
            capsys, "run", "s27", "--engine", "ga", "--seed", "1",
            "-o", str(out_file),
        )
        assert code == 0
        assert "det 26/26" in out
        lines = [
            l for l in out_file.read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert all(len(l) == 4 and set(l) <= {"0", "1"} for l in lines)

    def test_ga_seed_does_not_choose_the_circuit(self, capsys, tmp_path):
        """A run's test set replayed by ``fsim`` at the default circuit
        seed reproduces the run's detected count."""
        out_file = tmp_path / "tests.txt"
        code, out = run_cli(
            capsys, "run", "s298", "--scale", "0.3", "--seed", "3",
            "-o", str(out_file),
        )
        assert code == 0
        detected = out.split("det ", 1)[1].split()[0]
        code, replay = run_cli(
            capsys, "fsim", "s298", str(out_file), "--scale", "0.3"
        )
        assert code == 0
        assert f": {detected} faults detected" in replay
        # The name the run reports resolves to the same scaled circuit.
        assert out.startswith("s298@0.3: det ")
        code, replay = run_cli(capsys, "fsim", "s298@0.3", str(out_file))
        assert code == 0
        assert replay.startswith(f"s298@0.3: {detected} faults detected")

    def test_malformed_bench_is_one_error_line(self, tmp_path):
        bad = tmp_path / "bad.bench"
        bad.write_text("INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", str(bad)])
        message = exc.value.code
        assert message.startswith("error: ") and "\n" not in message
        assert "bad.bench" in message and "unknown gate type 'FROB'" in message

    def test_random_engine(self, capsys):
        code, out = run_cli(
            capsys, "run", "s27", "--engine", "random", "--max-vectors", "64"
        )
        assert code == 0
        assert "det" in out

    def test_deterministic_engine(self, capsys):
        code, out = run_cli(capsys, "run", "minifsm", "--engine", "deterministic")
        assert code == 0
        assert "untestable" in out

    def test_eval_jobs_matches_serial(self, capsys):
        code, serial = run_cli(capsys, "run", "s27", "--seed", "7")
        assert code == 0
        code, parallel = run_cli(
            capsys, "run", "s27", "--seed", "7", "--eval-jobs", "2"
        )
        assert code == 0
        # Bit-identical contract, end to end through the CLI: same
        # detections, vector count and evaluation count.
        assert parallel.split(",")[:1] == serial.split(",")[:1]
        assert "det 26/26" in parallel

    def test_max_vectors_caps_the_ga_engine(self, capsys, tmp_path):
        out_file = tmp_path / "tests.txt"
        code, out = run_cli(
            capsys, "run", "s298", "--scale", "0.3", "--seed", "3",
            "--max-vectors", "20", "-o", str(out_file),
        )
        assert code == 0
        lines = [
            l for l in out_file.read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert 0 < len(lines) <= 20
        assert f"wrote {len(lines)} vectors" in out

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_eval_jobs_below_one_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["run", "s27", "--eval-jobs", value])
        assert exc.value.code == 2
        assert (f"--eval-jobs must be at least 1, got {value}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag", ["--islands", "--sample",
                                      "--checkpoint-every"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["run", "s27", flag, value])
        assert exc.value.code == 2
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["synth", "s298"], ["info", "s298"],
                                         ["run", "s298"]],
                             ids=["synth", "info", "run"])
    @pytest.mark.parametrize("value", ["0", "1.5"])
    def test_scale_outside_profiles_is_a_usage_error(self, capsys, command,
                                                     value):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--scale", value])
        assert exc.value.code == 2
        assert f"--scale must be in (0, 1], got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--selection", "nope"), ("--crossover", "3-point"),
        ("--coding", "ternary"),
    ])
    def test_unknown_operator_name_is_a_usage_error(self, capsys, flag,
                                                    value):
        with pytest.raises(SystemExit) as exc:
            main(["run", "s27", flag, value])
        assert exc.value.code == 2
        assert (f"argument {flag}: invalid choice: {value!r}"
                in capsys.readouterr().err)

    def test_eval_cache_flag(self, capsys):
        """The GA memoizes fitness on every run, so the flag that once
        switched a cache on is gone, and a script passing it fails
        loudly rather than running with a setting it did not get."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "s27", "--seed", "7", "--eval-cache"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eval-cache" in capsys.readouterr().err


def _vectors(path):
    return [[int(bit) for bit in line]
            for line in path.read_text().splitlines()
            if line and not line.startswith("#")]


class TestEngineFlags:
    """Each engine reads its own flags; the rest are usage errors."""

    def test_hybrid_builds_its_config_from_the_ga_flags(self, capsys,
                                                        tmp_path):
        out_file = tmp_path / "tests.txt"
        flags = ["--selection", "roulette", "--crossover", "2-point",
                 "--coding", "nonbinary", "--islands", "2"]
        code, _ = run_cli(capsys, "run", "s27", "--engine", "hybrid",
                          "--seed", "1", *flags, "-o", str(out_file))
        assert code == 0
        config = TestGenConfig(seed=1, selection="roulette",
                               crossover="2-point", coding="nonbinary",
                               n_islands=2)
        want = HybridAtpg(s27(), config).run().test_sequence
        assert _vectors(out_file) == want
        assert want != HybridAtpg(s27(), TestGenConfig(seed=1)).run() \
            .test_sequence

    @pytest.mark.parametrize("engine, flags, unread", [
        ("hybrid", ["--fault-model", "transition"], "--fault-model"),
        ("random", ["--selection", "roulette"], "--selection"),
        ("random", ["--fault-model", "transition"], "--fault-model"),
        ("random", ["--checkpoint", "ck"], "--checkpoint"),
        ("deterministic", ["--seed", "3"], "--seed"),
        ("deterministic", ["--max-vectors", "8"], "--max-vectors"),
    ])
    def test_unread_flag_is_a_usage_error(self, capsys, engine, flags,
                                          unread):
        with pytest.raises(SystemExit) as exc:
            main(["run", "s27", "--engine", engine, *flags])
        assert exc.value.code == 2
        assert (f"--engine {engine} does not read {unread}"
                in capsys.readouterr().err)

    def test_hybrid_refuses_a_transition_config(self):
        with pytest.raises(ValueError, match="fault_model"):
            HybridAtpg(s27(), TestGenConfig(seed=1, fault_model="transition"))

    def test_transition_compaction_keeps_transition_coverage(self, capsys,
                                                             tmp_path):
        """``--compact`` re-simulates under the run's fault model, so the
        written vectors detect every transition fault the run did."""
        out_file = tmp_path / "tests.txt"
        code, out = run_cli(capsys, "run", "s27", "--seed", "1",
                            "--fault-model", "transition", "--compact",
                            "-o", str(out_file))
        assert code == 0
        detected = int(out.split("det ", 1)[1].split("/")[0])
        fsim = TransitionFaultSimulator(s27())
        fsim.commit(_vectors(out_file))
        assert fsim.detected_count == detected == 33

    @pytest.mark.parametrize("engine", ["random", "deterministic", "hybrid"])
    def test_every_engine_compacts(self, capsys, tmp_path, engine):
        out_file = tmp_path / "tests.txt"
        code, out = run_cli(capsys, "run", "s27", "--engine", engine,
                            "--compact", "-o", str(out_file))
        assert code == 0
        assert "coverage preserved" in out
        fsim = FaultSimulator(s27())
        fsim.commit(_vectors(out_file))
        assert fsim.detected_count == \
            int(out.split("= " if engine == "hybrid" else "det ", 1)[1]
                .split("/")[0])

    @pytest.mark.parametrize("engine", ["ga", "hybrid"])
    def test_compaction_shares_the_engine_kernel(self, capsys, tmp_path,
                                                 monkeypatch, engine):
        """The engine and ``--compact`` run on one compiled circuit, so
        the kernel is built once, not once for each."""
        from repro.telemetry import read_trace

        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        trace = tmp_path / "trace.jsonl"
        code, out = run_cli(capsys, "run", "s27", "--engine", engine,
                            "--seed", "1", "--compact", "--trace", str(trace))
        assert code == 0 and "coverage preserved" in out
        built = [record["value"] for record in read_trace(trace)
                 if record.get("kind") == "counter"
                 and record["name"] == "codegen.kernels.built"]
        assert built == [1]


class TestFsim:
    def test_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "tests.txt"
        run_cli(capsys, "run", "s27", "--seed", "2", "-o", str(out_file))
        code, out = run_cli(capsys, "fsim", "s27", str(out_file))
        assert code == 0
        assert "faults detected" in out

    def test_verbose_lists_undetected(self, capsys, tmp_path):
        tests = tmp_path / "t.txt"
        tests.write_text("0000\n")
        code, out = run_cli(capsys, "fsim", "s27", str(tests), "-v")
        assert code == 0
        assert "undetected:" in out

    def test_bad_vector_rejected(self, capsys, tmp_path):
        tests = tmp_path / "t.txt"
        tests.write_text("01\n")
        with pytest.raises(SystemExit, match="expected 4 bits"):
            main(["fsim", "s27", str(tests)])


class TestServe:
    """Bad ``gatest serve`` flag values are usage errors, refused before
    the job manager starts."""

    @pytest.mark.parametrize("argv, message", [
        (["--port", "70000"], "--port must be in 0-65535, got 70000"),
        (["--port", "-1"], "--port must be in 0-65535, got -1"),
        (["--workers", "0"], "--workers must be at least 1, got 0"),
        (["--cache-size", "-1"], "--cache-size must be at least 0, got -1"),
        (["--queue-max", "-1"], "--queue-max must be at least 0, got -1"),
    ])
    def test_bad_value_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["serve", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestSynth:
    def test_emits_bench(self, capsys):
        code, out = run_cli(capsys, "synth", "s298", "--scale", "0.1")
        assert code == 0
        assert "INPUT(pi0)" in out

    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "c.bench"
        code, out = run_cli(
            capsys, "synth", "s386", "--scale", "0.1", "-o", str(out_file)
        )
        assert code == 0
        from repro.circuit import load_bench
        circuit = load_bench(out_file)
        assert circuit.num_inputs == 7

    def test_bench_file_loadable_by_run(self, capsys, tmp_path):
        out_file = tmp_path / "c.bench"
        run_cli(capsys, "synth", "s298", "--scale", "0.1", "-o", str(out_file))
        code, out = run_cli(
            capsys, "run", str(out_file), "--engine", "random",
            "--max-vectors", "32",
        )
        assert code == 0
