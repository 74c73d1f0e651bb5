"""Documentation health: links resolve, CLI quickstarts are real, and
quoted benchmark numbers match their snapshots.

Runs tools/check_doc_links.py (the same script CI runs) over the
repository's README and docs/*.md, so a renamed file, heading, or CLI
flag, or a regenerated BENCH_*.json, fails tier-1 tests, not just the
separate CI step.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_checker(root):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_doc_links.py"),
         str(root)],
        capture_output=True,
        text=True,
    )


class TestDocLinks:
    def test_no_dead_links(self):
        result = run_checker(REPO_ROOT)
        assert result.returncode == 0, result.stdout

    def test_documentation_suite_is_linked_from_readme(self):
        """The README's Documentation index must reference every doc."""
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for doc in ("DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md",
                    "docs/PERFORMANCE.md", "docs/TELEMETRY.md",
                    "docs/KERNELS.md", "docs/ROBUSTNESS.md",
                    "docs/SERVICE.md"):
            assert f"({doc})" in readme, f"README does not link {doc}"


class TestCliExampleChecking:
    """The checker must catch docs quoting flags the CLI no longer has."""

    def _check(self, tmp_path, markdown, others=()):
        """Check a repo holding ``markdown`` as README.md plus each
        ``(name, text)`` of ``others``."""
        root = tmp_path / "repo"
        root.mkdir()
        # The checker introspects the real parsers from <root>/src.
        shutil.copytree(REPO_ROOT / "src", root / "src")
        for name, text in [("README.md", markdown), *others]:
            (root / name).write_text(text, encoding="utf-8")
        return run_checker(root)

    def test_valid_examples_pass(self, tmp_path):
        result = self._check(tmp_path, (
            "# x\n\n```bash\n"
            "gatest run s27 --seed 42 -o tests.txt\n"
            "REPRO_SIM_KERNEL=c gatest fsim s27 tests.txt\n"
            "gatest run s27 --kernel codegen --fault-model=transition\n"
            "gatest serve --port 0 --state-dir /tmp/state\n"
            "python -m repro.cli run s27 \\\n  --eval-jobs 4\n"
            "```\n"
        ))
        assert result.returncode == 0, result.stdout

    def test_phantom_flag_fails(self, tmp_path):
        result = self._check(
            tmp_path, "# x\n\n```bash\ngatest run s27 --turbo\n```\n"
        )
        assert result.returncode == 1
        assert "--turbo" in result.stdout
        assert "stale CLI example" in result.stdout

    def test_invalid_choice_value_fails(self, tmp_path):
        """A flag that exists but quotes a value outside its argparse
        ``choices`` is stale too, in both ``--opt value`` and
        ``--opt=value`` form."""
        result = self._check(tmp_path, (
            "# x\n\n```bash\n"
            "gatest run s27 --kernel turbo\n"
            "gatest fsim s27 tests.txt --kernel=turbo\n"
            "```\n"
        ))
        assert result.returncode == 1
        assert result.stdout.count("--kernel turbo") == 2
        assert "value not among --kernel choices" in result.stdout

    def test_flag_the_engine_does_not_read_fails(self, tmp_path):
        """A ``gatest run`` example may give only the flags its engine
        reads, by the rule ``gatest run`` itself applies."""
        result = self._check(tmp_path, (
            "# x\n\n```bash\n"
            "gatest run s27 --engine random --seed 2 --max-vectors 64\n"
            "gatest run s27 --engine random --selection roulette\n"
            "gatest run s27 --engine=hybrid --fault-model transition\n"
            "```\n\nOr `gatest run minifsm --engine deterministic --seed 3`.\n"
        ))
        assert result.returncode == 1
        assert "README.md:5: stale CLI example (flag not read by 'gatest " \
               "run --engine random'): --selection" in result.stdout
        assert "README.md:6: stale CLI example (flag not read by 'gatest " \
               "run --engine hybrid'): --fault-model" in result.stdout
        assert "README.md:9: stale CLI example (flag not read by 'gatest " \
               "run --engine deterministic'): --seed" in result.stdout
        assert "3 problem(s)" in result.stdout

    def test_unknown_subcommand_fails(self, tmp_path):
        result = self._check(
            tmp_path, "# x\n\n```bash\ngatest launch s27\n```\n"
        )
        assert result.returncode == 1
        assert "unknown gatest subcommand" in result.stdout

    def test_experiments_module_invocations_checked(self, tmp_path):
        """``python -m repro.harness.experiments …`` is checked as
        ``gatest experiments …``, in shell blocks and inline spans."""
        result = self._check(tmp_path, (
            "# x\n\n```bash\n"
            "python -m repro.harness.experiments --table 4 --scale 0.1\n"
            "python3 -m repro.harness.experiments --table all --turbo\n"
            "```\n\nThen `python -m repro.harness.experiments --table N`.\n"
        ))
        assert result.returncode == 1
        assert "README.md:5: stale CLI example (flag not accepted by " \
               "'gatest experiments'): --turbo" in result.stdout
        assert "README.md:8: stale CLI example (value not among --table " \
               "choices" in result.stdout
        assert "2 problem(s)" in result.stdout

    def test_inline_code_spans_checked(self, tmp_path):
        """Inline `gatest …` spans in prose are checked too, also when
        they wrap onto the next line; valid spans pass."""
        result = self._check(tmp_path, (
            "# x\n\nRun `gatest run s27 --seed 1 --trace out.jsonl` and\n"
            "then `gatest trace\nout.jsonl --breakdown` to read it, or\n"
            "`python -m repro.cli run s27 --turbo`.\n"
        ))
        assert result.returncode == 1
        assert "README.md:4: stale CLI example (unknown gatest " \
               "subcommand): trace" in result.stdout
        assert "README.md:6: stale CLI example (flag not accepted by " \
               "'gatest run'): --turbo" in result.stdout
        assert "2 problem(s)" in result.stdout

    def test_bare_flag_spans_checked(self, tmp_path):
        """A bare `--flag` span must name a flag some gatest subcommand
        (experiments included) defines; its value is not checked.
        The two spans are the wording docs/PERFORMANCE.md once used for
        the pool policy, which only environment variables set."""
        result = self._check(tmp_path, (
            "# x\n\nUse `--eval-jobs N`, `--kernel c`, `--state-dir` or\n"
            "`--table fig2`.\n\n"
            "The self-healing pool machinery (`--eval-task-timeout`,\n"
            "`--eval-retries`, chaos injection) sits on the failure path.\n"
        ))
        assert result.returncode == 1
        assert "README.md:6: stale CLI example (flag defined by no gatest " \
               "command): --eval-task-timeout" in result.stdout
        assert "README.md:7: stale CLI example (flag defined by no gatest " \
               "command): --eval-retries" in result.stdout
        assert "2 problem(s)" in result.stdout

    def test_unknown_config_field_span_fails(self, tmp_path):
        """An inline `TestGenConfig(<name>=…)` span must name a field of
        the dataclass; nested calls and the call's receiver are not
        read as its keywords.  The stale span is the wording
        docs/PERFORMANCE.md once used for fault sampling."""
        result = self._check(tmp_path, (
            "# x\n\n`TestGenConfig(fault_sample=N)` samples, and so does\n"
            "`GaTestGenerator(c, TestGenConfig(seed=1, "
            "seq_length_multipliers=(1.0, 2.0))).run(stop=s)`.\n\n"
            "`TestGenConfig(seed=1, fault_sample_size=N)` raises.\n"
        ))
        assert result.returncode == 1
        assert "README.md:6: stale config example (not a TestGenConfig " \
               "field): TestGenConfig(fault_sample_size=" in result.stdout
        assert "1 problem(s)" in result.stdout

    def test_plans_and_history_skip_inline_check(self, tmp_path):
        """ROADMAP.md and CHANGES.md may name in prose commands that do
        not exist yet or any more."""
        plan = "# y\n\nAdd `gatest trace OUT.jsonl`.\n"
        result = self._check(tmp_path, "# x\n", others=[
            ("ROADMAP.md", plan), ("CHANGES.md", plan),
        ])
        assert result.returncode == 0, result.stdout

    @pytest.mark.parametrize("name, status", [
        ("REPRO_TURBO", 1), ("REPRO_CHAOS", 0),
    ])
    def test_unread_environment_variable_fails(self, tmp_path, name, status):
        """A doc must not name a REPRO_* variable no source file reads."""
        result = self._check(tmp_path, f"# x\n\nSet `{name}=1` first.\n")
        assert result.returncode == status, result.stdout
        stale = f"README.md:3: stale environment variable (no file under " \
                f"src, benchmarks, tools names it): {name}"
        assert (stale in result.stdout) == bool(status)

    def test_console_output_lines_are_not_commands(self, tmp_path):
        """In console fences only `$ `-prompted lines are commands."""
        result = self._check(tmp_path, (
            "# x\n\n```console\n"
            "$ gatest run s27 --seed 1\n"
            "s27: det 26/26 (100.0%) --not-a-flag\n"
            "```\n"
        ))
        assert result.returncode == 0, result.stdout


class TestBenchQuoteChecking:
    """Every quote of a committed BENCH_*.json field must match it."""

    def _copy(self, tmp_path):
        """The documents, snapshots and sources the checker reads."""
        root = tmp_path / "repo"
        shutil.copytree(REPO_ROOT / "src", root / "src")
        shutil.copytree(REPO_ROOT / "docs", root / "docs")
        for path in REPO_ROOT.glob("*.md"):
            shutil.copy(path, root / path.name)
        for path in REPO_ROOT.glob("BENCH_*.json"):
            shutil.copy(path, root / path.name)
        return root

    def _stale(self, result):
        return [line for line in result.stdout.splitlines()
                if "stale benchmark quote" in line]

    def test_copy_quotes_match(self, tmp_path):
        assert self._stale(run_checker(self._copy(tmp_path))) == []

    @pytest.mark.parametrize("snapshot, field, value, docs", [
        ("BENCH_SIMULATOR.json", "speedup", 2.6,
         {"README.md", "DESIGN.md", "docs/KERNELS.md", "docs/PERFORMANCE.md"}),
        ("BENCH_SIMULATOR.json", "codegen_seconds", 0.0312,
         {"docs/PERFORMANCE.md"}),
        ("BENCH_SERVICE.json", "speedup", 5.46,
         {"README.md", "DESIGN.md", "docs/SERVICE.md", "docs/PERFORMANCE.md"}),
        ("BENCH_SERVICE.json", "cold_seconds", 0.0804,
         {"docs/PERFORMANCE.md"}),
    ])
    def test_edited_snapshot_fails(self, tmp_path, snapshot, field, value, docs):
        """Editing one field of a snapshot flags every quote of it."""
        root = self._copy(tmp_path)
        path = root / snapshot
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        result = run_checker(root)
        stale = self._stale(result)
        assert result.returncode == 1
        assert stale and all(f"{snapshot} {field} rounds to" in line
                             for line in stale)
        assert {line.split(":")[0] for line in stale} == docs


class TestServiceJobExamples:
    """Every JSON ``POST /jobs`` example in docs/SERVICE.md is a job the
    service accepts, and each ``fsim`` example's vectors fit its
    circuit's primary inputs."""

    @staticmethod
    def _job_examples():
        import re

        text = (REPO_ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
        section = text.split("### `POST /jobs`", 1)[1].split("\n### ", 1)[0]
        blocks = [json.loads(block) for block in
                  re.findall(r"```json\n(.*?)```", section, re.S)]
        return [block for block in blocks if "id" not in block]  # not responses

    def test_examples_parse(self):
        from repro.service import parse_job

        examples = self._job_examples()
        assert sorted(job["kind"] for job in examples) == ["fsim", "run"]
        for job in examples:
            parse_job(job)

    def test_fsim_example_vectors_fit_the_circuit(self):
        from repro.circuit.library import resolve_spec
        from repro.service import parse_job

        for job in self._job_examples():
            if job["kind"] != "fsim":
                continue
            spec = parse_job(job)
            circuit = resolve_spec(*spec.key)
            assert {len(v) for v in spec.vectors} == {circuit.num_inputs}
