"""Smoke tests of tools/pass_ab.py, the in-process A/B of two trees."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pass_ab.py"

#: Appended to a copy of faults/simulator.py: side B then scores one
#: more detection per candidate and reports one more fault remaining
#: after every commit.
SKEW = '''

_serial = FaultSimulator._evaluate_batch_serial
_commit = FaultSimulator.commit


def _skewed_serial(self, *args, **kwargs):
    evals = _serial(self, *args, **kwargs)
    for evaluation in evals:
        evaluation.detected += 1
    return evals


def _skewed_commit(self, vectors):
    result = _commit(self, vectors)
    result.remaining += 1
    return result


FaultSimulator._evaluate_batch_serial = _skewed_serial
FaultSimulator.commit = _skewed_commit
'''


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )


def test_same_tree_on_both_sides_exits_zero():
    passes = run_tool(ROOT, ROOT, "--circuit", "s27", "--passes", "3",
                      "--repeats", "1")
    assert passes.returncode == 0, passes.stderr
    assert "weighted by the run's pass counts" in passes.stdout
    commits = run_tool(ROOT, ROOT, "--circuit", "s27", "--commits",
                       "--streams", "2", "--frames", "10")
    assert commits.returncode == 0, commits.stderr
    assert commits.stdout.splitlines()[-1].startswith("total")


def test_refuses_to_report_when_results_differ(tmp_path):
    shutil.copytree(ROOT / "src" / "repro", tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "repro" / "faults" / "simulator.py", "a") as handle:
        handle.write(SKEW)
    for mode in (["--passes", "2", "--repeats", "1"],
                 ["--commits", "--streams", "1", "--frames", "10"]):
        run = run_tool(ROOT, tmp_path, "--circuit", "s27", *mode)
        assert run.returncode == 1
        assert "differ" in run.stderr
        assert "B/A" not in run.stdout
