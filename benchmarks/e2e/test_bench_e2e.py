"""Self-test of the end-to-end benchmark, in ``--smoke`` mode (< 1 min).

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
from hostclock import REFERENCE_SLICE_S, HostClock  # noqa: E402
from tracer import ROWS  # noqa: E402


def run_smoke(*args):
    """``(pid, last-line result)`` of one ``--smoke`` benchmark run."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "bench_e2e.py"), "--smoke", *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return proc.pid, json.loads(out.splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    """``{(workload, trace): (pid, result)}`` for every workload."""
    return {
        (w["name"], trace): run_smoke("--workload", w["name"], "--trace", str(trace))
        for w in BENCHMARK["workloads"]
        for trace in (0, 1)
    }


def test_metric_names_and_units_match_benchmark(smoke):
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for (workload, trace), (_, result) in smoke.items():
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared[trace], (workload, trace)


def test_every_output_checks_out(smoke):
    for key, (_, result) in smoke.items():
        assert result["correct"] and result["failed"] == 0, key
        assert result["attempted"] >= 1, key


def test_traced_rows_sum_to_wall_time(smoke):
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        metrics = {
            name: m["value"] for name, m in smoke[workload, 1][1]["metrics"].items()
        }
        wall = metrics["wall_s"]
        rows = sum(metrics[row] for row in ROWS)
        assert rows + metrics["unattributed_s"] == pytest.approx(wall)
        assert 0 <= metrics["unattributed_s"] <= 0.05 * wall, workload


def test_corrupted_pin_counts_failed_ops(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["ga"]["s27"]["1"]["detected"] -= 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    _, result = run_smoke("--workload", "ga_s298", "--expected", str(path))
    assert result["failed"] > 0 and not result["correct"]


def test_service_leaves_no_orphans(smoke):
    """Every process the service run started carries the run's private
    C-kernel cache path in its environment; none may outlive the run."""
    for trace in (0, 1):
        pid, _ = smoke["service_mixed", trace]
        marker = f"REPRO_CKERNEL_CACHE={HERE / '.work' / str(pid)}/".encode()
        survivors = []
        for entry in filter(str.isdigit, os.listdir("/proc")):
            try:
                environ = Path(f"/proc/{entry}/environ").read_bytes()
            except OSError:
                continue
            if any(var.startswith(marker) for var in environ.split(b"\0")):
                survivors.append(int(entry))
        assert survivors == []


def test_host_clock_scales_each_segment_by_the_slices_around_it():
    clock = HostClock(work=lambda: 0)
    ref = REFERENCE_SLICE_S
    clock.slices = [2 * ref, 2 * ref, ref / 2, ref]
    # Segment 1 ends after slice 0; segment 2 after slices 0-2.
    clock.segments = [(1.0, 1), (1.0, 3)]
    # Around segment 1: slices 0-1 (median 2*ref); segment 2: 1-3 (ref).
    assert clock.reference_segments() == pytest.approx([0.5, 1.0])
    assert clock.raw_seconds() == 2.0


def _run_set(values):
    return {"runs": [
        {"workload": w["name"], "seed": seed, "trace": 0, "result": {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                        for m in BENCHMARK["end_to_end"]},
        }}
        for w in BENCHMARK["workloads"] for seed, value in enumerate(values)
    ]}


def test_compare_flags_only_a_real_regression(tmp_path, capsys):
    base = [100.0 + (i % 3) for i in range(10)]
    same, worse = tmp_path / "same.json", tmp_path / "worse.json"
    same.write_text(json.dumps(_run_set(base)))
    worse.write_text(json.dumps(_run_set([2 * v for v in base])))
    assert compare.main([str(same), str(same)]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main([str(same), str(worse)]) == 1
    assert "regressed" in capsys.readouterr().out
