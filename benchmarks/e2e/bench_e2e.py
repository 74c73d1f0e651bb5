#!/usr/bin/env python3
"""End-to-end GATEST benchmark with outside-in per-layer attribution.

One workload, the way BENCHMARK.json's command runs it::

    python3 benchmarks/e2e/bench_e2e.py --workload ga_s298 --seed 0 --seconds 15 --trace 0

prints a table and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.

Every workload, each in a fresh subprocess, with a summary table::

    python3 benchmarks/e2e/bench_e2e.py [--trace 1] [--repeat N --out A.json]
    python3 benchmarks/e2e/bench_e2e.py --repeat 10 --out new.json \\
        --pair-src ../parent/src --pair-out parent.json

``--pair-src`` runs this same benchmark code against a second source
tree, alternating which side runs first; ``compare.py`` reads the two
sets.  README.md describes the workloads, metrics and breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as layer_tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
#: Per-layer counts: metric -> traced row whose calls it counts.
CALL_COUNTS = {
    "faults.batch.calls": "faults.batch_s",
    "faults.evaluate.calls": "faults.evaluate_s",
    "faults.commit.calls": "faults.commit_s",
    "sim.kernel.faulty.calls": "sim.kernel.faulty_s",
}
#: Per-layer counts read from the program's own telemetry counters.
COUNTERS = [
    "sim.batch.slot_frames", "ga.dedup.skipped",
    "parallel.retries", "parallel.pool.restarts",
]
#: Per-layer numbers the service workload measures itself.
SERVICE_NOTES = {
    "service.submit_ms": "ms",
    "service.run.compute_ms": "ms",
    "service.run.overhead_ms": "ms",
    "service.fsim_p50_ms": "ms",
    "service.fsim_p95_ms": "ms",
    "service.run_p50_ms": "ms",
    "service.run_p80_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.tier.restarts": "count",
    "service.tier.retries": "count",
}
#: Largest share of the traced wall time the rows may leave unexplained.
UNATTRIBUTED_LIMIT = 0.05


def clean_environment(work_dir: Path) -> None:
    """Run the program as a fresh user would: no ``REPRO_*`` overrides,
    a fresh C-kernel cache, and temporary files inside the checkout."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CKERNEL_CACHE"] = str(work_dir / "ckernel")
    # The process tier's forkserver puts a unix socket (path limit 107
    # bytes, 33 of them its own) under the temporary directory.
    if len(str(work_dir)) <= 70:
        os.environ["TMPDIR"] = str(work_dir)
        tempfile.tempdir = None


def end_to_end_metrics(outcome) -> dict:
    """Work per reference second of the window, the median set-up in
    reference seconds (see hostclock.py) and the peak RSS."""
    return {
        "work_per_s": (outcome.work / outcome.window.reference_seconds(), "1/s"),
        "setup_s": (statistics.median(outcome.setup.reference_segments()), "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }


def layer_metrics(opts, outcome, percentile) -> dict:
    """Every per-layer metric with its unit; 0 where a layer did no work."""
    tracer = opts.tracer
    counters = opts.counters
    metrics = {
        row: (tracer.totals.get(row, 0.0), "s") for row in layer_tracer.ROWS
    }
    metrics["unattributed_s"] = (tracer.wall_s - sum(tracer.totals.values()), "s")
    metrics["wall_s"] = (tracer.wall_s, "s")
    metrics["parallel.worker_s"] = (counters.get("parallel.worker.seconds", 0.0), "s")
    for name, row in CALL_COUNTS.items():
        metrics[name] = (tracer.counts.get(row, 0), "count")
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    hits = counters.get("parallel.cache.hits", 0)
    lookups = hits + counters.get("parallel.cache.misses", 0)
    metrics["parallel.cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    polls = tracer.samples.get("service.poll_s", [])
    metrics["service.poll_ms"] = (1000 * percentile(polls, 50), "ms")
    for name, unit in SERVICE_NOTES.items():
        metrics[name] = (outcome.notes.get(name, 0.0), unit)
    metrics["trace.work_per_s"] = (
        outcome.work / outcome.window.reference_seconds(), "1/s"
    )
    return metrics


def print_end_to_end(outcome, metrics: dict, percentile) -> None:
    samples = {"setup_s": len(outcome.setup.segments), "work_per_s": outcome.work}
    for name, (value, unit) in metrics.items():
        count = f"n={samples[name]}" if name in samples else ""
        print(f"  {name:<16} {value:>12.4f} {unit:<5} {count}")
    # The raw rates, for reading: the host's speed moves them.
    raw = {
        "raw work_per_s": outcome.work / outcome.window.raw_seconds(),
        "raw setup_s": statistics.median(s for s, _ in outcome.setup.segments),
        "slice_ms": 1000 * statistics.median(outcome.window.slices),
    }
    for name, value in raw.items():
        print(f"  {name:<16} {value:>12.4f}       (not gated)")
    # Printed for reading, not in the JSON: with a fixed window, a faster
    # host does more of the cheap late operations (fewer faults left), so
    # these percentiles move with host speed by more than any bound.
    for p in (50, 95):
        value = 1000 * percentile(outcome.latencies, p)
        print(f"  {f'latency_p{p}_ms':<16} {value:>12.4f} ms    "
              f"n={len(outcome.latencies)} (not gated)")


def print_breakdown(opts, metrics: dict) -> None:
    """Print the layer rows that did work, then the other non-zero
    metrics; complain on stderr if the rows leave too much unexplained."""
    wall = metrics["wall_s"][0]
    print(f"  {'layer row':<26} {'self s':>9} {'% wall':>7} {'calls':>9}  "
          "timed call -> moves")
    rows = sorted(layer_tracer.ROWS, key=lambda row: -metrics[row][0])
    for row in [row for row in rows if metrics[row][0]] + ["unattributed_s"]:
        seconds = metrics[row][0]
        calls = opts.tracer.counts.get(row, "")
        call, moves = layer_tracer.ROWS.get(row, ("", ""))
        target = f"{call} -> {moves}" if call else ""
        print(f"  {row:<26} {seconds:>9.3f} {100 * seconds / wall:>6.1f}% "
              f"{calls:>9}  {target}")
    print(f"  {'wall_s':<26} {wall:>9.3f}")
    for name, (value, unit) in metrics.items():
        if unit != "s" and value:
            print(f"  {name:<26} {value:>12.4f} {unit}")
    for absent in opts.tracer.absent:
        print(f"  absent: {absent}")
    unattributed = metrics["unattributed_s"][0]
    if unattributed > UNATTRIBUTED_LIMIT * wall:
        print(f"ERROR: unattributed_s {unattributed:.3f} s is more than "
              f"{UNATTRIBUTED_LIMIT:.0%} of the traced wall {wall:.3f} s",
              file=sys.stderr)


def run_one(args) -> int:
    """Run one workload in this process and print its result."""
    if not (args.src / "repro").is_dir():
        # Never fall back to an installed copy of the package.
        sys.exit(f"no repro package under {args.src}")
    work_dir = HERE / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        clean_environment(work_dir)
        sys.path.insert(0, str(args.src))
        import workloads

        opts = workloads.Options(
            seed=args.seed, seconds=args.seconds, kernel=args.kernel,
            smoke=args.smoke, expected=json.loads(args.expected.read_text()),
            work_dir=work_dir, src=args.src,
        )
        if args.trace:
            from repro.telemetry import TelemetryCollector, install

            opts.collector = TelemetryCollector(source="bench.e2e")
            install(opts.collector)
            opts.tracer = layer_tracer.install()
        outcome = workloads.run(args.workload, opts)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"== {args.workload}  seed {args.seed}  kernel {outcome.kernel}  "
          f"trace {args.trace}")
    print(f"  window {outcome.window_s:.2f} s: {outcome.work} "
          f"{outcome.work_unit}; ops {outcome.attempted}, "
          f"ops_failed {outcome.failed}")
    if args.trace:
        metrics = layer_metrics(opts, outcome, workloads.percentile)
        print_breakdown(opts, metrics)
    else:
        for name, value in outcome.notes.items():
            print(f"  {name:<26} {value:>12.4f}")
        metrics = end_to_end_metrics(outcome)
        print_end_to_end(outcome, metrics, workloads.percentile)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------


def spawn(args, workload: str, seed: int, trace: int, src: Path):
    """One workload run in a fresh subprocess: ``(result, kernel, raw)``,
    where ``raw`` holds the ungated raw timings it printed, or ``(None,
    None, None)`` when it printed no result."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--src", str(src),
        "--expected", str(args.expected),
    ]
    if args.kernel:
        command += ["--kernel", args.kernel]
    if args.smoke:
        command.append("--smoke")
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    print(f"  (process took {time.monotonic() - started:.1f} s)", flush=True)
    if proc.returncode != 0 or not lines:
        print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
        return None, None, None
    kernel = re.search(r"kernel (\S+)", proc.stdout)
    raw = {
        name.replace("raw ", ""): float(value) for name, value in re.findall(
            r"^  (raw \S+|slice_ms) +(\S+) ", proc.stdout, re.MULTILINE
        )
    }
    return json.loads(lines[-1]), kernel.group(1) if kernel else None, raw


def median_metric(runs, workload: str, trace: int, name: str) -> float:
    values = [
        run["result"]["metrics"][name]["value"] for run in runs
        if run["workload"] == workload and run["trace"] == trace
    ]
    return statistics.median(values) if values else float("nan")


def run_all(args) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    sides = [("a", args.src)]
    if args.pair_src is not None:
        sides.append(("b", args.pair_src))
    traces = [0, 1] if args.trace else [0]
    runs = {side: [] for side, _ in sides}
    ok = True
    # Workload by workload, so that one workload's runs are minutes apart
    # and its spread shows run-to-run noise, not the host's drift over
    # the whole session.
    for workload in names:
        for index, seed in enumerate(range(args.seed, args.seed + args.repeat)):
            for side, src in sides if index % 2 == 0 else sides[::-1]:
                for trace in traces:
                    result, kernel, raw = spawn(args, workload, seed, trace, src)
                    if result is None:
                        ok = False
                        continue
                    ok = ok and result["correct"]
                    runs[side].append({
                        "workload": workload, "seed": seed, "trace": trace,
                        "kernel": kernel, "raw": raw, "result": result,
                    })

    for side, _ in sides:
        print(f"\nsummary ({side}): medians of {args.repeat} run(s)")
        print(f"  {'workload':<20} " + " ".join(
            f"{name:>15}" for name in END_TO_END
        ) + ("  trace overhead  unattributed" if args.trace else ""))
        for workload in names:
            line = f"  {workload:<20} " + " ".join(
                f"{median_metric(runs[side], workload, 0, name):>15.4f}"
                for name in END_TO_END
            )
            if args.trace:
                overhead = median_metric(runs[side], workload, 0, "work_per_s") / (
                    median_metric(runs[side], workload, 1, "trace.work_per_s")
                )
                share = median_metric(
                    runs[side], workload, 1, "unattributed_s"
                ) / median_metric(runs[side], workload, 1, "wall_s")
                ok = ok and share <= UNATTRIBUTED_LIMIT
                line += f"  {overhead:>13.2f}x  {100 * share:>11.1f}%"
            print(line)
    for (side, _), out in zip(sides, [args.out, args.pair_out]):
        if out is not None:
            out.write_text(json.dumps({"runs": runs[side]}, indent=1) + "\n")
    if not ok:
        print("ERROR: a run failed, an output check failed, or the layer "
              "rows left too much wall time unattributed", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"],
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--kernel", help="simulation backend (default: the "
                        "program's own default)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (s27) and a few ops per workload")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree whose repro package is measured")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="pinned outputs")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+N-1")
    parser.add_argument("--out", type=Path, help="write the run set here")
    parser.add_argument("--pair-src", type=Path,
                        help="also run against this source tree, alternating")
    parser.add_argument("--pair-out", type=Path,
                        help="write the --pair-src run set here")
    args = parser.parse_args(argv)
    args.src = args.src.resolve()
    if args.pair_src is not None:
        args.pair_src = args.pair_src.resolve()
    if args.workload is not None:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
