"""Fault sampling: trading fitness accuracy for execution time.

Reproduces the structure of the paper's Table 6 on one synthetic
benchmark: GATEST runs with the full fault list vs fixed-size random
fault samples in the fitness evaluation.  Prints detections, vector
counts, end-to-end speedup, and the per-evaluation cost that drives it.

Run:  python examples/fault_sampling_speedup.py [circuit] [scale]
e.g.  python examples/fault_sampling_speedup.py s1423 0.5
"""

import sys

from repro.core import TestGenConfig
from repro.harness import TextTable, run_gatest
from repro.sim import compiled_circuit_for


def main() -> None:
    circuit = sys.argv[1] if len(sys.argv) > 1 else "s1196"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4
    seeds = [1, 2]

    compiled = compiled_circuit_for(circuit, scale)
    from repro.faults import collapsed_fault_list
    total = len(collapsed_fault_list(compiled.circuit))
    print(f"{circuit}@{scale}: {total} collapsed faults")

    sample_sizes = [max(10, round(s * scale)) for s in (100, 200, 300)]
    rows = []
    print("running full fault list ...")
    full = run_gatest(circuit, TestGenConfig(), seeds, scale=scale)
    rows.append(("full", full))
    for size in sample_sizes:
        print(f"running sample size {size} ...")
        agg = run_gatest(circuit, TestGenConfig(fault_sample=size), seeds, scale=scale)
        rows.append((f"{size}", agg))

    def eval_cost_us(agg):
        evals = sum(r.ga_evaluations for r in agg.runs) / len(agg.runs)
        return 1e6 * agg.time_mean / evals if evals else 0.0

    table = TextTable(
        ["Sample", "Det", "Vec", "Time (s)", "Speedup", "us/eval"],
        title=f"Fault sampling on {circuit}@{scale} (mean of {len(seeds)} seeds)",
    )
    for label, agg in rows:
        speedup = full.time_mean / agg.time_mean if agg.time_mean else 0.0
        table.add_row(
            label,
            f"{agg.det_mean:.1f}/{agg.total_faults}",
            f"{agg.vec_mean:.0f}",
            f"{agg.time_mean:.2f}",
            f"{speedup:.2f}",
            f"{eval_cost_us(agg):.0f}",
        )
    print()
    print(table.render())
    print("\npaper shape: speedups grow with circuit size "
          "(Table 6: 1.05x on s298 up to 6.3x on s5378) at a bounded "
          "coverage cost.")


if __name__ == "__main__":
    main()
