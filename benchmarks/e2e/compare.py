#!/usr/bin/env python3
"""Compare two run sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json
    python3 benchmarks/e2e/compare.py benchmarks/e2e/baseline.json:0 \\
        benchmarks/e2e/baseline.json:1

A run set is what ``bench_e2e.py --out`` writes; ``FILE:N`` picks set N
of a file holding ``{"sets": [...]}``.  Untraced runs are paired by
workload and seed (``bench_e2e.py --pair-src`` collects such pairs and
alternates which side runs first).  Every workload needs at least ten
pairs.  For each end-to-end metric of BENCHMARK.json on each workload it
prints both sides' medians and quartiles, the pairs the change won (ties
count for neither) and a verdict against the metric's bound:

* ``improved``: the change won at least nine tenths of the pairs and the
  medians differ, in its favour, by more than the parent's own spread
  (the distance between its quartiles);
* ``unresolved``: the parent's spread is wider than the bound, unless
  every run of the change reads better than every run of the parent;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``: otherwise.

It also compares the share of failed operations.  Exits 1 when a metric
regressed, a workload has too few pairs, or the change failed a larger
share of operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(spec: str) -> list:
    path, _, index = spec.rpartition(":")
    if not index.isdigit():
        path, index = spec, ""
    data = json.loads(Path(path).read_text())
    if index:
        data = data["sets"][int(index)]
    return [run for run in data["runs"] if run["trace"] == 0]


def verdict(parent, change, bound: float, higher_better: bool):
    """``(verdict, wins, change of the median as a share of the parent's)``."""
    sign = 1 if higher_better else -1
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (med_c - med_p)
    all_better = (
        min(change) > max(parent) if higher_better else max(change) < min(parent)
    )
    if wins >= WIN_SHARE * len(parent) and gain > q3 - q1:
        result = "improved"
    elif (q3 - q1) / abs(med_p) > bound and not all_better:
        result = "unresolved"
    elif -gain / abs(med_p) > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return result, wins, (med_c - med_p) / abs(med_p)


def spread(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="run set of the parent commit")
    parser.add_argument("change", help="run set of the change")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    ok = True
    print(f"{'workload':<20} {'metric':<16} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>6}  verdict")
    for workload in [w["name"] for w in benchmark["workloads"]]:
        by_seed = {
            run["seed"]: run["result"] for run in change_runs
            if run["workload"] == workload
        }
        pairs = [
            (run["result"], by_seed[run["seed"]]) for run in parent_runs
            if run["workload"] == workload and run["seed"] in by_seed
        ]
        if len(pairs) < MIN_PAIRS:
            print(f"{workload:<20} needs {MIN_PAIRS} pairs, has {len(pairs)}")
            ok = False
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            result, wins, delta = verdict(
                parent, change, metric["bound"], metric["better"] == "higher"
            )
            ok = ok and result != "regressed"
            print(f"{workload:<20} {name:<16} {spread(parent):>30} "
                  f"{spread(change):>30} {wins:>3}/{len(pairs):<2}  "
                  f"{result} ({delta:+.1%})")
        parent_share, change_share = (
            sum(run["failed"] for run in side) / sum(run["attempted"] for run in side)
            for side in zip(*pairs)
        )
        ok = ok and change_share <= parent_share
        print(f"{workload:<20} {'failed share':<16} {parent_share:>30.4%} "
              f"{change_share:>30.4%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
