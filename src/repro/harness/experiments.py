"""Regeneration drivers for every table and figure in the paper.

Each ``table_N`` function runs the corresponding experiment on the
synthetic benchmark suite and returns (measured table, paper table,
shape notes).  The command-line entry point prints them side by side::

    python -m repro.harness.experiments --table 3 --scale 0.3 --seeds 3

``--scale 1 --seeds 10`` reproduces the paper's full protocol (very
long in pure Python — the paper itself reports 105 hours for s35932 on
its fastest configuration); the default scale keeps every table in the
minutes range while preserving each experiment's structure.

Long campaigns are made restartable with ``--journal J.jsonl``: every
(circuit, config, seed) cell is journaled crash-safely as it completes,
and ``--resume`` replays completed cells bit-identically instead of
re-running them — the resumed output is byte-identical to an
uninterrupted run's (docs/ROBUSTNESS.md).  ``--jobs N`` fans seeds out
over fault-isolated worker processes; ``--trace`` / ``--metrics``
record the whole campaign's telemetry, worker traces included.

:func:`main` turns the execution flags (``--journal``, ``--jobs``,
``--eval-jobs``, ``--workers-from``) into one
:class:`~repro.harness.runner.ExecutionPlan` and passes it to every
driver; a driver called without one runs serially in-process, and
nothing outlives the call.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..baselines.deterministic import DeterministicAtpg
from ..circuit.profiles import (
    TABLE2_CIRCUITS,
    TABLE3_CIRCUITS,
    TABLE4_CIRCUITS,
    TABLE5_CIRCUITS,
    TABLE6_CIRCUITS,
    TABLE7_CIRCUITS,
)
from ..core.config import TestGenConfig, ga_params_for_vector_length
from ..core.generator import GaTestGenerator
from ..sim.compile import compiled_circuit_for
from . import paper_data
from .runner import SERIAL, AggregateResult, ExecutionPlan, run_gatest, run_matrix
from .tables import TextTable, fmt_mean_std, fmt_time

#: Circuits small enough for quick default runs, per table.
QUICK_CIRCUITS = {
    2: ["s298", "s344", "s386", "s526"],
    3: ["s298", "s386", "s526"],
    4: ["s298", "s386", "s526"],
    5: ["s298", "s386", "s526"],
    6: ["s298", "s386", "s526"],
    7: ["s298", "s386", "s526"],
}

FULL_CIRCUITS = {
    2: TABLE2_CIRCUITS,
    3: TABLE3_CIRCUITS,
    4: TABLE4_CIRCUITS,
    5: TABLE5_CIRCUITS,
    6: TABLE6_CIRCUITS,
    7: TABLE7_CIRCUITS,
}

SELECTIONS = ["roulette", "sus", "tournament", "tournament-r"]
CROSSOVERS = ["1-point", "2-point", "uniform"]
MUTATION_RATES = {"1/16": 1 / 16, "1/32": 1 / 32, "1/64": 1 / 64,
                  "1/128": 1 / 128, "1/256": 1 / 256}
SAMPLE_SIZES = [100, 200, 300]

#: Table 7 protocol: generation gap label -> (population scale, gap
#: fraction, generations).  Population scales and the ~equal-evaluation
#: generation counts follow the paper's §V description (≈81% of the
#: nonoverlapping evaluation count).
OVERLAP_SETTINGS = {
    "2/N": (3.0, 0.02, 68),
    "1/4": (2.0, 0.25, 11),
    "1/2": (1.5, 0.50, 8),
    "3/4": (1.0, 0.75, 8),
}


def _progress(line: str) -> None:
    print("  " + line, file=sys.stderr, flush=True)


# A cell none of whose seeds survived renders as ``-`` (``None``), never
# as a measurement of 0, and drops out of every summary and speedup.

def _det(agg: AggregateResult) -> Optional[str]:
    """A cell's mean detections."""
    return f"{agg.det_mean:.1f}" if agg.runs else None


def _vec(agg: AggregateResult) -> Optional[str]:
    """A cell's mean test-set length."""
    return f"{agg.vec_mean:.0f}" if agg.runs else None


def _det_vec_speedup(agg: AggregateResult, base: AggregateResult) -> Optional[str]:
    """``det/vec/speedup`` of a cell, its speedup over ``base``'s mean
    time (``-`` when ``base`` has no surviving seed)."""
    if not agg.runs:
        return None
    speedup = (f"{base.time_mean / agg.time_mean:.2f}"
               if base.runs and agg.time_mean > 0 else "-")
    return f"{agg.det_mean:.1f}/{agg.vec_mean:.0f}/{speedup}"


def _normalized_mean(rows: Sequence[Dict[str, AggregateResult]],
                     labels: Sequence[str]) -> Optional[str]:
    """Mean detections of the ``labels`` cells of every row, each
    normalized to its row's best cell."""
    values: List[float] = []
    for row in rows:
        best = max((agg.det_mean for agg in row.values() if agg.runs),
                   default=0.0)
        if best > 0:
            values.extend(row[label].det_mean / best
                          for label in labels if row[label].runs)
    return f"{sum(values) / len(values):.4f}" if values else None


# ---------------------------------------------------------------------------
# Table 1 — parameter schedule (verification, not measurement)
# ---------------------------------------------------------------------------

def table_1(scale: float, seeds: Sequence[int], circuits: Optional[List[str]] = None,
            plan: ExecutionPlan = SERIAL) -> str:
    """Verify and print the Table 1 parameter schedule."""
    table = TextTable(
        ["Vector length", "Population", "Mutation"],
        title="Table 1: GA parameter schedule (encoded; checked against use)",
    )
    for length, label in [(3, "< 4"), (8, "4-16"), (16, "4-16"), (35, "> 16")]:
        schedule = ga_params_for_vector_length(length)
        rate = (
            f"1/{round(1 / schedule.mutation_rate)}"
        )
        table.add_row(f"L={length} ({label})", schedule.population_size, rate)
    return table.render()


# ---------------------------------------------------------------------------
# Table 2 — GA vs deterministic ATPG
# ---------------------------------------------------------------------------

def table_2(scale: float, seeds: Sequence[int], circuits: Optional[List[str]] = None,
            plan: ExecutionPlan = SERIAL) -> str:
    """GA vs deterministic ATPG per circuit (paper Table 2)."""
    circuits = circuits or QUICK_CIRCUITS[2]
    measured = TextTable(
        ["Circuit", "Faults", "Det (GA)", "Vec (GA)", "Time (GA)",
         "Det (det.)", "Vec (det.)", "Time (det.)", "Unt."],
        title=f"Table 2 (measured, scale={scale}, {len(seeds)} seeds)",
    )
    for name in circuits:
        agg = run_gatest(name, TestGenConfig(), seeds, scale=scale, plan=plan)
        _progress(f"{name} GA done")
        compiled = compiled_circuit_for(name, scale)
        # A reduced backtrack budget keeps the deterministic comparator
        # tractable at reproduction scale; it inflates the aborted-fault
        # count the same way HITEC's own backtrack limits do.
        det = DeterministicAtpg(compiled, backtrack_limit=100).run()
        _progress(f"{name} deterministic done ({fmt_time(det.elapsed_seconds)})")
        ga = [
            agg.total_faults,
            fmt_mean_std(agg.det_mean, agg.det_std),
            fmt_mean_std(agg.vec_mean, agg.vec_std, digits=0),
            fmt_time(agg.time_mean),
        ] if agg.runs else [None] * 4
        measured.add_row(
            name,
            *ga,
            det.detected,
            det.vectors,
            fmt_time(det.elapsed_seconds),
            det.untestable,
        )
    paper = TextTable(
        ["Circuit", "Faults", "Det (GA)", "Vec (GA)", "Time (GA)",
         "Det (HITEC)", "Vec (HITEC)", "Time (HITEC)"],
        title="Table 2 (paper)",
    )
    for name in circuits:
        row = paper_data.TABLE2.get(name)
        if row is None:
            continue
        paper.add_row(
            name, row.total_faults,
            fmt_mean_std(row.ga_det, row.ga_det_std),
            fmt_mean_std(row.ga_vec, row.ga_vec_std, digits=0),
            fmt_time(row.ga_time_s),
            row.hitec_det, row.hitec_vec, fmt_time(row.hitec_time_s),
        )
    return measured.render() + "\n\n" + paper.render()


# ---------------------------------------------------------------------------
# Table 3 — selection x crossover
# ---------------------------------------------------------------------------

def table_3(scale: float, seeds: Sequence[int], circuits: Optional[List[str]] = None,
            plan: ExecutionPlan = SERIAL) -> str:
    """Selection x crossover grid (paper Table 3)."""
    circuits = circuits or QUICK_CIRCUITS[3]
    configs = {
        f"{sel}/{xo}": TestGenConfig(selection=sel, crossover=xo)
        for sel in SELECTIONS
        for xo in CROSSOVERS
    }
    results = run_matrix(circuits, configs, seeds, scale=scale,
                         progress=_progress, plan=plan)
    measured = TextTable(
        ["Circuit"] + [f"{s[:4]}/{x[:4]}" for s in SELECTIONS for x in CROSSOVERS],
        title=f"Table 3 (measured detections, scale={scale}, {len(seeds)} seeds)",
    )
    for name in circuits:
        measured.add_row(
            name,
            *[_det(results[name][f"{sel}/{xo}"])
              for sel in SELECTIONS for xo in CROSSOVERS],
        )
    vectors_table = TextTable(
        ["Circuit"] + [f"{s[:4]}/{x[:4]}" for s in SELECTIONS for x in CROSSOVERS],
        title="Table 3 supplement (measured test-set lengths — on this "
              "substrate configuration quality shows up as length once "
              "detections saturate)",
    )
    for name in circuits:
        vectors_table.add_row(
            name,
            *[_vec(results[name][f"{sel}/{xo}"])
              for sel in SELECTIONS for xo in CROSSOVERS],
        )
    # Scheme summary (normalized to each circuit's best cell).
    summary = TextTable(
        ["Scheme", "Measured mean (norm.)", "Paper mean (norm.)"],
        title="Selection-scheme summary",
    )
    rows = [results[name] for name in circuits]
    paper_means = paper_data.table3_scheme_means()
    for sel in SELECTIONS:
        summary.add_row(
            sel, _normalized_mean(rows, [f"{sel}/{xo}" for xo in CROSSOVERS]),
            f"{paper_means.get(sel, 0):.4f}",
        )
    xo_summary = TextTable(
        ["Crossover", "Measured mean (norm.)", "Paper mean (norm.)"],
        title="Crossover summary",
    )
    paper_xo = paper_data.table3_crossover_means()
    for xo in CROSSOVERS:
        xo_summary.add_row(
            xo, _normalized_mean(rows, [f"{sel}/{xo}" for sel in SELECTIONS]),
            f"{paper_xo.get(xo, 0):.4f}",
        )
    return "\n\n".join([
        measured.render(), vectors_table.render(),
        summary.render(), xo_summary.render(),
    ])


# ---------------------------------------------------------------------------
# Table 4 — mutation rate
# ---------------------------------------------------------------------------

def table_4(scale: float, seeds: Sequence[int], circuits: Optional[List[str]] = None,
            plan: ExecutionPlan = SERIAL) -> str:
    """Sequence-phase mutation-rate sweep (paper Table 4)."""
    circuits = circuits or QUICK_CIRCUITS[4]
    configs = {
        label: TestGenConfig(seq_mutation_rate=rate)
        for label, rate in MUTATION_RATES.items()
    }
    results = run_matrix(circuits, configs, seeds, scale=scale,
                         progress=_progress, plan=plan)
    measured = TextTable(
        ["Circuit"] + list(MUTATION_RATES),
        title=f"Table 4 (measured detections, scale={scale}, {len(seeds)} seeds)",
    )
    for name in circuits:
        measured.add_row(
            name, *[_det(results[name][label]) for label in MUTATION_RATES]
        )
    paper = TextTable(
        ["Circuit"] + list(MUTATION_RATES), title="Table 4 (paper)"
    )
    for name in circuits:
        row = paper_data.TABLE4.get(name)
        if row:
            paper.add_row(name, *[f"{row[label]:.1f}" for label in MUTATION_RATES])
    return measured.render() + "\n\n" + paper.render()


# ---------------------------------------------------------------------------
# Table 5 — coding x population size
# ---------------------------------------------------------------------------

def table_5(scale: float, seeds: Sequence[int], circuits: Optional[List[str]] = None,
            plan: ExecutionPlan = SERIAL) -> str:
    """Binary vs nonbinary coding x population size (paper Table 5)."""
    circuits = circuits or QUICK_CIRCUITS[5]
    cells = [("bin", 16), ("non", 16), ("bin", 32), ("non", 32), ("bin", 64), ("non", 64)]
    configs = {
        f"{coding}{pop}": TestGenConfig(
            coding="binary" if coding == "bin" else "nonbinary",
            seq_population_size=pop,
        )
        for coding, pop in cells
    }
    results = run_matrix(circuits, configs, seeds, scale=scale,
                         progress=_progress, plan=plan)
    measured = TextTable(
        ["Circuit"] + [f"{c}{p}" for c, p in cells],
        title=f"Table 5 (measured detections, scale={scale}, {len(seeds)} seeds)",
    )
    for name in circuits:
        measured.add_row(
            name, *[_det(results[name][f"{c}{p}"]) for c, p in cells]
        )
    paper = TextTable(["Circuit"] + [f"{c}{p}" for c, p in cells], title="Table 5 (paper)")
    for name in circuits:
        row = paper_data.TABLE5.get(name)
        if row:
            paper.add_row(name, *[f"{row[(c, p)]:.1f}" for c, p in cells])
    return measured.render() + "\n\n" + paper.render()


# ---------------------------------------------------------------------------
# Table 6 — fault sampling
# ---------------------------------------------------------------------------

def table_6(scale: float, seeds: Sequence[int], circuits: Optional[List[str]] = None,
            plan: ExecutionPlan = SERIAL) -> str:
    """Fault-sample sizes: coverage and speedup (paper Table 6)."""
    circuits = circuits or QUICK_CIRCUITS[6]
    # Scale the paper's absolute sample sizes with the circuit scale so
    # scaled runs sample a comparable *fraction* of the fault list; below
    # scale 0.1 sizes collide at the floor of 10, and each runs once.
    sizes = list(dict.fromkeys(max(10, round(s * scale)) for s in SAMPLE_SIZES))
    configs: Dict[str, TestGenConfig] = {"full": TestGenConfig()}
    for size in sizes:
        configs[f"{size}"] = TestGenConfig(fault_sample=size)
    results = run_matrix(circuits, configs, seeds, scale=scale,
                         progress=_progress, plan=plan)
    measured = TextTable(
        ["Circuit"] + [f"{s}: det/vec/spdup" for s in sizes],
        title=f"Table 6 (measured, scale={scale}, {len(seeds)} seeds; "
              f"sample sizes scaled from 100/200/300)",
    )
    for name in circuits:
        measured.add_row(name, *[
            _det_vec_speedup(results[name][f"{size}"], results[name]["full"])
            for size in sizes
        ])
    paper = TextTable(
        ["Circuit"] + [f"{s}: det/vec/spdup" for s in SAMPLE_SIZES],
        title="Table 6 (paper)",
    )
    for name in circuits:
        row_data = paper_data.TABLE6.get(name)
        if row_data:
            paper.add_row(
                name,
                *[
                    f"{row_data[s][0]:.1f}/{row_data[s][1]}/{row_data[s][2]:.2f}"
                    for s in SAMPLE_SIZES
                ],
            )
    return measured.render() + "\n\n" + paper.render()


# ---------------------------------------------------------------------------
# Table 7 — overlapping populations
# ---------------------------------------------------------------------------

def table_7(scale: float, seeds: Sequence[int], circuits: Optional[List[str]] = None,
            plan: ExecutionPlan = SERIAL) -> str:
    """Overlapping-population generation gaps (paper Table 7)."""
    circuits = circuits or QUICK_CIRCUITS[7]
    configs: Dict[str, TestGenConfig] = {"nonoverlap": TestGenConfig()}
    for label, (pop_scale, gap, generations) in OVERLAP_SETTINGS.items():
        configs[label] = TestGenConfig(
            population_scale=pop_scale,
            generation_gap=gap,
            generations=generations,
        )
    results = run_matrix(circuits, configs, seeds, scale=scale,
                         progress=_progress, plan=plan)
    measured = TextTable(
        ["Circuit"] + [f"{label}: det/vec/spdup" for label in OVERLAP_SETTINGS],
        title=f"Table 7 (measured, scale={scale}, {len(seeds)} seeds)",
    )
    for name in circuits:
        measured.add_row(name, *[
            _det_vec_speedup(results[name][label], results[name]["nonoverlap"])
            for label in OVERLAP_SETTINGS
        ])
    paper = TextTable(
        ["Circuit"] + [f"{label}: det/vec/spdup" for label in OVERLAP_SETTINGS],
        title="Table 7 (paper)",
    )
    for name in circuits:
        row_data = paper_data.TABLE7.get(name)
        if row_data:
            paper.add_row(
                name,
                *[
                    f"{row_data[label][0]:.1f}/{row_data[label][1]}/{row_data[label][2]:.2f}"
                    for label in OVERLAP_SETTINGS
                ],
            )
    return measured.render() + "\n\n" + paper.render()


# ---------------------------------------------------------------------------
# Figures 1 and 2 — flow traces
# ---------------------------------------------------------------------------

def figure_1(scale: float, seeds: Sequence[int], circuits: Optional[List[str]] = None,
             plan: ExecutionPlan = SERIAL) -> str:
    """Trace the overall flow: vectors first, then sequences (Figure 1)."""
    name = (circuits or ["s298"])[0]
    compiled = compiled_circuit_for(name, scale)
    result = GaTestGenerator(compiled, TestGenConfig(seed=seeds[0])).run()
    lines = [f"Figure 1 flow trace for {name} (seed {seeds[0]}):"]
    vector_stage = [e for e in result.trace if e.kind == "vector"]
    sequence_stage = [e for e in result.trace if e.kind == "sequence"]
    lines.append(
        f"  stage 1: {len(vector_stage)} individual vectors, "
        f"{sum(e.detected for e in vector_stage)} detections"
    )
    by_len: Dict[int, List] = {}
    for e in sequence_stage:
        by_len.setdefault(e.frames, []).append(e)
    for length in sorted(by_len):
        events = by_len[length]
        committed = sum(1 for e in events if e.committed)
        lines.append(
            f"  stage 2 (len {length}): {len(events)} GA attempts, "
            f"{committed} sequences added, "
            f"{sum(e.detected for e in events)} detections"
        )
    lines.append(f"  final: {result.summary()}")
    return "\n".join(lines)


def figure_2(scale: float, seeds: Sequence[int], circuits: Optional[List[str]] = None,
             plan: ExecutionPlan = SERIAL) -> str:
    """Trace the phase transitions of vector generation (Figure 2)."""
    name = (circuits or ["s298"])[0]
    compiled = compiled_circuit_for(name, scale)
    result = GaTestGenerator(compiled, TestGenConfig(seed=seeds[0])).run()
    lines = [f"Figure 2 phase trace for {name} (seed {seeds[0]}):"]
    for vec_index, phase in result.phase_transitions:
        lines.append(f"  vector {vec_index:4d}: -> {phase.name}")
    return "\n".join(lines)


#: Every driver takes ``(scale, seeds, circuits, plan)``.  Table 1 only
#: checks a schedule and each figure traces one in-process run, so those
#: three leave ``plan`` unused.
TABLES = {
    "1": table_1,
    "2": table_2,
    "3": table_3,
    "4": table_4,
    "5": table_5,
    "6": table_6,
    "7": table_7,
    "fig1": figure_1,
    "fig2": figure_2,
}


def build_parser() -> argparse.ArgumentParser:
    """The ``gatest experiments`` argument parser (also introspected by
    ``tools/check_doc_links.py`` to verify documented flags exist)."""
    parser = argparse.ArgumentParser(
        prog="gatest experiments",
        description="Regenerate the paper's tables and figure traces.",
    )
    parser.add_argument("--table", required=True, choices=list(TABLES) + ["all"])
    parser.add_argument("--scale", type=float, default=0.3,
                        help="circuit scale (1.0 = full profile sizes)")
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of random seeds (paper: 10)")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full circuit list for the table")
    parser.add_argument("--circuits", nargs="*", default=None,
                        help="explicit circuit subset, each named as "
                             "'gatest run' takes it (a builtin name, a "
                             ".bench path, an ISCAS89 name or name@scale)")
    parser.add_argument("--eval-jobs", type=int, default=None, metavar="N",
                        help="fault-sharded candidate evaluation over N "
                             "worker processes per run (bit-identical "
                             "results; see docs/PERFORMANCE.md)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run up to N seeds in parallel, each in its own "
                             "fault-isolated worker process (crashed/hung "
                             "seeds are retried, then reported as failed "
                             "cells instead of killing the table)")
    parser.add_argument("--journal", default=None, metavar="J.jsonl",
                        help="campaign journal: record every (circuit, "
                             "config, seed) cell crash-safely as it "
                             "completes (see docs/ROBUSTNESS.md)")
    parser.add_argument("--resume", action="store_true",
                        help="resume the --journal campaign: replay "
                             "completed cells bit-identically, re-run only "
                             "the rest")
    parser.add_argument("--workers-from", default=None, metavar="HOSTS",
                        help="distributed campaign: lease cells to the "
                             "worker host names listed in this file (one "
                             "per line; start a 'gatest campaign-worker' "
                             "per name against the same --journal); "
                             "expired leases are reaped and re-leased, "
                             "then run locally (docs/ROBUSTNESS.md)")
    parser.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                        help="seconds a worker may hold a leased cell "
                             "before it is reaped (default: REPRO_LEASE_TTL "
                             "or 300)")
    parser.add_argument("--trace", default=None, metavar="OUT.jsonl",
                        help="write the campaign's telemetry trace as JSONL")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics summary after the tables")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: regenerate tables/figures by number (see module docstring)."""
    from ..cli import (
        _finish_telemetry,
        _make_collector,
        _refuse_bad_counts,
        _refuse_bad_scale,
    )

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.resume and not args.journal:
        parser.error("--resume requires --journal")
    if args.workers_from and not args.journal:
        parser.error("--workers-from requires --journal (the journal is "
                     "the coordination substrate)")
    if args.lease_ttl is not None and args.lease_ttl <= 0:
        parser.error("--lease-ttl must be a positive number of seconds")
    _refuse_bad_counts(parser, ("--seeds", args.seeds), ("--jobs", args.jobs),
                       ("--eval-jobs", args.eval_jobs))
    _refuse_bad_scale(parser, args.scale)
    for spec in args.circuits or ():
        try:
            compiled_circuit_for(spec, args.scale)
        except ValueError as exc:
            parser.error(str(exc))
    hosts: Optional[List[str]] = None
    if args.workers_from:
        try:
            with open(args.workers_from, encoding="utf-8") as handle:
                hosts = [line.strip() for line in handle
                         if line.strip() and not line.startswith("#")]
        except OSError as exc:
            parser.error(f"cannot read --workers-from file: {exc}")
        if not hosts:
            parser.error(f"--workers-from file {args.workers_from!r} "
                         "names no hosts")
    seeds = list(range(1, args.seeds + 1))
    names = list(TABLES) if args.table == "all" else [args.table]

    from contextlib import ExitStack

    from ..core.checkpoint import CheckpointError
    from ..telemetry import use
    from .campaign import CampaignJournal

    collector = _make_collector(args)
    with ExitStack() as stack:
        stack.enter_context(use(collector))
        journal = coordinator = None
        if args.journal:
            try:
                journal = CampaignJournal.create(
                    args.journal, table=args.table, scale=args.scale,
                    seeds=seeds, resume=args.resume, collector=collector,
                )
            except CheckpointError as exc:
                raise SystemExit(f"error: {exc}")
            if hosts is not None:
                from ..parallel.resilience import (
                    LEASE_RETRIES_ENV,
                    LEASE_TTL_ENV,
                    RetryPolicy,
                )
                from .distributed import DistributedCoordinator

                policy = None
                try:
                    if args.lease_ttl is not None:
                        policy = RetryPolicy.from_env(
                            task_timeout=args.lease_ttl,
                            timeout_env=LEASE_TTL_ENV,
                            retries_env=LEASE_RETRIES_ENV,
                        )
                    coordinator = DistributedCoordinator(
                        journal, hosts, policy=policy, collector=collector,
                    )
                except ValueError as exc:  # a malformed REPRO_LEASE_* value
                    raise SystemExit(f"error: {exc}")
                stack.callback(coordinator.close)
        plan = ExecutionPlan(
            journal=journal, seed_jobs=args.jobs, eval_jobs=args.eval_jobs,
            coordinator=coordinator,
        )
        try:
            for name in names:
                circuits = args.circuits
                if circuits is None and args.full and name.isdigit():
                    circuits = FULL_CIRCUITS.get(int(name))
                print(TABLES[name](args.scale, seeds, circuits, plan=plan))
                print()
        except CheckpointError as exc:
            raise SystemExit(f"error: {exc}")
    _finish_telemetry(args, collector)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
