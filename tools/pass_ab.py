#!/usr/bin/env python3
"""In-process A/B of population passes and commits between two source trees.

End-to-end windows (benchmarks/e2e/bench_e2e.py) are the final word on a
speedup, but on a shared host the speed of one process drifts too much
for them to show where a gain of a few percent comes from.  This tool
times one layer, the population pass, with both trees loaded in one
process, so both sides share whatever the host does at the moment:

* The ``repro`` package of each tree is copied into a temporary
  directory under its own name (``repro_ab_a``, ``repro_ab_b``) and
  imported side by side.
* One GATEST run on side A is captured as plain data: for every
  ``evaluate_batch`` call, the committed state (good flip-flop values,
  divergences, active list and, for the transition model, the previous
  frame's good values), the candidates, the fault sample and the events
  flag.  Up to ``--passes`` passes of each kind are kept, drawn
  uniformly from the run; the run's pass count of every kind is kept
  too.
* Each kept pass is loaded into a simulator of each side, scored once
  untimed on both, then timed ``--repeats`` times, alternating which
  side goes first; a side's time is its best.
* If any ``CandidateEval`` of side B differs from side A's, the tool
  names the pass and exits 1 without reporting times.  Otherwise it
  prints per-kind mean times, B/A, and the ratio weighted by the run's
  pass counts (below 1: side B is faster).

``--commits`` replays one-frame commit streams instead: ``--streams``
fresh random streams of ``--frames`` vectors, each committed one frame
at a time from power-up on a new simulator of each side, ``--repeats``
times, alternating which side goes first; a side's time is its best,
and every ``CommitResult`` must agree.

Run from the repository root::

    python3 tools/pass_ab.py ../parent . --circuit s298 --model transition
    python3 tools/pass_ab.py ../parent . --circuit s1196 --fault-sample 64
    python3 tools/pass_ab.py ../parent . --circuit s1423 --commits

A tree is a checkout (holding ``src/repro``) or a ``src`` directory.
Running one tree on both sides measures the method's own noise.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import random
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Rewrites that let a copy of the package import itself under a new
#: name: absolute imports, and dotted module names in string literals.
_ABSOLUTE = re.compile(r"\b(from|import)(\s+)repro\b")
_QUOTED = re.compile(r"""(["'])repro\.""")


def package_dir(tree: Path) -> Path:
    """The ``repro`` package directory of a checkout or ``src`` tree."""
    for candidate in (tree / "src" / "repro", tree / "repro"):
        if (candidate / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"pass_ab: no repro package under {tree}")


def load_package(tree: Path, name: str, workdir: Path):
    """Copy ``tree``'s package to ``workdir/name`` and import it."""
    dest = workdir / name
    shutil.copytree(package_dir(tree), dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for path in dest.rglob("*.py"):
        text = path.read_text()
        renamed = _QUOTED.sub(rf"\g<1>{name}.",
                              _ABSOLUTE.sub(rf"\g<1>\g<2>{name}", text))
        if renamed != text:
            path.write_text(renamed)
    if str(workdir) not in sys.path:
        sys.path.insert(0, str(workdir))
    return importlib.import_module(name)


class Side:
    """One tree's package, with its circuit compiled."""

    def __init__(self, package, args) -> None:
        self.name = package.__name__
        library = self.module("circuit.library")
        compile_mod = self.module("sim.compile")
        self.compiled = compile_mod.compile_circuit(
            library.resolve_spec(args.circuit, 1.0, 0)
        )
        self.sim_class = self.module("faults.transition").SIMULATORS[args.model]

    def module(self, dotted: str):
        return importlib.import_module(f"{self.name}.{dotted}")

    def simulator(self):
        return self.sim_class(self.compiled)

    def load(self, sim, state: dict) -> None:
        """Write a captured committed state into ``sim``."""
        simulator = self.module("faults.simulator")
        status = self.module("faults.model").FaultStatus
        statuses = [status.DETECTED] * sim.num_faults
        for fault_id in state["active"]:
            statuses[fault_id] = status.UNDETECTED
        snap = simulator.SimSnapshot(
            good_state=self.module("sim.logic3").GoodState(
                list(state["ff_values"])),
            divergence={f: dict(d) for f, d in state["divergence"].items()},
            status=statuses,
            active=list(state["active"]),
            vectors_applied=0,
            detections=[],
        )
        if state["prev_good"] is None:
            sim.restore(snap)
        else:
            sim.restore((snap, list(state["prev_good"])))


@dataclasses.dataclass
class Pass:
    """One captured ``evaluate_batch`` call, as plain data."""

    kind: str
    state: dict
    candidates: List[List[List[int]]]
    sample: List[int]
    events: bool


def pass_kind(candidates, sample, events: bool) -> str:
    kind = "vector" if len(candidates[0]) == 1 else "sequence"
    if not sample:
        kind += "/empty-sample"
    return kind + "/events" if events else kind


def capture(side: Side, args):
    """Run GATEST on ``side`` and keep up to ``args.passes`` passes of each
    kind, drawn uniformly (reservoir sampling); returns the kept passes
    and the run's pass count per kind."""
    config = side.module("core.config").TestGenConfig(
        seed=args.seed, fault_model=args.model, fault_sample=args.fault_sample,
    )
    gen = side.module("core.generator").GaTestGenerator(side.compiled, config)
    sim = gen.fsim
    evaluate_batch = sim.evaluate_batch
    rng = random.Random(0)
    kept: Dict[str, List[Pass]] = {}
    counts: Dict[str, int] = {}
    cached = [None, None, None]  # good_state, active, state

    def state_now() -> dict:
        if cached[0] is not sim.good_state or cached[1] is not sim.active:
            cached[:] = [sim.good_state, sim.active, {
                "ff_values": list(sim.good_state.ff_values),
                "divergence": {f: dict(d) for f, d in sim.divergence.items()},
                "active": list(sim.active),
                "prev_good": (list(sim.prev_good)
                              if hasattr(sim, "prev_good") else None),
            }]
        return cached[2]

    def recording(candidates, sample=None, count_faulty_events=False):
        sample = list(sim.active if sample is None else sample)
        kind = pass_kind(candidates, sample, count_faulty_events)
        seen = counts[kind] = counts.get(kind, 0) + 1
        reservoir = kept.setdefault(kind, [])
        slot = len(reservoir) if seen <= args.passes else rng.randrange(seen)
        if slot < args.passes:
            entry = Pass(kind, state_now(),
                         [[list(v) for v in c] for c in candidates],
                         sample, count_faulty_events)
            if slot == len(reservoir):
                reservoir.append(entry)
            else:
                reservoir[slot] = entry
        return evaluate_batch(candidates, sample=sample,
                              count_faulty_events=count_faulty_events)

    sim.evaluate_batch = recording
    gen.run()
    return [p for kind in sorted(kept) for p in kept[kind]], counts


def rows(results) -> list:
    """Results of either side as plain tuples, for comparison."""
    return [dataclasses.astuple(r) for r in results]


def replay_passes(sides: List[Side], passes: List[Pass], repeats: int):
    """Best time of every pass on each side; exits 1 on any difference."""
    sims = [side.simulator() for side in sides]
    times = [[], []]
    for i, p in enumerate(passes):
        want = None
        for side, sim in zip(sides, sims):
            side.load(sim, p.state)
            got = rows(sim.evaluate_batch(p.candidates, sample=p.sample,
                                          count_faulty_events=p.events))
            want = got if want is None else want
            if got != want:
                refuse(f"pass {i} ({p.kind}, {len(p.candidates)} candidates)")
        gc.collect()
        best = [float("inf"), float("inf")]
        for r in range(repeats):
            order = (0, 1) if (i + r) % 2 == 0 else (1, 0)
            for s in order:
                t0 = time.perf_counter()
                out = sims[s].evaluate_batch(p.candidates, sample=p.sample,
                                             count_faulty_events=p.events)
                best[s] = min(best[s], time.perf_counter() - t0)
                if rows(out) != want:
                    refuse(f"pass {i} ({p.kind}), repeat {r}")
        times[0].append(best[0])
        times[1].append(best[1])
    return times


def report_passes(passes: List[Pass], counts: Dict[str, int], times) -> None:
    print(f"{'kind':<28}{'run':>7}{'kept':>6}{'A ms':>10}{'B ms':>10}{'B/A':>8}")
    total_a = total_b = 0.0
    for kind in sorted(counts):
        index = [i for i, p in enumerate(passes) if p.kind == kind]
        if not index:
            continue
        mean_a = sum(times[0][i] for i in index) / len(index)
        mean_b = sum(times[1][i] for i in index) / len(index)
        total_a += counts[kind] * mean_a
        total_b += counts[kind] * mean_b
        print(f"{kind:<28}{counts[kind]:>7}{len(index):>6}"
              f"{mean_a * 1e3:>10.3f}{mean_b * 1e3:>10.3f}"
              f"{mean_b / mean_a:>8.3f}")
    print(f"weighted by the run's pass counts: B/A = {total_b / total_a:.3f}")


def replay_commits(sides: List[Side], args) -> None:
    """Best of ``--repeats`` timed replays of each one-frame commit
    stream on both sides, alternating which goes first; exits 1 on any
    difference."""
    width = sides[0].compiled.num_pis
    for side in sides:  # build each side's kernel outside the timing
        side.simulator().commit([[0] * width])
    totals = [0.0, 0.0]
    lines = [f"{'stream':<8}{'A s':>10}{'B s':>10}{'B/A':>8}"]
    for stream in range(args.streams):
        rng = random.Random(args.seed * 1000 + stream)
        vectors = [[rng.randint(0, 1) for _ in range(width)]
                   for _ in range(args.frames)]
        seconds = [float("inf"), float("inf")]
        want = None
        gc.collect()
        for r in range(args.repeats):
            for s in ((0, 1) if (stream + r) % 2 == 0 else (1, 0)):
                sim = sides[s].simulator()
                results = []
                t0 = time.perf_counter()
                for vector in vectors:
                    results.append(sim.commit([vector]))
                seconds[s] = min(seconds[s], time.perf_counter() - t0)
                got = [
                    ([(dataclasses.astuple(f), at) for f, at in c.detections],
                     c.remaining)
                    for c in results
                ]
                want = got if want is None else want
                if got != want:
                    refuse(f"commit stream {stream}, repeat {r}")
        totals[0] += seconds[0]
        totals[1] += seconds[1]
        lines.append(f"{stream:<8}{seconds[0]:>10.4f}{seconds[1]:>10.4f}"
                     f"{seconds[1] / seconds[0]:>8.3f}")
    lines.append(f"{'total':<8}{totals[0]:>10.4f}{totals[1]:>10.4f}"
                 f"{totals[1] / totals[0]:>8.3f}")
    print("\n".join(lines))


def refuse(where: str) -> None:
    sys.exit(f"pass_ab: side B's results differ from side A's at {where}; "
             "no times reported")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="In-process A/B of population passes between two trees.")
    parser.add_argument("a", type=Path, help="tree of side A (the baseline)")
    parser.add_argument("b", type=Path, help="tree of side B (the change)")
    parser.add_argument("--circuit", default="s298")
    parser.add_argument("--model", choices=("stuck-at", "transition"),
                        default="stuck-at")
    parser.add_argument("--fault-sample", type=int, default=None,
                        help="GA fault sample size (default: every fault)")
    parser.add_argument("--seed", type=int, default=1,
                        help="GA seed of the captured run; vector seed "
                             "for --commits")
    parser.add_argument("--passes", type=int, default=40,
                        help="passes kept per kind")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed calls per pass (or commit stream) "
                             "and side")
    parser.add_argument("--commits", action="store_true",
                        help="replay one-frame commit streams instead")
    parser.add_argument("--streams", type=int, default=4)
    parser.add_argument("--frames", type=int, default=200)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    workdir = Path(tempfile.mkdtemp(prefix="pass_ab_"))
    try:
        sides = [
            Side(load_package(tree.resolve(), f"repro_ab_{label}", workdir),
                 args)
            for label, tree in (("a", args.a), ("b", args.b))
        ]
        if args.commits:
            replay_commits(sides, args)
            return 0
        passes, counts = capture(sides[0], args)
        times = replay_passes(sides, passes, args.repeats)
        report_passes(passes, counts, times)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
