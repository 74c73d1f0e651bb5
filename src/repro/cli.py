"""Command-line interface: ``gatest``.

Subcommands:

* ``run`` — generate tests for a circuit (a ``.bench`` file, a bundled
  circuit name, or an ISCAS89 synthetic stand-in) and optionally save
  the test set;
* ``fsim`` — fault-simulate a test-vector file against a circuit;
* ``synth`` — emit a synthetic profile-matched circuit as ``.bench``;
* ``info`` — print circuit statistics and fault-list size;
* ``serve`` — run the persistent ATPG job service (docs/SERVICE.md);
* ``campaign-worker`` — process leased cells of a distributed campaign
  journal (docs/ROBUSTNESS.md §6);
* ``experiments`` — forwards to :mod:`repro.harness.experiments`.

Test-vector files are plain text: one vector per line, characters
``0``/``1`` (one per primary input), ``#`` comments allowed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, List, Optional

from .atomicio import atomic_write_text
from .baselines import DeterministicAtpg, RandomTestGenerator
from .circuit import (
    library,
    load_bench,
    synthesize_named,
    write_bench,
)
from .circuit.profiles import ISCAS89_PROFILES
from .core import CheckpointError, GaTestGenerator, TestGenConfig
from .core.config import DEFAULT_CHECKPOINT_EVERY
from .faults import FaultSimulator, collapsed_fault_list
from .ga import CROSSOVER_OPERATORS, SELECTION_SCHEMES
from .ga.chromosome import CODINGS
from .sim.codegen import KERNEL_NAMES
from .sim.compile import compile_circuit


def _load_circuit(spec: str, scale: float, seed: int):
    """Resolve a circuit spec: path, builtin name, or profile name."""
    try:
        return library.resolve_spec(spec, scale=scale, seed=seed)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _refuse_bad_counts(parser: argparse.ArgumentParser, *flags,
                       minimum: int = 1) -> None:
    """Usage error for a ``(flag, value)`` count below ``minimum``
    (``None`` is unset), naming the flag rather than failing later in a
    traceback."""
    for flag, value in flags:
        if value is not None and value < minimum:
            parser.error(f"{flag} must be at least {minimum}, got {value}")


#: The engine-specific ``gatest run`` flags each engine reads (all read
#: the circuit, --scale, --compact, -o, --trace and --metrics).  The GA
#: and hybrid engines build one config from the same flags, but the
#: hybrid engine's PODEM pass takes stuck-at faults only.
_CONFIG_FLAGS = ("--seed", "--selection", "--crossover", "--coding",
                 "--sample", "--fault-model", "--islands", "--max-vectors",
                 "--eval-jobs", "--kernel")
ENGINE_FLAGS = {
    "ga": _CONFIG_FLAGS + ("--checkpoint", "--checkpoint-every", "--resume"),
    "hybrid": tuple(f for f in _CONFIG_FLAGS if f != "--fault-model"),
    "random": ("--seed", "--max-vectors"),
    "deterministic": (),
}


def unread_run_flags(engine: str, flags: Iterable[str]) -> List[str]:
    """The flags among ``flags`` that ``gatest run --engine ENGINE``
    does not read.  ``gatest run`` refuses them as a usage error, and
    tools/check_doc_links.py refuses documented invocations that give
    them."""
    return [flag for flag in flags
            if flag in ENGINE_FLAGS["ga"] and flag not in ENGINE_FLAGS[engine]]


def _refuse_unread_flags(parser: argparse.ArgumentParser,
                         args: argparse.Namespace) -> None:
    """Usage error for a flag set off its default that the engine
    does not read."""
    defaults = parser.parse_args(["run", args.circuit])
    dests = {flag: flag[2:].replace("-", "_") for flag in ENGINE_FLAGS["ga"]}
    given = [flag for flag, dest in dests.items()
             if getattr(args, dest) != getattr(defaults, dest)]
    unread = unread_run_flags(args.engine, given)
    if unread:
        parser.error(f"--engine {args.engine} does not read "
                     f"{', '.join(unread)}")


def _refuse_bad_scale(parser: argparse.ArgumentParser, scale: float) -> None:
    """Usage error for a ``--scale`` outside the profiles' (0, 1]."""
    if not 0 < scale <= 1:
        parser.error(f"--scale must be in (0, 1], got {scale:g}")


def _write_tests(path: Path, vectors: List[List[int]]) -> None:
    lines = ["# one test vector per line, one bit per primary input"]
    lines += ["".join(str(b) for b in v) for v in vectors]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_tests(path: Path, n_pi: int) -> List[List[int]]:
    vectors = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(line) != n_pi or any(ch not in "01" for ch in line):
            raise SystemExit(
                f"error: {path}:{lineno}: expected {n_pi} bits of 0/1, got {line!r}"
            )
        vectors.append([int(ch) for ch in line])
    return vectors


def _make_collector(args: argparse.Namespace):
    """A recording collector when ``--trace``/``--metrics`` asked for one."""
    from .telemetry import TelemetryCollector, get_collector

    if getattr(args, "trace", None) or getattr(args, "metrics", False):
        return TelemetryCollector(source="repro.cli")
    return get_collector()


def _finish_telemetry(args: argparse.Namespace, collector) -> None:
    """Dump the JSONL trace and/or print the metrics summary table."""
    if getattr(args, "trace", None):
        try:
            count = collector.dump(Path(args.trace))
        except OSError as exc:
            raise SystemExit(f"error: cannot write trace {args.trace!r}: {exc}")
        print(f"wrote {count} trace records to {args.trace}")
    if getattr(args, "metrics", False):
        from .telemetry import metrics_summary

        print()
        print(metrics_summary(collector))


def cmd_run(args: argparse.Namespace) -> int:
    """``gatest run``: generate tests with the selected engine."""
    from .telemetry import use

    collector = _make_collector(args)
    with use(collector), collector.span("cli.run", engine=args.engine):
        status = _cmd_run_body(args, collector)
    _finish_telemetry(args, collector)
    return status


def _cmd_run_body(args: argparse.Namespace, collector) -> int:
    # --seed seeds the test generator, never the circuit: synthesized
    # profiles resolve at circuit seed 0, as the harness and the
    # benchmark do (`gatest synth --seed K -o c.bench` reaches another).
    # Compiled once, so the engine and --compact share one kernel build.
    circuit = compile_circuit(_load_circuit(args.circuit, args.scale, 0))
    if args.resume and not args.checkpoint:
        raise SystemExit("error: --resume requires --checkpoint")
    config = TestGenConfig(
        seed=args.seed,
        selection=args.selection,
        crossover=args.crossover,
        coding=args.coding,
        fault_sample=args.sample,
        fault_model=args.fault_model,
        n_islands=args.islands,
        max_vectors=args.max_vectors,
        eval_jobs=args.eval_jobs,
        sim_kernel=args.kernel,
    )
    if args.engine == "ga":
        generator = GaTestGenerator(circuit, config, collector=collector)
        # The finally mirrors run()'s own cleanup but also covers the
        # window where run() never starts (and close() is idempotent),
        # so an interrupt can never strand pool workers.
        try:
            result = generator.run(
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                resume=args.resume,
            )
        except CheckpointError as exc:
            raise SystemExit(f"error: {exc}")
        finally:
            generator.close()
    elif args.engine == "hybrid":
        from .core import HybridAtpg

        result = HybridAtpg(circuit, config).run()
    elif args.engine == "random":
        result = RandomTestGenerator(circuit, seed=args.seed,
                                     max_vectors=args.max_vectors or 1000).run()
    else:  # deterministic
        result = DeterministicAtpg(circuit).run()
    print(result.summary())
    vectors = result.test_sequence
    if args.compact:
        from .core.compaction import compact_test_set

        compaction = compact_test_set(circuit, vectors,
                                      fault_model=args.fault_model)
        vectors = compaction.test_sequence
        print(
            f"compacted: {compaction.original_vectors} -> "
            f"{compaction.compacted_vectors} vectors "
            f"({100 * compaction.reduction:.0f}% smaller), "
            f"coverage preserved"
        )
    if args.output:
        _write_tests(Path(args.output), vectors)
        print(f"wrote {len(vectors)} vectors to {args.output}")
    return 0


def cmd_fsim(args: argparse.Namespace) -> int:
    """``gatest fsim``: fault-simulate a test-vector file."""
    circuit = _load_circuit(args.circuit, args.scale, args.seed)
    collector = _make_collector(args)
    fsim = FaultSimulator(circuit, collector=collector, kernel=args.kernel)
    vectors = _read_tests(Path(args.tests), circuit.num_inputs)
    with collector.span("cli.fsim", circuit=circuit.name, vectors=len(vectors)):
        fsim.commit(vectors)
    print(
        f"{circuit.name}: {fsim.detected_count}/{fsim.num_faults} faults detected "
        f"({100 * fsim.fault_coverage:.2f}%) by {len(vectors)} vectors"
    )
    if args.verbose:
        for fault in fsim.undetected_faults():
            print(f"  undetected: {fault.describe(circuit)}")
    _finish_telemetry(args, collector)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    """``gatest synth``: emit a synthetic ISCAS89 stand-in."""
    circuit = synthesize_named(args.name, seed=args.seed, scale=args.scale)
    if args.format == "verilog":
        from .circuit.verilog import write_verilog

        text = write_verilog(circuit)
    else:
        text = write_bench(circuit)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {circuit.name} to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """Convert between .bench and structural Verilog."""
    source = Path(args.input)
    if source.suffix == ".v":
        from .circuit.verilog import load_verilog

        circuit = load_verilog(source)
    else:
        circuit = load_bench(source)
    target = Path(args.output)
    if target.suffix == ".v":
        from .circuit.verilog import save_verilog

        save_verilog(circuit, target)
    else:
        from .circuit import save_bench

        save_bench(circuit, target)
    print(f"converted {source} -> {target} "
          f"({circuit.num_gates} gates, {circuit.num_dffs} FFs)")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """``gatest info``: print circuit statistics."""
    circuit = _load_circuit(args.circuit, args.scale, args.seed)
    stats = circuit.stats()
    for key, value in stats.items():
        print(f"{key:10s} {value}")
    print(f"{'faults':10s} {len(collapsed_fault_list(circuit))} (collapsed)")
    return 0


def cmd_campaign_worker(args: argparse.Namespace) -> int:
    """``gatest campaign-worker``: process distributed campaign leases."""
    from .harness.distributed import campaign_worker_main

    try:
        return campaign_worker_main(
            args.journal,
            args.host,
            poll=args.poll,
            max_idle=args.max_idle,
            once=args.once,
        )
    except (CheckpointError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


def cmd_serve(args: argparse.Namespace) -> int:
    """``gatest serve``: run the ATPG job service (docs/SERVICE.md)."""
    from .service import serve

    return serve(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        workers=args.workers,
        cache_size=args.cache_size,
        queue_max=args.queue_max,
    )


def build_parser() -> argparse.ArgumentParser:
    """The full ``gatest`` argument parser (also introspected by
    ``tools/check_doc_links.py`` to verify documented flags exist)."""
    parser = argparse.ArgumentParser(
        prog="gatest",
        description="GA-based sequential circuit test generation (GATEST reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="generate tests for a circuit")
    run.add_argument("circuit")
    run.add_argument(
        "--engine",
        choices=["ga", "random", "deterministic", "hybrid"],
        default="ga",
    )
    run.add_argument("--seed", type=int, default=0,
                     help="test-generation seed; synthesized profiles "
                          "always resolve at circuit seed 0")
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--selection", default="tournament",
                     choices=sorted(SELECTION_SCHEMES))
    run.add_argument("--crossover", default="uniform",
                     choices=sorted(CROSSOVER_OPERATORS))
    run.add_argument("--coding", default="binary", choices=sorted(CODINGS))
    run.add_argument("--sample", type=int, default=None,
                     help="fault sample size for fitness evaluation")
    run.add_argument("--fault-model", choices=["stuck-at", "transition"],
                     default="stuck-at")
    run.add_argument("--islands", type=int, default=1,
                     help="island-model GA: islands per GA run")
    run.add_argument("--eval-jobs", type=int, default=1, metavar="N",
                     help="fault-sharded candidate evaluation over N worker "
                          "processes (1 = serial; results are identical — "
                          "see docs/PERFORMANCE.md)")
    run.add_argument("--kernel", choices=KERNEL_NAMES,
                     default=None,
                     help="simulation kernel backend (default: codegen, or "
                          "$REPRO_SIM_KERNEL; results are bit-identical — "
                          "see docs/KERNELS.md)")
    run.add_argument("--checkpoint", default=None, metavar="CKPT",
                     help="write crash-safe run checkpoints here (GA engine "
                          "only; see docs/ROBUSTNESS.md)")
    run.add_argument("--checkpoint-every", type=int,
                     default=DEFAULT_CHECKPOINT_EVERY, metavar="N",
                     help="stage events (vectors committed / sequence "
                          "attempts) between checkpoint writes (default "
                          f"{DEFAULT_CHECKPOINT_EVERY})")
    run.add_argument("--resume", action="store_true",
                     help="resume from --checkpoint; the finished run is "
                          "bit-identical to an uninterrupted one")
    run.add_argument("--compact", action="store_true",
                     help="statically compact the generated test set, "
                          "re-simulated under the run's fault model")
    run.add_argument("--max-vectors", type=int, default=None, metavar="N",
                     help="cap on vectors the GA commits (hybrid: its GA "
                          "pass; random engine: default 1000)")
    run.add_argument("-o", "--output", default=None, help="write test vectors here")
    run.add_argument("--trace", default=None, metavar="OUT.jsonl",
                     help="write a JSONL telemetry trace (docs/TELEMETRY.md)")
    run.add_argument("--metrics", action="store_true",
                     help="print a telemetry metrics summary table")
    run.set_defaults(func=cmd_run)

    fsim = sub.add_parser("fsim", help="fault-simulate a test file")
    fsim.add_argument("circuit")
    fsim.add_argument("tests")
    fsim.add_argument("--seed", type=int, default=0)
    fsim.add_argument("--scale", type=float, default=1.0)
    fsim.add_argument("-v", "--verbose", action="store_true")
    fsim.add_argument("--kernel", choices=KERNEL_NAMES,
                      default=None,
                      help="simulation kernel backend (default: codegen; "
                           "see docs/KERNELS.md)")
    fsim.add_argument("--trace", default=None, metavar="OUT.jsonl",
                      help="write a JSONL telemetry trace (docs/TELEMETRY.md)")
    fsim.add_argument("--metrics", action="store_true",
                      help="print a telemetry metrics summary table")
    fsim.set_defaults(func=cmd_fsim)

    synth = sub.add_parser("synth", help="emit a synthetic ISCAS89 stand-in")
    synth.add_argument("name", choices=sorted(ISCAS89_PROFILES))
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--scale", type=float, default=1.0)
    synth.add_argument("--format", choices=["bench", "verilog"], default="bench")
    synth.add_argument("-o", "--output", default=None)
    synth.set_defaults(func=cmd_synth)

    convert = sub.add_parser(
        "convert", help="convert between .bench and structural Verilog (.v)"
    )
    convert.add_argument("input")
    convert.add_argument("output")
    convert.set_defaults(func=cmd_convert)

    info = sub.add_parser("info", help="circuit statistics")
    info.add_argument("circuit")
    info.add_argument("--seed", type=int, default=0)
    info.add_argument("--scale", type=float, default=1.0)
    info.set_defaults(func=cmd_info)

    worker = sub.add_parser(
        "campaign-worker",
        help="process leased cells of a distributed campaign journal "
             "(start one per host named in experiments --workers-from; "
             "see docs/ROBUSTNESS.md)",
    )
    worker.add_argument("--journal", required=True, metavar="J.jsonl",
                        help="the shared campaign journal (the coordinator "
                             "creates it; this worker appends results)")
    worker.add_argument("--host", required=True, metavar="NAME",
                        help="this worker's host name — it claims exactly "
                             "the leases addressed to NAME")
    worker.add_argument("--poll", type=float, default=0.1, metavar="S",
                        help="seconds between journal polls (default 0.1)")
    worker.add_argument("--max-idle", type=float, default=60.0, metavar="S",
                        help="exit 0 after S seconds with nothing claimable "
                             "(default 60; also bounds the wait for the "
                             "journal to appear)")
    worker.add_argument("--once", action="store_true",
                        help="exit as soon as one scan finds nothing "
                             "claimable instead of idling")
    worker.set_defaults(func=cmd_campaign_worker)

    serve = sub.add_parser(
        "serve", help="run the persistent ATPG job service (docs/SERVICE.md)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8337,
                       help="port to bind; 0 picks an ephemeral port and "
                            "prints it (default 8337)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="job ledger + run checkpoints live here; reuse "
                            "the directory across restarts to recover "
                            "unfinished jobs (default: throwaway tempdir)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="job worker threads and tier worker processes "
                            "(default 2)")
    serve.add_argument("--cache-size", type=int, default=None, metavar="N",
                       help="max resident warm simulators, in the service "
                            "and in each tier worker (default 8)")
    serve.add_argument("--queue-max", type=int, default=None, metavar="N",
                       help="max queued jobs before submissions are "
                            "rejected with 429 (default: unbounded)")
    serve.set_defaults(func=cmd_serve)

    sub.add_parser(
        "experiments",
        help="regenerate the paper's tables (forwards to "
             "repro.harness.experiments; supports crash-safe campaigns "
             "via --journal/--resume and seed parallelism via --jobs)",
        add_help=False,
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (see module docstring for the subcommands)."""
    # argparse's REMAINDER handling of leading options is unreliable, so
    # the experiments passthrough is dispatched before parsing.
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    if raw and raw[0] == "experiments":
        from .harness.experiments import main as experiments_main

        return experiments_main(raw[1:])

    parser = build_parser()
    args = parser.parse_args(raw)
    if args.command == "run":
        _refuse_bad_counts(
            parser,
            ("--eval-jobs", args.eval_jobs),
            ("--islands", args.islands),
            ("--sample", args.sample),
            ("--checkpoint-every", args.checkpoint_every),
        )
        _refuse_unread_flags(parser, args)
    if args.command == "serve":
        if not 0 <= args.port <= 65535:
            parser.error(f"--port must be in 0-65535, got {args.port}")
        _refuse_bad_counts(parser, ("--workers", args.workers))
        _refuse_bad_counts(parser, ("--cache-size", args.cache_size),
                           ("--queue-max", args.queue_max), minimum=0)
    if getattr(args, "scale", None) is not None:
        _refuse_bad_scale(parser, args.scale)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
