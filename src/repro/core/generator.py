"""GATEST: the GA-based sequential-circuit test generator (paper §III).

The generator alternates two stages (Figure 1):

1. **Individual test vectors** — one GA run per time frame evolves the
   best next vector under the phase-1/2/3 fitness functions; every best
   vector is committed (even noncontributing ones — they advance the
   state and are counted against the progress limit, Figure 2).
2. **Test sequences** — once the progress limit is hit, GA runs evolve
   whole vector sequences (phase-4 fitness) at increasing lengths.  Each
   attempt starts from a fresh random population; a sequence is added to
   the test set only if it improves fault coverage, and a length is
   abandoned after ``seq_fail_limit`` consecutive fruitless attempts.

Every phase's fitness comes from one population pass of the
PROOFS-style fault simulator per generation; phase 1 runs it with an
empty fault sample, so only the good machines are simulated.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..faults.sampling import make_sampler
from ..faults.simulator import FaultSimulator
from ..faults.transition import SIMULATORS
from ..ga.chromosome import make_coding
from ..ga.engine import GAParams, GeneticAlgorithm
from ..sim.compile import CompiledCircuit, compile_circuit
from ..telemetry.collector import NullCollector, get_collector
from .checkpoint import (
    CheckpointError,
    check_fingerprint,
    circuit_fingerprint,
    load_run_checkpoint,
    restore_sim_run_state,
    save_run_checkpoint,
    sim_run_state,
    stage_event_from_json,
    stage_event_to_json,
)
from .config import DEFAULT_CHECKPOINT_EVERY, TestGenConfig
from .fitness import FitnessContext, Phase, fitness_for_phase
from .phases import PhaseTracker
from .results import StageEvent, TestGenResult


class RunPreempted(Exception):
    """A run was stopped cooperatively before completion.

    Raised out of :meth:`GaTestGenerator.run` when the run's ``stop``
    hook fires.  When the run had a checkpoint path, a final checkpoint
    marked ``preempted`` was written at the stage boundary where the
    stop was observed —
    resubmitting the identical canonical config resumes from it and
    finishes bit-identically to an uninterrupted run.
    ``checkpoint_written`` tells the caller whether that checkpoint
    exists (a run without a checkpoint path preempts without one and
    simply loses its progress).
    """

    def __init__(self, message: str, checkpoint_written: bool = False) -> None:
        super().__init__(message)
        self.checkpoint_written = checkpoint_written


class _RunCheckpointer:
    """Periodic crash-safe checkpoint writer for one generator run.

    ``tick`` is called once per committed stage event (vector commit or
    sequence attempt); every ``every`` events the payload builder is
    invoked and the checkpoint atomically replaced on disk.  Building
    the payload is deferred to a callable so the skipped ticks cost
    nothing.
    """

    def __init__(self, path, every: int, collector) -> None:
        if every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.path = Path(path)
        self.every = every
        self.collector = collector
        self._since_write = 0

    def tick(self, payload_fn: Callable[[], dict]) -> None:
        """Count one stage event; write when the interval is reached."""
        self._since_write += 1
        if self._since_write >= self.every:
            self.write(payload_fn())

    def write(self, payload: dict) -> None:
        """Write one checkpoint now (atomic; meters the telemetry)."""
        t0 = time.perf_counter()
        save_run_checkpoint(self.path, payload)
        self._since_write = 0
        if self.collector.enabled:
            self.collector.inc("checkpoint.writes")
            self.collector.inc("checkpoint.seconds", time.perf_counter() - t0)


def make_fault_simulator(
    compiled: CompiledCircuit,
    config: TestGenConfig,
    faults: Optional[List[Fault]] = None,
    collector: Optional[NullCollector] = None,
) -> FaultSimulator:
    """Build the fault simulator one GATEST run needs under ``config``.

    The single place the config's simulator-shaping knobs (fault model,
    kernel, eval parallelism) are turned into a constructor call — the generator builds through here, and so
    does the job service's warm registry, so a leased resident simulator
    is guaranteed to match what the generator would have built itself.
    """
    if collector is None:
        collector = get_collector()
    return SIMULATORS[config.fault_model](
        compiled, faults=faults,
        collector=collector, eval_jobs=config.eval_jobs,
        kernel=config.sim_kernel,
    )


class GaTestGenerator:
    """One GATEST run over one circuit.

    >>> from repro.circuit import s27
    >>> from repro.core import GaTestGenerator, TestGenConfig
    >>> result = GaTestGenerator(s27(), TestGenConfig(seed=1)).run()
    >>> result.fault_coverage > 0.5
    True

    ``fsim`` lends the generator an existing simulator instead of
    building one: it must wrap the same compiled circuit, be configured
    like :func:`make_fault_simulator` would (same fault model and
    kernel), and be at power-up state (freshly built or ``reset``).
    A lent simulator is *not* closed by :meth:`run`/:meth:`close` — its
    lifetime (and its worker pool's) stays with the owner, which is how
    the job service keeps simulators and pools warm across jobs.
    """

    def __init__(
        self,
        circuit: Union[Circuit, CompiledCircuit],
        config: Optional[TestGenConfig] = None,
        faults: Optional[List[Fault]] = None,
        collector: Optional[NullCollector] = None,
        fsim: Optional[FaultSimulator] = None,
    ) -> None:
        compiled = compile_circuit(circuit)
        self.compiled = compiled
        self.circuit = compiled.circuit
        self.config = (config or TestGenConfig()).for_circuit(self.circuit.name)
        self.rng = random.Random(self.config.seed)
        self.collector = collector if collector is not None else get_collector()
        if fsim is not None:
            if fsim.compiled is not compiled:
                raise ValueError(
                    "lent fsim wraps a different CompiledCircuit than the "
                    "generator's; lend a simulator built on the same object"
                )
            self.fsim = fsim
            self._owns_fsim = False
        else:
            self.fsim = make_fault_simulator(
                compiled, self.config, faults=faults, collector=self.collector
            )
            self._owns_fsim = True
        self.sampler = make_sampler(self.config.fault_sample)
        self.ctx = FitnessContext(
            num_ffs=compiled.num_ffs, num_nodes=compiled.num_nodes
        )
        self.ga_runs = 0
        self.ga_evaluations = 0
        self.trace: List[StageEvent] = []
        self.test_sequence: List[List[int]] = []
        self._stop_hook: Optional[Callable[[], bool]] = None

    # ------------------------------------------------------------------
    # Evaluators
    # ------------------------------------------------------------------

    def _fault_evaluator(self, coding, phase: Phase, sample: Sequence[int]):
        """Population-pass fitness of every phase.

        Phase 1 passes an empty ``sample``: its fitness reads only the
        good-machine observables, which every block's top slot carries.
        The committed state, ``sample`` and ``phase`` stay fixed for the
        GA run that uses the evaluator, so it is a pure function of the
        chromosome, as the GA's fitness memo requires.
        """
        count_events = (
            phase is Phase.ACTIVITY and self.config.use_activity_fitness
        )
        effective_phase = phase
        if phase is Phase.ACTIVITY and not self.config.use_activity_fitness:
            effective_phase = Phase.DETECTION

        def evaluate(chromosomes):
            phenotypes = [coding.decode(c) for c in chromosomes]
            evaluations = self.fsim.evaluate_batch(
                phenotypes, sample=sample, count_faulty_events=count_events
            )
            return [
                fitness_for_phase(effective_phase, evaluation, self.ctx)
                for evaluation in evaluations
            ]

        return evaluate

    # ------------------------------------------------------------------
    # GA wrappers
    # ------------------------------------------------------------------

    def _run_ga(self, coding, evaluator, schedule) -> List[int]:
        """One GA run; returns the best chromosome evolved."""
        n_islands = self.config.n_islands
        population = schedule.population_size
        if n_islands > 1:
            population = max(2, round(population / n_islands))
        params = GAParams(
            population_size=population,
            generations=self.config.generations,
            selection=self.config.selection,
            crossover=self.config.crossover,
            mutation_rate=schedule.mutation_rate,
            generation_gap=self.config.generation_gap,
            n_islands=n_islands,
            migration_interval=self.config.migration_interval,
        )
        ga = GeneticAlgorithm(
            coding, evaluator, params, rng=self.rng, collector=self.collector
        )
        with self.collector.bind(ga_run=self.ga_runs):
            result = ga.run()
        self.ga_runs += 1
        self.ga_evaluations += result.evaluations
        return result.best.chromosome

    def _evolve_vector(self, phase: Phase) -> List[int]:
        coding = make_coding("binary", self.compiled.num_pis, 1)
        schedule = self.config.vector_ga_schedule(self.compiled.num_pis)
        if phase is Phase.INITIALIZATION:
            # No fault sample, so no sampler draw from the RNG either.
            sample = []
        else:
            sample = self.sampler.sample(self.fsim.active, self.rng)
        evaluator = self._fault_evaluator(coding, phase, sample)
        with self.collector.bind(stage="vector", phase=phase.name):
            best = self._run_ga(coding, evaluator, schedule)
        return coding.decode(best)[0]

    def _evolve_sequence(self, length: int) -> List[List[int]]:
        coding = make_coding(self.config.coding, self.compiled.num_pis, length)
        schedule = self.config.sequence_ga_schedule()
        sample = self.sampler.sample(self.fsim.active, self.rng)
        evaluator = self._fault_evaluator(coding, Phase.SEQUENCES, sample)
        with self.collector.bind(stage="sequence", phase=Phase.SEQUENCES.name,
                                 length=length):
            best = self._run_ga(coding, evaluator, schedule)
        return coding.decode(best)

    # ------------------------------------------------------------------
    # Stage loops
    # ------------------------------------------------------------------

    def _stop_pending(self) -> bool:
        hook = self._stop_hook
        return hook is not None and bool(hook())

    def _maybe_preempt(
        self,
        checkpointer: Optional[_RunCheckpointer],
        stage: str,
        tracker: PhaseTracker,
        sequence_stage: Optional[dict] = None,
    ) -> None:
        """Honor a pending stop request at a stage-event boundary.

        Stage boundaries are the only points where the loop state is
        fully described by the checkpoint payload, so they are the only
        points where preemption can leave behind a checkpoint that
        resumes bit-identically.
        """
        if not self._stop_pending():
            return
        written = False
        if checkpointer is not None:
            payload = self._checkpoint_payload(stage, tracker, sequence_stage)
            payload["preempted"] = True
            checkpointer.write(payload)
            written = True
        if self.collector.enabled:
            self.collector.inc("run.preempted")
        raise RunPreempted(
            f"run on {self.circuit.name!r} preempted at a {stage} stage "
            "boundary" + (" (resumable checkpoint written)" if written else ""),
            checkpoint_written=written,
        )

    def _vector_budget_left(self, need: int = 1) -> bool:
        cap = self.config.max_vectors
        return cap is None or len(self.test_sequence) + need <= cap

    def _generate_vectors(
        self,
        tracker: PhaseTracker,
        checkpointer: Optional[_RunCheckpointer] = None,
    ) -> None:
        while (
            self.fsim.active
            and not tracker.vectors_exhausted
            and self._vector_budget_left()
        ):
            phase = tracker.phase
            vector = self._evolve_vector(phase)
            commit = self.fsim.commit([vector])
            self.test_sequence.append(vector)
            self.trace.append(
                StageEvent(
                    kind="vector",
                    phase=phase,
                    frames=1,
                    detected=commit.detected_count,
                    committed=True,
                )
            )
            tracker.record_vector(
                detected=commit.detected_count,
                ffs_set=self.fsim.good_state.num_set,
                all_ffs_set=self.fsim.good_state.all_set,
            )
            if self.collector.enabled:
                self._record_stage("vector", phase, 1, commit.detected_count, True)
            if checkpointer is not None:
                checkpointer.tick(
                    lambda: self._checkpoint_payload("vectors", tracker)
                )
            self._maybe_preempt(checkpointer, "vectors", tracker)

    def _generate_sequences(
        self,
        tracker: PhaseTracker,
        checkpointer: Optional[_RunCheckpointer] = None,
        resume_state: Optional[dict] = None,
    ) -> None:
        tracker.enter_sequences()
        depth = self.circuit.sequential_depth()
        lengths = self.config.sequence_lengths(depth)
        start_index = 0
        resume_failures = 0
        if resume_state is not None:
            start_index = resume_state["length_index"]
            resume_failures = resume_state["failures"]
        for index in range(start_index, len(lengths)):
            length = lengths[index]
            failures = resume_failures if index == start_index else 0
            while (
                self.fsim.active
                and failures < self.config.seq_fail_limit
                and self._vector_budget_left(length)
            ):
                sequence = self._evolve_sequence(length)
                snapshot = self.fsim.snapshot()
                commit = self.fsim.commit(sequence)
                if commit.detected_count > 0:
                    self.test_sequence.extend(sequence)
                    failures = 0
                    committed = True
                else:
                    self.fsim.restore(snapshot)
                    failures += 1
                    committed = False
                self.trace.append(
                    StageEvent(
                        kind="sequence",
                        phase=Phase.SEQUENCES,
                        frames=length,
                        detected=commit.detected_count if committed else 0,
                        committed=committed,
                    )
                )
                if self.collector.enabled:
                    self._record_stage(
                        "sequence", Phase.SEQUENCES, length,
                        commit.detected_count if committed else 0, committed,
                    )
                if checkpointer is not None:
                    checkpointer.tick(
                        lambda: self._checkpoint_payload(
                            "sequences", tracker,
                            {"length_index": index, "failures": failures},
                        )
                    )
                self._maybe_preempt(
                    checkpointer, "sequences", tracker,
                    {"length_index": index, "failures": failures},
                )

    # ------------------------------------------------------------------

    def _record_stage(
        self, event: str, phase: Phase, frames: int, detected: int, committed: bool
    ) -> None:
        """Emit one StageEvent-aligned telemetry record with run context."""
        self.collector.stage(
            event=event,
            phase=phase.name,
            frames=frames,
            detected=detected,
            committed=committed,
            coverage=self.fsim.fault_coverage,
            vectors_total=len(self.test_sequence),
            faults_active=len(self.fsim.active),
        )

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def _checkpoint_payload(
        self,
        stage: str,
        tracker: PhaseTracker,
        sequence_stage: Optional[dict] = None,
    ) -> dict:
        """Everything needed to resume this run bit-identically.

        Built only at stage boundaries (after a committed vector or a
        finished sequence attempt), where the loop state is fully
        described by ``stage``/``sequence_stage`` plus the tracker, the
        simulator's committed state and the RNG state.
        """
        return {
            "circuit": self.circuit.name,
            "fingerprint": circuit_fingerprint(self.circuit),
            "config_digest": self.config.digest(),
            "stage": stage,
            "sequence_stage": sequence_stage,
            "sim": sim_run_state(self.fsim),
            "test_sequence": [list(v) for v in self.test_sequence],
            "rng_state": self.rng.getstate(),  # its tuples save as lists
            "tracker": tracker.state_dict(),
            "ga_runs": self.ga_runs,
            "ga_evaluations": self.ga_evaluations,
            "trace": [stage_event_to_json(e) for e in self.trace],
        }

    def _restore_run(self, payload: dict) -> Tuple[PhaseTracker, str, Optional[dict]]:
        """Overwrite this (freshly constructed) generator's state from a
        run checkpoint; returns the rebuilt tracker and resume stage."""
        check_fingerprint(payload, self.circuit)
        digest = self.config.digest()
        if payload["config_digest"] != digest:
            raise CheckpointError(
                f"checkpoint was taken under a different result-affecting "
                f"configuration (checkpoint config digest "
                f"{payload['config_digest'][:12]}…, this run's config "
                f"digests to {digest[:12]}…); refusing to resume "
                "(execution-only knobs like eval_jobs may differ, the rest "
                "must match)"
            )
        restore_sim_run_state(self.fsim, payload["sim"])
        self.test_sequence = [list(v) for v in payload["test_sequence"]]
        version, internal, gauss_next = payload["rng_state"]
        self.rng.setstate((version, tuple(internal), gauss_next))
        self.ga_runs = payload["ga_runs"]
        self.ga_evaluations = payload["ga_evaluations"]
        self.trace = [stage_event_from_json(e) for e in payload["trace"]]
        tracker = PhaseTracker.from_state(
            payload["tracker"],
            progress_limit=self.config.progress_limit(
                self.circuit.sequential_depth()
            ),
        )
        return tracker, payload["stage"], payload.get("sequence_stage")

    def close(self) -> None:
        """Release the fault simulator's resources, if this run owns them.

        Idempotent.  A simulator lent via the ``fsim`` constructor
        parameter is left open — closing it is its owner's job — so
        callers can unconditionally ``close()`` in a ``finally`` block
        (the CLI and the job service both do) without tearing down a
        warm simulator out from under its registry.
        """
        if self._owns_fsim:
            self.fsim.close()

    def run(
        self,
        *,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        resume: bool = False,
        stop: Optional[Callable[[], bool]] = None,
    ) -> TestGenResult:
        """Execute the full Figure-1 flow and return the result record.

        The run is wrapped in a ``generator.run`` telemetry span with one
        child span per stage; ``elapsed_seconds`` is read back from the
        root span so the reported wall clock and the trace cannot drift.

        With ``checkpoint_path`` set, a crash-safe run checkpoint is
        (re)written every ``checkpoint_every`` stage events plus once at
        completion; with ``resume=True`` the run restarts from that file
        and finishes bit-identically to an uninterrupted run (the
        checkpoint carries the RNG state).

        ``stop`` is the cooperative preemption hook: a zero-argument
        callable polled once per stage event.  When it returns true the
        run writes a final ``preempted`` checkpoint (when checkpointing)
        and raises :class:`RunPreempted` — see its docstring for the
        resume contract.  The hook must be cheap; the job service passes
        a stop-file existence probe.
        """
        collector = self.collector
        self._stop_hook = stop
        checkpointer: Optional[_RunCheckpointer] = None
        if checkpoint_path is not None:
            checkpointer = _RunCheckpointer(
                checkpoint_path, checkpoint_every, collector
            )
        if resume and checkpointer is None:
            raise ValueError("resume=True requires a checkpoint_path")
        stage = "vectors"
        seq_state: Optional[dict] = None
        tracker: Optional[PhaseTracker] = None
        if resume:
            payload = load_run_checkpoint(checkpoint_path)
            tracker, stage, seq_state = self._restore_run(payload)
            if collector.enabled:
                collector.inc("run.resumed")
        try:
            with collector.span("generator.run", circuit=self.circuit.name) as root:
                if tracker is None:
                    tracker = PhaseTracker(
                        progress_limit=self.config.progress_limit(
                            self.circuit.sequential_depth()
                        )
                    )
                if stage == "vectors":
                    with collector.span("generator.vectors"):
                        self._generate_vectors(tracker, checkpointer)
                if stage != "done" and self.fsim.active:
                    with collector.span("generator.sequences"):
                        self._generate_sequences(
                            tracker, checkpointer,
                            seq_state if stage == "sequences" else None,
                        )
                if checkpointer is not None and stage != "done":
                    # Final checkpoint: resuming a finished run is a no-op
                    # that reproduces its result.
                    checkpointer.write(
                        self._checkpoint_payload("done", tracker)
                    )
        finally:
            self.close()  # release eval-jobs worker processes, if owned
        elapsed = root.elapsed
        return TestGenResult(
            circuit_name=self.circuit.name,
            test_sequence=self.test_sequence,
            detected=self.fsim.detected_count,
            total_faults=self.fsim.num_faults,
            elapsed_seconds=elapsed,
            ga_evaluations=self.ga_evaluations,
            ga_runs=self.ga_runs,
            phase_transitions=list(tracker.transitions),
            trace=self.trace,
            detections=list(self.fsim.detections),
        )


def generate_tests(
    circuit: Circuit, config: Optional[TestGenConfig] = None
) -> TestGenResult:
    """Functional convenience wrapper around :class:`GaTestGenerator`."""
    return GaTestGenerator(circuit, config).run()
