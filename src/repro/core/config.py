"""GATEST configuration: the paper's parameter schedules and knobs.

Table 1 of the paper keys the GA's population size and mutation rate to
the vector length (number of primary inputs); §III fixes the sequence-
generation GA at population 32 and mutation 1/64; §V describes the
per-circuit progress limits and sequence-length schedules (s5378 and
s35932, whose sequential depths are very large, use smaller multiples).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence, Tuple

from ..circuit.library import profile_name
from ..faults.sampling import make_sampler
from ..ga.chromosome import CODINGS
from ..ga.crossover import CROSSOVER_OPERATORS
from ..ga.selection import SELECTION_SCHEMES
from ..sim.codegen import KERNEL_NAMES


@dataclass(frozen=True)
class GaSchedule:
    """Population size and mutation rate for one GA run."""

    population_size: int
    mutation_rate: float


def ga_params_for_vector_length(length: int) -> GaSchedule:
    """Table 1: GA parameter values for individual-test-vector generation.

    ========  ===========  ====================
    L         population   mutation probability
    ========  ===========  ====================
    < 4       8            1/8
    4 - 16    16           1/16
    > 16      16           1/L
    ========  ===========  ====================
    """
    if length < 1:
        raise ValueError("vector length must be positive")
    if length < 4:
        return GaSchedule(population_size=8, mutation_rate=1 / 8)
    if length <= 16:
        return GaSchedule(population_size=16, mutation_rate=1 / 16)
    return GaSchedule(population_size=16, mutation_rate=1 / length)


#: §III-D / §V defaults for the sequence-generation GA.
SEQUENCE_POPULATION_SIZE = 32
SEQUENCE_MUTATION_RATE = 1 / 64
DEFAULT_GENERATIONS = 8

#: Circuits the paper runs with reduced progress limits and sequence
#: lengths because of their very large sequential depth (§V).
DEEP_CIRCUITS = ("s5378", "s35932")

#: Stage events between run-checkpoint writes, unless a run asks for
#: another interval (``gatest run --checkpoint-every``, a service run
#: job's ``checkpoint_every``).
DEFAULT_CHECKPOINT_EVERY = 8


@dataclass(frozen=True)
class TestGenConfig:
    """All knobs of one GATEST run.

    Defaults reproduce the paper's main configuration (Table 2):
    tournament selection without replacement, uniform crossover, binary
    coding, nonoverlapping populations, no fault sampling, progress limit
    of 4x the sequential depth and sequence lengths of 1x/2x/4x the
    sequential depth.
    """

    __test__ = False  # "Test" prefix confuses pytest collection otherwise

    seed: int = 0
    selection: str = "tournament"
    crossover: str = "uniform"
    coding: str = "binary"
    generations: int = DEFAULT_GENERATIONS
    generation_gap: float = 1.0

    #: Multiplier on population size when overlapping generations are used
    #: (the paper scales N up as G shrinks; see Table 7 reproduction).
    population_scale: float = 1.0

    seq_population_size: int = SEQUENCE_POPULATION_SIZE
    seq_mutation_rate: float = SEQUENCE_MUTATION_RATE

    #: Progress limit for vector generation, as a multiple of sequential
    #: depth ("a small multiple of the sequential depth", §III).
    vector_progress_multiplier: float = 4.0
    #: Sequence lengths to try, as multiples of sequential depth (§III);
    #: any sequence of numbers is stored as a tuple of floats, so a JSON
    #: list and its tuple give one config, one digest and one hash.
    seq_length_multipliers: Tuple[float, ...] = (1.0, 2.0, 4.0)
    #: Consecutive failed GA attempts before abandoning a sequence length.
    seq_fail_limit: int = 4

    #: Fault sample for fitness evaluation: ``None`` (full list), an int
    #: (fixed size, Table 6) or a float in (0, 1) (fraction).
    fault_sample: Optional[object] = None

    #: Whether phase 3 adds the activity term (costs an extra pass; the
    #: paper always uses it — disabling is for the ablation bench).
    use_activity_fitness: bool = True

    #: Hard cap on total vectors committed (safety net for the test
    #: suite; the paper has no such cap).
    max_vectors: Optional[int] = None

    #: Fault model: "stuck-at" (the paper's model) or "transition"
    #: (conclusion's "other fault models" extension — slow-to-rise/fall
    #: under the conditional stuck-at approximation).
    fault_model: str = "stuck-at"

    #: Island-model GA (conclusion's "parallel implementations"
    #: extension): number of islands per GA run (1 = the paper's plain
    #: GA) and generations between ring migrations.
    n_islands: int = 1
    migration_interval: int = 2

    #: Worker processes for fault-sharded candidate evaluation
    #: (``gatest run --eval-jobs``); 1 keeps the serial path exactly.
    eval_jobs: int = 1

    #: Simulation kernel backend, one of ``repro.sim.codegen.KERNEL_NAMES``:
    #: "interp" (reference interpreter), "codegen" (generated
    #: straight-line Python, the default) or ``None`` (auto:
    #: ``REPRO_SIM_KERNEL`` env, else codegen).  Results are
    #: bit-identical either way (docs/KERNELS.md).
    sim_kernel: Optional[str] = None

    #: Execution-only knobs: settings that change how a run executes but
    #: provably not what it produces — excluded from :meth:`digest`, so
    #: a checkpointed run may be resumed with, say, a different
    #: ``eval_jobs`` and still finish bit-identically.
    _EXECUTION_ONLY = ("eval_jobs", "sim_kernel")

    def __post_init__(self) -> None:
        object.__setattr__(self, "seq_length_multipliers", tuple(
            float(m) for m in self.seq_length_multipliers))
        if self.eval_jobs < 1:
            raise ValueError("eval_jobs must be >= 1")
        if self.n_islands < 1:
            raise ValueError("n_islands must be >= 1")
        if self.migration_interval < 1:
            raise ValueError("migration_interval must be >= 1")
        if self.sim_kernel is not None and self.sim_kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown simulation kernel {self.sim_kernel!r}; "
                f"choose one of {KERNEL_NAMES}"
            )
        if self.fault_model not in ("stuck-at", "transition"):
            raise ValueError(
                f"unknown fault model {self.fault_model!r}; "
                "choose 'stuck-at' or 'transition'"
            )
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.seq_fail_limit < 1:
            raise ValueError("seq_fail_limit must be >= 1")
        if not 0.0 < self.generation_gap <= 1.0:
            raise ValueError("generation gap must be in (0, 1]")
        if not 0 < self.population_scale < math.inf:
            raise ValueError("population_scale must be positive and finite")
        if not all(map(math.isfinite, self.seq_length_multipliers)):
            raise ValueError("seq_length_multipliers must be finite")
        if self.seq_population_size < 2:
            raise ValueError("seq_population_size must be >= 2")
        if not 0.0 <= self.seq_mutation_rate <= 1.0:
            raise ValueError("seq_mutation_rate must be in [0, 1]")
        for name, registry in (("selection", SELECTION_SCHEMES),
                               ("crossover", CROSSOVER_OPERATORS),
                               ("coding", CODINGS)):
            if getattr(self, name) not in registry:
                raise ValueError(
                    f"unknown {name} {getattr(self, name)!r}; "
                    f"choose from {sorted(registry)}"
                )
        try:
            make_sampler(self.fault_sample)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"fault_sample: {exc}") from None

    def digest(self) -> str:
        """Hash of every result-affecting knob (run-checkpoint guard).

        Execution-only knobs (``_EXECUTION_ONLY``) are excluded: they
        are contractually bit-identical in outcome, so a run may resume
        under different parallelism or kernel settings.
        """
        items = sorted(
            (f.name, repr(getattr(self, f.name)))
            for f in fields(self)
            if f.name not in self._EXECUTION_ONLY
        )
        return hashlib.sha256(repr(items).encode()).hexdigest()

    def for_circuit(self, circuit_name: str) -> "TestGenConfig":
        """Apply the paper's per-circuit overrides (deep circuits); a
        scaled stand-in (``s5378@0.3``) takes its profile's."""
        if profile_name(circuit_name) in DEEP_CIRCUITS:
            return replace(
                self,
                vector_progress_multiplier=1.0,
                seq_length_multipliers=(0.25, 0.5, 1.0),
            )
        return self

    def vector_ga_schedule(self, n_pi: int) -> GaSchedule:
        """Table 1 schedule, with the population scaled for Table 7 runs."""
        schedule = ga_params_for_vector_length(n_pi)
        if self.population_scale != 1.0:
            schedule = GaSchedule(
                population_size=max(
                    2, round(schedule.population_size * self.population_scale)
                ),
                mutation_rate=schedule.mutation_rate,
            )
        return schedule

    def sequence_ga_schedule(self) -> GaSchedule:
        """Sequence-phase GA schedule (§III-D), population-scaled."""
        schedule = GaSchedule(
            population_size=self.seq_population_size,
            mutation_rate=self.seq_mutation_rate,
        )
        if self.population_scale != 1.0:
            schedule = GaSchedule(
                population_size=max(
                    2, round(schedule.population_size * self.population_scale)
                ),
                mutation_rate=schedule.mutation_rate,
            )
        return schedule

    def progress_limit(self, seq_depth: int) -> int:
        """Noncontributing-vector limit before switching to sequences."""
        return max(1, round(self.vector_progress_multiplier * max(1, seq_depth)))

    def sequence_lengths(self, seq_depth: int) -> Tuple[int, ...]:
        """Concrete sequence lengths for a circuit, shortest first."""
        depth = max(1, seq_depth)
        lengths = []
        for multiplier in self.seq_length_multipliers:
            length = max(1, round(multiplier * depth))
            if length not in lengths:
                lengths.append(length)
        return tuple(lengths)
