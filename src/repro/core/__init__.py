"""GATEST core: the paper's contribution (config, fitness, phases, generator)."""

from .checkpoint import (
    RUN_FORMAT_VERSION,
    CheckpointError,
    circuit_fingerprint,
    config_from_json,
    config_to_json,
    fault_list_digest,
    load_checkpoint,
    load_run_checkpoint,
    restore_sim_run_state,
    result_from_json,
    result_to_json,
    save_checkpoint,
    save_run_checkpoint,
    sim_run_state,
)
from .compaction import CompactionResult, TestSetCompactor, compact_test_set
from .config import (
    DEEP_CIRCUITS,
    GaSchedule,
    TestGenConfig,
    ga_params_for_vector_length,
)
from .fitness import (
    FitnessContext,
    Phase,
    fitness_for_phase,
    phase1_fitness,
    phase2_fitness,
    phase3_fitness,
    phase4_fitness,
)
from .generator import (
    GaTestGenerator,
    RunPreempted,
    generate_tests,
    make_fault_simulator,
)
from .hybrid import HybridAtpg, HybridResult, run_hybrid
from .phases import PhaseTracker
from .results import StageEvent, TestGenResult

__all__ = [
    "CheckpointError",
    "RUN_FORMAT_VERSION",
    "circuit_fingerprint",
    "config_from_json",
    "config_to_json",
    "fault_list_digest",
    "load_checkpoint",
    "load_run_checkpoint",
    "restore_sim_run_state",
    "result_from_json",
    "result_to_json",
    "RunPreempted",
    "save_checkpoint",
    "save_run_checkpoint",
    "sim_run_state",
    "CompactionResult",
    "DEEP_CIRCUITS",
    "FitnessContext",
    "TestSetCompactor",
    "compact_test_set",
    "GaSchedule",
    "GaTestGenerator",
    "HybridAtpg",
    "HybridResult",
    "run_hybrid",
    "Phase",
    "PhaseTracker",
    "StageEvent",
    "TestGenConfig",
    "TestGenResult",
    "fitness_for_phase",
    "ga_params_for_vector_length",
    "generate_tests",
    "make_fault_simulator",
    "phase1_fitness",
    "phase2_fitness",
    "phase3_fitness",
    "phase4_fitness",
]
