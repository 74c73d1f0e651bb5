"""Fault models, collapsing, sampling and the sequential fault simulator.

Every fault simulation — scoring a population, scoring one candidate,
committing a test, stuck-at or transition faults — runs one frame
loop: the simulator's population pass (:mod:`repro.faults.simulator`).
The transition model joins it through one per-frame force hook.
"""

from .collapse import CollapsedFaults, collapse_faults, collapsed_fault_list
from .model import STEM, Fault, FaultStatus, fault_universe_size, generate_faults
from .reports import CoverageReport, TestSetResult, coverage_report
from .sampling import FaultSampler, FixedSize, Fraction, FullList, make_sampler
from .simulator import (
    CandidateEval,
    CommitResult,
    FaultSimulator,
    SimSnapshot,
)
from .transition import (
    TransitionFault,
    TransitionFaultSimulator,
    generate_transition_faults,
)

__all__ = [
    "STEM",
    "CandidateEval",
    "CollapsedFaults",
    "CommitResult",
    "CoverageReport",
    "coverage_report",
    "Fault",
    "FaultSampler",
    "FaultSimulator",
    "FaultStatus",
    "FixedSize",
    "Fraction",
    "FullList",
    "SimSnapshot",
    "TestSetResult",
    "TransitionFault",
    "TransitionFaultSimulator",
    "collapse_faults",
    "generate_transition_faults",
    "collapsed_fault_list",
    "fault_universe_size",
    "generate_faults",
    "make_sampler",
]
