"""The sharded evaluator and the service, end to end, against the oracle.

tests/oracle.py shares no code with the population pass.  Here a
forced-shard pool (``REPRO_EVAL_FORCE_SHARD=1``) of two or three
workers scores populations from warm states that one-frame commit
streams reach, with dead commit slots and across repacks, and a service
``fsim`` job's result is checked against the oracle too.
"""

from __future__ import annotations

import random

import pytest

from repro.circuit import library, synthesize_named
from repro.faults import Fault, FaultSimulator, collapsed_fault_list
from repro.service import JobManager
from repro.sim import compile_circuit
from repro.telemetry import TelemetryCollector

from tests import oracle
from tests.conftest import random_vectors

#: Every kernel backend.
KERNELS = ("interp", "codegen")

#: Commits after which the sharded pass is scored (one-frame stream).
SCORED_STEPS = (0, 9, 19, 29)


def _circuit():
    """An s298 stand-in and its collapsed faults plus the flip-flop
    D-pin faults collapsing removes, so workers force every site kind."""
    circuit = synthesize_named("s298", seed=3, scale=0.3)
    faults = collapsed_fault_list(circuit)
    faults += [Fault(ff, 0, sa) for ff in circuit.dffs for sa in (0, 1)]
    return compile_circuit(circuit), faults


@pytest.mark.parametrize("jobs", [2, 3], ids=["jobs2", "jobs3"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_sharded_scores_from_warm_states_match_oracle(kernel, jobs,
                                                      monkeypatch):
    """Every ``CandidateEval`` a forced-shard pool returns, for the whole
    active list and for a shuffled sample, equals the oracle's from the
    committed state, at points of a one-frame commit stream that leave
    dead slots and cross at least one repack."""
    monkeypatch.setenv("REPRO_EVAL_FORCE_SHARD", "1")
    compiled, faults = _circuit()
    collector = TelemetryCollector()
    sim = FaultSimulator(compiled, faults=faults, kernel=kernel,
                         eval_jobs=jobs, collector=collector)
    rng = random.Random(jobs)
    scored = 0
    dead_seen = False
    try:
        for step, vector in enumerate(random_vectors(compiled.circuit, 30,
                                                     seed=41)):
            sim.commit([vector])
            if step not in SCORED_STEPS:
                continue
            slots = sim._slots
            dead_seen |= slots.live != (1 << len(slots.ids)) - 1
            shuffled = list(sim.active)
            rng.shuffle(shuffled)
            candidates = [random_vectors(compiled.circuit, 3, seed=step + c)
                          for c in range(4)]
            for sample in (None, shuffled[:len(shuffled) // 2 + 1]):
                want = [oracle.evaluate_like(sim, c, sample,
                                             count_faulty_events=True)
                        for c in candidates]
                assert sim.evaluate_batch(candidates, sample=sample,
                                          count_faulty_events=True) == want
                scored += 1
    finally:
        sim.close()
    assert dead_seen
    assert collector.counters["sim.commit.repacks"] >= 2
    assert collector.counters["parallel.evaluate.sharded"] == scored
    assert "parallel.degraded" not in collector.counters


@pytest.mark.parametrize("kernel", KERNELS)
def test_service_fsim_job_matches_oracle(kernel, tmp_path):
    """A service ``fsim`` job scores its vectors from power-up exactly as
    the oracle does."""
    circuit = library.resolve_spec("s298", scale=0.2, seed=0)
    vectors = random_vectors(circuit, 6, seed=5)
    want = oracle.evaluate_like(FaultSimulator(circuit, kernel=kernel), vectors)
    manager = JobManager(tmp_path / "state", workers=1,
                         collector=TelemetryCollector())
    try:
        job, _ = manager.submit({
            "kind": "fsim", "circuit": "s298", "scale": 0.2, "seed": 0,
            "kernel": kernel, "vectors": vectors,
        })
        assert manager.wait_idle(timeout=300)
    finally:
        manager.close()
    assert job.status == "done", job.error
    assert job.result["detected"] == want.detected > 0
    assert job.result["total_faults"] == want.num_faults_simulated
