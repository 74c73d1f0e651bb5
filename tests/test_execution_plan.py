"""The harness's one execution plan (src/repro/harness/runner.py).

``run_gatest`` takes how it runs as one ``ExecutionPlan`` argument and
hands the cells it has to run to one executor, picked from the plan in
one place.  These tests pin the plan's rule (a coordinator's journal is
the plan's), that a coordinator leases every cell under the circuit
its name resolves to, and the selection between the lease coordinator,
the seed pool and the in-process executor.
"""

import functools

import pytest

from repro.circuit import s27
from repro.core import TestGenConfig, circuit_fingerprint
from repro.harness import (
    CampaignJournal,
    DistributedCoordinator,
    ExecutionPlan,
    run_gatest,
)
from repro.harness.runner import (
    _cell_executor,
    _run_cells_in_process,
    _run_cells_pooled,
)
from repro.parallel.resilience import RetryPolicy
from repro.telemetry import NullCollector


def _journal(tmp_path, name="j.jsonl"):
    return CampaignJournal.create(tmp_path / name, table="t", scale=0.1,
                                  seeds=[1, 2])


def _coordinator(journal):
    return DistributedCoordinator(
        journal, ["ghost"], poll=0.01,
        policy=RetryPolicy(task_timeout=0.05, max_retries=0),
    )


class TestPlanRules:
    def test_default_plan_is_serial_and_unjournaled(self):
        plan = ExecutionPlan()
        assert (plan.journal, plan.seed_jobs, plan.eval_jobs,
                plan.seed_retry, plan.coordinator) == (None, 1, None, None, None)

    @pytest.mark.parametrize("field", ["seed_jobs", "eval_jobs"])
    def test_worker_counts_below_one_refused(self, field):
        with pytest.raises(ValueError, match=field):
            ExecutionPlan(**{field: 0})

    def test_coordinator_needs_its_own_journal(self, tmp_path):
        journal = _journal(tmp_path)
        coordinator = _coordinator(journal)
        with pytest.raises(ValueError, match="coordinator's journal"):
            ExecutionPlan(coordinator=coordinator)
        with pytest.raises(ValueError, match="coordinator's journal"):
            ExecutionPlan(journal=_journal(tmp_path, "other.jsonl"),
                          coordinator=coordinator)
        assert ExecutionPlan(journal=journal,
                             coordinator=coordinator).coordinator is coordinator

    def test_plan_is_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPlan().seed_jobs = 2


class TestExecutorSelection:
    def _pick(self, plan, cells=2):
        return _cell_executor(plan, NullCollector(), cells=cells)

    def test_coordinator_takes_leasable_cells(self, tmp_path):
        journal = _journal(tmp_path)
        coordinator = _coordinator(journal)
        plan = ExecutionPlan(journal=journal, seed_jobs=2,
                             coordinator=coordinator)
        assert self._pick(plan) == coordinator.run_cells

    @pytest.mark.parametrize("seed_jobs, cells, pooled", [
        (2, 2, True), (2, 1, False), (1, 2, False),
    ])
    def test_seed_pool_needs_two_jobs_and_two_cells(
        self, tmp_path, seed_jobs, cells, pooled
    ):
        plan = ExecutionPlan(journal=_journal(tmp_path), seed_jobs=seed_jobs)
        executor = self._pick(plan, cells=cells)
        assert isinstance(executor, functools.partial)
        expected = _run_cells_pooled if pooled else _run_cells_in_process
        assert executor.func is expected


class TestEveryCellIsLeased:
    def test_s27_cells_are_leased_as_the_bundled_netlist(self, tmp_path):
        """A builtin name is leased like any other, under its canonical
        key and the fingerprint of the netlist it resolves to; no host
        answers here, so the coordinator runs the cells itself."""
        journal = _journal(tmp_path)
        plan = ExecutionPlan(journal=journal, coordinator=_coordinator(journal))
        agg = run_gatest("s27", TestGenConfig(), [1, 2], label="lbl", plan=plan)
        assert agg.n_runs == 2 and not agg.failed_seeds
        assert agg.total_faults == 26
        leases = journal.leases()
        assert sorted(lease["seed"] for lease in leases) == [1, 2]
        assert {(lease["circuit"], lease["scale"], lease["fingerprint"])
                for lease in leases} == {("s27", 1.0, circuit_fingerprint(s27()))}
        cells = journal.cells(status="ok")
        assert {cell["host"] for cell in cells} == {"coordinator"}
        assert [r.test_sequence for r in agg.runs] == [
            r.test_sequence
            for r in run_gatest("s27", TestGenConfig(), [1, 2]).runs
        ]
