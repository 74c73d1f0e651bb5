"""The one compiled-circuit cache, :func:`repro.sim.compiled_circuit_for`.

A name serves the netlist it reaches *now*: after a ``cd`` or an
in-place edit of a ``.bench`` file the harness, the job service and its
tier workers all simulate the new netlist, while an unchanged file or a
builtin name stays one compiled object, and one kernel build, per
process.
"""

import sys
import threading

import pytest

from repro.circuit import mini_fsm, s27, save_bench
from repro.circuit.library import resolve_spec
from repro.core import TestGenConfig
from repro.faults import collapsed_fault_list
from repro.harness import run_gatest
from repro.service import JobManager
from repro.sim import compile as sim_compile
from repro.sim import compiled_circuit_for
from repro.telemetry import TelemetryCollector

S27_FAULTS = len(collapsed_fault_list(s27()))
MINIFSM_FAULTS = len(collapsed_fault_list(mini_fsm()))

#: A short GA run whose kernel is named, so kernel-build counts do not
#: depend on ``REPRO_SIM_KERNEL``.
RUN = {"seed": 1, "max_vectors": 8, "sim_kernel": "codegen"}

#: A ``.bench`` file that does not parse.
MALFORMED = "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n"


class TestCurrentNetlist:
    def test_chdir_reaches_the_netlist_there(self, tmp_path, monkeypatch):
        for name, circuit in (("a", s27()), ("b", mini_fsm())):
            (tmp_path / name).mkdir()
            save_bench(circuit, tmp_path / name / "c.bench")
        for name, pis, faults in (("a", 4, S27_FAULTS), ("b", 2, MINIFSM_FAULTS)):
            monkeypatch.chdir(tmp_path / name)
            assert compiled_circuit_for("c.bench").num_pis == pis
            run = run_gatest("c.bench", TestGenConfig(**RUN), [1])
            assert run.total_faults == faults

    def test_in_place_edit_resolves_afresh(self, tmp_path):
        path = str(tmp_path / "c.bench")
        save_bench(s27(), path)
        first = compiled_circuit_for(path)
        assert compiled_circuit_for(path) is first
        save_bench(mini_fsm(), path)
        edited = compiled_circuit_for(path)
        assert edited is not first and edited.num_pis == 2
        # Keyed by content: the old bytes reach the old netlist again.
        save_bench(s27(), path)
        assert compiled_circuit_for(path).num_pis == 4

    def test_least_recently_used_circuit_is_dropped(self, monkeypatch):
        monkeypatch.setattr(sim_compile, "CIRCUIT_CACHE_SIZE", 2)
        first = compiled_circuit_for("s27")
        c17 = compiled_circuit_for("c17")
        assert compiled_circuit_for("s27") is first  # now the most recent
        compiled_circuit_for("minifsm")  # drops c17
        assert sim_compile.cached_circuit_count() == 2
        assert compiled_circuit_for("s27") is first
        assert compiled_circuit_for("c17") is not c17

    def test_racing_threads_share_one_object(self, monkeypatch):
        """Eight threads on two cores: racing misses on one key converge
        on one object, and churn over more keys than the bound returns
        each key's circuit and keeps at most the bound."""
        monkeypatch.setattr(sim_compile, "CIRCUIT_CACHE_SIZE", 3)
        specs = ("s27", "c17", "shift4", "counter3", "parity")
        start, churn = threading.Barrier(8), threading.Barrier(8)
        first, churned = [], []

        def look_up():
            start.wait(timeout=60)
            first.append(compiled_circuit_for("s298", 0.1))
            churn.wait(timeout=60)
            for spec in specs * 4:
                churned.append((spec, compiled_circuit_for(spec).circuit.name))

        threads = [threading.Thread(target=look_up) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(first) == 8 and len({id(compiled) for compiled in first}) == 1
        assert len(churned) == 8 * 4 * len(specs)
        assert all(spec == name for spec, name in churned)
        assert sim_compile.cached_circuit_count() <= 3

class TestOneObject:
    @pytest.mark.parametrize("kind", ["bench-file", "builtin"])
    def test_harness_and_service_share_one_object_and_kernel(
        self, tmp_path, kind
    ):
        """Lookups, a harness run, fsim jobs and run jobs in one process
        simulate one compiled object, so its kernel is built once."""
        spec = "s27"
        if kind == "bench-file":
            spec = str(tmp_path / "c.bench")
            save_bench(s27(), spec)
        compiled = compiled_circuit_for(spec)
        assert compiled_circuit_for(spec) is compiled
        collector = TelemetryCollector()
        run_gatest(spec, TestGenConfig(**RUN), [1], collector=collector)
        manager = JobManager(tmp_path / "state", collector=collector,
                             workers=1, use_tier=False)
        try:
            jobs = [
                manager.submit({"kind": "fsim", "circuit": spec,
                                "kernel": "codegen",
                                "vectors": [[0, 1, 0, 1]] * frames})[0]
                for frames in (1, 2)
            ] + [
                manager.submit({"kind": "run", "circuit": spec,
                                "config": dict(RUN, seed=seed)})[0]
                for seed in (1, 2)
            ]
            assert manager.wait_idle(timeout=120)
        finally:
            manager.close()
        assert [job.status for job in jobs] == ["done"] * 4
        assert {job.result["total_faults"] for job in jobs} == {S27_FAULTS}
        assert compiled_circuit_for(spec) is compiled
        assert collector.counters["codegen.kernels.built"] == 1


class TestServiceSeesTheEdit:
    def test_in_place_edit_reaches_fsim_and_tier_run_jobs(self, tmp_path):
        """fsim jobs run in the service process, run jobs in a tier
        worker: after an edit both report the edited netlist, and no
        simulator leased before the edit is leased after it."""
        spec = str(tmp_path / "c.bench")
        save_bench(s27(), spec)
        manager = JobManager(tmp_path / "state",
                             collector=TelemetryCollector(), workers=1)
        leased = []
        lease = manager.registry.lease

        def recording_lease(*args):
            leased.append(lease(*args))
            return leased[-1]

        manager.registry.lease = recording_lease

        def submit_both(width):
            fsim, _ = manager.submit({"kind": "fsim", "circuit": spec,
                                      "vectors": [[1] * width, [0] * width]})
            run, _ = manager.submit({"kind": "run", "circuit": spec,
                                     "config": RUN})
            assert manager.wait_idle(timeout=300)
            assert [fsim.status, run.status] == ["done", "done"], run.error
            return fsim, run

        try:
            before = submit_both(4)
            leased_before = list(leased)
            save_bench(mini_fsm(), spec)
            after = submit_both(2)
        finally:
            manager.close()
        assert [job.result["total_faults"] for job in before] == [S27_FAULTS] * 2
        assert [job.result["total_faults"] for job in after] == [MINIFSM_FAULTS] * 2
        assert leased_before and len(leased) > len(leased_before)
        assert not any(sim is old for sim in leased[len(leased_before):]
                       for old in leased_before)
        # The tier worker built a new simulator instead of leasing the
        # resident s27 one.
        counters = after[1].collector.counters
        assert counters["service.cache.misses"] == 1
        assert "service.cache.hits" not in counters


class TestUnloadableFile:
    def test_malformed_file_is_a_value_error_naming_it(self, tmp_path):
        path = tmp_path / "bad.bench"
        path.write_text(MALFORMED)
        for resolve in (resolve_spec, compiled_circuit_for):
            with pytest.raises(ValueError, match=r"bad\.bench.*unknown gate type 'FROB'"):
                resolve(str(path))

    def test_unreadable_file_is_a_value_error_naming_it(self, tmp_path):
        path = tmp_path / "dir.bench"
        path.mkdir()
        for resolve in (resolve_spec, compiled_circuit_for):
            with pytest.raises(ValueError, match=r"dir\.bench"):
                resolve(str(path))
