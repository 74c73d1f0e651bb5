"""Write the persisted-format fixtures in this directory.

The files pin what earlier builds wrote, so they must be made by the
build whose formats they pin, not by the current one: they were written
by commit 76ec528 (the last build whose simulator checkpoints were
unsealed, format 1), from a ``git archive`` copy of it::

    PYTHONPATH=<that copy>/src python tests/data/formats/make_formats.py tests/data/formats

tests/test_persisted_formats.py reads them.  Every run is
seed-deterministic, so rerunning this script on the same build writes
the same files apart from the timing fields (``elapsed_seconds``, the
lease ``expires_at``).
"""

import sys
from pathlib import Path

from repro.circuit import s27
from repro.core import GaTestGenerator, TestGenConfig, save_checkpoint
from repro.faults import FaultSimulator
from repro.harness import CampaignJournal, ExecutionPlan, run_matrix
from repro.service.jobs import JobLedger, JobManager, parse_job, run_key

#: Stage events after which the interrupted runs are killed.
KILL_AFTER = 6


class Killed(Exception):
    """Stands in for a SIGKILL between two stage events."""


def kill_after(events):
    """A stop hook that dies at the first poll after ``events`` polls:
    the run leaves its last periodic checkpoint behind, as a killed
    process would."""
    polls = iter(range(events))

    def stop():
        if next(polls, None) is None:
            raise Killed
        return False

    return stop


def interrupted_run(config, path, every):
    try:
        GaTestGenerator(s27(), config).run(
            checkpoint_path=path, checkpoint_every=every,
            stop=kill_after(KILL_AFTER),
        )
    except Killed:
        return
    raise AssertionError("the run finished before it was killed")


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)

    # An s27 run checkpoint taken mid-run.
    interrupted_run(TestGenConfig(seed=1), out / "run-s27-seed1.ckpt", every=2)

    # A two-cell campaign journal: one binding, two sealed cells.
    journal = out / "campaign-s298.jsonl"
    plan = ExecutionPlan(journal=CampaignJournal.create(
        journal, table="t", scale=0.1, seeds=[1, 2]))
    run_matrix(["s298"], {"base": TestGenConfig()}, [1, 2], scale=0.1,
               plan=plan)

    # A service state directory: one completed run job, and one that was
    # accepted and checkpointed when the service died.
    state = out / "service-state"
    manager = JobManager(state, workers=1, use_tier=False)
    manager.submit({"kind": "run", "circuit": "s27", "config": {"seed": 1}})
    manager.wait_idle(60)
    manager.close()
    spec = parse_job({"kind": "run", "circuit": "s27",
                      "config": {"seed": 2}, "checkpoint_every": 2})
    JobLedger(state / "ledger.jsonl").append(
        {"event": "accepted", "id": f"j0002-{spec.digest[:8]}", "seq": 2,
         "payload": spec.payload})
    config = spec.config.for_circuit("s27")
    interrupted_run(
        config, state / "checkpoints" / f"run-{run_key(spec, config)}.ckpt",
        every=spec.checkpoint_every)

    # A format-1 (unsealed) simulator checkpoint.
    circuit = s27()
    sim = FaultSimulator(circuit)
    vectors = [[(i >> b) & 1 for b in range(4)] for i in range(3, 11)]
    sim.commit(vectors)
    save_checkpoint(out / "sim-format1.json", sim, test_sequence=vectors)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
