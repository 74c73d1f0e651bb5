"""Scalar, one-fault-at-a-time reference for both fault simulators.

The oracle reads only the netlist (:class:`~repro.circuit.netlist.Circuit`)
and :func:`~repro.circuit.gates.eval_gate_scalar`: no compiled program,
no injection tables, no kernel, no bit planes.  Each fault's machine is
simulated on its own, node by node, next to the fault-free machine, so
it shares no code with the word-parallel population pass it checks.

It starts from any committed state (the good flip-flop values, each
fault's flip-flop divergence and, for transition faults, the previous
frame's good node values) and reproduces every
:class:`~repro.faults.simulator.CandidateEval` field of an ``evaluate``
as well as the outcome of a ``commit``: each fault's first detecting
frame, the next divergence map, the next good state and the next
previous-frame good values.

Observable definitions (what the simulators promise):

* a fault is *detected* in a frame when some primary output is definite
  in both machines and differs;
* a fault *propagates* in a frame when some flip-flop's next state is
  definite in both machines and differs (``prop_final`` counts the last
  frame, ``prop_sum`` every frame; detected faults still count);
* ``faulty_events`` counts (fault, node, frame) triples whose faulty
  value differs from the good one, unknowns included;
* ``good_events`` counts (node, frame) pairs whose good value differs
  from the previous frame's, frame 0 being compared with an all-X frame;
* ``ffs_set`` counts definite good flip-flops after the last frame (the
  committed state when there are no frames) and ``ffs_changed`` the
  definite-to-definite toggles of the last frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.circuit.gates import X, GateType, eval_gate_scalar
from repro.faults import STEM, CandidateEval
from repro.faults.transition import TransitionFault


def _scalar(value) -> int:
    return value if value in (0, 1) else X


@dataclass
class GoodRun:
    """The fault-free machine over a test."""

    values: List[List[int]]      # per frame, every node's value
    ff_states: List[List[int]]   # per frame, the next flip-flop state
    start: List[int]             # the flip-flop state the test starts from


@dataclass
class FaultRun:
    """One faulty machine over a test, compared with the good machine."""

    first_detection: Optional[int]   # frame index within the test
    prop: List[bool]                 # per frame: an effect reached a flip-flop
    events: int                      # node values differing from good
    final_ffs: List[int]             # faulty flip-flop state after the test


def _frame(circuit, vector, ffs, stem, pins, d_pins):
    """One frame: ``(node values, next flip-flop state)``.

    ``stem`` forces node outputs (primary inputs and flip-flops at load,
    gates at evaluation), ``pins`` forces ``(gate, pin)`` inputs and
    ``d_pins`` forces flip-flop index ``k``'s captured next state.
    """
    values = [X] * circuit.num_nodes
    for j, pi in enumerate(circuit.inputs):
        values[pi] = _scalar(vector[j])
    for k, ff in enumerate(circuit.dffs):
        values[ff] = ffs[k]
    for node in list(circuit.inputs) + list(circuit.dffs):
        if node in stem:
            values[node] = stem[node]
    for node in circuit.topo_order:
        ins = [
            pins.get((node, pin), values[src])
            for pin, src in enumerate(circuit.fanins[node])
        ]
        values[node] = stem.get(node, eval_gate_scalar(circuit.node_types[node], ins))
    nxt = [
        d_pins.get(k, values[circuit.fanins[ff][0]])
        for k, ff in enumerate(circuit.dffs)
    ]
    return values, nxt


def good_run(circuit, vectors: Sequence[Sequence[int]],
             good_ffs: Optional[Sequence[int]] = None) -> GoodRun:
    """Simulate the fault-free machine from ``good_ffs`` (default:
    power-up, every flip-flop X)."""
    if good_ffs is None:
        good_ffs = [X] * circuit.num_dffs
    ffs = list(good_ffs)
    values_per_frame = []
    states = []
    for vector in vectors:
        values, ffs = _frame(circuit, vector, ffs, {}, {}, {})
        values_per_frame.append(values)
        states.append(ffs)
    return GoodRun(values_per_frame, states, list(good_ffs))


def po_trace(circuit, vectors: Sequence[Sequence[int]],
             good_ffs: Optional[Sequence[int]] = None) -> List[List[int]]:
    """The fault-free machine's primary-output values, one list per frame."""
    return [[values[po] for po in circuit.outputs]
            for values in good_run(circuit, vectors, good_ffs).values]


def _static_forces(circuit, fault):
    """A stuck-at fault's ``(stem, pins, d_pins)`` forces."""
    if fault.pin == STEM:
        return {fault.node: fault.stuck_at}, {}, {}
    if circuit.node_types[fault.node] is GateType.DFF:
        return {}, {}, {circuit.dffs.index(fault.node): fault.stuck_at}
    return {}, {(fault.node, fault.pin): fault.stuck_at}, {}


def fault_run(circuit, fault, vectors: Sequence[Sequence[int]], good: GoodRun,
              divergence: Optional[Dict[int, int]] = None,
              prev_good: Optional[Sequence[int]] = None) -> FaultRun:
    """Simulate one fault's machine along ``good``.

    The faulty machine starts from the good state overwritten by the
    fault's ``divergence``.  A :class:`TransitionFault` holds its node
    at the old value only in frames where the good machine launches
    the slow transition there, judged against ``prev_good`` (the
    committed previous frame) for frame 0 and the good machine's
    previous frame afterwards.
    """
    ffs = list(good.start)
    for k, value in (divergence or {}).items():
        ffs[k] = value
    transition = isinstance(fault, TransitionFault)
    prev = list(prev_good) if prev_good is not None else [X] * circuit.num_nodes
    first = None
    prop = []
    events = 0
    for t, vector in enumerate(vectors):
        gvals = good.values[t]
        if transition:
            launched = (prev[fault.node] == 1 - fault.slow_to
                        and gvals[fault.node] == fault.slow_to)
            forces = ({fault.node: fault.stuck_value} if launched else {}, {}, {})
        else:
            forces = _static_forces(circuit, fault)
        values, ffs = _frame(circuit, vector, ffs, *forces)
        if first is None and any(
            gvals[po] != X and values[po] != X and gvals[po] != values[po]
            for po in circuit.outputs
        ):
            first = t
        prop.append(any(
            g != X and f != X and g != f
            for g, f in zip(good.ff_states[t], ffs)
        ))
        events += sum(g != f for g, f in zip(gvals, values))
        prev = gvals
    return FaultRun(first, prop, events, ffs)


def _good_observables(good: GoodRun, num_nodes: int):
    """``(good_events, ffs_set, ffs_changed)`` of the good machine."""
    events = 0
    before = [X] * num_nodes
    for values in good.values:
        events += sum(a != b for a, b in zip(values, before))
        before = values
    final = good.ff_states[-1] if good.ff_states else good.start
    ffs_set = sum(value != X for value in final)
    changed = 0
    if good.ff_states:
        present = good.ff_states[-2] if len(good.ff_states) > 1 else good.start
        changed = sum(
            a != X and b != X and a != b for a, b in zip(present, final)
        )
    return events, ffs_set, changed


def evaluate(circuit, faults, vectors, sample, *, good_ffs, divergence,
             prev_good=None, count_faulty_events=False) -> CandidateEval:
    """The :class:`CandidateEval` of scoring ``vectors`` against
    ``sample`` (fault indices into ``faults``) from a committed state."""
    good = good_run(circuit, vectors, good_ffs)
    runs = [
        fault_run(circuit, faults[i], vectors, good, divergence.get(i),
                  prev_good)
        for i in sample
    ]
    good_events, ffs_set, ffs_changed = _good_observables(good, circuit.num_nodes)
    return CandidateEval(
        frames=len(vectors),
        detected=sum(run.first_detection is not None for run in runs),
        prop_final=sum(run.prop[-1] for run in runs if run.prop),
        prop_sum=sum(sum(run.prop) for run in runs),
        faulty_events=sum(run.events for run in runs) if count_faulty_events else 0,
        good_events=good_events if count_faulty_events else 0,
        ffs_set=ffs_set,
        ffs_changed=ffs_changed,
        num_faults_simulated=len(sample),
        num_ffs=circuit.num_dffs,
    )


@dataclass
class CommitOutcome:
    """What committing a test does to the simulator state."""

    detections: Dict[int, int]          # fault index -> first detecting frame
    divergence: Dict[int, Dict[int, int]]
    good_state: List[int]
    prev_good: Optional[List[int]]


def commit(circuit, faults, vectors, active, *, good_ffs, divergence,
           prev_good=None) -> CommitOutcome:
    """The state after committing ``vectors`` (frames are test-relative)."""
    good = good_run(circuit, vectors, good_ffs)
    final_good = good.ff_states[-1] if good.ff_states else list(good_ffs)
    detections = {}
    next_divergence = {}
    for i in active:
        run = fault_run(circuit, faults[i], vectors, good, divergence.get(i),
                        prev_good)
        if run.first_detection is not None:
            detections[i] = run.first_detection
            continue
        div = {k: v for k, v in enumerate(run.final_ffs) if v != final_good[k]}
        if div:
            next_divergence[i] = div
    if prev_good is not None and good.values:
        prev_good = list(good.values[-1])
    return CommitOutcome(detections, next_divergence, list(final_good), prev_good)


def _state(sim) -> dict:
    prev = getattr(sim, "prev_good", None)
    return {
        "good_ffs": list(sim.good_state.ff_values),
        "divergence": {f: dict(d) for f, d in sim.divergence.items()},
        "prev_good": list(prev) if prev is not None else None,
    }


def evaluate_like(sim, vectors, sample=None,
                  count_faulty_events=False) -> CandidateEval:
    """:func:`evaluate` from ``sim``'s committed state (read, never run)."""
    sample = list(sim.active if sample is None else sample)
    return evaluate(sim.circuit, sim.faults, vectors, sample,
                    count_faulty_events=count_faulty_events, **_state(sim))


def commit_like(sim, vectors) -> CommitOutcome:
    """:func:`commit` from ``sim``'s committed state (read, never run)."""
    return commit(sim.circuit, sim.faults, vectors, list(sim.active), **_state(sim))


def assert_commit_matches(sim, vectors) -> None:
    """Commit ``vectors`` on ``sim`` and check every state change
    against the oracle: detections with their absolute frames, the
    divergence map, the good state, ``prev_good`` and the vector count."""
    want = commit_like(sim, vectors)
    base = sim.vectors_applied
    before = len(sim.detections)
    index = {fault: i for i, fault in enumerate(sim.faults)}
    result = sim.commit(vectors)
    got = {index[fault]: frame - base for fault, frame in result.detections}
    assert got == want.detections
    assert sim.detections[before:] == result.detections
    assert result.detected_count == len(want.detections)
    assert sim.divergence == want.divergence
    assert sim.good_state.ff_values == want.good_state
    assert sim.vectors_applied == base + len(vectors)
    assert set(sim.active).isdisjoint(want.detections)
    if want.prev_good is not None:
        assert sim.prev_good == want.prev_good


def detects(circuit, fault, vectors) -> bool:
    """Whether ``vectors`` from power-up detect ``fault``."""
    good = good_run(circuit, vectors)
    prev = [X] * circuit.num_nodes if isinstance(fault, TransitionFault) else None
    run = fault_run(circuit, fault, vectors, good, None, prev)
    return run.first_detection is not None
