"""Synthetic profile-matched sequential circuit generator.

The reproduction cannot ship the ISCAS89 netlists, so experiments run on
synthetic circuits matching each benchmark's *profile* — PI/PO/DFF/gate
counts and, critically, the structural sequential depth that the paper's
test-generation schedule keys on (see DESIGN.md §3).

Construction strategy
---------------------

Real sequential benchmarks owe their depth to a small state core (a
counter or FSM chain) that only sees its own state, embedded in a large,
well-controllable cloud of decode/control logic.  The generator mirrors
that:

* **Deep core** — ``seq_depth`` ranks of flip-flops.  The D logic of a
  rank-*k* flip-flop reads *only* rank-(k-1) flip-flop outputs (rank 1
  reads the primary inputs), which pins the minimum PI-to-node
  flip-flop distance of rank *k* to exactly *k* and hence the circuit's
  structural sequential depth to exactly ``seq_depth``.  Core logic is
  XOR/NOT-heavy (near-bijective state evolution keeps deep ranks
  controllable) and feed-forward (so the core self-initializes within
  ``seq_depth`` frames regardless of input).
* **Control cloud** — the bulk of the gates; reads PIs and every
  flip-flop, drives the primary outputs and the remaining "shallow"
  flip-flops (depth-1 state with feedback, as in real control logic).
  Gates with shallow-feedback fanins avoid XOR so unknowns can be
  masked during initialization.

The generator is fully deterministic given ``(profile, seed)``.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Sequence

from .gates import GateType
from .netlist import Circuit
from .profiles import CircuitProfile, get_profile

#: Gate mix for the control cloud (NAND/NOR-heavy like ISCAS89).
_CLOUD_MIX = [
    (GateType.NAND, 22),
    (GateType.AND, 16),
    (GateType.NOR, 16),
    (GateType.OR, 14),
    (GateType.NOT, 16),
    (GateType.XOR, 6),
    (GateType.BUFF, 4),
]
_CLOUD_TYPES = [t for t, w in _CLOUD_MIX for _ in range(w)]

#: Gate mix for cloud gates that read shallow-feedback state: XOR would
#: propagate the initial X forever, so only maskable gates are used.
_MASKABLE_TYPES = [
    GateType.NAND, GateType.AND, GateType.NOR, GateType.OR,
    GateType.NAND, GateType.NOR,
]

_FANIN_CHOICES = [2, 2, 2, 2, 3, 3]


def _split_even(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` positive near-equal integers."""
    if parts <= 0:
        return []
    if total < parts:
        raise ValueError(f"cannot split {total} into {parts} non-empty parts")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


class _Synth:
    """Single-use builder holding the generation state for one circuit."""

    def __init__(self, profile: CircuitProfile, seed: int) -> None:
        self.profile = profile
        self.rng = random.Random(zlib.crc32(profile.name.encode()) ^ (seed * 0x9E3779B9))
        self.circuit = Circuit(profile.name)
        self.pi_names: List[str] = []
        self.gate_count = 0
        #: estimated P(signal = 1) per net, used to keep probabilities
        #: balanced (heavily skewed signals make random logic untestable,
        #: unlike designed logic — see _balanced_type).
        self.prob: dict = {}

    def _name(self) -> str:
        self.gate_count += 1
        return f"g{self.gate_count}"

    @staticmethod
    def _gate_prob(gate_type: GateType, probs: Sequence[float]) -> float:
        """P(output = 1) assuming independent inputs."""
        if gate_type in (GateType.NOT,):
            return 1.0 - probs[0]
        if gate_type in (GateType.BUFF, GateType.DFF):
            return probs[0]
        if gate_type in (GateType.AND, GateType.NAND):
            p = 1.0
            for q in probs:
                p *= q
            return 1.0 - p if gate_type is GateType.NAND else p
        if gate_type in (GateType.OR, GateType.NOR):
            p = 1.0
            for q in probs:
                p *= 1.0 - q
            return p if gate_type is GateType.NOR else 1.0 - p
        # XOR / XNOR
        p = probs[0]
        for q in probs[1:]:
            p = p * (1.0 - q) + q * (1.0 - p)
        return 1.0 - p if gate_type is GateType.XNOR else p

    def _balanced_type(self, candidates: Sequence[GateType], fanins: Sequence[str]) -> GateType:
        """Pick, among a few random candidates, the type whose output
        probability stays closest to 1/2."""
        rng = self.rng
        probs = [self.prob.get(f, 0.5) for f in fanins]
        picks = [rng.choice(list(candidates)) for _ in range(3)]
        return min(picks, key=lambda t: abs(self._gate_prob(t, probs) - 0.5))

    def _pick_fanins(self, sources: Sequence[str], n: int, must: str = None) -> List[str]:
        rng = self.rng
        fanins = [must] if must else []
        pool = [s for s in sources if s not in fanins]
        rng.shuffle(pool)
        fanins.extend(pool[: max(0, n - len(fanins))])
        return fanins

    def _emit(self, candidates: Sequence[GateType], sources: Sequence[str], must: str = None) -> str:
        """Emit one gate with probability-balanced type selection."""
        rng = self.rng
        n = min(rng.choice(_FANIN_CHOICES), len(set(sources)) + (1 if must else 0))
        fanins = self._pick_fanins(sources, max(2, n), must)
        if len(fanins) < 2:
            gate_type = GateType.NOT if rng.random() < 0.7 else GateType.BUFF
        else:
            multi = [t for t in candidates if t not in (GateType.NOT, GateType.BUFF)]
            gate_type = self._balanced_type(multi or list(candidates), fanins)
            if gate_type in (GateType.NOT, GateType.BUFF):
                fanins = fanins[:1]
        name = self._name()
        self.circuit.add_gate(name, gate_type, fanins)
        self.prob[name] = self._gate_prob(
            gate_type, [self.prob.get(f, 0.5) for f in fanins]
        )
        return name

    # ------------------------------------------------------------------

    def build(self) -> Circuit:
        """Construct the circuit (deep core, then observation trees)."""
        profile, rng = self.profile, self.rng
        depth = max(1, min(profile.seq_depth, profile.n_ff))

        for i in range(profile.n_pi):
            name = f"pi{i}"
            self.circuit.add_input(name)
            self.pi_names.append(name)
            self.prob[name] = 0.5

        # --- partition flip-flops: deep core vs shallow control state ---
        core_target = max(depth, round(profile.n_ff * 0.4))
        n_core_ff = min(profile.n_ff, core_target)
        n_shallow_ff = profile.n_ff - n_core_ff
        rank_sizes = _split_even(n_core_ff, depth)

        # --- deep core (~2 gates per core FF; cloud takes the rest) -------
        core_ffs: List[str] = []
        prev_rank: List[str] = list(self.pi_names)
        for k, n_ff in enumerate(rank_sizes, start=1):
            # Rank transition is a triangular XOR map:
            #   D_i = prev_i XOR g_i(prev_j, j < i)
            # which is bijective on the rank's state space.  Bijectivity
            # keeps full entropy flowing down the pipeline (any reachable
            # rank-(k-1) state maps onto a distinct rank-k state), so deep
            # state stays controllable and single-bit fault effects always
            # propagate to the next rank — the behaviour of real counter /
            # LFSR cores.  The cone still reads only the previous rank,
            # preserving the sequential-depth guarantee.
            rank_ffs: List[str] = []
            width_prev = len(prev_rank)
            for i in range(n_ff):
                base = prev_rank[i % width_prev]
                if i == 0 or width_prev == 1:
                    d_name = self._name()
                    d_type = rng.choice([GateType.NOT, GateType.BUFF, GateType.NOT])
                    self.circuit.add_gate(d_name, d_type, [base])
                    self.prob[d_name] = self._gate_prob(d_type, [self.prob.get(base, 0.5)])
                else:
                    lower_pool = [prev_rank[j % width_prev] for j in range(i)]
                    lower = list(dict.fromkeys(
                        rng.sample(lower_pool, min(len(set(lower_pool)), rng.choice([1, 2])))
                    ))
                    if base in lower:
                        lower.remove(base)
                    if lower:
                        aux = self._emit(
                            [GateType.AND, GateType.OR, GateType.NAND,
                             GateType.NOR, GateType.NOT],
                            lower,
                            must=lower[0],
                        )
                    else:
                        aux = None
                    d_name = self._name()
                    if aux is not None:
                        self.circuit.add_gate(d_name, GateType.XOR, [base, aux])
                        self.prob[d_name] = self._gate_prob(
                            GateType.XOR,
                            [self.prob.get(base, 0.5), self.prob.get(aux, 0.5)],
                        )
                    else:
                        self.circuit.add_gate(d_name, GateType.NOT, [base])
                        self.prob[d_name] = 1.0 - self.prob.get(base, 0.5)
                ff_name = f"cff{k}_{i}"
                self.circuit.add_dff(ff_name, d_name)
                self.prob[ff_name] = self.prob.get(d_name, 0.5)
                rank_ffs.append(ff_name)
            core_ffs.extend(rank_ffs)
            prev_rank = rank_ffs

        # --- control cloud: observation trees ------------------------------
        # Each primary output and each shallow flip-flop roots a mostly
        # fanout-free tree over PI/FF leaves.  Fanout-free cones are
        # highly testable (every fault effect has an unbranched path to
        # the observation point), which is what gives real benchmark
        # circuits their coverage profile; a moderate rate of cross-tree
        # taps reintroduces realistic fanout and reconvergence.
        shallow_ffs = [f"sff{j}" for j in range(n_shallow_ff)]
        leaf_pool = self.pi_names + core_ffs + shallow_ffs
        n_trees = profile.n_po + n_shallow_ff
        cloud_gate_budget = max(profile.n_gates - self.gate_count, n_trees)
        tree_sizes = _split_even(max(cloud_gate_budget, n_trees), n_trees)
        all_cloud_gates: List[str] = []
        roots: List[str] = []
        for n_gates in tree_sizes:
            # Working queue of signals to be combined; ends as one root.
            # Seeding with ~n_gates+1 leaves and always popping from random
            # positions yields balanced trees (depth ~ log2 of tree size),
            # keeping the cone controllable.
            queue: List[str] = [
                rng.choice(leaf_pool) for _ in range(n_gates + 1)
            ]
            tree_gates: List[str] = []
            for _ in range(n_gates):
                fanins: List[str] = []
                arity = rng.choice(_FANIN_CHOICES)
                while len(fanins) < arity:
                    roll = rng.random()
                    if queue and roll < 0.80:
                        fanins.append(queue.pop(rng.randrange(len(queue))))
                    elif all_cloud_gates and roll < 0.88:
                        # Cross-tree tap: creates fanout and reconvergence.
                        fanins.append(rng.choice(all_cloud_gates))
                    else:
                        fanins.append(rng.choice(leaf_pool))
                fanins = list(dict.fromkeys(fanins))  # no duplicate nets
                candidates = (
                    _MASKABLE_TYPES
                    if any(f in shallow_ffs for f in fanins)
                    else _CLOUD_TYPES
                )
                if len(fanins) < 2:
                    gate_type = rng.choice([GateType.NOT, GateType.BUFF])
                    fanins = fanins[:1]
                else:
                    multi = [
                        t for t in candidates
                        if t not in (GateType.NOT, GateType.BUFF)
                    ]
                    gate_type = self._balanced_type(multi, fanins)
                name = self._name()
                self.circuit.add_gate(name, gate_type, fanins)
                self.prob[name] = self._gate_prob(
                    gate_type, [self.prob.get(f, 0.5) for f in fanins]
                )
                tree_gates.append(name)
                queue.append(name)
            # Fold any remaining queue entries into the root.
            while len(queue) > 1:
                a = queue.pop(rng.randrange(len(queue)))
                b = queue.pop(rng.randrange(len(queue)))
                candidates = (
                    _MASKABLE_TYPES
                    if (a in shallow_ffs or b in shallow_ffs)
                    else _CLOUD_TYPES
                )
                gate_type = self._balanced_type(
                    [t for t in candidates if t not in (GateType.NOT, GateType.BUFF)],
                    [a, b],
                )
                name = self._name()
                self.circuit.add_gate(name, gate_type, [a, b])
                self.prob[name] = self._gate_prob(
                    gate_type, [self.prob.get(f, 0.5) for f in [a, b]]
                )
                tree_gates.append(name)
                queue.append(name)
            roots.append(queue[0])
            all_cloud_gates.extend(tree_gates)

        # First n_po roots become outputs; the rest drive shallow FFs.
        for root in roots[: profile.n_po]:
            self.circuit.mark_output(root)
        for ff_name, root in zip(shallow_ffs, roots[profile.n_po:]):
            self.circuit.add_dff(ff_name, root)

        circuit = self.circuit.finalize()
        actual_depth = circuit.sequential_depth()
        if actual_depth != depth:
            raise AssertionError(
                f"synthesized {profile.name}: sequential depth {actual_depth} "
                f"!= target {depth}"
            )
        return circuit


def synthesize(profile: CircuitProfile, seed: int = 0) -> Circuit:
    """Generate a deterministic synthetic circuit matching ``profile``."""
    return _Synth(profile, seed).build()


def synthesize_named(name: str, seed: int = 0, scale: float = 1.0) -> Circuit:
    """Generate the synthetic stand-in for an ISCAS89 circuit by name.

    ``scale`` proportionally shrinks FF/gate/PO counts (depth preserved
    up to the shrunk FF count) for fast test and benchmark runs.
    """
    return synthesize(get_profile(name).scaled(scale), seed=seed)


def profile_of(circuit: Circuit) -> CircuitProfile:
    """Extract the realized profile of a circuit (for reporting)."""
    return CircuitProfile(
        name=circuit.name,
        n_pi=circuit.num_inputs,
        n_po=circuit.num_outputs,
        n_ff=circuit.num_dffs,
        n_gates=circuit.num_gates,
        seq_depth=circuit.sequential_depth(),
    )
