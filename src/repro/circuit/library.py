"""Bundled and parametric example circuits.

Two real benchmark netlists ship with the package (``s27`` from ISCAS89
and ``c17`` from ISCAS85 — both small enough to be public knowledge and
verified against their published descriptions).  The parametric builders
construct well-understood sequential structures used throughout the test
suite: their expected behaviour (sequential depth, initializability,
detectable-fault sets) can be derived by hand.

This module also owns what a circuit *name* denotes: :func:`resolve_spec`
turns a spec (a ``.bench`` path, a builtin name, an ISCAS89 profile
name or ``name@<scale>``) into a circuit, and :func:`canonical_spec`
spells each circuit one way, so every command, harness cell, campaign
lease and service job that names one circuit resolves the same netlist
under the same key.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import List, Tuple

from .bench import load_bench, parse_bench
from .gates import GateType
from .netlist import Circuit, CircuitError


def _load_data(filename: str, name: str) -> Circuit:
    text = resources.files("repro.circuit").joinpath("data", filename).read_text()
    return parse_bench(text, name=name)


def s27() -> Circuit:
    """The ISCAS89 s27 benchmark (4 PIs, 1 PO, 3 DFFs, 10 gates)."""
    return _load_data("s27.bench", "s27")


def c17() -> Circuit:
    """The ISCAS85 c17 benchmark (combinational; 5 PIs, 2 POs, 6 NANDs)."""
    return _load_data("c17.bench", "c17")


def shift_register(n: int) -> Circuit:
    """An n-stage shift register: depth ``n``, trivially initializable.

    ``din -> ff0 -> ff1 -> ... -> ff(n-1) -> dout``.  Every stuck-at fault
    on the datapath is detectable by a sequence of length ``n + 1``.
    """
    if n < 1:
        raise ValueError("shift register needs at least one stage")
    circuit = Circuit(f"shift{n}")
    circuit.add_input("din")
    prev = "din"
    for i in range(n):
        # A buffer between stages gives the fault list combinational sites.
        circuit.add_gate(f"b{i}", GateType.BUFF, [prev])
        circuit.add_dff(f"ff{i}", f"b{i}")
        prev = f"ff{i}"
    circuit.add_gate("dout", GateType.BUFF, [prev])
    circuit.mark_output("dout")
    return circuit.finalize()


def resettable_counter(n: int) -> Circuit:
    """An n-bit synchronous binary counter with synchronous reset.

    With ``rst = 1`` every flip-flop loads 0, so the circuit is
    initializable in one vector — the friendly case for phase-1 fitness.
    Bit *i* toggles when all lower bits are 1:
    ``d[i] = ~rst & (q[i] ^ carry[i])`` with ``carry[0] = en``.
    """
    if n < 1:
        raise ValueError("counter needs at least one bit")
    circuit = Circuit(f"counter{n}")
    circuit.add_input("rst")
    circuit.add_input("en")
    circuit.add_gate("nrst", GateType.NOT, ["rst"])
    carry = "en"
    for i in range(n):
        q = f"q{i}"
        circuit.add_gate(f"t{i}", GateType.XOR, [q, carry])
        circuit.add_gate(f"d{i}", GateType.AND, [f"t{i}", "nrst"])
        circuit.add_dff(q, f"d{i}")
        circuit.mark_output(q)
        if i + 1 < n:
            new_carry = f"c{i + 1}"
            circuit.add_gate(new_carry, GateType.AND, [carry, q])
            carry = new_carry
    return circuit.finalize()


def parity_tracker() -> Circuit:
    """A serial parity tracker with synchronous clear.

    ``d = clr' AND (din XOR q)``.  Without asserting ``clr`` the state
    stays unknown forever under three-valued simulation (X XOR v = X),
    which makes this the canonical phase-1 stress case.
    """
    circuit = Circuit("parity")
    circuit.add_input("din")
    circuit.add_input("clr")
    circuit.add_gate("nclr", GateType.NOT, ["clr"])
    circuit.add_gate("x0", GateType.XOR, ["din", "q"])
    circuit.add_gate("d0", GateType.AND, ["x0", "nclr"])
    circuit.add_dff("q", "d0")
    circuit.mark_output("q")
    return circuit.finalize()


def uninitializable_loop() -> Circuit:
    """A flip-flop loop that three-valued simulation can never initialize.

    ``q -> inv -> q`` with the observed value gated by a PI.  Used to test
    that phase 1 gives up gracefully at its progress limit.
    """
    circuit = Circuit("uninit")
    circuit.add_input("a")
    circuit.add_gate("nq", GateType.XOR, ["q", "a"])
    circuit.add_dff("q", "nq")
    circuit.add_gate("out", GateType.AND, ["q", "a"])
    circuit.mark_output("out")
    return circuit.finalize()


def mini_fsm() -> Circuit:
    """A 2-bit Moore machine with reset, rich enough for ATPG tests.

    States advance on ``go``; output asserts in state 3.  All flip-flops
    initialize with one ``rst`` vector; most stuck-at faults need a short
    state-walking sequence, exercising the sequence-generation phase.
    """
    circuit = Circuit("minifsm")
    circuit.add_input("rst")
    circuit.add_input("go")
    circuit.add_gate("nrst", GateType.NOT, ["rst"])
    # Next-state logic for a 2-bit counter gated by `go`.
    circuit.add_gate("t0", GateType.XOR, ["s0", "go"])
    circuit.add_gate("d0", GateType.AND, ["t0", "nrst"])
    circuit.add_gate("c0", GateType.AND, ["s0", "go"])
    circuit.add_gate("t1", GateType.XOR, ["s1", "c0"])
    circuit.add_gate("d1", GateType.AND, ["t1", "nrst"])
    circuit.add_dff("s0", "d0")
    circuit.add_dff("s1", "d1")
    circuit.add_gate("out", GateType.AND, ["s0", "s1"])
    circuit.mark_output("out")
    return circuit.finalize()


def _profile_scale(spec: str, scale: float) -> Tuple[str, float]:
    """Split an ISCAS89 profile's ``name@<scale>`` into the bare name and
    the scale it names; any other spec comes back as given.  ``scale``
    must be 1.0 or equal the suffix.  The one parser of ``name@<scale>``.
    """
    from .profiles import ISCAS89_PROFILES

    name, at, suffix = spec.partition("@")
    if not at or name not in ISCAS89_PROFILES:
        return spec, scale
    try:
        named = float(suffix)
    except ValueError:
        raise ValueError(
            f"circuit {spec!r}: scale suffix {suffix!r} is not a number"
        ) from None
    if scale not in (1.0, named):
        raise ValueError(
            f"circuit {spec!r} names scale {named:g} but scale "
            f"{scale:g} was also given"
        )
    return name, named


def is_bench_path(spec: str) -> bool:
    """Whether ``spec`` names a ``.bench`` file that exists now."""
    path = Path(spec)
    return path.suffix == ".bench" and path.exists()


def profile_name(circuit_name: str) -> str:
    """The ISCAS89 profile a circuit's own name stands for: the bare
    name of a scaled stand-in (``s5378@0.3`` -> ``s5378``), any other
    name as given."""
    try:
        return _profile_scale(circuit_name, 1.0)[0]
    except ValueError:
        return circuit_name


def canonical_spec(
    spec: str, scale: float = 1.0, seed: int = 0
) -> Tuple[str, float, int]:
    """The ``(spec, scale, seed)`` :func:`resolve_spec` resolves, spelled
    one way for each circuit: the key every cache, journal cell, lease
    and job of one circuit shares.

    A ``.bench`` path or builtin name ignores ``scale`` and ``seed``, so
    both become 1.0 and 0.  A profile's ``name@<scale>`` (the name a
    scaled stand-in reports, ``s298@0.3``) becomes the bare name and that
    scale, unless the bare name is a builtin too (``s27``), whose
    stand-ins only the suffix tells apart.  Raises :class:`ValueError`
    on an unknown spec, a suffix that is not a number, or a suffix that
    conflicts with ``scale``.
    """
    from .profiles import ISCAS89_PROFILES

    if is_bench_path(spec) or spec in list_builtin():
        return (spec, 1.0, 0)
    name, scale = _profile_scale(spec, scale)
    if name not in ISCAS89_PROFILES:
        raise ValueError(
            f"unknown circuit {spec!r} — give a .bench path, one of "
            f"{list_builtin()}, or an ISCAS89 name like s298 or s298@0.3"
        )
    return (spec if name in list_builtin() else name, float(scale), int(seed))


def resolve_spec(spec: str, scale: float = 1.0, seed: int = 0) -> Circuit:
    """Resolve a circuit spec string to a :class:`Circuit`.

    The one spelling of "name a circuit" shared by every command, the
    harness and the job service: a ``.bench`` file path, a
    :func:`list_builtin` name, or an ISCAS89 profile name synthesized
    with ``seed``/``scale``.  A profile name may carry its scale as
    ``name@<scale>`` — the name a scaled stand-in reports (``s298@0.3``)
    — so a circuit's own name resolves back to it; ``scale`` then stays
    at its default 1.0 or equals the suffix.  Raises :class:`ValueError`
    as :func:`canonical_spec` does, and naming the file for a ``.bench``
    file that cannot be read or parsed — callers map that to their own
    error surface (``SystemExit`` for the CLI, a usage error for the
    harness, HTTP 400 for the service).
    """
    from .synth import synthesize_named

    spec, scale, seed = canonical_spec(spec, scale, seed)
    if is_bench_path(spec):
        try:
            return load_bench(Path(spec))
        except (CircuitError, OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot load circuit file {spec!r}: {exc}") from exc
    if spec in list_builtin():
        return build_builtin(spec)
    return synthesize_named(_profile_scale(spec, scale)[0], seed=seed,
                            scale=scale)


def list_builtin() -> List[str]:
    """Names of all circuits constructible by :func:`build_builtin`."""
    return ["s27", "c17", "shift4", "counter3", "parity", "uninit", "minifsm"]


def build_builtin(name: str) -> Circuit:
    """Construct a bundled circuit by its :func:`list_builtin` name."""
    builders = {
        "s27": s27,
        "c17": c17,
        "shift4": lambda: shift_register(4),
        "counter3": lambda: resettable_counter(3),
        "parity": parity_tracker,
        "uninit": uninitializable_loop,
        "minifsm": mini_fsm,
    }
    try:
        return builders[name]()
    except KeyError:
        raise KeyError(f"unknown builtin circuit {name!r}; see list_builtin()") from None
