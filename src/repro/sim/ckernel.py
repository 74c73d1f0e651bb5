"""Compiled C simulation kernel: per-circuit native code via cffi/ctypes.

The ``codegen`` backend removed per-gate dispatch but still runs one
Python bitwise expression per gate per frame.  This backend removes
the per-gate and per-*frame* Python work: the whole
:meth:`~repro.faults.simulator.FaultSimulator._run_group` frame loop —
primary-input loads, present-state loads, the levelized straight-line
gate evaluation over ``uint64`` planes (``invert`` folded at
generation time, exactly like the codegen backend), detection reads,
next-state capture and the phase-3 faulty-event count — is emitted as
one C function per compiled circuit and compiled at runtime.  One
native call then evaluates a whole wide fault group across every time
frame of a candidate.

Parameterization mirrors :func:`repro.sim.codegen.generate_source`:
the generated function reads per-run force words from **dense
per-node tables** (an output-force plane pair per node, a pin-force
plane pair per gate operand slot, a D-pin pair per flip-flop), so one
compiled function serves every injection signature — fault groups
never trigger a recompile.  Unforced gates (the common case) pay one
flag-byte load and one branch on top of the straight-line expressions.

Toolchain and artifact cache
----------------------------

The C source is compiled with the system compiler (``cc``/``gcc``/
``clang`` on ``PATH``, overridable with ``REPRO_CKERNEL_CC``) into a
plain shared library, loaded through **cffi** (ABI mode) when cffi is
importable and through **ctypes** otherwise — the artifact is an
ordinary ``.so`` either way.  Artifacts are cached on disk
(``REPRO_CKERNEL_CACHE``, default ``~/.cache/repro/ckernel``) keyed by
the circuit digest and :data:`CKERNEL_VERSION`, so the service's warm
registry, repeat CLI runs and pool workers skip the compile entirely
(``c.cache.hits`` / ``c.cache.misses``); bumping the version changes
every key, invalidating stale artifacts.  Pool workers additionally
accept the parent's compiled-library path via
:func:`preload_artifact` (shipped through ``init_worker``) and
recompile locally when the shipped path is unusable.

Bigint entry points (``eval`` / ``eval_injection``) delegate to the
generated codegen functions — bit-identical by the codegen contract
and faster for the narrow words the good machine and sub-64-slot
groups use (docs/KERNELS.md sanctions exactly this).  :func:`build`
raises when no compiler is available and the artifact is not cached;
``kernel_for`` then falls back to the interpreter with a
``c.fallbacks`` counter — requesting ``c`` is always safe.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import time
import weakref
from typing import Dict, List, Optional, Tuple

from .compile import OP_AND, OP_COPY, OP_OR, OP_XOR, CompiledCircuit

#: Generated-code/ABI version: part of every on-disk cache key, so
#: bumping it invalidates every stale compiled artifact at once.
CKERNEL_VERSION = 1

#: Widest fused fault group the simulator should build for this kernel
#: (one group per candidate evaluation on full-size circuits, subject
#: to the eval_jobs floor).
WIDE_GROUP_CAP = 4096

#: Environment overrides.
CC_ENV = "REPRO_CKERNEL_CC"
CACHE_ENV = "REPRO_CKERNEL_CACHE"

#: Worker-side registry of artifacts shipped by the parent process:
#: ``digest -> path``.  See :func:`preload_artifact`.
_PRELOADED: Dict[str, str] = {}


def _find_cc() -> Optional[str]:
    """The C compiler to use, or ``None``.

    ``REPRO_CKERNEL_CC`` (when set) is authoritative — it is *not*
    backed up by the ``PATH`` search, so pointing it at a nonexistent
    command is how tests and CI simulate a compiler-less host.  Probed
    freshly on every call (no negative caching), so environments that
    appear mid-process are picked up.
    """
    override = os.environ.get(CC_ENV)
    if override is not None and override.strip():
        cand = override.strip()
        if os.sep in cand:
            return cand if os.access(cand, os.X_OK) else None
        return shutil.which(cand)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def available() -> bool:
    """Whether this process can *compile* a C kernel (cached artifacts
    load fine without a compiler; ``build`` tries the cache first)."""
    return _find_cc() is not None


def cache_dir() -> str:
    """The on-disk artifact cache directory (not created here)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return override
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "ckernel"
    )


# ----------------------------------------------------------------------
# C source generation
# ----------------------------------------------------------------------

_PROLOGUE = """\
#include <stdint.h>
typedef uint64_t u64;
typedef unsigned char u8;
typedef long long i64;
#if defined(__GNUC__) || defined(__clang__)
#define POPC(x) ((i64)__builtin_popcountll(x))
#else
static i64 POPC(u64 x) {
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (i64)((x * 0x0101010101010101ULL) >> 56);
}
#endif
"""

#: The one exported symbol.  Buffer layouts (all little-endian uint64
#: words unless noted):
#:   FF1/FF0  (nff, W) in/out faulty flip-flop planes
#:   M        (W,) live-slot mask
#:   GPI/GPO/GNS/GN  per-frame good-machine bytes: [1-bits | 0-bits]
#:   FXF      per-node force flags (bit0 output force, bit1 pin force)
#:   OF1/OF0  (num_nodes, W) dense output-force planes
#:   PFLAG/PF1/PF0   per-operand-slot pin forces (see plan.op_base)
#:   DFLAG/DF1/DF0   per-flip-flop D-pin forces
#:   DET      (frames, W) out, zeroed by caller
#:   PROP     (frames,) out, int64 propagation popcounts
#: Returns the summed faulty-event count (0 unless GN is non-NULL).
_SIGNATURE = (
    "long long ck_run_group("
    "unsigned long long *FF1, unsigned long long *FF0, "
    "const unsigned long long *M, long long W, long long F, "
    "const unsigned char *GPI, const unsigned char *GPO, "
    "const unsigned char *GNS, const unsigned char *GN, "
    "const unsigned char *FXF, "
    "const unsigned long long *OF1, const unsigned long long *OF0, "
    "const unsigned char *PFLAG, "
    "const unsigned long long *PF1, const unsigned long long *PF0, "
    "const unsigned char *DFLAG, "
    "const unsigned long long *DF1, const unsigned long long *DF0, "
    "unsigned long long *DET, long long *PROP)"
)


def _c_gate_exprs(opcode: int, ones: List[str], zeros: List[str],
                  tmp: str) -> Tuple[List[str], str, str]:
    """Pre-invert (v1, v0) C expressions for one gate over named locals.

    Mirrors :func:`repro.sim.codegen._gate_exprs`, including the XOR
    left-to-right pairwise fold (``tmp`` prefixes the fold temporaries
    so nested scopes never collide).
    """
    if opcode == OP_AND:
        return [], " & ".join(ones), " | ".join(zeros)
    if opcode == OP_OR:
        return [], " | ".join(ones), " & ".join(zeros)
    if opcode == OP_COPY:
        return [], ones[0], zeros[0]
    x1, x0 = ones[0], zeros[0]
    setup: List[str] = []
    for s, (y1, y0) in enumerate(zip(ones[1:-1], zeros[1:-1])):
        t1, t0 = f"{tmp}{s}_1", f"{tmp}{s}_0"
        setup.append(
            f"u64 {t1} = ({x1} & {y0}) | ({x0} & {y1}); "
            f"u64 {t0} = ({x1} & {y1}) | ({x0} & {y0});"
        )
        x1, x0 = t1, t0
    y1, y0 = ones[-1], zeros[-1]
    return (
        setup,
        f"({x1} & {y0}) | ({x0} & {y1})",
        f"({x1} & {y1}) | ({x0} & {y0})",
    )


def generate_c_source(compiled: CompiledCircuit) -> str:
    """The complete C translation unit for one circuit's group runner."""
    n = compiled.num_nodes
    written = {instr[0] for instr in compiled.program}
    pi_ids = list(compiled.pi_ids)
    po_ids = list(compiled.po_ids)
    ff_ids = list(compiled.ff_ids)
    ffd_ids = list(compiled.ff_d_ids)
    pi_index = {node: j for j, node in enumerate(pi_ids)}
    ff_index = {node: k for k, node in enumerate(ff_ids)}
    npi, npo, nff = len(pi_ids), len(po_ids), len(ffd_ids)

    L: List[str] = [
        f"/* repro ckernel v{CKERNEL_VERSION}: "
        f"{compiled.circuit.name or 'circuit'} "
        f"({n} nodes, {len(compiled.program)} gates) */",
        _PROLOGUE,
        _SIGNATURE + " {",
        "    i64 events = 0;",
        "    for (i64 t = 0; t < F; ++t) {",
        f"        const u8 *gpi1 = GPI + t * {2 * npi}; "
        f"const u8 *gpi0 = gpi1 + {npi};",
        f"        const u8 *gpo1 = GPO + t * {2 * npo}; "
        f"const u8 *gpo0 = gpo1 + {npo};",
        f"        const u8 *gns1 = GNS + t * {2 * nff}; "
        f"const u8 *gns0 = gns1 + {nff};",
        f"        const u8 *gn1 = GN ? GN + t * {2 * n} : 0; "
        f"const u8 *gn0 = gn1 ? gn1 + {n} : 0;",
        "        u64 *det = DET + t * W;",
        "        i64 prop = 0;",
        "        for (i64 i = 0; i < W; ++i) {",
        "            const u64 m = M[i];",
    ]
    body = "            "

    def out_force(node: int, a: str, b: str) -> List[str]:
        return [
            body + f"if (FXF[{node}] & 1) {{ "
            f"const u64 q1 = OF1[(i64){node} * W + i], "
            f"q0 = OF0[(i64){node} * W + i]; "
            f"{a} = ({a} | q1) & ~q0; {b} = ({b} & ~q1) | q0; }}"
        ]

    # Loads: every node the program does not write.  Primary inputs are
    # good-value broadcasts, flip-flops read the captured planes,
    # anything else (isolated nodes) is X; output forces (PI stems and
    # stuck-Q faults, pre-merged into OF by the packer) apply at load,
    # so every reader — gates, detection, capture — sees them.
    for node in range(n):
        if node in written:
            continue
        if node in pi_index:
            j = pi_index[node]
            L.append(body + f"u64 a{node} = ((u64)0 - (u64)gpi1[{j}]) & m; "
                            f"u64 b{node} = ((u64)0 - (u64)gpi0[{j}]) & m;")
            L.extend(out_force(node, f"a{node}", f"b{node}"))
        elif node in ff_index:
            k = ff_index[node]
            L.append(body + f"u64 a{node} = FF1[(i64){k} * W + i]; "
                            f"u64 b{node} = FF0[(i64){k} * W + i];")
            L.extend(out_force(node, f"a{node}", f"b{node}"))
        else:
            L.append(body + f"u64 a{node} = 0; u64 b{node} = 0;")

    # Gates, straight-line in (levelized) program order.  The unforced
    # branch is the pure expression; the forced branch folds per-pin
    # forces into fresh operand locals, then the output force — the
    # exact combined form of the interpreter's forced path.
    op_base = 0
    for out, opcode, invert, fanins in compiled.program:
        ones = [f"a{f}" for f in fanins]
        zeros = [f"b{f}" for f in fanins]
        setup, e1, e0 = _c_gate_exprs(opcode, ones, zeros, f"t{out}_")
        if invert:
            e1, e0 = e0, e1
        L.append(body + f"u64 a{out}, b{out};")
        L.append(body + f"if (!FXF[{out}]) {{")
        for stmt in setup:
            L.append(body + "    " + stmt)
        L.append(body + f"    a{out} = {e1}; b{out} = {e0};")
        L.append(body + "} else {")
        fones, fzeros = [], []
        for pin, (one, zero) in enumerate(zip(ones, zeros)):
            slot = op_base + pin
            L.append(body + f"    u64 p{out}_{pin}a = {one}, "
                            f"p{out}_{pin}b = {zero};")
            L.append(body + f"    if (PFLAG[{slot}]) {{ "
                     f"const u64 q1 = PF1[(i64){slot} * W + i], "
                     f"q0 = PF0[(i64){slot} * W + i]; "
                     f"p{out}_{pin}a = (p{out}_{pin}a | q1) & ~q0; "
                     f"p{out}_{pin}b = (p{out}_{pin}b & ~q1) | q0; }}")
            fones.append(f"p{out}_{pin}a")
            fzeros.append(f"p{out}_{pin}b")
        fsetup, fe1, fe0 = _c_gate_exprs(opcode, fones, fzeros, f"u{out}_")
        if invert:
            fe1, fe0 = fe0, fe1
        for stmt in fsetup:
            L.append(body + "    " + stmt)
        L.append(body + f"    a{out} = {fe1}; b{out} = {fe0};")
        for ln in out_force(out, f"a{out}", f"b{out}"):
            L.append(body + "    " + ln[len(body):])
        L.append(body + "}")
        op_base += len(fanins)

    # Phase-3 faulty events: per-node XOR against the broadcast good
    # value, popcounted.  Only when the caller passes good node planes.
    L.append(body + "if (gn1) {")
    for node in range(n):
        L.append(body + f"    events += POPC((a{node} ^ "
                 f"(((u64)0 - (u64)gn1[{node}]) & m)) | "
                 f"(b{node} ^ (((u64)0 - (u64)gn0[{node}]) & m)));")
    L.append(body + "}")

    # Detection: where the good output is definite, any definite-and-
    # different faulty bit detects (good planes are disjoint, so the
    # two masked reads reproduce the interpreter's if/elif).
    L.append(body + "u64 fd = 0;")
    for j, po in enumerate(po_ids):
        L.append(body + f"fd |= ((u64)0 - (u64)gpo1[{j}]) & b{po};")
        L.append(body + f"fd |= ((u64)0 - (u64)gpo0[{j}]) & a{po};")
    L.append(body + "det[i] = fd;")

    # Capture: D-pin forces fold in, the planes persist for the next
    # frame, and definite divergence from the good next state counts
    # toward propagation.
    L.append(body + "u64 pw = 0;")
    for k, d in enumerate(ffd_ids):
        L.append(body + f"u64 c{k}_1 = a{d}, c{k}_0 = b{d};")
        L.append(body + f"if (DFLAG[{k}]) {{ "
                 f"const u64 q1 = DF1[(i64){k} * W + i], "
                 f"q0 = DF0[(i64){k} * W + i]; "
                 f"c{k}_1 = (c{k}_1 | q1) & ~q0; "
                 f"c{k}_0 = (c{k}_0 & ~q1) | q0; }}")
        L.append(body + f"FF1[(i64){k} * W + i] = c{k}_1; "
                 f"FF0[(i64){k} * W + i] = c{k}_0;")
        L.append(body + f"pw |= ((u64)0 - (u64)gns1[{k}]) & c{k}_0;")
        L.append(body + f"pw |= ((u64)0 - (u64)gns0[{k}]) & c{k}_1;")
    L.append(body + "prop += POPC(pw);")
    L.append("        }")
    L.append("        PROP[t] = prop;")
    L.append("    }")
    L.append("    return events;")
    L.append("}")
    return "\n".join(L) + "\n"


# ----------------------------------------------------------------------
# Compile, cache, load
# ----------------------------------------------------------------------


def source_digest(source: str) -> str:
    """Cache key: hash of the generated source + kernel version."""
    text = f"ckernel-v{CKERNEL_VERSION}\n{source}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def artifact_path(digest: str) -> str:
    return os.path.join(cache_dir(),
                        f"ck-v{CKERNEL_VERSION}-{digest}.so")


def _compile_so(source: str, digest: str, collector) -> str:
    """Compile the source into the cache dir; returns the ``.so`` path."""
    cc = _find_cc()
    if cc is None:
        raise RuntimeError(
            f"no C compiler found (searched cc/gcc/clang on PATH; "
            f"set ${CC_ENV} to override)"
        )
    cdir = cache_dir()
    os.makedirs(cdir, exist_ok=True)
    so_path = artifact_path(digest)
    c_path = so_path[:-3] + ".c"
    tmp = f"{so_path}.tmp.{os.getpid()}"
    t0 = time.perf_counter()
    try:
        with open(c_path, "w", encoding="utf-8") as fh:
            fh.write(source)
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, c_path],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"C kernel compile failed ({cc}): "
                f"{proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    if collector.enabled:
        collector.inc("c.compile.seconds", time.perf_counter() - t0)
        collector.inc("c.kernels.built")
    return so_path


class _LoadedLib:
    """One loaded artifact: cffi ABI mode preferred, ctypes fallback.

    ``call`` takes the raw buffers (bytes for const inputs, bytearray
    for in/out) and returns the faulty-event count.
    """

    __slots__ = ("path", "via", "_call")

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            import cffi

            ffi = cffi.FFI()
            ffi.cdef(_SIGNATURE + ";")
            lib = ffi.dlopen(path)
            fn = lib.ck_run_group
            fb = ffi.from_buffer
            null = ffi.NULL

            def call(ff1, ff0, m, w, frames, gpi, gpo, gns, gn,
                     fxf, of1, of0, pflag, pf1, pf0, dflag, df1, df0,
                     det, prop):
                return fn(
                    fb("unsigned long long[]", ff1),
                    fb("unsigned long long[]", ff0),
                    fb("unsigned long long[]", m), w, frames,
                    fb("unsigned char[]", gpi), fb("unsigned char[]", gpo),
                    fb("unsigned char[]", gns),
                    null if gn is None else fb("unsigned char[]", gn),
                    fb("unsigned char[]", fxf),
                    fb("unsigned long long[]", of1),
                    fb("unsigned long long[]", of0),
                    fb("unsigned char[]", pflag),
                    fb("unsigned long long[]", pf1),
                    fb("unsigned long long[]", pf0),
                    fb("unsigned char[]", dflag),
                    fb("unsigned long long[]", df1),
                    fb("unsigned long long[]", df0),
                    fb("unsigned long long[]", det),
                    fb("long long[]", prop),
                )

            self.via = "cffi"
        except ImportError:
            import ctypes

            lib = ctypes.CDLL(path)
            fn = lib.ck_run_group
            fn.restype = ctypes.c_longlong
            c_longlong = ctypes.c_longlong
            c_char = ctypes.c_char

            def mut(buf):
                return (c_char * len(buf)).from_buffer(buf)

            def call(ff1, ff0, m, w, frames, gpi, gpo, gns, gn,
                     fxf, of1, of0, pflag, pf1, pf0, dflag, df1, df0,
                     det, prop):
                return fn(
                    mut(ff1), mut(ff0), m, c_longlong(w), c_longlong(frames),
                    gpi, gpo, gns, gn, fxf, of1, of0,
                    pflag, pf1, pf0, dflag, df1, df0,
                    mut(det), mut(prop),
                )

            self.via = "ctypes"
        self._call = call

    def call(self, *args):
        return self._call(*args)


def preload_artifact(digest: str, path: str) -> None:
    """Register a parent-shipped compiled artifact (pool workers).

    The worker's next :func:`build` for the matching circuit loads
    ``path`` directly; an unusable path just falls through to the disk
    cache / local recompile.
    """
    _PRELOADED[digest] = path


def shipping_payload(compiled: CompiledCircuit) -> Optional[Tuple[str, str]]:
    """``(digest, artifact path)`` for an already-built circuit kernel,
    for :func:`repro.parallel.worker.init_worker` to ship to workers."""
    entry = _PLAN_CACHE.get(id(compiled))
    if entry is not None and entry[0]() is compiled:
        plan = entry[1]
        return plan.digest, plan.lib.path
    return None


def _load_or_compile(source: str, digest: str, collector) -> _LoadedLib:
    """Resolve the compiled artifact: shipped path, disk cache, compile."""
    shipped = _PRELOADED.get(digest)
    if shipped:
        try:
            lib = _LoadedLib(shipped)
            if collector.enabled:
                collector.inc("c.cache.hits")
            return lib
        except OSError:
            pass  # recompile-in-worker fallback
    so_path = artifact_path(digest)
    if os.path.exists(so_path):
        try:
            lib = _LoadedLib(so_path)
            if collector.enabled:
                collector.inc("c.cache.hits")
            return lib
        except OSError:
            pass  # stale/corrupt artifact: recompile over it
    if collector.enabled:
        collector.inc("c.cache.misses")
    return _LoadedLib(_compile_so(source, digest, collector))


# ----------------------------------------------------------------------
# Plan: per-circuit compiled function + marshaling metadata
# ----------------------------------------------------------------------


class _Plan:
    """Everything derived from one compiled circuit."""

    __slots__ = (
        "num_nodes", "pi_ids", "po_ids", "ff_ids", "ffd_ids",
        "written", "pi_set", "ff_set", "op_base", "total_ops", "arity",
        "digest", "lib", "_scratch",
    )


def _build_plan(compiled: CompiledCircuit, collector) -> _Plan:
    plan = _Plan()
    plan.num_nodes = compiled.num_nodes
    plan.pi_ids = list(compiled.pi_ids)
    plan.po_ids = list(compiled.po_ids)
    plan.ff_ids = list(compiled.ff_ids)
    plan.ffd_ids = list(compiled.ff_d_ids)
    plan.written = {instr[0] for instr in compiled.program}
    plan.pi_set = set(plan.pi_ids)
    plan.ff_set = set(plan.ff_ids)
    plan.op_base = {}
    base = 0
    plan.arity = {}
    for out, _opcode, _invert, fanins in compiled.program:
        plan.op_base[out] = base
        plan.arity[out] = len(fanins)
        base += len(fanins)
    plan.total_ops = base
    source = generate_c_source(compiled)
    plan.digest = source_digest(source)
    plan.lib = _load_or_compile(source, plan.digest, collector)
    plan._scratch = {}
    return plan


#: Plan cache: ``id(compiled) -> (weakref, plan)`` — same identity +
#: weakref-validation scheme as the codegen kernel cache.
_PLAN_CACHE: Dict[int, Tuple["weakref.ref", _Plan]] = {}


def clear_plan_cache() -> None:
    """Drop every cached C kernel plan (the on-disk artifacts stay)."""
    _PLAN_CACHE.clear()


def _plan_for(compiled: CompiledCircuit, collector) -> _Plan:
    key = id(compiled)
    entry = _PLAN_CACHE.get(key)
    if entry is not None and entry[0]() is compiled:
        return entry[1]
    plan = _build_plan(compiled, collector)
    ref = weakref.ref(compiled, lambda _r, _k=key: _PLAN_CACHE.pop(_k, None))
    _PLAN_CACHE[key] = (ref, plan)
    return plan


# ----------------------------------------------------------------------
# Injection packing (dense per-node force buffers)
# ----------------------------------------------------------------------


class _CInjection:
    """This kernel's ``make_injection`` product.

    ``tables`` is the dense per-node force table the generated codegen
    kernel consumes (bigint paths keep codegen speed); the packed C
    buffers are built lazily per word count and cached here — the
    simulator memoizes injections per committed-state epoch.
    """

    __slots__ = ("tables", "_packed")

    def __init__(self, tables) -> None:
        self.tables = tables
        self._packed: Dict[Tuple[int, int], tuple] = {}

    def packed(self, plan: _Plan, ff_out_forces, ff_pin_forces, w: int):
        key = (id(plan), w)
        p = self._packed.get(key)
        if p is None:
            p = _pack_injection(plan, self.tables,
                                ff_out_forces, ff_pin_forces, w)
            if len(self._packed) >= 8:
                self._packed.clear()
            self._packed[key] = p
        return p


def _pack_injection(plan: _Plan, tables, ff_out_forces, ff_pin_forces,
                    w: int) -> tuple:
    """Dense C buffers for one (injection, word count).

    Output forces land on every node the generated code *loads or
    writes* (program gates, primary inputs, flip-flop Q stems —
    applied at load, so all readers see them); forces on isolated
    nodes are dropped, exactly as the interpreter drops them.
    """
    nb = w * 8
    n = plan.num_nodes
    nff = len(plan.ffd_ids)
    fxf = bytearray(n)
    of1 = bytearray(n * nb)
    of0 = bytearray(n * nb)
    pflag = bytearray(max(plan.total_ops, 1))
    pf1 = bytearray(max(plan.total_ops, 1) * nb)
    pf0 = bytearray(max(plan.total_ops, 1) * nb)
    dflag = bytearray(max(nff, 1))
    df1 = bytearray(max(nff, 1) * nb)
    df0 = bytearray(max(nff, 1) * nb)

    def put(buf, idx, word):
        buf[idx * nb:(idx + 1) * nb] = word.to_bytes(nb, "little")

    for node, entry in enumerate(tables):
        if entry is None:
            continue
        pins, f1, f0 = entry
        if (f1 or f0) and (node in plan.written or node in plan.pi_set):
            fxf[node] |= 1
            put(of1, node, f1)
            put(of0, node, f0)
        if pins is not None and node in plan.op_base:
            base = plan.op_base[node]
            any_pin = False
            for pin, pf in enumerate(pins):
                if pf is None:
                    continue
                p1, p0 = pf
                if p1 or p0:
                    any_pin = True
                    pflag[base + pin] = 1
                    put(pf1, base + pin, p1)
                    put(pf0, base + pin, p0)
            if any_pin:
                fxf[node] |= 2
    for k, (f1, f0) in ff_out_forces.items():
        node = plan.ff_ids[k]
        off = node * nb
        p1 = int.from_bytes(of1[off:off + nb], "little") | f1
        p0 = int.from_bytes(of0[off:off + nb], "little") | f0
        fxf[node] |= 1
        put(of1, node, p1)
        put(of0, node, p0)
    for k, (f1, f0) in ff_pin_forces.items():
        dflag[k] = 1
        put(df1, k, f1)
        put(df0, k, f0)

    return (bytes(fxf), bytes(of1), bytes(of0), bytes(pflag),
            bytes(pf1), bytes(pf0), bytes(dflag), bytes(df1), bytes(df0))


def _pack_trace(plan: _Plan, trace) -> Tuple[bytes, bytes, bytes]:
    """Per-frame good-machine selector bytes: PI loads, PO detection
    values, next-state capture values (layout: [1-bits | 0-bits])."""
    pi_ids, po_ids = plan.pi_ids, plan.po_ids
    gpi = bytearray()
    gpo = bytearray()
    gns = bytearray()
    for f, (g1, g0) in enumerate(trace.node_planes):
        gpi.extend(g1[p] for p in pi_ids)
        gpi.extend(g0[p] for p in pi_ids)
        gpo.extend(g1[p] for p in po_ids)
        gpo.extend(g0[p] for p in po_ids)
        nxt = trace.ff_states[f]
        gns.extend(1 if v == 1 else 0 for v in nxt)
        gns.extend(1 if v == 0 else 0 for v in nxt)
    return bytes(gpi) or b"\0", bytes(gpo) or b"\0", bytes(gns) or b"\0"


def _pack_trace_nodes(plan: _Plan, trace) -> bytes:
    """All-node good planes per frame, for the faulty-event count."""
    gn = bytearray()
    for g1, g0 in trace.node_planes:
        gn.extend(g1)
        gn.extend(g0)
    return bytes(gn) or b"\0"


# ----------------------------------------------------------------------
# Fused group runner
# ----------------------------------------------------------------------


def _run_group_c(plan: _Plan, collector, sim, group, trace,
                 count_faulty_events: bool, inj):
    """Drop-in replacement for ``FaultSimulator._run_group`` on one wide
    group: one native call per candidate covering every frame;
    bit-identical 7-tuple result (docs/KERNELS.md)."""
    n_slots = len(group)
    w = (n_slots + 63) >> 6
    nb = w * 8
    mask = (1 << n_slots) - 1
    nff = len(plan.ffd_ids)
    _pi_forces, ff_out_forces, ff_pin_forces, injection = inj
    packed = injection.packed(plan, ff_out_forces, ff_pin_forces, w)
    frames = len(trace.node_planes)

    # Good-trace selector bytes: packed once per candidate, shared by
    # every group of that evaluation.
    tp = getattr(trace, "_ck_pack", None)
    if tp is None or tp[0] != id(plan):
        gpi, gpo, gns = _pack_trace(plan, trace)
        tp = [id(plan), gpi, gpo, gns, None]
        trace._ck_pack = tp
    gn = None
    if count_faulty_events:
        if tp[4] is None:
            tp[4] = _pack_trace_nodes(plan, trace)
        gn = tp[4]

    # Faulty present-state planes: committed good state broadcast, then
    # per-fault divergences.  Divergences only change on commit, so the
    # packed base is cached per (simulator, state epoch, group).
    cached = plan._scratch.get("ff_base")
    if (cached is not None and cached[0] is sim
            and cached[1] == sim.state_epoch and cached[2] is group
            and cached[3] == w):
        base1, base0 = cached[4], cached[5]
    else:
        ff1 = [0] * nff
        ff0 = [0] * nff
        for k in range(nff):
            value = sim.good_state.ff_values[k]
            ff1[k] = mask if value == 1 else 0
            ff0[k] = mask if value == 0 else 0
        for slot, fault_id in enumerate(group):
            div = sim.divergence.get(fault_id)
            if not div:
                continue
            bit = 1 << slot
            nbit = ~bit
            for k, value in div.items():
                ff1[k] &= nbit
                ff0[k] &= nbit
                if value == 1:
                    ff1[k] |= bit
                elif value == 0:
                    ff0[k] |= bit
        base1 = b"".join(x.to_bytes(nb, "little") for x in ff1) or bytes(8)
        base0 = b"".join(x.to_bytes(nb, "little") for x in ff0) or bytes(8)
        plan._scratch["ff_base"] = (sim, sim.state_epoch, group, w,
                                    base1, base0)

    ff1buf = bytearray(base1)
    ff0buf = bytearray(base0)
    det = bytearray(max(frames * nb, 8))
    prop = bytearray(max(frames * 8, 8))
    mbytes = mask.to_bytes(nb, "little")

    faulty_events = int(plan.lib.call(
        ff1buf, ff0buf, mbytes, w, frames,
        tp[1], tp[2], tp[3], gn, *packed, det, prop,
    ))

    # Detection bookkeeping, deferred: in the common no-detection case
    # this is one byte scan for the whole candidate.
    det_word = 0
    det_frame: Dict[int, int] = {}
    if frames and any(det[:frames * nb]):
        for frame in range(frames):
            fw = int.from_bytes(det[frame * nb:(frame + 1) * nb], "little")
            new = fw & ~det_word
            while new:
                low = new & -new
                det_frame[low.bit_length() - 1] = frame
                new ^= low
            det_word |= fw
    prop_per_frame = list(memoryview(prop)[:frames * 8].cast("q"))

    if collector.enabled:
        collector.inc("c.group.passes")
        collector.inc("c.group.slot_frames", n_slots * frames)
    prop_final = prop_per_frame[-1] if prop_per_frame else 0
    final_ff1 = [int.from_bytes(ff1buf[k * nb:(k + 1) * nb], "little")
                 for k in range(nff)]
    final_ff0 = [int.from_bytes(ff0buf[k * nb:(k + 1) * nb], "little")
                 for k in range(nff)]
    return (det_word, det_frame, prop_final, prop_per_frame, faulty_events,
            final_ff1, final_ff0)


# ----------------------------------------------------------------------
# Kernel assembly (called by repro.sim.codegen.kernel_for)
# ----------------------------------------------------------------------


def build(compiled: CompiledCircuit, requested: str, fns, collector):
    """Assemble the C :class:`~repro.sim.codegen.SimKernel`.

    ``fns`` are the already-built codegen functions: the good-machine
    and bigint injected passes delegate to them (bit-identical by the
    codegen contract, and faster for narrow words), while wide fault
    groups take the compiled native runner.  Raises when the artifact
    can neither be loaded nor compiled — the caller falls back to the
    interpreter.
    """
    from .codegen import SimKernel, make_force_tables

    plan = _plan_for(compiled, collector)
    num_nodes = compiled.num_nodes
    arity = plan.arity
    good = fns["good"]
    injected = fns["injected"]

    def make_injection(out_force: Dict, pin_force: Dict) -> _CInjection:
        return _CInjection(
            make_force_tables(num_nodes, out_force, pin_force, arity)
        )

    def eval_injection(v1, v0, mask, injection: _CInjection) -> None:
        injected(v1, v0, mask, injection.tables)

    def run_group(sim, group, trace, count_faulty_events, inj):
        return _run_group_c(plan, collector, sim, group, trace,
                            count_faulty_events, inj)

    return SimKernel(
        name="c",
        requested=requested,
        eval_fn=good,
        make_injection=make_injection,
        eval_injection=eval_injection,
        run_group=run_group,
        group_width=WIDE_GROUP_CAP,
    )
