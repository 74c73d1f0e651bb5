"""The end-to-end workloads and their correctness oracles.

Every runner sets the program up cold several times (for ``setup_s``),
drives it through public APIs for a fixed wall-clock window, and then,
outside that window, checks every output it produced:

* GA runs: a fresh ``FaultSimulator.commit`` of the run's test set must
  reproduce the run's detected count, and runs whose GA seed is pinned
  in ``expected.json`` must reproduce the pinned outputs.
* ``fsim``: single-frame commits must detect, frame by frame, exactly
  what a chunked replay of the same vectors detects.
* service: ``fsim`` job results must match one local ``evaluate_batch``,
  ``run`` job test sets must replay to their reported ``detected``, and
  the first run job must equal a local run of the same config.

Only the generated inputs reach the program.  The workload seed ``S``
picks the GA seeds ``1000*S + 1, 2, ...`` and seeds the
``random.Random(S)`` that draws every vector.

Set-ups and window are timed with a :class:`~hostclock.HostClock`,
which calibrates between operations and reports reference seconds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.circuit import library
from repro.core.config import TestGenConfig
from repro.core.generator import GaTestGenerator, RunPreempted, make_fault_simulator
from repro.faults.simulator import FaultSimulator
from repro.service import ServiceClient, ServiceError
from repro.sim import compile as sim_compile
from repro.sim.codegen import clear_kernel_cache

from hostclock import SLICE_EVERY_S, CalibrationSlice, HostClock

# clear_kernel_cache() imports these on first use; a user's run never
# calls it, so the import stays out of every measured interval.
import repro.sim.ckernel  # noqa: E402,F401
import repro.sim.npkernel  # noqa: E402,F401

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = {"ga": 7, "fsim": 7, "service": 3}
#: Operation cap per workload kind under ``--smoke``.
SMOKE_OPS = {"ga": 3, "fsim": 200, "service": 10}
#: Vectors hashed into a pinned run's ``prefix_sha``, which also checks
#: a run the window cut short.
PREFIX = 64
#: The fsim workload commits fresh random streams of this many frames,
#: each from power-up, and replays them in chunks of ``REPLAY_CHUNK``.
STREAM_FRAMES = 200
REPLAY_CHUNK = 50
#: Service traffic: frames per fsim job, every ``RUN_EVERY``-th request
#: is a run job, completion polled at ``POLL`` seconds.
FSIM_FRAMES = 24
RUN_EVERY = 5
POLL = 0.002
SERVICE_RUN_CIRCUIT = "s27"
#: The server's peak RSS is read once this many jobs are done, so that a
#: faster server (more jobs, more job records) does not read as bigger.
RSS_AFTER_JOBS = 200


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``smoke_*`` replace them under ``--smoke``.

    ``count_frames`` makes a GA workload count evaluated frames
    (evaluations times frames per candidate) instead of evaluations, for
    a simulator whose per-candidate cost grows with the frame count.
    """

    kind: str
    circuit: str
    config: dict = field(default_factory=dict)
    smoke_config: Optional[dict] = None
    smoke_circuit: str = "s27"
    count_frames: bool = False

    def inputs(self, smoke: bool) -> Tuple[str, dict]:
        if not smoke:
            return self.circuit, dict(self.config)
        config = self.config if self.smoke_config is None else self.smoke_config
        return self.smoke_circuit, dict(config)


WORKLOADS = {
    "ga_s298": Workload("ga", "s298"),
    "ga_s1196_sampled": Workload(
        "ga", "s1196", {"fault_sample": 64}, smoke_config={"fault_sample": 8}
    ),
    # Transition faults are scored one candidate at a time, so a
    # sequence candidate costs its length in frames.
    "ga_s298_transition": Workload(
        "ga", "s298", {"fault_model": "transition"}, count_frames=True
    ),
    "ga_s298_sharded": Workload("ga", "s298", {"eval_jobs": 2}),
    # s27 commits take microseconds, too little to attribute.
    "fsim_s1423": Workload("fsim", "s1423", smoke_circuit="s298"),
    "service_mixed": Workload("service", "s298"),
}


@dataclass
class Options:
    """How one workload run is driven."""

    seed: int
    seconds: float
    kernel: Optional[str]
    smoke: bool
    expected: dict
    work_dir: Path
    src: Path
    tracer: object = None
    collector: object = None
    counters: Dict[str, float] = field(default_factory=dict)
    calibration: Optional[CalibrationSlice] = None

    def span(self, row: str):
        """A traced block of benchmark code (a no-op when untraced)."""
        return nullcontext() if self.tracer is None else self.tracer.span(row)

    def clock(self, every: float = SLICE_EVERY_S) -> HostClock:
        """A host clock that has run its first calibration slice."""
        if self.calibration is None:
            with self.span("bench.calibration_s"):
                self.calibration = CalibrationSlice()
        clock = HostClock(self.calibration, every, span=self.span)
        clock.calibrate()
        return clock

    def window_done(self) -> None:
        """Freeze the traced totals: verification is not measured."""
        if self.tracer is not None:
            self.tracer.freeze()
            self.counters = self.collector.counters

    def max_ops(self, kind: str) -> Optional[int]:
        return SMOKE_OPS[kind] if self.smoke else None

    def reps(self, kind: str) -> int:
        return min(2, SETUP_REPS[kind]) if self.smoke else SETUP_REPS[kind]


@dataclass
class Outcome:
    """What one workload run measured and how many of its ops failed.

    ``setup`` timed the cold set-ups, one segment each, and ``window``
    the operations of the measured window, which lasted ``window_s``
    raw seconds.
    """

    kernel: str
    setup: HostClock
    window: HostClock
    window_s: float
    work: int
    work_unit: str
    latencies: List[float]
    attempted: int
    failed: int
    peak_rss_mb: float
    notes: Dict[str, float] = field(default_factory=dict)


def percentile(values: List[float], p: int) -> float:
    """The ``p``-th percentile (inclusive method) of ``values``; 0 when
    there are none (a service loop too short for a run job)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sequence_sha(vectors) -> str:
    return hashlib.sha256(json.dumps(vectors).encode()).hexdigest()[:16]


def pin_key(circuit: str, config: dict) -> str:
    """The ``expected.json`` key of a GA configuration's outputs.

    ``eval_jobs`` and the kernel are not part of it: both leave every
    output bit-identical.
    """
    key = circuit
    if config.get("fault_model", "stuck-at") != "stuck-at":
        key += "/" + config["fault_model"]
    if config.get("fault_sample") is not None:
        key += f"/sample{config['fault_sample']}"
    return key


def cold_setups(circuit: str, build_sim, opts: Options, kind: str):
    """Resolve, compile and build the first simulator several times from
    cold kernel caches, with a calibration slice after each; returns the
    last ones and the clock that timed them."""
    clock = opts.clock(every=0.0)
    for _ in range(opts.reps(kind)):
        clear_kernel_cache()
        clock.begin()
        compiled = sim_compile.compile_circuit(
            library.resolve_spec(circuit, scale=1.0, seed=0)
        )
        sim = build_sim(compiled)
        clock.lap()
    return compiled, sim, clock


# ----------------------------------------------------------------------
# GA workloads
# ----------------------------------------------------------------------


def run_ga(workload: Workload, opts: Options) -> Outcome:
    """Back-to-back GATEST runs until the window closes.

    The run in flight when the window closes is stopped at its next
    stage boundary through the public ``stop`` hook, which also ends
    every segment of the window's clock: one latency sample is one
    evolved-and-committed vector or one sequence attempt.
    """
    circuit, config = workload.inputs(opts.smoke)
    config["sim_kernel"] = opts.kernel
    compiled, sim, setups = cold_setups(
        circuit, lambda c: make_fault_simulator(c, TestGenConfig(**config)),
        opts, "ga",
    )
    sim.close()
    runs = []
    latencies: List[float] = []
    work = 0
    failed = 0
    clock = opts.clock()
    start = time.perf_counter()
    deadline = start + opts.seconds
    clock.begin()
    for attempted in itertools.count(1):
        ga_seed = 1000 * opts.seed + attempted
        try:
            gen, complete, frames, stages = timed_ga_run(
                compiled, TestGenConfig(seed=ga_seed, **config), deadline, clock
            )
            work += frames if workload.count_frames else gen.ga_evaluations
            latencies += stages
            runs.append((ga_seed, list(gen.test_sequence),
                         gen.fsim.detected_count, run_outputs(gen, complete)))
        except Exception:
            traceback.print_exc()
            failed += 1
        end = time.perf_counter()
        if end >= deadline or attempted == opts.max_ops("ga"):
            break
    clock.lap()
    opts.window_done()
    rss = own_peak_rss_mb()

    pins = opts.expected.get("ga", {}).get(pin_key(circuit, config), {})
    replay_config = TestGenConfig(
        fault_model=config.get("fault_model", "stuck-at"), sim_kernel=opts.kernel
    )
    for ga_seed, sequence, detected, outputs in runs:
        replay = make_fault_simulator(compiled, replay_config)
        replay.commit(sequence)
        pin = pins.get(str(ga_seed))
        if replay.detected_count != detected or (
            pin is not None and any(pin.get(k) != v for k, v in outputs.items())
        ):
            print(f"check failed: GA seed {ga_seed}", file=sys.stderr)
            failed += 1
    return Outcome(
        kernel=sim.kernel_name, setup=setups, window=clock,
        window_s=end - start, work=work,
        work_unit="evaluated frames" if workload.count_frames else "GA evaluations",
        latencies=latencies, attempted=attempted, failed=failed, peak_rss_mb=rss,
    )


def timed_ga_run(compiled, config: TestGenConfig, deadline: float,
                 clock: HostClock):
    """One GATEST run, stopped at the first stage boundary past
    ``deadline`` through the public ``stop`` hook.

    Returns the generator, whether the run finished, its evaluated
    frames and the duration of every stage event (one evolved-and-
    committed vector or one sequence attempt), each a segment of
    ``clock``.
    """
    gen = GaTestGenerator(compiled, config)
    stages: List[float] = []
    frames = 0
    counted = 0

    def stop() -> bool:
        nonlocal frames, counted
        stages.append(clock.lap())
        frames += (gen.ga_evaluations - counted) * gen.trace[-1].frames
        counted = gen.ga_evaluations
        return time.perf_counter() >= deadline

    clock.lap()
    try:
        gen.run(stop=stop)
        complete = True
    except RunPreempted:
        complete = False
    return gen, complete, frames, stages


def run_outputs(gen: GaTestGenerator, complete: bool) -> dict:
    """The outputs of a run a pin can be compared with: all of them for a
    finished run, the fault count and test-set prefix for one the window
    cut short."""
    outputs = {"total_faults": gen.fsim.num_faults}
    if len(gen.test_sequence) >= PREFIX:
        outputs["prefix_sha"] = sequence_sha(gen.test_sequence[:PREFIX])
    if complete:
        outputs.update(
            detected=gen.fsim.detected_count, vectors=len(gen.test_sequence),
            ga_evaluations=gen.ga_evaluations,
        )
    return outputs


# ----------------------------------------------------------------------
# Fault-simulation commit workload
# ----------------------------------------------------------------------


def random_vector(rng: random.Random, width: int) -> List[int]:
    word = rng.getrandbits(width)
    return [(word >> j) & 1 for j in range(width)]


def detections_by_frame(detections) -> Dict[int, set]:
    frames: Dict[int, set] = {}
    for fault, frame in detections:
        frames.setdefault(frame, set()).add(fault)
    return frames


def run_fsim(workload: Workload, opts: Options) -> Outcome:
    """One-frame ``FaultSimulator.commit`` calls (the way GATEST and
    compaction commit) of fresh ``STREAM_FRAMES``-frame random streams,
    each from power-up (``reset``), until the window closes.

    Work is counted in simulated fault-frames (faults still undetected
    when a frame is committed): a frame's cost follows that count, which
    falls at a seed-dependent pace as the stream detects faults.
    """
    circuit, _ = workload.inputs(opts.smoke)
    compiled, fsim, setups = cold_setups(
        circuit, lambda c: FaultSimulator(c, kernel=opts.kernel), opts, "fsim"
    )
    rng = random.Random(opts.seed)
    streams: List[list] = []  # (vectors, detections) per stream
    latencies: List[float] = []
    work = 0
    clock = opts.clock()
    start = time.perf_counter()
    deadline = start + opts.seconds
    clock.begin()
    while True:
        if not streams or len(streams[-1][0]) == STREAM_FRAMES:
            if streams:
                fsim.reset()
            streams.append(([], []))
        vectors, detections = streams[-1]
        vector = random_vector(rng, compiled.num_pis)
        work += len(fsim.active)
        t0 = time.perf_counter()
        commit = fsim.commit([vector])
        end = time.perf_counter()
        latencies.append(end - t0)
        vectors.append(vector)
        detections.extend(commit.detections)
        clock.lap()
        if end >= deadline or len(latencies) == opts.max_ops("fsim"):
            break
    opts.window_done()
    rss = own_peak_rss_mb()

    failed = 0
    for vectors, detections in streams:
        replay = FaultSimulator(compiled, kernel=opts.kernel)
        replayed = []
        for i in range(0, len(vectors), REPLAY_CHUNK):
            replayed.extend(replay.commit(vectors[i:i + REPLAY_CHUNK]).detections)
        live = detections_by_frame(detections)
        again = detections_by_frame(replayed)
        failed += sum(live.get(f) != again.get(f) for f in set(live) | set(again))
    pin = opts.expected.get("fsim", {}).get(circuit)
    first_vectors, first_detections = streams[0]
    if pin and pin["seed"] == opts.seed and len(first_vectors) == STREAM_FRAMES:
        failed += len(first_detections) != pin["detected"]
    if failed:
        print(f"check failed: {failed} fsim frame(s)", file=sys.stderr)
    return Outcome(
        kernel=fsim.kernel_name, setup=setups, window=clock,
        window_s=end - start, work=work, work_unit="fault-frames",
        latencies=latencies, attempted=len(latencies), failed=failed,
        peak_rss_mb=rss,
    )


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------


class ServiceProcess:
    """One ``gatest serve`` subprocess in its own process group."""

    def __init__(self, opts: Options, state_dir: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(opts.src))
        self.client: Optional[ServiceClient] = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--state-dir", str(state_dir)],
            stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"gatest serve did not start: {line!r}")
        self.client = ServiceClient(port=int(match.group(1)))

    def peak_rss_mb(self) -> float:
        """The server's own peak RSS (``VmHWM``); tier workers excluded."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024

    def stop(self) -> int:
        """Shut down, wait for the whole process group, return how many
        processes outlived the server (killed after a grace period)."""
        if self.client is not None and self.proc.poll() is None:
            try:
                self.client.shutdown()
            except (OSError, ServiceError):
                traceback.print_exc()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()
        return reap_group(self.proc.pid)


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def reap_group(pgid: int, grace: float = 10.0) -> int:
    deadline = time.monotonic() + grace
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    stragglers = group_members(pgid)
    if stragglers:
        print(f"killing {len(stragglers)} orphaned service processes",
              file=sys.stderr)
        for pid in stragglers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while group_members(pgid):
            time.sleep(0.05)
    return len(stragglers)


def run_service(workload: Workload, opts: Options) -> Outcome:
    """A closed loop of one client against ``gatest serve --workers 1``.

    Every ``RUN_EVERY``-th request is an s27 run job with a distinct GA
    seed (through the process tier); the rest are warm fsim jobs of
    fresh random vectors.  ``setup_s`` is server spawn to the first cold
    fsim job and cold run job done.
    """
    fsim_circuit, _ = workload.inputs(opts.smoke)
    compiled = sim_compile.compile_circuit(
        library.resolve_spec(fsim_circuit, scale=1.0, seed=0)
    )
    rng = random.Random(opts.seed)
    extra = {} if opts.kernel is None else {"kernel": opts.kernel}

    def fsim_payload(vectors) -> dict:
        return {"kind": "fsim", "circuit": fsim_circuit, "scale": 1.0,
                "seed": 0, "vectors": vectors, **extra}

    def run_payload(k: int) -> dict:
        config = {"seed": 1000 * opts.seed + k}
        if opts.kernel is not None:
            config["sim_kernel"] = opts.kernel
        return {"kind": "run", "circuit": SERVICE_RUN_CIRCUIT, "config": config}

    def draw_vectors() -> List[List[int]]:
        return [random_vector(rng, compiled.num_pis) for _ in range(FSIM_FRAMES)]

    cold = [fsim_payload(draw_vectors()), run_payload(0)]
    setups = opts.clock(every=0.0)
    server = None
    try:
        for rep in range(opts.reps("service")):
            if server is not None:
                with opts.span("service.spawn_s"):
                    server.stop()
                server = None
            setups.begin()
            with opts.span("service.spawn_s"):
                server = ServiceProcess(opts, opts.work_dir / f"state-{rep}")
            client = server.client
            for payload in cold:
                record = client.wait(client.submit(payload)["id"], timeout=120,
                                     poll=POLL)
                if record["status"] != "done":
                    raise RuntimeError(f"cold job failed: {record['error']}")
            setups.lap()

        jobs = []
        rss = None
        clock = opts.clock()
        start = time.perf_counter()
        deadline = start + opts.seconds
        clock.begin()
        while True:
            index = len(jobs)
            if index % RUN_EVERY == RUN_EVERY - 1:
                payload = run_payload(index // RUN_EVERY + 1)
            else:
                payload = fsim_payload(draw_vectors())
            t0 = time.perf_counter()
            submitted = record = None
            try:
                job_id = client.submit(payload)["id"]
                submitted = time.perf_counter()
                record = client.wait(job_id, timeout=60, poll=POLL)
            except (OSError, ServiceError, TimeoutError):
                traceback.print_exc()
            end = time.perf_counter()
            jobs.append((payload, record, end - t0, (submitted or end) - t0))
            if len(jobs) == RSS_AFTER_JOBS:
                rss = server.peak_rss_mb()
            clock.lap()
            if end >= deadline or len(jobs) == opts.max_ops("service"):
                break
        health = client.healthz()
        if rss is None:
            rss = server.peak_rss_mb()
        with opts.span("service.spawn_s"):
            orphans = server.stop()
        server = None
        opts.window_done()
    finally:
        if server is not None:
            server.stop()

    # Same code and environment as the server, so the same backend.
    local = FaultSimulator(compiled, kernel=opts.kernel)
    failed = orphans + check_service_jobs(local, jobs, opts.kernel)
    done = [job for job in jobs
            if job[1] is not None and job[1]["status"] == "done"]
    fsim_lat = [lat for p, _, lat, _ in done if p["kind"] == "fsim"]
    runs = [(lat, r["result"]["elapsed_seconds"]) for p, r, lat, _ in done
            if p["kind"] == "run"]
    counters = health["counters"]
    lookups = counters.get("service.cache.hits", 0) + counters.get(
        "service.cache.misses", 0
    )
    notes = {
        "service.fsim_p50_ms": 1000 * percentile(fsim_lat, 50),
        "service.fsim_p95_ms": 1000 * percentile(fsim_lat, 95),
        "service.run_p50_ms": 1000 * percentile([lat for lat, _ in runs], 50),
        "service.run_p80_ms": 1000 * percentile([lat for lat, _ in runs], 80),
        "service.submit_ms": 1000 * percentile([job[3] for job in jobs], 50),
        "service.run.compute_ms": 1000 * percentile([c for _, c in runs], 50),
        "service.run.overhead_ms": 1000 * percentile(
            [lat - c for lat, c in runs], 50
        ),
        "service.cache.hit_ratio": (
            counters.get("service.cache.hits", 0) / lookups if lookups else 0.0
        ),
        "service.tier.restarts": health["tier"]["restarts"],
        "service.tier.retries": health["tier"]["retries"],
        "fsim.jobs": len(fsim_lat),
        "run.jobs": len(runs),
    }
    return Outcome(
        kernel=local.kernel_name, setup=setups, window=clock,
        window_s=end - start, work=len(done), work_unit="completed jobs",
        latencies=[job[2] for job in done], attempted=len(jobs),
        failed=failed, peak_rss_mb=rss, notes=notes,
    )


def check_service_jobs(local: FaultSimulator, jobs, kernel: Optional[str]) -> int:
    """Failed jobs: not done, or disagreeing with the local oracles
    (``local`` is a power-up simulator of the fsim circuit)."""
    failed = 0
    fsim_jobs = []
    run_jobs = []
    for payload, record, _, _ in jobs:
        if record is None or record["status"] != "done":
            failed += 1
        elif payload["kind"] == "fsim":
            fsim_jobs.append((payload["vectors"], record["result"]))
        else:
            run_jobs.append((payload["config"], record["result"]))

    for i in range(0, len(fsim_jobs), 32):
        chunk = fsim_jobs[i:i + 32]
        evals = local.evaluate_batch([vectors for vectors, _ in chunk])
        failed += sum(
            result["detected"] != ev.detected
            or result["total_faults"] != local.num_faults
            for (_, result), ev in zip(chunk, evals)
        )

    s27 = sim_compile.compile_circuit(library.resolve_spec(SERVICE_RUN_CIRCUIT))
    for index, (config, result) in enumerate(run_jobs):
        replay = FaultSimulator(s27, kernel=kernel)
        replay.commit(result["test_sequence"])
        ok = replay.detected_count == result["detected"]
        if index == 0:
            reference = GaTestGenerator(s27, TestGenConfig(**config)).run()
            ok = ok and reference.test_sequence == result["test_sequence"]
        failed += not ok
    if failed:
        print(f"check failed: {failed} service job(s)", file=sys.stderr)
    return failed


RUNNERS = {"ga": run_ga, "fsim": run_fsim, "service": run_service}


def run(name: str, opts: Options) -> Outcome:
    workload = WORKLOADS[name]
    return RUNNERS[workload.kind](workload, opts)
