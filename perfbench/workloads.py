"""The benchmark's workloads: set-up, timed phases, output checks, metrics.

Every workload drives the program from this one process through its public
API only.  Inputs come from the workload seed; the detector bundle is the
one trained at :data:`MODEL_SEED` and loaded from a primed artifact cache,
so every commit scores the same model.  Why each workload exists is written
next to its definition and in ``perfbench/README.md``.

Compute-bound times are measured in blocks, each next to one run of the
reference kernel, and reported scaled to the nominal machine (see
:mod:`calibrate`); a metric is the median over its blocks.
"""

from __future__ import annotations

import gc
import pickle
import resource
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apilog.log_format import ApiLog
from repro.attacks.jsma import JsmaAttack
from repro.config import get_profile
from repro.evaluation.security_curve import (PAPER_GAMMA_GRID, PAPER_THETA_GRID,
                                             gamma_sweep, theta_sweep)
from repro.experiments.context import ExperimentContext
from repro.parallel.fleet import WorkerFleet
from repro.scenarios import registry as scenario_registry
from repro.serving.loadgen import LoadGenerator, TrafficMix
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringRequest, ScoringService
from repro.utils.artifact_cache import ArtifactCache

import calibrate
import tracer as tracing

#: The detector every workload serves or attacks: trained once at this
#: scale, seed and dtype, then loaded from the cache.
SCALE = "small"
MODEL_SEED = 2019
DTYPE = "float64"

#: Set-up runs this many times per untraced run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Distinct sandboxed requests per serve stream (the sandbox costs ~4 ms
#: per log, so the stream samples these; each request gets its own payload
#: object, so nothing keyed on object identity can skip work).
POOL_REQUESTS = 256
MAX_BATCH_SIZE = 128
MAX_DELAY_MS = 2.0
FLEET_WORKERS = 2
START_METHOD = "fork"
#: Shares of ``--seconds`` given to the closed-loop and open-loop phases.
CLOSED_SHARE = 0.3
OPEN_SHARE = 0.6
#: Open-loop latency is summarised per window of this many requests, so
#: each window's p99 has 10 samples beyond it.
LATENCY_WINDOW = 1000

SWEEP_THETA = 0.1       # fixed θ of both γ curves (Figures 3(a), 4(a))
SWEEP_GAMMA = 0.025     # fixed γ of the θ curve (Figure 3(b))
#: Share of ``--seconds`` the traced run spends on untraced passes.
TRACE_BASELINE_SHARE = 0.4


@dataclass(frozen=True)
class ServeWorkload:
    """A traffic mix served in-process or through the fleet.

    ``closed_rps`` sizes the closed-loop stream (requests = closed_rps ×
    the closed phase's seconds), timed in blocks of ``block`` requests;
    ``open_rate`` is the Poisson rate of the open-loop phase, below today's
    saturation so the sender keeps up.  All are constants, identical across
    commits.
    """

    mix: tuple
    defense: str
    fleet: bool
    closed_rps: float
    block: int
    open_rate: float


SERVE_WORKLOADS = {
    # Raw sandbox logs (90%) plus pre-featurised JSMA rows (10%): the
    # featurisation path carries ~80% of the per-request cost.
    "serve-logs": ServeWorkload((0.5, 0.4, 0.1), "none", fleet=False,
                                closed_rps=4000, block=128, open_rate=1000),
    # Grey-box JSMA rows only, behind feature squeezing: featurisation does
    # no work; batching, the two forwards of decide() and verdicts do.
    "serve-evasion": ServeWorkload((0.0, 0.0, 1.0), "feature_squeezing",
                                   fleet=False, closed_rps=20000, block=512,
                                   open_rate=2000),
    # The serve-logs stream through two forked workers: every request
    # crosses a process boundary as a ~14 KiB pickle.  A block is one
    # score_stream call.
    "fleet-logs": ServeWorkload((0.5, 0.4, 0.1), "none", fleet=True,
                                closed_rps=450, block=150, open_rate=200),
}
SWEEP_WORKLOAD = "sweep-paper"
WORKLOADS = tuple(SERVE_WORKLOADS) + (SWEEP_WORKLOAD,)

_CONTEXT_SPANS = ("experiments.corpus", "experiments.target_model",
                  "experiments.substitute_model", "experiments.attack_malware",
                  "experiments.greybox_adversarial")


@dataclass
class Outcome:
    """What one run measured: metrics, checks and the traced phases."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, str] = field(default_factory=dict)
    checks: Dict[str, object] = field(default_factory=dict)
    traced: Dict[str, tuple] = field(default_factory=dict)


@dataclass
class Block:
    """One timed block of work and the reference run next to it."""

    n: int
    wall_s: float
    cpu_s: float
    ref_wall_s: float
    ref_cpu_s: float

    @property
    def normalised_s(self) -> float:
        return self.wall_s * calibrate.NOMINAL_S / self.ref_wall_s

    @property
    def normalised_cpu_s(self) -> float:
        return self.cpu_s * calibrate.NOMINAL_S / self.ref_cpu_s


def per_unit(blocks: Sequence[Block], cpu: bool = False) -> float:
    """Median normalised seconds per unit of work over the blocks."""
    if cpu:
        return median(b.normalised_cpu_s / b.n for b in blocks)
    return median(b.normalised_s / b.n for b in blocks)


def new_context(cache_root) -> ExperimentContext:
    return ExperimentContext(scale=get_profile(SCALE), seed=MODEL_SEED,
                             cache=ArtifactCache(cache_root), dtype=DTYPE)


def prime(cache_root) -> None:
    """Build every cached artifact a workload loads (untimed; cheap when warm)."""
    context = new_context(cache_root)
    context.greybox_adversarial(theta=0.1, gamma=0.02)
    ModelRegistry(cache=context.cache).get("target", context=context)


def timed(work, n: int = 1, kernel: str = "serving") -> tuple:
    """Run ``work()`` between two reference runs: (its result, a :class:`Block`).

    A long block is scaled by the mean of the reference before and after it.
    """
    before = calibrate.reference(kernel=kernel)
    wall, cpu = time.perf_counter(), time.process_time()
    result = work()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    after = calibrate.reference(kernel=kernel)
    return result, Block(n, wall, cpu, (before[0] + after[0]) / 2,
                         (before[1] + after[1]) / 2)


def timed_setups(build, tracer=None) -> tuple:
    """Run ``build`` once per repeat (once, traced, under a tracer).

    Returns the last result and one :class:`Block` per repeat.  ``discard``
    releases what an earlier repeat built.
    """
    blocks, result = [], None
    for _ in range(1 if tracer is not None else SETUP_REPEATS):
        if result is not None:
            discard(result)
        with (tracer if tracer is not None else nullcontext()):
            result, block = timed(build)
        blocks.append(block)
    return result, blocks


def _import_in_child() -> float:
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "started = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - started)")
    here = Path(__file__).resolve().parent
    child = subprocess.run(
        [sys.executable, "-c", code, str(here), str(here.parent / "src")],
        capture_output=True, text=True, check=True, timeout=120)
    return float(child.stdout.split()[-1])


def import_seconds() -> float:
    """Median normalised seconds a fresh interpreter takes to import the
    program and this benchmark (``numpy``, ``repro``), over the repeats."""
    times = []
    for _ in range(SETUP_REPEATS):
        seconds, block = timed(_import_in_child)
        times.append(seconds * calibrate.NOMINAL_S / block.ref_wall_s)
    return median(times)


def discard(setup) -> None:
    fleet = getattr(setup, "fleet", None)
    if fleet is not None:
        fleet.close()


def _freeze_inputs() -> None:
    """Move everything alive now out of the garbage collector's reach.

    The benchmark holds whole request streams and every verdict of earlier
    phases in memory, which no server does; without this, full collections
    walking them would be timed as the program's pauses.  Garbage the
    program makes is still collected.
    """
    gc.collect()
    gc.freeze()


def _quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


# ---------------------------------------------------------------------- #
# Serve workloads
# ---------------------------------------------------------------------- #
@dataclass
class ServeSetup:
    servable: object
    detector: object
    pool: List[ScoringRequest]
    streams: Dict[str, tuple]          # phase -> (requests, pool picks)
    offsets: np.ndarray                # open-loop arrival offsets (s)
    service: Optional[ScoringService] = None
    fleet: Optional[WorkerFleet] = None


def _expand(pool: Sequence[ScoringRequest], n: int, rng, prefix: str):
    """``n`` requests sampled from the pool, each with its own payload."""
    picks = rng.integers(0, len(pool), size=n)
    requests = []
    for index, pick in enumerate(picks):
        payload = pool[pick].payload
        if isinstance(payload, ApiLog):
            payload = ApiLog(payload.sample_id, payload.os_version,
                             payload.label, list(payload.records))
        else:
            payload = payload.view()
        requests.append(ScoringRequest(f"{prefix}-{index:06d}", payload))
    return requests, picks


def stream_sizes(workload: ServeWorkload, seconds: float) -> tuple:
    n_closed = max(workload.block, round(workload.closed_rps * CLOSED_SHARE * seconds))
    n_open = max(LATENCY_WINDOW, round(workload.open_rate * OPEN_SHARE * seconds))
    return n_closed, n_open


def setup_serve(workload: ServeWorkload, seed: int, seconds: float,
                cache_root) -> ServeSetup:
    """Everything before the first timed request, from a primed cache."""
    context = new_context(cache_root)
    servable = ModelRegistry(cache=context.cache).get("target", context=context)
    detector = (None if workload.defense == "none" else
                scenario_registry.build_defense(workload.defense, context,
                                                model=servable.model))
    loadgen = LoadGenerator(context, mix=TrafficMix(*workload.mix), seed=seed)
    pool = loadgen.generate(POOL_REQUESTS)
    n_closed, n_open = stream_sizes(workload, seconds)
    rng = np.random.default_rng((seed, 1))
    setup = ServeSetup(servable=servable, detector=detector, pool=pool,
                       streams={"closed": _expand(pool, n_closed, rng, "closed"),
                                "open": _expand(pool, n_open, rng, "open")},
                       offsets=loadgen.arrival_times(n_open, workload.open_rate))
    if workload.fleet:
        setup.fleet = WorkerFleet(
            n_workers=FLEET_WORKERS, model="target", defense=workload.defense,
            context=context, max_batch_size=MAX_BATCH_SIZE,
            max_delay_ms=MAX_DELAY_MS, start_method=START_METHOD).start()
    else:
        setup.service = ScoringService(servable, detector=detector,
                                       max_batch_size=MAX_BATCH_SIZE,
                                       max_delay_ms=MAX_DELAY_MS)
    return setup


@dataclass
class Phase:
    """One timed pass over a stream."""

    verdicts: list
    blocks: List[Block] = field(default_factory=list)  # closed loop
    elapsed_s: float = 0.0
    latency_ms: Optional[np.ndarray] = None   # open loop, per request
    late_ms: Optional[np.ndarray] = None      # open loop, sender lateness
    sent: Optional[np.ndarray] = None         # open loop, submit times
    wait_ms: Optional[np.ndarray] = None      # open loop, submit to flush start
    window_references: list = field(default_factory=list)  # open loop, seconds
    reports: list = field(default_factory=list)  # fleet reports
    dispatcher_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0


def closed_inprocess(service: ScoringService, requests, block_size: int,
                     tracer=None) -> Phase:
    """One caller: ``submit`` back to back, then ``drain``, timed per block."""
    verdicts: list = []
    blocks = []
    submit = service.submit
    clock, cpu_clock = time.perf_counter, time.process_time
    with (tracer if tracer is not None else nullcontext()):
        for first in range(0, len(requests), block_size):
            ref_wall, ref_cpu = calibrate.reference_block()
            block = requests[first:first + block_size]
            wall, cpu = clock(), cpu_clock()
            for request in block:
                fresh = submit(request)
                if fresh:
                    verdicts.extend(fresh)
            if first + block_size >= len(requests):
                verdicts.extend(service.drain())
            blocks.append(Block(len(block), clock() - wall, cpu_clock() - cpu,
                                ref_wall, ref_cpu))
    return Phase(verdicts, blocks, elapsed_s=sum(b.wall_s for b in blocks))


def closed_fleet(fleet: WorkerFleet, requests, block_size: int,
                 tracer=None) -> Phase:
    """Blocks of the stream, each one ``score_stream`` call enqueued back to back.

    CPU counts the dispatcher and the workers, which ``score_stream`` reaps
    before it returns.  The fleet is (re)started untimed before each block,
    and the tracer only wraps the dispatcher: workers fork untraced.
    """
    phase = Phase([])
    for first in range(0, len(requests), block_size):
        chunk = requests[first:first + block_size]
        ref_wall, ref_cpu = calibrate.reference()
        fleet.start()
        self0 = _cpu_s(resource.RUSAGE_SELF)
        children0 = _cpu_s(resource.RUSAGE_CHILDREN)
        with (tracer if tracer is not None else nullcontext()):
            wall = time.perf_counter()
            verdicts, report = fleet.score_stream(chunk)
            wall = time.perf_counter() - wall
        dispatcher = _cpu_s(resource.RUSAGE_SELF) - self0
        workers = _cpu_s(resource.RUSAGE_CHILDREN) - children0
        phase.verdicts.extend(verdicts)
        phase.reports.append(report)
        phase.dispatcher_cpu_s += dispatcher
        phase.worker_cpu_s += workers
        phase.blocks.append(Block(len(chunk), wall, dispatcher + workers,
                                  ref_wall, ref_cpu))
    phase.elapsed_s = sum(b.wall_s for b in phase.blocks)
    return phase


def open_inprocess(service: ScoringService, requests, offsets) -> Phase:
    """Poisson arrivals, sent in windows; each request timed from its due time.

    Between arrivals the sender polls the service whenever its flush
    deadline falls first, like ``repro.serving.loadgen.replay``.  It spins
    instead of sleeping: on a virtual machine a sleeping vCPU can take
    3-16 ms to wake, which would be timed as the program's latency.  The
    reference kernel runs before each window of ``LATENCY_WINDOW`` requests,
    whose schedule then resumes; a window ends when its last batch flushed.
    """
    n = len(requests)
    index = {request.request_id: i for i, request in enumerate(requests)}
    offsets = np.asarray(offsets)
    due, sent = np.empty(n), np.empty(n)
    done_at, flushed_at = np.full(n, np.nan), np.full(n, np.nan)
    verdicts: list = []
    references = []
    clock = time.perf_counter

    def collect(call, *args) -> None:
        called = clock()
        fresh = call(*args)
        if fresh:
            now = clock()
            for verdict in fresh:
                i = index[verdict.request_id]
                done_at[i], flushed_at[i] = now, called
            verdicts.extend(fresh)

    def serve_until(moment: float) -> None:
        while True:
            deadline = service.deadline
            wake = moment if deadline is None else min(moment, deadline)
            while clock() < wake:
                pass
            collect(service.poll)
            if wake >= moment:
                return

    started = clock()
    for first in range(0, n, LATENCY_WINDOW):
        last = min(first + LATENCY_WINDOW, n)
        references.append(calibrate.reference()[0])
        due[first:last] = clock() - offsets[first] + offsets[first:last]
        for i in range(first, last):
            serve_until(due[i])
            sent[i] = clock()
            collect(service.submit, requests[i])
        while service.pending:
            serve_until(service.deadline)
    return Phase(verdicts, elapsed_s=clock() - started,
                 latency_ms=(done_at - due) * 1e3, late_ms=(sent - due) * 1e3,
                 sent=sent, wait_ms=(flushed_at - sent) * 1e3,
                 window_references=references)


def open_fleet(fleet: WorkerFleet, requests, offsets, rate: float,
               seed: int) -> Phase:
    """Poisson dispatch by the fleet; verdicts timed as they reach the caller.

    ``score_stream`` paces with the same seeded schedule as
    ``LoadGenerator.arrival_times``; its ``progress`` hook timestamps each
    verdict's return.  The dispatcher's lateness is not visible from
    outside, so ``late_ms`` holds one value: how long after the last due
    time the first verdict reached the caller.
    """
    n = len(requests)
    index = {request.request_id: i for i, request in enumerate(requests)}
    done_at = np.full(n, np.nan)
    marks: dict = {}

    def progress(info) -> None:
        now = time.perf_counter()
        if "started" not in marks:
            marks["started"] = now - info["elapsed_s"]
        if info["new_verdicts"]:
            marks.setdefault("first", now)
        for verdict in info["new_verdicts"]:
            done_at[index[verdict.request_id]] = now

    started = time.perf_counter()
    verdicts, report = fleet.score_stream(requests, rate_per_s=rate, seed=seed,
                                          progress=progress)
    due = marks["started"] + np.asarray(offsets)
    return Phase(verdicts, elapsed_s=time.perf_counter() - started,
                 latency_ms=(done_at - due) * 1e3,
                 late_ms=np.array([(marks["first"] - due[-1]) * 1e3]),
                 reports=[report])


def window_quantiles(windows) -> tuple:
    """(p50, p99) of latency measured in windows.

    p50 is the median of the windows' medians.  p99 is the lower quartile
    of the windows' p99s: on a shared virtual machine a burst of steal time
    sets the p99 of whichever windows it falls in, and the lower quartile
    still moves with every window's tail but not with a few such bursts.
    """
    return (median(_quantile(window, 50) for window in windows),
            _quantile([_quantile(window, 99) for window in windows], 25))


def latency_summary(phase: Phase) -> tuple:
    """(p50, p99, windows) over windows of ``LATENCY_WINDOW`` requests.

    In-process, each request's compute part — sender lateness and flush
    time — is scaled to the nominal machine by the reference run before its
    window; the wait from submit to the flush that takes it is set by the
    batching deadline and kept as measured.  The fleet's latency is its
    dispatch schedule's and is kept as measured.  A request without a
    verdict never meets a limit, so it counts as infinitely late.
    """
    latency = np.where(np.isnan(phase.latency_ms), np.inf, phase.latency_ms)
    starts = range(0, latency.size - LATENCY_WINDOW + 1, LATENCY_WINDOW)
    windows = []
    for k, first in enumerate(starts):
        window = latency[first:first + LATENCY_WINDOW]
        if phase.window_references:
            wait = phase.wait_ms[first:first + LATENCY_WINDOW]
            window = wait + (window - wait) * (calibrate.NOMINAL_S
                                               / phase.window_references[k])
        windows.append(window)
    return window_quantiles(windows) + (len(windows),)


def check_serve(setup: ServeSetup, runs) -> Dict[str, object]:
    """Exactly one verdict per request, and labels equal to the direct path.

    ``runs`` holds ``(requests, pool picks, verdicts)`` per timed pass.  The
    direct path featurises the pool of distinct requests with
    ``pipeline.transform`` and scores it in one call: ``model.predict`` on
    the bare endpoint, ``detector.decide`` behind a defense.  Probabilities
    that are not bitwise equal to that call are counted, not gated.
    """
    pool_rows = np.zeros((len(setup.pool), setup.servable.n_features))
    logs = [i for i, request in enumerate(setup.pool)
            if not isinstance(request.payload, np.ndarray)]
    rows = [i for i, request in enumerate(setup.pool)
            if isinstance(request.payload, np.ndarray)]
    if logs:
        pool_rows[logs] = setup.servable.pipeline.transform(
            [setup.pool[i].payload for i in logs])
    if rows:
        pool_rows[rows] = np.stack([setup.pool[i].payload for i in rows])
    if setup.detector is not None:
        pool_probabilities, pool_labels = setup.detector.decide(pool_rows)
    else:
        pool_probabilities = setup.servable.model.malware_confidence(pool_rows)
        pool_labels = setup.servable.model.predict(pool_rows)

    counts = Counter(lost=0, duplicated=0, unknown=0, not_scored=0,
                     label_mismatches=0, prob_bitwise_mismatches=0, flagged=0)
    n_requests = 0
    for requests, picks, verdicts in runs:
        position = {request.request_id: i for i, request in enumerate(requests)}
        seen = Counter(verdict.request_id for verdict in verdicts)
        counts["lost"] += sum(1 for request_id in position if request_id not in seen)
        counts["duplicated"] += sum(n - 1 for n in seen.values() if n > 1)
        counts["unknown"] += sum(1 for request_id in seen if request_id not in position)
        for verdict in verdicts:
            i = position.get(verdict.request_id)
            if i is None:
                continue
            if not verdict.is_scored:
                counts["not_scored"] += 1
                continue
            counts["flagged"] += verdict.is_malware
            counts["label_mismatches"] += verdict.label != int(pool_labels[picks[i]])
            counts["prob_bitwise_mismatches"] += (
                verdict.malware_probability != float(pool_probabilities[picks[i]]))
        n_requests += len(requests)
    checks = dict(counts)
    checks["requests"] = n_requests
    checks["ok"] = (checks["lost"] == checks["duplicated"] == checks["unknown"]
                    == checks["label_mismatches"] == 0)
    return checks


def _scored(verdicts) -> int:
    return sum(1 for verdict in verdicts if verdict.is_scored)


def _closed(setup: ServeSetup, workload: ServeWorkload, tracer=None) -> Phase:
    requests = setup.streams["closed"][0]
    if setup.fleet is not None:
        return closed_fleet(setup.fleet, requests, workload.block, tracer)
    return closed_inprocess(setup.service, requests, workload.block, tracer)


def run_serve(workload: ServeWorkload, seed: int, seconds: float, trace: bool,
              cache_root) -> Outcome:
    out = Outcome()
    tracer = tracing.Tracer() if trace else None
    setup: Optional[ServeSetup] = None
    try:
        setup, setups = timed_setups(
            lambda: setup_serve(workload, seed, seconds, cache_root), tracer)
        _freeze_inputs()
        if trace:
            out.traced["setup"] = (tracer.take(), setups[0].wall_s)
            # The set-up fleet's workers forked with the wrappers installed.
            discard(setup)
        closed_requests, closed_picks = setup.streams["closed"]
        open_requests, open_picks = setup.streams["open"]
        runs = []
        closed = _closed(setup, workload)
        runs.append((closed_requests, closed_picks, closed.verdicts))
        traced_closed = None
        if trace:
            traced_closed = _closed(setup, workload, tracer)
            out.traced["closed"] = (tracer.take(), traced_closed.elapsed_s)
            runs.append((closed_requests, closed_picks, traced_closed.verdicts))
        if setup.fleet is not None:
            setup.fleet.start()
        _freeze_inputs()
        with (tracer if trace else nullcontext()):
            if setup.fleet is not None:
                opened = open_fleet(setup.fleet, open_requests, setup.offsets,
                                    workload.open_rate, seed)
            else:
                opened = open_inprocess(setup.service, open_requests, setup.offsets)
        if trace:
            out.traced["open"] = (tracer.take(), opened.elapsed_s)
        runs.append((open_requests, open_picks, opened.verdicts))
    finally:
        if tracer is not None:
            tracer.restore()
        if setup is not None:
            discard(setup)

    checks = check_serve(setup, runs)
    out.checks = checks
    out.attempted = checks["requests"]
    out.failed = checks["requests"] - sum(_scored(verdicts) for _, _, verdicts in runs)
    p50, p99, n_windows = latency_summary(opened)
    if not trace:
        out.metrics = {
            "setup_s": import_seconds() + per_unit(setups),
            "throughput_per_s": 1.0 / per_unit(closed.blocks),
            "cpu_ms_per_op": per_unit(closed.blocks, cpu=True) * 1e3,
            "p50_ms": p50,
            "peak_rss_mb": peak_rss_mb(),
        }
        n_closed, n_blocks = len(closed_requests), len(closed.blocks)
        out.samples = {
            "setup_s": f"{len(setups)} set-ups",
            "throughput_per_s": f"{n_closed} requests, {n_blocks} blocks",
            "cpu_ms_per_op": f"{n_closed} requests, {n_blocks} blocks",
            "p50_ms": f"{len(open_requests)} requests, {n_windows} windows",
            "peak_rss_mb": "1 process"}
        return out

    metrics = _setup_layers(out.traced["setup"][0])
    metrics.update(_serving_layers(out.traced["closed"][0], out.traced["open"][0],
                                   opened))
    reliability = ([setup.service.reliability] if setup.service is not None else
                   [report.reliability for phase in (closed, traced_closed, opened)
                    for report in phase.reports])
    metrics["serving.sheds"] = sum(report.sheds for report in reliability)
    metrics["serving.errors"] = sum(report.isolated for report in reliability)
    metrics["serving.flush_retries"] = sum(report.flush_retries for report in reliability)
    metrics["serving.prob_bitwise_mismatches"] = checks["prob_bitwise_mismatches"]
    metrics["latency.p99_ms"] = p99
    metrics["loadgen.late_p99_ms"] = _quantile(opened.late_ms, 99)
    metrics["trace.overhead"] = per_unit(traced_closed.blocks) / per_unit(closed.blocks) - 1.0
    if setup.fleet is not None:
        metrics.update(_fleet_layers(traced_closed, closed_requests,
                                     [closed, traced_closed, opened]))
    out.metrics = metrics
    return out


def _setup_layers(spans) -> Dict[str, float]:
    table = tracing.span_table(spans)
    entry = lambda name: table.get(name, {"calls": 0, "rows": 0, "total_s": 0.0})
    context_s = sum(span.duration for span in spans
                    if span.name in _CONTEXT_SPANS
                    and (span.parent < 0 or spans[span.parent].name not in _CONTEXT_SPANS))
    return {
        "experiments.context_load_ms": context_s * 1e3,
        "serving.registry_get_ms": _per(entry("serving.registry_get")["total_s"],
                                        entry("serving.registry_get")["calls"], 1e3),
        "defenses.fit_ms": _per(entry("defenses.fit")["total_s"],
                                entry("defenses.fit")["calls"], 1e3),
        "fleet.start_ms": entry("fleet.start")["total_s"] * 1e3,
        "serving.loadgen_ms_per_req": _per(entry("serving.loadgen")["total_s"],
                                           entry("serving.loadgen")["rows"], 1e3),
    }


def _serving_layers(closed_spans, open_spans, opened: Phase) -> Dict[str, float]:
    table = tracing.span_table(closed_spans, open_spans)
    get = lambda name, key: table.get(name, {}).get(key, 0)
    flushes = [span for span in closed_spans + open_spans
               if span.name == "serving.flush" and span.rows]
    n_rows = sum(span.rows for span in flushes)
    metrics = {
        "apilog.api_counts_us_per_log": _per(get("apilog.api_counts", "self_s"),
                                             get("apilog.api_counts", "calls"), 1e6),
        "features.extract_us_per_log": _per(get("features.extract_batch", "self_s"),
                                            get("features.extract_batch", "rows"), 1e6),
        "features.transform_us_per_row": _per(get("features.transform", "total_s"),
                                              get("features.transform", "rows"), 1e6),
        "features.share": _per(get("features.extract_batch", "total_s")
                               + get("features.transform", "total_s"),
                               get("serving.flush", "total_s")),
        "serving.flushes": len(flushes),
        "serving.rows_per_flush": _per(n_rows, len(flushes)),
        "serving.flush_ms_p50": (_quantile([span.duration for span in flushes], 50) * 1e3
                                 if flushes else 0.0),
        "serving.verdict_us_per_req": _per(get("serving.flush", "self_s"), n_rows, 1e6),
        "nn.forward_us_per_row": _per(get("nn.forward", "total_s"),
                                      get("nn.forward", "rows"), 1e6),
        "nn.forward_rows": _per(get("nn.forward", "rows"), n_rows),
        "defenses.decide_us_per_row": _per(get("defenses.decide", "self_s"),
                                           get("defenses.decide", "rows"), 1e6),
    }
    # Micro-batches flush FIFO, so request i sits in the flush whose
    # cumulative row count first exceeds i.
    open_flushes = [span for span in open_spans
                    if span.name == "serving.flush" and span.rows]
    if opened.sent is not None and open_flushes and \
            sum(span.rows for span in open_flushes) == opened.sent.size:
        bounds = np.cumsum([span.rows for span in open_flushes])
        starts = np.array([span.start for span in open_flushes])
        holder = np.searchsorted(bounds, np.arange(opened.sent.size), side="right")
        waits = (starts[holder] - opened.sent) * 1e3
        metrics["serving.batch_wait_ms_p50"] = _quantile(waits, 50)
        metrics["serving.batch_wait_ms_p99"] = _quantile(waits, 99)
    return metrics


def _fleet_layers(traced: Phase, requests, phases) -> Dict[str, float]:
    n = len(requests)
    per_worker = [[worker["n_requests"] for worker in report.per_worker]
                  for report in traced.reports]
    batches = sum(worker["n_batches"] for report in traced.reports
                  for worker in report.per_worker)
    reports = [report for phase in phases for report in phase.reports]
    sample = requests[:POOL_REQUESTS]
    return {
        "fleet.ipc_bytes_per_req": float(np.mean(
            [len(pickle.dumps(request, pickle.HIGHEST_PROTOCOL)) for request in sample])),
        "fleet.dispatcher_cpu_ms_per_req": traced.dispatcher_cpu_s * 1e3 / n,
        "fleet.worker_cpu_ms_per_req": traced.worker_cpu_s * 1e3 / n,
        "fleet.rows_per_batch": _per(sum(map(sum, per_worker)), batches),
        "fleet.worker_imbalance": median(_per(max(counts), min(counts))
                                         for counts in per_worker),
        "fleet.redispatches": sum(report.reliability.redispatches for report in reports),
        "fleet.restarts": sum(report.reliability.restarts for report in reports),
        "fleet.worker_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------- #
# sweep-paper: the paper's security curves, no serving layer
# ---------------------------------------------------------------------- #
#: (curve, points per pass); one pass is 7 + 7 + 13 operating points.
CURVES = (("gamma_wb", len(PAPER_GAMMA_GRID)), ("gamma_gb", len(PAPER_GAMMA_GRID)),
          ("theta_wb", len(PAPER_THETA_GRID)))
POINTS_PER_PASS = sum(points for _, points in CURVES)


@dataclass
class SweepSetup:
    target: object        # NeuralNetwork of the deployed detector
    substitute: object    # NeuralNetwork the grey-box attacker crafts on
    features: np.ndarray  # the 200-sample attack-malware set


def setup_sweep(seed: int, cache_root) -> SweepSetup:
    """The paper's attack-malware set, its rows in a seeded order.

    Every seed attacks the same samples, so every seed does the same
    attack work; the seed decides the order rows are batched in.
    """
    context = new_context(cache_root)
    features = context.attack_malware.features
    order = np.random.default_rng((seed, 2)).permutation(features.shape[0])
    return SweepSetup(target=context.target_model.network,
                      substitute=context.substitute_model.network,
                      features=np.ascontiguousarray(features[order]))


def _curve(setup: SweepSetup, name: str, strategy: str = "replay"):
    if name == "gamma_wb":
        return gamma_sweep(lambda c: JsmaAttack(setup.target, constraints=c),
                           setup.features, {"target": setup.target},
                           theta=SWEEP_THETA, gamma_values=PAPER_GAMMA_GRID,
                           strategy=strategy)
    if name == "gamma_gb":
        return gamma_sweep(
            lambda c: JsmaAttack(setup.substitute, constraints=c, early_stop=False),
            setup.features, {"target": setup.target, "substitute": setup.substitute},
            theta=SWEEP_THETA, gamma_values=PAPER_GAMMA_GRID, strategy=strategy)
    return theta_sweep(lambda c: JsmaAttack(setup.target, constraints=c),
                       setup.features, {"target": setup.target},
                       gamma=SWEEP_GAMMA, theta_values=PAPER_THETA_GRID)


def _sweep_passes(setup: SweepSetup, budget_s: float, min_passes: int,
                  tracer=None) -> tuple:
    """Whole passes until ``budget_s`` is used.

    Returns the curves' rows per pass and, per pass, one :class:`Block`
    per curve (``n`` = the curve's points).
    """
    passes, blocks = [], []
    started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - started < budget_s:
        rows, curve_blocks = {}, []
        for name, n_points in CURVES:
            def work(name=name):
                span = tracer.open(f"sweep.{name}") if tracer is not None else None
                curve_rows = _curve(setup, name).as_rows()
                if span is not None:
                    tracer.close(span)
                return curve_rows

            rows[name], block = timed(work, n_points, kernel="gradients")
            curve_blocks.append(block)
        passes.append(rows)
        blocks.append(curve_blocks)
    return passes, blocks


def _pass_seconds(pass_blocks: Sequence[Block], cpu: bool = False) -> float:
    """Normalised seconds of one whole pass."""
    if cpu:
        return sum(b.normalised_cpu_s for b in pass_blocks)
    return sum(b.normalised_s for b in pass_blocks)


def _point_latency_ms(pass_blocks: Sequence[Block]) -> List[float]:
    """Each operating point arrives when its curve returns."""
    return [b.normalised_s * 1e3 for b in pass_blocks for _ in range(b.n)]


def check_sweep(setup: SweepSetup, passes) -> Dict[str, object]:
    """γ replay equals the per-point oracle; every pass gives the same curves."""
    first = passes[0]
    checks = {
        "passes": len(passes),
        "passes_identical": all(rows == first for rows in passes[1:]),
        "gamma_wb_equals_per_point":
            _curve(setup, "gamma_wb", "per_point").as_rows() == first["gamma_wb"],
        "gamma_gb_equals_per_point":
            _curve(setup, "gamma_gb", "per_point").as_rows() == first["gamma_gb"],
        "detection_at_max_gamma_gb_target":
            first["gamma_gb"][-1]["detection_rate[target]"],
    }
    checks["ok"] = (checks["passes_identical"] and checks["gamma_wb_equals_per_point"]
                    and checks["gamma_gb_equals_per_point"])
    return checks


def run_sweep(seed: int, seconds: float, trace: bool, cache_root) -> Outcome:
    out = Outcome()
    tracer = tracing.Tracer() if trace else None
    setup, setups = timed_setups(lambda: setup_sweep(seed, cache_root), tracer)
    _freeze_inputs()
    if not trace:
        passes, blocks = _sweep_passes(setup, seconds, 2)
        points = POINTS_PER_PASS * len(passes)
        p50, _ = window_quantiles([_point_latency_ms(pass_blocks)
                                   for pass_blocks in blocks])
        out.metrics = {
            "setup_s": import_seconds() + per_unit(setups),
            "throughput_per_s": POINTS_PER_PASS / median(map(_pass_seconds, blocks)),
            "cpu_ms_per_op": median(_pass_seconds(pass_blocks, cpu=True)
                                    for pass_blocks in blocks) * 1e3 / POINTS_PER_PASS,
            "p50_ms": p50,
            "peak_rss_mb": peak_rss_mb(),
        }
        out.samples = {
            "setup_s": f"{len(setups)} set-ups",
            "throughput_per_s": f"{points} points, {len(passes)} passes",
            "cpu_ms_per_op": f"{points} points, {len(passes)} passes",
            "p50_ms": f"{points} points, {len(passes)} passes",
            "peak_rss_mb": "1 process"}
    else:
        out.traced["setup"] = (tracer.take(), setups[0].wall_s)
        base, base_blocks = _sweep_passes(setup, TRACE_BASELINE_SHARE * seconds, 1)
        with tracer:
            traced, traced_blocks = _sweep_passes(
                setup, (1.0 - TRACE_BASELINE_SHARE) * seconds, 1, tracer)
        spans = tracer.take()
        out.traced["passes"] = (spans, sum(b.wall_s for pass_blocks in traced_blocks
                                           for b in pass_blocks))
        passes = base + traced
        points = POINTS_PER_PASS * len(passes)
        metrics = _setup_layers(out.traced["setup"][0])
        metrics.update(_sweep_layers(spans, len(traced)))
        metrics["latency.p99_ms"] = window_quantiles(
            [_point_latency_ms(pass_blocks) for pass_blocks in traced_blocks])[1]
        metrics["trace.overhead"] = (median(map(_pass_seconds, traced_blocks))
                                     / median(map(_pass_seconds, base_blocks)) - 1.0)
        out.metrics = metrics
    out.checks.update(check_sweep(setup, passes))
    out.attempted = points
    out.failed = 0
    return out


def _sweep_layers(spans, n_passes: int) -> Dict[str, float]:
    table = tracing.span_table(spans)
    get = lambda name, key: table.get(name, {}).get(key, 0)
    calls = get("nn.class_gradients", "calls")
    return {
        "nn.forward_us_per_row": _per(get("nn.forward", "total_s"),
                                      get("nn.forward", "rows"), 1e6),
        "nn.forward_rows": _per(get("nn.forward", "rows"), n_passes),
        "nn.class_gradients_ms": _per(get("nn.class_gradients", "total_s"), n_passes, 1e3),
        "nn.class_gradients_calls": _per(calls, n_passes),
        "nn.class_gradients_rows_per_call": _per(get("nn.class_gradients", "rows"), calls),
        "attacks.jsma_self_ms": _per(get("attacks.jsma_run", "self_s"), n_passes, 1e3),
        "attacks.materialize_ms": _per(get("attacks.materialize", "total_s"), n_passes, 1e3),
        "evaluation.score_points_ms": _per(get("evaluation.score_points", "total_s"),
                                           n_passes, 1e3),
        "sweep.gamma_wb_s": _quantile(tracing.durations(spans, "sweep.gamma_wb"), 50),
        "sweep.gamma_gb_s": _quantile(tracing.durations(spans, "sweep.gamma_gb"), 50),
        "sweep.theta_wb_s": _quantile(tracing.durations(spans, "sweep.theta_wb"), 50),
    }
