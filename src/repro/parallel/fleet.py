"""Multi-process replicated serving: N scoring workers behind one queue.

:class:`WorkerFleet` replicates the single-process
:class:`~repro.serving.service.ScoringService` across N worker processes.
A shared task queue dispatches requests to whichever worker is free (dynamic
load balancing); each worker runs its *own*
:class:`~repro.serving.batcher.MicroBatcher`, so fused-batch scoring and the
``max_delay_ms`` latency SLO hold per replica, and reports its
:class:`~repro.serving.stats.LatencyTracker` observations back for one
aggregated :class:`~repro.serving.stats.ThroughputReport`.

The bundle every replica serves is built **once** in the dispatcher process
(cold build or cache warm start) before the workers launch: under ``fork``
the workers inherit the live servable/detector, under ``spawn`` they reload
it from the shared artifact cache.  Because every replica serves the same
versioned bundle, verdict *contents* (probability, label, model version) are
identical to a single service's — only latency observations differ — and
results are merged in submission order, so a fleet replay is deterministic
apart from timing.

Wire format
-----------
A task-queue message is a *chunk*: a list of ``(seq, request, enqueued_at)``
triples.  Closed-loop streams are cut into chunks of
:func:`chunk_size` requests so one pickle, one queue hop and one claim cover
many requests; paced streams send each request as it falls due, in a chunk
of one.  A raw :class:`~repro.apilog.ApiLog` payload travels as its
API-count mapping (:func:`wire_counts`), one bincount of its records'
interned API codes: it featurises to the same row bit for bit, and it
pickles to a fraction of the log's records.

Supervision
-----------
The dispatcher runs a claim/ack protocol: a replica announces
``("claim", id, [seq, ...])`` for a whole chunk the moment it pulls the
chunk off the dispatch queue, and the dispatcher clears each claim when
that request's verdict arrives.  When a replica dies — detected through its
dying-gasp ``("crashed", ...)`` message or a liveness poll — every
claimed-but-unanswered request is re-enqueued exactly once (verdict dedup
guards the race), and a replacement replica is launched while the restart
budget lasts.  Every recovery event is counted once, as a counter of the
dispatcher's or a replica's instrumentation; each replica ships its
counters home in one snapshot, and the
:class:`~repro.reliability.report.ReliabilityReport` carried by the
:class:`FleetReport` reads the merged counters.  A
:class:`~repro.reliability.faults.FaultPlan` can be armed to inject
crashes, flush failures, latency spikes and malformed payloads at the
``fleet.dispatch`` (once per request, not per chunk) / ``service.flush``
sites.
"""

from __future__ import annotations

import math
import os
import queue as queue_module
import time
from contextlib import nullcontext
from dataclasses import asdict as dataclass_asdict
from dataclasses import replace as dataclass_replace
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.apilog import ApiLog
from repro.apilog.log_format import api_code_names, api_codes
from repro.config import ScaleProfile, get_profile
from repro.exceptions import ParallelError
from repro.experiments.context import ExperimentContext
from repro.obs import Instrumentation, ListSink, instrumented
from repro.obs.slo import SLOMonitor, SLOSpec
from repro.obs.spans import TraceStamper
from repro.parallel.pool import (
    RemoteFailure,
    resolve_start_method,
    resolve_workers,
)
from repro.reliability import (
    FaultInjector,
    FaultPlan,
    ReliabilityReport,
    RetryPolicy,
    WorkerCrash,
    maybe_fire,
    record_faults,
)
from repro.serving.stats import LatencyTracker, ThroughputReport
from repro.utils.artifact_cache import ArtifactCache

__all__ = ["WorkerFleet", "FleetReport"]

#: Live objects staged for ``fork`` workers: the parent-built servable and
#: detector.  Populated only while worker processes are being launched.
_FLEET_FORK_STATE: Dict[str, object] = {}

#: How often the dispatcher wakes from the result queue to poll liveness.
_LIVENESS_POLL_S = 0.25

#: Per-worker cap on buffered ObsEvents shipped back with the stats message
#: (oldest dropped first; the drop count travels in the snapshot).
_WORKER_OBS_EVENT_CAP = 4096


def _build_service(config: Mapping[str, object],
                   injector: Optional[FaultInjector] = None,
                   instrumentation: Optional[Instrumentation] = None):
    """Build one worker's ScoringService (inheriting fork state if present)."""
    from repro.serving.registry import ModelRegistry
    from repro.serving.service import ScoringService

    servable = _FLEET_FORK_STATE.get("servable")
    detector = _FLEET_FORK_STATE.get("detector")
    if servable is None:
        cache = (ArtifactCache(config["cache_root"])
                 if config.get("cache_root") else None)
        context = ExperimentContext(
            scale=ScaleProfile(**config["scale_fields"]),
            seed=config["seed"], cache=cache, dtype=config["dtype"])
        registry = ModelRegistry(cache=cache)
        servable = registry.get(config["model"], context=context)
        detector = _build_detector(config, context, servable)
    retry_payload = config.get("retry_policy")
    slo_payload = config.get("slo")
    slo = (SLOMonitor([SLOSpec.from_dict(spec) for spec in slo_payload],
                      instrumentation=instrumentation)
           if slo_payload else None)
    return ScoringService(
        servable, detector=detector, threshold=config["threshold"],
        max_batch_size=config["max_batch_size"],
        max_delay_ms=config["max_delay_ms"],
        retry_policy=(RetryPolicy.from_dict(retry_payload)
                      if retry_payload is not None else None),
        # A poison request must cost one error verdict, not one replica.
        isolate_poison=True,
        injector=injector,
        instrumentation=instrumentation,
        slo=slo)


def _build_detector(config: Mapping[str, object], context: ExperimentContext,
                    servable):
    from repro.scenarios.registry import DEFENSES, build_defense, ensure_registries

    ensure_registries()
    if DEFENSES.get(config["defense"]).entry_id == "none":
        return None
    return build_defense(config["defense"], context,
                         config.get("defense_params") or {},
                         model=servable.model)


def wire_counts(log: ApiLog) -> Dict[str, int]:
    """The form a log payload travels in on the task queue.

    One bincount over the records' interned codes: a coded call counts
    under its canonical lower-case name, a ``-1`` call under its raw name.
    Featurisation resolves a name case-insensitively, so the mapping
    featurises to the same row as the log bit for bit, case variants and
    unmonitored names included.
    """
    records = log.records
    counts = np.bincount(api_codes(records, len(records)) + 1, minlength=1)
    known = np.flatnonzero(counts[1:])
    names = api_code_names()
    wire = dict(zip(map(names.__getitem__, known.tolist()),
                    counts[known + 1].tolist()))
    if counts[0]:
        for record in records:
            if record.code < 0:
                wire[record.api] = wire.get(record.api, 0) + 1
    return wire


def chunk_size(n_requests: int, max_batch_size: int, n_workers: int) -> int:
    """Requests per task-queue message in a closed-loop stream.

    About four chunks per replica keep the load balanced while a chunk's
    pickle, queue hop and claim are shared by its requests; a chunk never
    exceeds one fused batch.
    """
    return min(max_batch_size, math.ceil(n_requests / (4 * n_workers)))


def _ledger_snapshot(service, injector: Optional[FaultInjector]
                     ) -> Dict[str, object]:
    """A replica's counters (fired faults folded in) for the trip home."""
    if injector is not None:
        record_faults(service.instrumentation, injector.fired)
    return service.instrumentation.snapshot()


def _fleet_worker(worker_id: int, config: Dict[str, object],
                  task_queue, result_queue) -> None:
    """One replica: pull request chunks, micro-batch them, ship verdicts back.

    Each task-queue item is a chunk — a list of ``(seq, ScoringRequest,
    enqueued_at)`` triples whose log payloads arrive as API-count mappings
    (see :func:`wire_counts`) — or the ``None`` stop sentinel.  Protocol
    on ``result_queue``: ``("ready", id, None)`` after startup,
    ``("claim", id, [seq, ...])`` the moment a chunk is pulled off the
    dispatch queue, ``("verdicts", id, [(seq, Verdict), ...])`` per flush,
    ``("stats", id, {...})`` after the stop sentinel, ``("crashed", id,
    snapshot)`` as the dying gasp of an injected crash, and ``("failed", id, RemoteFailure)`` on any other error.  The
    requests of a chunk go through the replica's micro-batcher one by one,
    so a chunk may span flushes and a flush may span chunks.  Verdicts
    carry the dispatcher-assigned sequence numbers so the merge is
    submission-ordered regardless of which replica scored what.
    """
    plan_payload = config.get("fault_plan")
    injector = (FaultPlan.from_dict(plan_payload).injector(
        scope={"worker": worker_id}) if plan_payload else None)
    # The replica's service counts its reliability events in one
    # instrumentation, whose snapshot rides home on the stats (or crash)
    # message — no extra queue, no extra pickle per verdict.  When the
    # dispatcher observes, that instrumentation is this collector, and the
    # snapshot also carries spans and a bounded event buffer.  The span-id
    # namespace is ``worker_id + 1`` (restarts get a fresh worker id), so
    # replica spans never collide with the dispatcher's (namespace 0) or
    # another replica's in a stitched trace.
    obs = (Instrumentation(sink=ListSink(max_events=_WORKER_OBS_EVENT_CAP),
                           tags={"worker": worker_id},
                           namespace=worker_id + 1)
           if config.get("observe") else None)
    service = None
    try:
        # Ambient scope covers the bundle build too, so warm-start cache
        # hits/misses of spawn workers land in the worker's counters.
        with instrumented(obs) if obs is not None else nullcontext():
            service = _build_service(config, injector=injector,
                                     instrumentation=obs)
    except BaseException as error:  # noqa: BLE001 - shipped to the dispatcher
        result_queue.put(("failed", worker_id,
                          RemoteFailure.capture(f"worker {worker_id} startup",
                                                error)))
        return
    result_queue.put(("ready", worker_id, None))
    pending: Dict[str, int] = {}

    def emit(verdicts) -> None:
        # Shed verdicts can overtake queued requests, so sequence numbers
        # are paired by request id (unique per stream) rather than FIFO.
        if verdicts:
            result_queue.put(("verdicts", worker_id,
                              [(pending.pop(verdict.request_id), verdict)
                               for verdict in verdicts]))

    try:
        while True:
            deadline = service.deadline
            timeout = (None if deadline is None
                       else max(0.0, deadline - time.perf_counter()))
            try:
                item = task_queue.get(timeout=timeout)
            except queue_module.Empty:
                emit(service.poll())
                continue
            if item is None:
                break
            # Claim before any work: if this replica dies mid-chunk the
            # dispatcher knows exactly which sequence numbers to re-enqueue.
            result_queue.put(("claim", worker_id, [seq for seq, _, _ in item]))
            for seq, request, enqueued_at in item:
                fired = maybe_fire(injector, "fleet.dispatch",
                                   seq=seq, request_id=request.request_id)
                if fired is not None and fired.action == "malformed":
                    # Corrupt the payload only: the trace context (and id)
                    # must survive so the poison request's error span joins
                    # its tree.
                    request = dataclass_replace(
                        request, payload=np.full(service.n_features, np.nan))
                pending[request.request_id] = seq
                emit(service.submit(request, enqueued_at=enqueued_at))
        emit(service.drain())
        result_queue.put(("stats", worker_id, {
            "n_requests": service.tracker.count,
            "n_batches": service.n_batches,
            "latencies_ms": service.tracker.latencies_ms,
            "obs": _ledger_snapshot(service, injector),
        }))
    except WorkerCrash:
        # Dying gasp: flush the claims/verdicts already queued (plus this
        # crash's counters) through the feeder thread, then die hard — the
        # dispatcher must never see a half-written message.  When observed,
        # spans recorded before the crash (error-tagged flushes included)
        # ride along into the dispatcher's stream.
        try:
            result_queue.put(("crashed", worker_id,
                              _ledger_snapshot(service, injector)))
            result_queue.close()
            result_queue.join_thread()
        finally:
            os._exit(1)
    except BaseException as error:  # noqa: BLE001 - shipped to the dispatcher
        result_queue.put(("failed", worker_id,
                          RemoteFailure.capture(f"worker {worker_id}", error)))


@dataclass
class FleetReport:
    """Aggregated statistics of one fleet replay."""

    n_workers: int
    start_method: str
    throughput: ThroughputReport
    per_worker: List[Dict[str, object]] = field(default_factory=list)
    #: This replay's reliability events, read from the fleet-wide counters.
    reliability: ReliabilityReport = field(default_factory=ReliabilityReport)
    #: Fleet-wide instrumentation snapshot (dispatcher counters folded with
    #: every replica's forwarded snapshot); ``None`` when not observing.
    obs: Optional[Dict[str, object]] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        payload = {
            "n_workers": self.n_workers,
            "start_method": self.start_method,
            "throughput": self.throughput.as_dict(),
            "per_worker": [dict(worker) for worker in self.per_worker],
            "reliability": self.reliability.as_dict(),
        }
        if self.obs is not None:
            payload["obs"] = self.obs
        return payload

    def render(self) -> str:
        """Multi-line human-readable summary (what ``serve --workers`` prints)."""
        lines = [f"fleet: {self.n_workers} workers ({self.start_method}) — "
                 + self.throughput.render()]
        for worker in self.per_worker:
            lines.append(
                f"  worker {worker['worker_id']}: {worker['n_requests']} requests "
                f"in {worker['n_batches']} fused batches "
                f"(mean {worker['mean_ms']:.3f}ms)")
        if not self.reliability.empty():
            lines.append(self.reliability.render())
        return "\n".join(lines)


class WorkerFleet:
    """N replicated scoring workers behind a queue-based dispatcher.

    Parameters
    ----------
    n_workers:
        Replica count (``None``/``0`` = one per CPU).
    model / defense / defense_params / threshold:
        What each replica serves — a registered bundle name plus an optional
        DefenseRegistry endpoint, exactly like the single-service ``serve``
        path.
    scale / seed / dtype / cache:
        Context configuration for the bundle build (ignored when ``context``
        is supplied).  Attach a cache so ``spawn`` workers can warm-start.
    context:
        Optional prebuilt :class:`~repro.experiments.context.ExperimentContext`
        to build the bundle from (the CLI passes its own so the load
        generator and the fleet share artifacts).
    max_batch_size / max_delay_ms:
        Per-replica micro-batching knobs.
    timeout_s:
        Dispatcher-side guard: how long the fleet may make *no progress*
        before it is declared wedged.
    restart_budget:
        How many dead replicas one :meth:`score_stream` call may replace
        before giving up on restarts (in-flight requests of a dead replica
        are re-dispatched to the survivors regardless).
    fault_plan:
        Optional :class:`~repro.reliability.faults.FaultPlan` armed inside
        every replica (sites ``fleet.dispatch`` and ``service.flush``).
    retry_policy:
        Optional :class:`~repro.reliability.retry.RetryPolicy` each replica
        applies to failing micro-batch flushes.
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation` held by the
        dispatcher (a private one without a sink when ``None``).  The
        dispatcher always counts ``fleet.dispatches``,
        ``fleet.redispatches``, ``fleet.restarts`` and
        ``fleet.duplicates`` in it, and :meth:`score_stream` folds in the
        counters every replica ships back with its stats (or crash)
        message; :attr:`FleetReport.reliability` reads them.  When set,
        every replica also runs its own collector whose spans and events
        ride the same snapshot, and the merged snapshot is surfaced on
        :attr:`FleetReport.obs`.  Every dispatched request is additionally
        *traced*: the dispatcher stamps a
        :class:`~repro.obs.trace.TraceContext` on (root span per request),
        replicas record the per-hop child spans against it, and the merged
        event stream reconstructs into one span tree per request via
        :class:`~repro.obs.spans.SpanCollector`.  ``None`` (the default)
        disables observation fleet-wide.
    trace_sample_every:
        Head-based trace sampling: stamp a trace on the first request and
        every ``trace_sample_every``-th after it, passing the rest through
        untraced (see :class:`~repro.obs.spans.TraceStamper`).  ``1`` (the
        default) traces every request — right for chaos soaks and
        debugging; raise it in throughput-critical serving so per-request
        span recording and event transport stay inside the overhead
        budget while every trace that *is* taken remains a complete tree.
    slo_specs:
        Optional :class:`~repro.obs.slo.SLOSpec` objectives armed inside
        every replica: each worker's service runs its own
        :class:`~repro.obs.slo.SLOMonitor` fed by its verdicts, emits
        alert events (merged home like all worker events) and — for
        ``on_breach="shed"/"fallback"`` specs — degrades independently
        while its local windows burn.
    """

    def __init__(self, n_workers: Optional[int] = None, model: str = "target",
                 defense: str = "none",
                 defense_params: Optional[Mapping[str, object]] = None,
                 threshold: float = 0.5,
                 scale: Optional[Union[str, ScaleProfile]] = None, seed: int = 0,
                 dtype: Optional[str] = None,
                 cache: Optional[Union[ArtifactCache, str, Path]] = None,
                 context: Optional[ExperimentContext] = None,
                 max_batch_size: int = 32, max_delay_ms: float = 2.0,
                 start_method: Optional[str] = None,
                 timeout_s: float = 300.0,
                 restart_budget: int = 2,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 instrumentation: Optional[Instrumentation] = None,
                 trace_sample_every: int = 1,
                 slo_specs: Optional[Sequence[SLOSpec]] = None) -> None:
        self.n_workers = resolve_workers(n_workers)
        self.model = model
        self.defense = defense
        self.defense_params = dict(defense_params or {})
        self.threshold = float(threshold)
        if cache is not None and not isinstance(cache, ArtifactCache):
            cache = ArtifactCache(cache)
        self.cache = cache if context is None or context.cache is None \
            else context.cache
        self._scale = scale
        self._seed = int(seed)
        self._dtype = dtype
        self._context = context
        self.max_batch_size = int(max_batch_size)
        self.max_delay_ms = float(max_delay_ms)
        self.start_method = resolve_start_method(start_method)
        self.timeout_s = float(timeout_s)
        if restart_budget < 0:
            raise ParallelError(
                f"restart_budget must be >= 0, got {restart_budget}")
        self.restart_budget = int(restart_budget)
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.instrumentation = instrumentation
        self._ledger = Instrumentation()
        if trace_sample_every < 1:
            raise ParallelError(
                f"trace_sample_every must be >= 1, got {trace_sample_every}")
        self.trace_sample_every = int(trace_sample_every)
        self.slo_specs = tuple(slo_specs or ())
        self.servable = None
        self._detector = None
        self._mp_context = None
        self._worker_config: Optional[Dict[str, object]] = None
        self._next_worker_id = 0
        self._processes: Dict[int, object] = {}
        self._task_queue = None
        self._result_queue = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _dispatch_context(self) -> ExperimentContext:
        if self._context is None:
            scale = (get_profile(self._scale) if isinstance(self._scale, str)
                     else self._scale)
            self._context = ExperimentContext(scale=scale, seed=self._seed,
                                              cache=self.cache, dtype=self._dtype)
        return self._context

    def _config(self, context: ExperimentContext) -> Dict[str, object]:
        return {
            "scale_fields": dataclass_asdict(context.scale),
            "seed": context.seed,
            "dtype": str(context.dtype) if context.dtype is not None else None,
            "cache_root": str(self.cache.root) if self.cache is not None else None,
            "model": self.model,
            "defense": self.defense,
            "defense_params": self.defense_params,
            "threshold": self.threshold,
            "max_batch_size": self.max_batch_size,
            "max_delay_ms": self.max_delay_ms,
            "fault_plan": (self.fault_plan.to_dict()
                           if self.fault_plan is not None else None),
            "retry_policy": (self.retry_policy.to_dict()
                             if self.retry_policy is not None else None),
            "observe": self.instrumentation is not None,
            "slo": ([spec.as_dict() for spec in self.slo_specs]
                    if self.slo_specs else None),
        }

    def _spawn_worker(self) -> int:
        """Launch one replica (initial launch and supervised restarts)."""
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        try:
            if self.start_method == "fork":
                _FLEET_FORK_STATE["servable"] = self.servable
                _FLEET_FORK_STATE["detector"] = self._detector
            process = self._mp_context.Process(
                target=_fleet_worker,
                args=(worker_id, self._worker_config, self._task_queue,
                      self._result_queue),
                daemon=True)
            process.start()
        finally:
            # fork snapshots state inside Process.start(); safe to unstage.
            _FLEET_FORK_STATE.clear()
        self._processes[worker_id] = process
        return worker_id

    def start(self) -> "WorkerFleet":
        """Build the bundle once, then launch the worker replicas."""
        if self._processes:
            return self
        import multiprocessing

        from repro.serving.registry import ModelRegistry

        self._mp_context = multiprocessing.get_context(self.start_method)
        context = self._dispatch_context()
        registry = ModelRegistry(cache=self.cache)
        self.servable = registry.get(self.model, context=context)
        config = self._config(context)
        self._detector = _build_detector(config, context, self.servable)
        self._worker_config = config
        self._task_queue = self._mp_context.Queue()
        self._result_queue = self._mp_context.Queue()
        for _ in range(self.n_workers):
            self._spawn_worker()
        ready = 0
        while ready < self.n_workers:
            kind, worker_id, payload = self._get_result()
            if kind == "failed":
                self.close()
                payload.raise_()
            ready += kind == "ready"
        return self

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, grace_s: float = 5.0) -> None:
        """Stop every worker and release both queues (idempotent, bounded).

        Joins run against one shared ``grace_s`` deadline and stragglers
        are killed, so ``close()`` returns within ``grace_s`` plus a small
        constant even when a worker died before :meth:`start` completed or
        is wedged mid-request.  The queues are explicitly closed (feeder
        threads cancelled) so a half-started fleet leaks neither processes
        nor queue plumbing.
        """
        deadline = time.monotonic() + float(grace_s)
        processes = list(self._processes.values())
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        self._processes = {}
        for queue in (self._task_queue, self._result_queue):
            if queue is not None:
                queue.cancel_join_thread()
                queue.close()
        self._task_queue = None
        self._result_queue = None

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def _get_result(self) -> Tuple[str, int, object]:
        try:
            return self._result_queue.get(timeout=self.timeout_s)
        except queue_module.Empty:
            dead = [worker_id for worker_id, process in self._processes.items()
                    if not process.is_alive()]
            # Tear the wedged fleet down before raising: leaving live workers
            # behind would make the next start() reuse their stale queues.
            self.close()
            raise ParallelError(
                f"fleet produced no results for {self.timeout_s:.0f}s "
                f"(dead workers: {dead or 'none'})") from None

    def score_stream(self, requests: Sequence,
                     rate_per_s: Optional[float] = None,
                     seed: int = 0,
                     progress=None) -> Tuple[List, FleetReport]:
        """Replay ``requests`` through the fleet; one-shot per start.

        Returns ``(verdicts, report)`` with verdicts merged in submission
        order.  With ``rate_per_s`` the dispatcher paces enqueues like a
        Poisson arrival process (same schedule as the single-service
        :func:`~repro.serving.loadgen.replay`), one request per message,
        and merges verdicts while it waits for the next due time;
        otherwise requests are enqueued back-to-back in chunks of
        :func:`chunk_size`.  Replica deaths are supervised: claimed
        requests are re-dispatched exactly once and replacements launched
        while the restart budget lasts.  Stop sentinels are sent only after
        every verdict arrived (a redispatched request must never strand
        behind a sentinel), so a subsequent call transparently starts a
        fresh fleet.

        With instrumentation attached, every ``trace_sample_every``-th
        request is stamped with a :class:`~repro.obs.trace.TraceContext`
        before dispatch and its root span is closed as its verdict
        arrives; a redispatched request keeps its original context, so
        whichever replica finally scores it parents onto the same root.

        ``progress``, if given, is called by the dispatcher —
        ``progress(info)`` with ``new_verdicts`` (just-arrived, merge
        order), ``n_done``, ``n_expected``, ``elapsed_s``, ``restarts``
        and ``redispatches`` — whenever verdicts arrive and on every
        liveness-poll tick; the live ``serve --observe`` dashboard
        publisher hangs off this hook.
        """
        if not requests:
            return [], FleetReport(n_workers=self.n_workers,
                                   start_method=self.start_method,
                                   throughput=LatencyTracker().report(0.0),
                                   per_worker=[])
        from repro.serving.service import ScoringRequest

        # Wrap raw payloads here, at the dispatcher: per-replica id counters
        # would otherwise hand the same ``req-...`` id out in every worker.
        requests = [request if isinstance(request, ScoringRequest)
                    else ScoringRequest(request_id=f"req-{seq + 1:06d}",
                                        payload=request)
                    for seq, request in enumerate(requests)]
        self.start()
        n_expected = len(requests)
        offsets = None
        if rate_per_s is not None:
            from repro.serving.loadgen import _poisson_offsets

            offsets = _poisson_offsets(n_expected, rate_per_s, seed)
            step = 1  # paced: each request leaves as it falls due
        else:
            step = chunk_size(n_expected, self.max_batch_size, self.n_workers)
        observer = self.instrumentation
        obs = observer if observer is not None else self._ledger
        metrics = obs.metrics
        since = ReliabilityReport.of(metrics)
        stamper = (TraceStamper(observer, sample_every=self.trace_sample_every)
                   if observer is not None else None)
        stamps: Dict[int, float] = {}
        verdicts: Dict[int, object] = {}
        claims: Dict[int, Set[int]] = {worker_id: set()
                                       for worker_id in self._processes}
        restarts_remaining = self.restart_budget
        n_dispatched = 0
        last_progress = next_tick = time.monotonic()

        def send(seqs: Sequence[int]) -> None:
            self._task_queue.put([(seq, requests[seq], stamps[seq])
                                  for seq in seqs])

        def dispatch(seqs: range) -> None:
            nonlocal n_dispatched, last_progress
            stamped = time.perf_counter()
            for seq in seqs:
                stamps[seq] = stamped
                request = requests[seq]
                if isinstance(request.payload, ApiLog):
                    request = dataclass_replace(
                        request, payload=wire_counts(request.payload))
                if stamper is not None:
                    request = stamper.stamp(request, started=stamped)
                # Kept in wire form so a redispatch after a replica death
                # re-sends the same payload, trace context and root.
                requests[seq] = request
            send(seqs)
            n_dispatched = seqs.stop
            last_progress = time.monotonic()

        def handle_death(worker_id: int) -> None:
            nonlocal restarts_remaining
            process = self._processes.pop(worker_id, None)
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - defensive
                    process.kill()
                    process.join(timeout=1.0)
            lost = sorted(claims.pop(worker_id, set()) - set(verdicts))
            for first in range(0, len(lost), step):
                send(lost[first:first + step])
            if lost:
                obs.count("fleet.redispatches", len(lost), worker=worker_id)
            if restarts_remaining > 0:
                restarts_remaining -= 1
                obs.count("fleet.restarts", worker=worker_id)
                claims[self._spawn_worker()] = set()
            if not self._processes:
                self.close()
                raise ParallelError(
                    "every fleet replica died and the restart budget is "
                    f"exhausted ({len(verdicts)}/{n_expected} verdicts in)")

        def report_progress(fresh: List) -> None:
            if progress is None:
                return
            progress({
                "new_verdicts": fresh,
                "n_done": len(verdicts),
                "n_expected": n_expected,
                "elapsed_s": time.perf_counter() - started,
                "restarts": (int(metrics.counter_value("fleet.restarts"))
                             - since.restarts),
                "redispatches": (int(metrics.counter_value("fleet.redispatches"))
                                 - since.redispatches),
            })

        def handle(kind: str, worker_id: int, payload) -> None:
            if kind == "claim":
                claims.setdefault(worker_id, set()).update(payload)
            elif kind == "verdicts":
                owned = claims.setdefault(worker_id, set())
                fresh = []
                for seq, verdict in payload:
                    owned.discard(seq)
                    if seq in verdicts:
                        obs.count("fleet.duplicates")
                    else:
                        verdicts[seq] = verdict
                        fresh.append(verdict)
                if stamper is not None:
                    stamper.finish_all(fresh)
                if fresh:
                    report_progress(fresh)
            elif kind == "crashed":
                obs.merge_snapshot(payload)
                handle_death(worker_id)
            elif kind == "ready":
                claims.setdefault(worker_id, set())
            elif kind == "failed":
                self.close()
                payload.raise_()

        def pump(timeout: float) -> None:
            """Merge one result message; on a quiet queue, poll liveness."""
            nonlocal last_progress, next_tick
            try:
                message = self._result_queue.get(timeout=timeout)
            except queue_module.Empty:
                now = time.monotonic()
                if now < next_tick:
                    return
                next_tick = now + _LIVENESS_POLL_S
                # The result queue is drained, so any verdicts a dead
                # replica managed to flush were already merged — claims
                # minus verdicts is exactly the set to re-dispatch.
                for dead_id in [worker_id for worker_id, process
                                in list(self._processes.items())
                                if not process.is_alive()]:
                    handle_death(dead_id)
                    last_progress = time.monotonic()
                report_progress([])
                if (len(verdicts) < n_dispatched
                        and time.monotonic() - last_progress > self.timeout_s):
                    self.close()
                    raise ParallelError(
                        f"fleet made no progress for {self.timeout_s:.0f}s "
                        f"({len(verdicts)}/{n_expected} verdicts in)")
                return
            last_progress = time.monotonic()
            handle(*message)

        started = time.perf_counter()
        for first in range(0, n_expected, step):
            if offsets is not None:
                # Merge verdicts and watch liveness until the next request
                # is due: progress and replica deaths must not wait for
                # the whole schedule to be sent.
                due = started + offsets[first]
                while (remaining := due - time.perf_counter()) > 0:
                    pump(min(remaining, _LIVENESS_POLL_S))
            dispatch(range(first, min(first + step, n_expected)))
        obs.count("fleet.dispatches", n_expected)
        while len(verdicts) < n_expected:
            pump(_LIVENESS_POLL_S)
        elapsed = time.perf_counter() - started

        for _ in self._processes:
            self._task_queue.put(None)
        worker_stats: Dict[int, Dict[str, object]] = {}
        while len(worker_stats) < len(self._processes):
            kind, worker_id, payload = self._get_result()
            if kind == "stats":
                worker_stats[worker_id] = payload
            elif kind == "verdicts":
                # Every verdict is already in: anything more is a duplicate.
                obs.count("fleet.duplicates", len(payload))
            elif kind == "crashed":
                # Crashed during drain: all verdicts are already in, so
                # nothing is lost — fold its counters and stop waiting
                # for its stats.
                obs.merge_snapshot(payload)
                process = self._processes.pop(worker_id, None)
                if process is not None:
                    process.join(timeout=5.0)
            elif kind == "failed":
                self.close()
                payload.raise_()
        self.close()  # workers have already exited on the sentinel; reap them

        tracker = LatencyTracker()
        per_worker = []
        for worker_id in sorted(worker_stats):
            stats = worker_stats[worker_id]
            latencies = stats["latencies_ms"]
            tracker.extend(latencies)
            obs.merge_snapshot(stats["obs"])
            per_worker.append({
                "worker_id": worker_id,
                "n_requests": stats["n_requests"],
                "n_batches": stats["n_batches"],
                "mean_ms": (float(sum(latencies) / len(latencies))
                            if latencies else 0.0),
            })
        report = FleetReport(n_workers=self.n_workers,
                             start_method=self.start_method,
                             throughput=tracker.report(elapsed),
                             per_worker=per_worker,
                             reliability=ReliabilityReport.of(metrics,
                                                              since=since),
                             obs=(obs.snapshot() if observer is not None
                                  else None))
        return [verdicts[seq] for seq in range(n_expected)], report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkerFleet(n_workers={self.n_workers}, model={self.model!r}, "
                f"defense={self.defense!r}, start_method={self.start_method!r})")
