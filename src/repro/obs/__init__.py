"""repro.obs — the lightweight instrumentation core.

Three primitives, one facade:

* :mod:`repro.obs.events` — structured :class:`ObsEvent` records and the
  pluggable :class:`EventSink` protocol (:class:`ListSink` buffers for
  tests and for fleet workers forwarding to their dispatcher);
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and O(1) summary histograms with associative snapshot merging;
* :mod:`repro.obs.trace` — nested, monotonic-clock :class:`Tracer` spans
  with span/parent ids, plus the :class:`TraceContext` that carries a
  request's trace across the fleet's process boundary;
* :mod:`repro.obs.instrument` — the :class:`Instrumentation` facade plus
  the ambient :func:`current` / :func:`instrumented` context used by deep
  library code (JSMA step loop, artifact cache) that cannot take an
  explicit instrumentation argument.

On top of the core sit three serving-observability layers:

* :mod:`repro.obs.spans` — the distributed-tracing halves:
  :class:`TraceStamper` (dispatcher-side root spans) and
  :class:`SpanCollector` (per-request span trees with orphan flagging and
  queue/batch-wait/score breakdowns);
* :mod:`repro.obs.slo` — declarative :class:`SLOSpec` objectives under
  multi-window burn-rate alerting (:class:`SLOMonitor`), optionally
  arming service shed/fallback degradation;
* :mod:`repro.obs.live` — atomically-published live snapshots, the
  ``cli top`` dashboard rendering and Prometheus text exposition.

Observation is off by default: an unobserved run pays one ``is None``
check per batch-level operation.  The serving benchmark pins the enabled
overhead at ≤5% of batched throughput with byte-identical verdicts.
Reliability counters (marked † below) are the exception: they are always
counted, in the caller's instrumentation or in a private one without a
sink, and :class:`~repro.reliability.ReliabilityReport` reads them.  They
are counted once per rare event (a shed, a retry, a restart), never per
scored request.

Instrumented sites (see each module's docs for the exact metric names):

================== ====================================================
seam               metrics
================== ====================================================
ScoringService     ``span.service.flush``, ``serve.requests``,
                   ``serve.flush_failures``; always on†:
                   ``serve.sheds``, ``serve.fallbacks``, ``serve.errors``,
                   ``serve.flush_retries``, ``serve.breaker_trips``; per
                   traced request: ``span.fleet.queue``,
                   ``span.batcher.enqueue``, ``span.request.score``
MicroBatcher       ``batcher.queue_depth`` (gauge),
                   ``batcher.batch_size`` (histogram),
                   ``batcher.flush_lag_ms`` (histogram: flush time past
                   the oldest item's deadline)
SLOMonitor         ``alert.slo.<name>`` + one ``alert`` event per breach
WorkerFleet        ``fleet.dispatches``; always on†: ``fleet.redispatches``,
                   ``fleet.restarts``, ``fleet.duplicates``; plus merged
                   per-worker snapshots
GridExecutor       ``span.grid.cell``, ``grid.cells``; always on†:
                   ``grid.cell_retries``, ``grid.cell_timeouts``
FaultInjector      always on†: ``fault.<site>`` (faults fired, folded in
                   at the end of a run)
JsmaAttack         ``span.attack.jsma``, ``jsma.steps``,
                   ``jsma.features_flipped``, ``jsma.evasions``
ArtifactCache      ``cache.hits``, ``cache.misses``,
                   ``cache.build_seconds`` (histogram)
================== ====================================================
"""

from repro.obs.events import (
    EVENT_KINDS,
    EventSink,
    ListSink,
    NullSink,
    ObsEvent,
)
from repro.obs.instrument import Instrumentation, current, instrumented
from repro.obs.live import (
    LivePublisher,
    prometheus_exposition,
    read_snapshot,
    render_top,
    snapshot_path,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SLOMonitor, SLOSpec, SLOStatus
from repro.obs.spans import (
    BREAKDOWN_SPANS,
    SpanCollector,
    SpanNode,
    SpanTree,
    TraceStamper,
    breakdown_summary,
)
from repro.obs.trace import Span, TraceContext, Tracer

__all__ = [
    "EVENT_KINDS",
    "EventSink",
    "ListSink",
    "NullSink",
    "ObsEvent",
    "Instrumentation",
    "current",
    "instrumented",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "BREAKDOWN_SPANS",
    "SpanCollector",
    "SpanNode",
    "SpanTree",
    "TraceStamper",
    "breakdown_summary",
    "SLOMonitor",
    "SLOSpec",
    "SLOStatus",
    "LivePublisher",
    "prometheus_exposition",
    "read_snapshot",
    "render_top",
    "snapshot_path",
]
