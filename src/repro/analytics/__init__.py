"""repro.analytics — the append-only columnar run store and report engine.

The second half of the observability layer (:mod:`repro.obs` is the
first): persists verdict streams, latency samples, instrumentation
snapshots and sweep curves per ``(run_id, model_version, scenario)``, and
answers cross-run questions — evasion-rate drift, per-model-version
deltas, shed/fallback rates, p99 regressions — from the records alone,
without re-running any scoring.

* :mod:`repro.analytics.schema` — table schemas with evolution-on-read;
* :mod:`repro.analytics.store` — :class:`AnalyticsStore`: atomic-rename
  numpy segments, lock-free concurrent writers, filter/group-by/top-k
  queries;
* :mod:`repro.analytics.ingest` — serve-run recording and idempotent
  ``BENCH_*.json`` import;
* :mod:`repro.analytics.report` — the summary-first ``cli report``.
"""

from repro.analytics import schema
from repro.analytics.ingest import import_bench, record_serve_run, traffic_kind
from repro.analytics.report import (
    P99_REGRESSION_THRESHOLD,
    build_report,
    render_report,
)
from repro.analytics.store import AnalyticsStore

__all__ = [
    "schema",
    "AnalyticsStore",
    "record_serve_run",
    "import_bench",
    "traffic_kind",
    "build_report",
    "render_report",
    "P99_REGRESSION_THRESHOLD",
]
