"""repro.observability — tracing, metrics, race telemetry, and logging.

The instrumentation substrate for every performance claim in the repro:

* :mod:`repro.observability.tracing` — nested :class:`Span` context
  managers with JSON and Chrome ``trace_event`` export;
* :mod:`repro.observability.metrics` — the always-on process registry
  of counters, gauges and sketch-backed histograms (the one
  :class:`QuantileSketch`), with JSON / Prometheus text export;
* :mod:`repro.observability.log` — stdlib-``logging`` integration,
  silent by default;
* :mod:`repro.observability.report` — human-readable run summaries
  from saved trace/metrics files (the ``repro report`` subcommand);
* :mod:`repro.observability.serving` — inference-path telemetry:
  :class:`DriftDetector` PSI/KS scoring against a fit-time
  :class:`FeatureBaseline`, soft-vote disagreement, and the
  :class:`HealthSnapshot` JSON/Prometheus health document of the
  serving daemon (live over a ``health`` line, or from a CSV replay
  with ``repro monitor``);
* :mod:`repro.observability.slo` — the serving telemetry sink:
  :class:`SloTracker` takes one call per served request and keeps
  lifetime sketch views (latency, confidence,
  disagreement), the recommendation mix, per-imputer / per-cluster /
  per-shard scorecards, and multi-window burn-rate alerting over
  declarative :class:`SloPolicy` objectives (the recent view);
* :mod:`repro.observability.resources` — :class:`AccountingRegistry`
  process/resource accounting (RSS high-water, live component byte
  counts of the series bank, caches and shared memory) and the
  per-kernel counters (calls, bytes moved, chunks, scratch
  allocations) kept in the metrics registry;
* :mod:`repro.observability.dashboard` — the ``repro top`` ANSI
  dashboard;
* :mod:`repro.observability.ledger` — the append-only, schema-versioned
  :class:`RepairLedger` recording per-fit and per-repair provenance
  (cluster assignment, vote confidences, race elites, imputer choice,
  post-repair quality stats), trace-correlated with spans and logs
  (the ``repro audit`` / ``repro explain`` subcommands).

Performance is measured end to end by ``benchmarks/e2e/run.py``
(``--trace 1`` splits each workload into its per-layer spans); for
function-level hotspots use the stdlib profiler, e.g.
``python -m cProfile -s cumtime -m repro.cli repair ...``.

Everything is zero-dependency and thread-safe.  Metrics are always on:
:func:`get_metrics` is the process :class:`MetricsRegistry` from import
time, each event is counted there once, and the health document,
``repro top`` and ``--metrics-out`` read it; :func:`set_metrics` /
:class:`use_metrics` scope another registry (``None`` restores the
process one).  A counter costs a dict lookup and a lock and allocates
nothing.  Tracing stays opt-in, because a span allocates per call: the
default is the no-op ``NULL_TRACER`` until a :class:`Tracer` is
installed via :func:`set_tracer` or :class:`use_tracer`.

Race telemetry needs no API of its own: :class:`~repro.core.modelrace.ModelRace`
reports through ``race.*`` spans (``race.iteration`` tagged with its
``IterationRecord``, ``race.evaluate`` tagged ``error`` on a failed
score), the ``repro_race_*`` metrics, the ``repro.core.modelrace``
logger (``repro train --verbose``) and the returned ``RaceResult``.
"""

from repro.observability.dashboard import (
    human_bytes,
    load_snapshot,
    render_top,
)
from repro.observability.ledger import (
    NULL_LEDGER,
    NullLedger,
    RepairLedger,
    SCHEMA_VERSION as LEDGER_SCHEMA_VERSION,
    current_repair_id,
    explain_repair,
    filter_records,
    get_ledger,
    new_id,
    read_ledger,
    render_explanation,
    render_summary,
    repair_context,
    repair_quality_stats_block,
    set_ledger,
    summarize_ledger,
    upgrade_record,
    use_ledger,
)
from repro.observability.log import (
    TraceContextFilter,
    disable_console_logging,
    enable_console_logging,
    get_logger,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
    build_info,
    get_metrics,
    set_metrics,
    use_metrics,
)
from repro.observability.resources import (
    AccountingRegistry,
    get_accounting,
    resource_stamp,
    sample_rss,
)
from repro.observability.serving import (
    DriftDetector,
    DriftReport,
    FeatureBaseline,
    HealthSnapshot,
)
from repro.observability.slo import (
    SloAlert,
    SloPolicy,
    SloTracker,
    default_policies,
)
from repro.observability.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    span,
    use_tracer,
)

__all__ = [
    # tracing
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "span",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "get_metrics",
    "set_metrics",
    "use_metrics",
    "build_info",
    # serving
    "DriftDetector",
    "DriftReport",
    "FeatureBaseline",
    "HealthSnapshot",
    # slo
    "SloPolicy",
    "SloAlert",
    "SloTracker",
    "default_policies",
    # resources
    "AccountingRegistry",
    "get_accounting",
    "resource_stamp",
    "sample_rss",
    # dashboard
    "render_top",
    "load_snapshot",
    "human_bytes",
    # logging
    "get_logger",
    "enable_console_logging",
    "disable_console_logging",
    "TraceContextFilter",
    # ledger
    "RepairLedger",
    "NullLedger",
    "NULL_LEDGER",
    "LEDGER_SCHEMA_VERSION",
    "get_ledger",
    "set_ledger",
    "use_ledger",
    "new_id",
    "current_repair_id",
    "repair_context",
    "repair_quality_stats_block",
    "read_ledger",
    "upgrade_record",
    "filter_records",
    "summarize_ledger",
    "render_summary",
    "explain_repair",
    "render_explanation",
]
