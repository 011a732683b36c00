"""Serving-side quality observability: drift, vote disagreement, health docs.

The training path is instrumented (tracing/metrics/race events); this
module holds what the serving daemon
(:class:`~repro.serving.daemon.ServingDaemon`) reports about the
*inference* path that production traffic actually hits.  Its pieces:

* :class:`FeatureBaseline` — a fingerprint of the training feature
  matrix captured at fit time (per-feature mean/std, quantile sketch,
  expected bucket proportions).  JSON-serializable, persisted alongside
  the engine by :mod:`repro.core.serialization`.
* :class:`DriftDetector` — scores incoming feature vectors against a
  :class:`FeatureBaseline` with PSI (population stability index) and a
  two-sample KS statistic per feature; a threshold crossing is logged,
  counted in ``repro_drift_alerts_total`` and kept as the detector's
  ``n_alerts`` / ``last_report``.
* :func:`vote_disagreement` — the soft-vote disagreement (Jensen-Shannon
  style entropy gap across member probabilities) that
  ``ADarts.recommend_many`` hands each recommendation.
* :class:`HealthSnapshot` — one JSON / Prometheus document: the daemon
  sink's views (lifetime sketches; the SLO burn windows are the recent
  view, see :mod:`repro.observability.slo`), drift scores, cache hit
  rates, execution engine backend stats, resilience counters and the
  per-imputer / per-cluster / per-shard / batching scorecards.  The
  process-wide sections (resilience events, kernels, backends, series
  bank) are reads of the process metrics registry; :data:`PROMETHEUS_TABLE`
  maps the document onto its Prometheus families.
  :meth:`HealthSnapshot.collect` builds it from a serving daemon: for
  ``repro serve`` (live, over a ``health`` line), ``repro monitor``
  (a CSV replayed through an inline daemon) and ``repro top``.

Everything here follows the substrate's rules: zero extra dependencies
and thread-safe.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import json
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.observability.log import get_logger
from repro.observability.metrics import (
    MetricsRegistry,
    build_info,
    export_document,
    get_metrics,
)
from repro.observability.resources import get_accounting, kernel_stats

_log = get_logger(__name__)

_EPS = 1e-4


# ---------------------------------------------------------------------------
# Feature baseline + drift scoring
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FeatureBaseline:
    """Distributional fingerprint of a training feature matrix.

    Captured once at fit time (see ``ADarts.fit_features``) and compared
    against serving traffic forever after.  Stores, per feature:

    * ``mean`` / ``std`` — first moments, for cheap z-score checks;
    * ``sketch_values`` — feature values at ``sketch_probs`` quantiles
      (the ECDF sketch the KS statistic is computed against);
    * ``edges`` — interior bucket edges (``n_bins - 1`` per feature);
    * ``expected`` — the baseline's own bucket occupancy, computed by
      re-binning the training matrix (robust to ties and constant
      features, unlike assuming uniform ``1/n_bins``).
    """

    feature_names: tuple[str, ...]
    n_samples: int
    mean: np.ndarray  # (d,)
    std: np.ndarray  # (d,)
    sketch_probs: np.ndarray  # (s,)
    sketch_values: np.ndarray  # (d, s)
    edges: np.ndarray  # (d, n_bins - 1)
    expected: np.ndarray  # (d, n_bins)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_bins(self) -> int:
        return self.expected.shape[1]

    @classmethod
    def from_matrix(
        cls,
        X: np.ndarray,
        feature_names=None,
        *,
        n_bins: int = 10,
        n_sketch: int = 21,
    ) -> "FeatureBaseline":
        """Fingerprint ``X`` (n_samples, n_features)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 2:
            raise ValueError("baseline needs a 2-D matrix with >= 2 rows")
        d = X.shape[1]
        if feature_names is None or len(feature_names) != d:
            feature_names = tuple(f"f{i}" for i in range(d))
        else:
            feature_names = tuple(str(n) for n in feature_names)
        finite = np.nan_to_num(X, nan=0.0, posinf=0.0, neginf=0.0)
        sketch_probs = np.linspace(0.0, 1.0, int(n_sketch))
        sketch_values = np.percentile(
            finite, 100 * sketch_probs, axis=0
        ).T  # (d, s)
        interior = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
        edges = np.percentile(finite, 100 * interior, axis=0).T  # (d, n_bins-1)
        expected = np.empty((d, n_bins), dtype=float)
        for j in range(d):
            expected[j] = _bucket_proportions(finite[:, j], edges[j])
        return cls(
            feature_names=feature_names,
            n_samples=int(X.shape[0]),
            mean=finite.mean(axis=0),
            std=finite.std(axis=0),
            sketch_probs=sketch_probs,
            sketch_values=sketch_values,
            edges=edges,
            expected=expected,
        )

    # -- persistence -----------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "n_samples": self.n_samples,
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "sketch_probs": self.sketch_probs.tolist(),
            "sketch_values": self.sketch_values.tolist(),
            "edges": self.edges.tolist(),
            "expected": self.expected.tolist(),
        }

    @classmethod
    def from_dict(cls, document: dict) -> "FeatureBaseline":
        return cls(
            feature_names=tuple(document["feature_names"]),
            n_samples=int(document["n_samples"]),
            mean=np.asarray(document["mean"], dtype=float),
            std=np.asarray(document["std"], dtype=float),
            sketch_probs=np.asarray(document["sketch_probs"], dtype=float),
            sketch_values=np.asarray(document["sketch_values"], dtype=float),
            edges=np.asarray(document["edges"], dtype=float),
            expected=np.asarray(document["expected"], dtype=float),
        )


def _bucket_proportions(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Occupancy fraction of the ``len(edges) + 1`` buckets cut by ``edges``."""
    idx = np.searchsorted(edges, values, side="right")
    counts = np.bincount(idx, minlength=len(edges) + 1).astype(float)
    total = counts.sum()
    return counts / total if total else counts


def psi_statistic(
    expected: np.ndarray, actual: np.ndarray, *, floor: float = _EPS
) -> float:
    """Population stability index between two bucket-proportion vectors.

    Conventional reading: < 0.1 stable, 0.1-0.25 moderate shift, > 0.25
    significant shift.  Proportions are clamped at ``floor`` (default
    ``1e-4``) so empty buckets do not produce infinities; callers
    comparing small samples should raise the floor toward ``0.5/n`` —
    with a tiny floor, a single sampling-noise empty bucket contributes
    ``~0.1 * ln(1e3)`` PSI on its own.
    """
    e = np.clip(np.asarray(expected, dtype=float), max(_EPS, floor), None)
    a = np.clip(np.asarray(actual, dtype=float), max(_EPS, floor), None)
    e = e / e.sum()
    a = a / a.sum()
    return float(np.sum((a - e) * np.log(a / e)))


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup ECDF distance)."""
    a = np.sort(np.asarray(sample_a, dtype=float).ravel())
    b = np.sort(np.asarray(sample_b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        return 0.0
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


@dataclass
class DriftReport:
    """Per-feature and aggregate drift scores for one detector window."""

    n_samples: int
    psi: dict[str, float]
    ks: dict[str, float]
    psi_threshold: float
    ks_threshold: float

    @property
    def max_psi(self) -> float:
        return max(self.psi.values()) if self.psi else 0.0

    @property
    def max_ks(self) -> float:
        return max(self.ks.values()) if self.ks else 0.0

    @property
    def worst_feature(self) -> str | None:
        """Feature with the highest PSI (ties broken by name order)."""
        if not self.psi:
            return None
        return max(sorted(self.psi), key=lambda name: self.psi[name])

    @property
    def triggered(self) -> bool:
        """Whether either aggregate statistic crossed its threshold."""
        return (
            self.max_psi > self.psi_threshold or self.max_ks > self.ks_threshold
        )

    def as_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "max_psi": self.max_psi,
            "max_ks": self.max_ks,
            "psi_threshold": self.psi_threshold,
            "ks_threshold": self.ks_threshold,
            "triggered": self.triggered,
            "worst_feature": self.worst_feature,
            "psi": dict(self.psi),
            "ks": dict(self.ks),
        }


class DriftDetector:
    """Scores serving feature vectors against a :class:`FeatureBaseline`.

    Incoming vectors accumulate in per-feature rolling windows; once
    ``min_samples`` have been seen, every :meth:`update` also produces a
    :class:`DriftReport`.  :meth:`add` only writes the window and says
    when ``min_samples`` new rows have arrived since it last said so,
    which lets a caller score at that cadence instead of per row.  A
    report whose PSI or KS maximum crosses its threshold is announced
    once per excursion (re-arming when the scores fall back under the
    thresholds): logged, counted in ``n_alerts`` and the
    ``repro_drift_alerts_total`` counter.

    Parameters
    ----------
    baseline:
        The training-time fingerprint to compare against.
    window_size:
        How many recent vectors the drift window holds.
    min_samples:
        Observations required before scoring starts (short windows make
        PSI noisy).
    psi_threshold / ks_threshold:
        Alert thresholds for the per-feature maxima.  The PSI default
        (0.25) is the conventional "significant shift" cut; the KS
        default is generous because the baseline side is a quantile
        sketch, not the raw sample.
    """

    def __init__(
        self,
        baseline: FeatureBaseline,
        *,
        window_size: int = 256,
        min_samples: int = 64,
        psi_threshold: float = 0.25,
        ks_threshold: float = 0.5,
    ):
        self.baseline = baseline
        self.window_size = int(window_size)
        self.min_samples = max(2, int(min_samples))
        self.psi_threshold = float(psi_threshold)
        self.ks_threshold = float(ks_threshold)
        self._window = np.zeros((self.window_size, baseline.n_features))
        self._head = 0
        self._n = 0
        self._total = 0
        self._unscored = 0
        self._lock = threading.Lock()
        self._alert_active = False
        self.n_alerts = 0
        self.last_report: DriftReport | None = None

    # ------------------------------------------------------------------
    @property
    def warm(self) -> bool:
        """Whether the window holds enough rows to be scored."""
        return self._n >= self.min_samples

    def add(self, X: np.ndarray) -> bool:
        """Write feature rows into the window without scoring them.

        Returns True, once per ``min_samples`` rows added since it last
        did and only on a warm window, when a :meth:`check` is due.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.baseline.n_features:
            raise ValueError(
                f"expected {self.baseline.n_features} features, got {X.shape[1]}"
            )
        with self._lock:
            for row in np.nan_to_num(X, nan=0.0, posinf=0.0, neginf=0.0):
                self._window[self._head] = row
                self._head = (self._head + 1) % self.window_size
                self._n = min(self._n + 1, self.window_size)
                self._total += 1
            self._unscored += X.shape[0]
            due = self.warm and self._unscored >= self.min_samples
            if due:
                self._unscored = 0
        return due

    def update(self, X: np.ndarray) -> DriftReport | None:
        """Ingest feature rows; returns a report once warmed up."""
        self.add(X)
        return self.check() if self.warm else None

    def window_matrix(self) -> np.ndarray:
        """Copy of the current drift window (n_recent, n_features)."""
        with self._lock:
            if self._n < self.window_size:
                return self._window[: self._n].copy()
            return np.concatenate(
                [self._window[self._head:], self._window[: self._head]]
            )

    def check(self) -> DriftReport:
        """Score the current window and fire alerts on threshold crossing."""
        window = self.window_matrix()
        baseline = self.baseline
        psi: dict[str, float] = {}
        ks: dict[str, float] = {}
        # Sample-aware smoothing: an empty bucket in a small window is
        # sampling noise, not evidence of drift.
        floor = max(_EPS, 0.5 / max(1, window.shape[0]))
        for j, name in enumerate(baseline.feature_names):
            column = window[:, j]
            actual = _bucket_proportions(column, baseline.edges[j])
            psi[name] = psi_statistic(
                baseline.expected[j], actual, floor=floor
            )
            ks[name] = ks_statistic(column, baseline.sketch_values[j])
        report = DriftReport(
            n_samples=int(window.shape[0]),
            psi=psi,
            ks=ks,
            psi_threshold=self.psi_threshold,
            ks_threshold=self.ks_threshold,
        )
        self.last_report = report
        metrics = get_metrics()
        metrics.gauge(
            "repro_drift_psi_max", "Max per-feature PSI over the drift window"
        ).set(report.max_psi)
        metrics.gauge(
            "repro_drift_ks_max", "Max per-feature KS over the drift window"
        ).set(report.max_ks)
        # Alert state transitions happen under the lock so concurrent
        # ``check()`` calls (the serving daemon's dispatcher + a health
        # poller) announce each excursion exactly once; the side effects
        # (counter, log) run outside it.
        fire = False
        with self._lock:
            if report.triggered:
                fire = not self._alert_active
                self._alert_active = True
                if fire:
                    self.n_alerts += 1
            else:
                self._alert_active = False
        if fire:
            metrics.counter(
                "repro_drift_alerts_total",
                "Drift threshold crossings announced",
            ).inc()
            _log.warning(
                "feature drift detected: max PSI %.3f (>%g) / max KS %.3f "
                "(worst feature %s, window %d)",
                report.max_psi,
                self.psi_threshold,
                report.max_ks,
                report.worst_feature,
                report.n_samples,
            )
        return report


# ---------------------------------------------------------------------------
# Vote disagreement and the sink's slice budget
# ---------------------------------------------------------------------------
def vote_entropy(proba: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of each probability row (the last axis)."""
    p = np.clip(np.atleast_2d(np.asarray(proba, dtype=float)), _EPS, None)
    p = p / p.sum(axis=-1, keepdims=True)
    return -np.sum(p * np.log(p), axis=-1)


def vote_disagreement(member_probas: np.ndarray) -> np.ndarray:
    """Jensen-Shannon-style disagreement across ensemble members.

    ``H(mean of member probas) - mean(H(member probas))`` per sample —
    zero when every member outputs the same distribution, larger the
    more the members' recommendations diverge.  Input shape is
    ``(n_members, n_samples, n_classes)``.
    """
    member_probas = np.asarray(member_probas, dtype=float)
    if member_probas.ndim != 3:
        raise ValueError("member_probas must be (n_members, n_samples, n_classes)")
    mean_entropy = vote_entropy(member_probas).mean(axis=0)
    entropy_of_mean = vote_entropy(member_probas.mean(axis=0))
    return np.maximum(entropy_of_mean - mean_entropy, 0.0)


def slice_budget(engine, n_shards: int = 0) -> int:
    """Slice cap keeping every card exact: one per imputer the engine
    can answer with (plus ``imputer:none`` for a failed row), per atlas
    cluster and per shard."""
    from repro.imputation import available_imputers

    classes = getattr(getattr(engine, "_ensemble", None), "classes_", ())
    imputers = set(available_imputers()) | {str(c) for c in classes}
    atlas = getattr(engine, "cluster_atlas_", None)
    n_clusters = len(atlas) if atlas is not None else 0
    return len(imputers) + 1 + n_clusters + int(n_shards)


# ---------------------------------------------------------------------------
# Health snapshot
# ---------------------------------------------------------------------------
@dataclass
class HealthSnapshot:
    """One serving-health document: sink views + drift + caches + backends.

    Build via :meth:`collect`; a document read back from JSON (a
    ``health`` line's answer) rebuilds with ``HealthSnapshot(**doc)``.
    Render via :meth:`to_json` (nested JSON) or
    :meth:`to_prometheus` (gauge-based text exposition, suitable for a
    node-exporter-style scrape file).  The traffic sections are the
    sink's lifetime views and the ``slo`` section its burn windows (see
    :mod:`repro.observability.slo`).
    """

    generated_at: str
    uptime_s: float
    n_requests: int
    n_series: int
    latency: dict
    series_latency: dict
    confidence: dict
    disagreement: dict
    recommendation_mix: dict
    drift: dict | None
    caches: dict
    backends: dict
    alerts: dict = field(default_factory=dict)
    resilience: dict = field(default_factory=dict)
    scorecards: dict = field(default_factory=dict)
    #: SLO engine status: per-series latency sketch, per-policy burn
    #: rates, per-slice budgets.
    slo: dict | None = None
    #: Resource accounting: RSS, live component bytes, kernel counters.
    resources: dict = field(default_factory=dict)
    #: Build identity (version + git sha), mirrored as repro_build_info.
    build: dict = field(default_factory=dict)

    @classmethod
    def collect(cls, daemon) -> "HealthSnapshot":
        """Assemble the health document of a
        :class:`~repro.serving.daemon.ServingDaemon`.

        The traffic sections come from the daemon's sink; ``per_shard``
        cards get ``series``, ``p50_s`` and ``p99_s`` from its
        ``shard:<id>`` slices.  The drift section is the detector's last
        report (``None`` without a detector).
        """
        from repro.parallel.executor import engine_stats
        from repro.resilience.stats import resilience_stats
        from repro.timeseries.batch import bank_cache_stats

        feature_cache = daemon.engine.extractor.cache
        # ``is not None`` matters: the cache defines ``__len__``, so an
        # *empty* cache is falsy but still worth reporting.
        caches = {
            "feature_cache": (
                feature_cache.stats() if feature_cache is not None else None
            ),
            # Process-wide SeriesBank derived-array cache (rFFT banks,
            # extractor spectra) — always reportable.
            "series_bank": bank_cache_stats(),
        }
        detector = daemon.drift_detector
        drift = None
        if detector is not None:
            report = detector.last_report
            drift = {
                "enabled": True,
                "n_alerts": detector.n_alerts,
                "report": report.as_dict() if report is not None else None,
            }
        backends = engine_stats()
        counts = daemon.stats()
        pool = counts["pool"]
        resilience = {
            "degraded_requests": counts["degraded"],
            "fallback_requests": counts["fallback"],
            "quarantined_members": (
                [f"shard-{i}" for i in pool["quarantined"]]
                + daemon.quarantined_members()
            ),
            "process": resilience_stats(),
            "resubmissions": pool["resubmissions"],
            "demotions": pool["demotions"],
        }
        tracker = daemon.slo_tracker
        views = tracker.views()
        slo = tracker.status()
        scorecards = {
            **views.pop("scorecards"),
            "per_shard": pool["per_shard"],
            "batching": counts["batching"],
        }
        for shard_id, card in scorecards["per_shard"].items():
            row = slo["slices"].get(f"shard:{shard_id}", {})
            card["series"] = row.get("n", 0)
            card["p50_s"] = row.get("p50", 0.0)
            card["p99_s"] = row.get("p99", 0.0)
        return cls(
            generated_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
            uptime_s=daemon.uptime,
            drift=drift,
            caches=caches,
            backends=backends,
            alerts={
                "drift_alerts": detector.n_alerts if detector else 0,
                "slo_alerts": slo["n_alerts"],
                "degraded_requests": resilience["degraded_requests"],
                "fallback_requests": resilience["fallback_requests"],
                "quarantined_members": len(resilience["quarantined_members"]),
                "shed_requests": counts["shed"],
                "error_requests": counts["errors"],
            },
            resilience=resilience,
            scorecards=scorecards,
            slo=slo,
            resources={
                **get_accounting().snapshot(),
                "kernels": kernel_stats(),
                "backend_decisions": {
                    backend: stats["batches"]
                    for backend, stats in backends.items()
                },
            },
            build=build_info(),
            **views,
        )

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def to_prometheus(self) -> str:
        """Render the snapshot as Prometheus gauges/counters, one family
        per :data:`PROMETHEUS_TABLE` row."""
        doc = self.as_dict()
        if not (self.drift or {}).get("report"):
            doc["drift"] = None  # a detector that never scored exports nothing
        registry = MetricsRegistry()
        for path, label, kind, family, help_text in PROMETHEUS_TABLE:
            for labels, value in _walk(doc, path.split("."), label, {}):
                instrument = getattr(registry, kind)(
                    family, help_text, labels=labels
                )
                if isinstance(value, (list, tuple)):
                    value = len(value)
                update = instrument.inc if kind == "counter" else instrument.set
                update(float(value or 0))
        return registry.to_prometheus()

    def export(self, path):
        """Write the snapshot; ``.prom``/``.txt`` selects Prometheus text."""
        return export_document(self, path)


def _walk(node, steps, label, labels):
    """Yield ``(labels, leaf)`` for one :data:`PROMETHEUS_TABLE` path."""
    if not steps:
        yield labels, node
        return
    if not node:  # missing, ``None`` or empty section: nothing to export
        return
    step, rest = steps[0], steps[1:]
    if step == "*":
        items = (
            [(item[label], item) for item in node]
            if isinstance(node, list)
            else node.items()
        )
    elif "|" in step:
        items = [(key, node.get(key)) for key in step.split("|")]
    else:
        yield from _walk(node.get(step), rest, label, labels)
        return
    for key, child in items:
        yield from _walk(child, rest, label, {**labels, label: key})


#: The Prometheus view of a health document, one row per family:
#: ``(path, label, type, family, help)``.  A dotted path walks the
#: document; a ``*`` step fans out over a section's keys (or, for a list,
#: its items, keyed by their ``label`` field) and an ``a|b`` step over
#: those fixed keys, each fan-out naming its series by ``label``.  A
#: missing or empty section exports nothing, a missing leaf reads 0, a
#: list leaf its length and a boolean 0/1.
PROMETHEUS_TABLE = (
    ("uptime_s", None, "gauge", "repro_serving_uptime_seconds", "Daemon uptime"),
    ("n_requests", None, "counter", "repro_serving_requests_total",
     "Requests served"),
    ("n_series", None, "counter", "repro_serving_series_total", "Series served"),
    *(
        (f"{section}.p50|p95|p99|mean", "stat", "gauge", family,
         f"Lifetime {family} (sketch-backed)")
        for section, family in (
            ("latency", "repro_serving_latency_seconds"),
            ("series_latency", "repro_serving_series_latency_seconds"),
            ("confidence", "repro_serving_confidence"),
            ("disagreement", "repro_serving_disagreement"),
        )
    ),
    ("recommendation_mix.counts.*", "algorithm", "counter",
     "repro_serving_recommendations_total", "Recommendations by algorithm"),
    ("drift.report.max_psi", None, "gauge", "repro_drift_psi_max",
     "Max per-feature PSI"),
    ("drift.report.max_ks", None, "gauge", "repro_drift_ks_max",
     "Max per-feature KS"),
    ("drift.report.triggered", None, "gauge", "repro_drift_triggered",
     "1 when drift thresholds are crossed"),
    ("drift.n_alerts", None, "counter", "repro_drift_alerts_total",
     "Drift alerts announced"),
    ("caches.*.hit_rate", "cache", "gauge", "repro_cache_hit_rate",
     "Cache hit rate"),
    ("caches.*.entries", "cache", "gauge", "repro_cache_entries",
     "Cache entry count"),
    ("backends.*.tasks", "backend", "counter", "repro_parallel_tasks_total",
     "Engine tasks by backend"),
    ("backends.*.batches", "backend", "counter", "repro_parallel_batches_total",
     "Engine batches by backend"),
    ("resilience.degraded_requests", None, "counter",
     "repro_serving_degraded_total", "Requests served degraded"),
    ("resilience.fallback_requests", None, "counter",
     "repro_serving_fallback_total", "Requests answered by the static fallback"),
    ("resilience.quarantined_members", None, "gauge",
     "repro_serving_quarantined_members",
     "Ensemble members currently quarantined"),
    ("resilience.process.*", "event", "counter",
     "repro_resilience_events_total", "Process-wide resilience events"),
    ("scorecards.per_imputer.*.n", "algorithm", "counter",
     "repro_serving_imputer_series_total", "Series repaired per imputer"),
    ("scorecards.per_imputer.*.degraded", "algorithm", "counter",
     "repro_serving_imputer_degraded_total",
     "Degraded recommendations per imputer"),
    ("scorecards.per_imputer.*.mean_confidence", "algorithm", "gauge",
     "repro_serving_imputer_confidence_mean",
     "Mean soft-vote confidence per imputer"),
    ("scorecards.per_cluster.*.n", "cluster", "counter",
     "repro_serving_cluster_series_total",
     "Series assigned per fit-time cluster"),
    ("scorecards.per_cluster.*.degraded", "cluster", "counter",
     "repro_serving_cluster_degraded_total",
     "Degraded recommendations per cluster"),
    ("scorecards.per_cluster.*.mean_ncc", "cluster", "gauge",
     "repro_serving_cluster_ncc_mean", "Mean NCC to the cluster representative"),
    ("slo.n_events", None, "counter", "repro_slo_events_total",
     "Events recorded by the SLO tracker"),
    ("slo.n_alerts", None, "counter", "repro_slo_alerts_total",
     "Burn-rate SLO alerts announced"),
    ("slo.policies.*.fast_burn", "policy", "gauge", "repro_slo_burn_rate_fast",
     "Fast-window error-budget burn rate per policy"),
    ("slo.policies.*.slow_burn", "policy", "gauge", "repro_slo_burn_rate_slow",
     "Slow-window error-budget burn rate per policy"),
    ("slo.policies.*.budget_remaining", "policy", "gauge",
     "repro_slo_budget_remaining",
     "Remaining error-budget fraction per policy (slow window)"),
    ("slo.policies.*.alerting", "policy", "gauge", "repro_slo_alerting",
     "1 while the policy's burn-rate alert is active"),
    ("resources.process.rss_bytes", None, "gauge", "repro_process_rss_bytes",
     "Resident set size"),
    ("resources.process.tracked_hwm_bytes", None, "gauge",
     "repro_process_rss_hwm_bytes", "Resident set high-water mark"),
    ("resources.accounts.*.bytes", "component", "gauge", "repro_resource_bytes",
     "Live bytes held per instrumented component"),
    ("resources.accounts.*.peak_bytes", "component", "gauge",
     "repro_resource_peak_bytes", "Peak live bytes per instrumented component"),
    ("resources.accounts.*.items", "component", "gauge", "repro_resource_items",
     "Live items held per instrumented component"),
    ("resources.kernels.*.calls", "kernel", "counter", "repro_kernel_calls_total",
     "Instrumented kernel invocations"),
    ("resources.kernels.*.bytes_moved", "kernel", "counter",
     "repro_kernel_bytes_moved_total", "Working-set bytes moved per kernel"),
    ("resources.kernels.*.chunks", "kernel", "counter",
     "repro_kernel_chunks_total", "Blockwise chunks executed per kernel"),
    ("resources.kernels.*.scratch_allocations", "kernel", "counter",
     "repro_kernel_scratch_allocations_total", "Scratch allocations per kernel"),
    ("resources.backend_decisions.*", "backend", "counter",
     "repro_backend_decisions_total", "Executor backend resolutions"),
)
