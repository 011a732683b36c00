"""Unit tests for the serving-side observability layer."""

import json

import numpy as np
import pytest

from repro import ADarts, ModelRaceConfig, TimeSeries
from repro.exceptions import NotFittedError
from repro.observability import (
    DriftDetector,
    DriftReport,
    FeatureBaseline,
    MetricsRegistry,
    SloPolicy,
    SloTracker,
    use_metrics,
)
from repro.observability.serving import (
    _bucket_proportions,
    ks_statistic,
    psi_statistic,
    vote_disagreement,
    vote_entropy,
)
from repro.pipeline.scoring import ScoreWeights
from repro.serving import RepairRequest, ServingDaemon

FAST_CONFIG = ModelRaceConfig(
    n_partial_sets=2, n_folds=2, max_elite=2, random_state=0,
    weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
)


@pytest.fixture
def rng():
    """Shadow the session-scoped conftest ``rng``.

    The drift assertions here are statistical; a *shared* generator
    would make them depend on how many draws earlier tests consumed.
    A fresh fixed-seed generator per test keeps them order-independent.
    """
    return np.random.default_rng(20240806)


def _make_corpus(rng, n_per_family=15, length=120):
    """Two contrasting series families with imputer-name labels."""
    series, labels = [], []
    t = np.linspace(0, 4 * np.pi, length)
    for i in range(n_per_family):
        values = np.sin(t * (1 + 0.05 * i)) + 0.05 * rng.normal(size=length)
        series.append(TimeSeries(values, name=f"sine{i}"))
        labels.append("linear")
    for i in range(n_per_family):
        values = 0.5 * np.cumsum(rng.normal(size=length))
        series.append(TimeSeries(values, name=f"walk{i}"))
        labels.append("mean")
    return series, np.array(labels)


@pytest.fixture(scope="module")
def served_engine():
    """A small fitted engine plus the series it was trained on."""
    rng = np.random.default_rng(7)
    series, labels = _make_corpus(rng)
    engine = ADarts(
        config=FAST_CONFIG, classifier_names=["knn", "decision_tree"]
    )
    X = engine.extractor.extract_many(series)
    engine.fit_features(X, labels)
    return engine, series


def _daemon(engine, batch=1, **kwargs):
    """One inline shard serving ``batch`` requests per batch."""
    return ServingDaemon(
        engine, n_shards=1, shard_backend="inline", max_batch=batch,
        max_delay_s=1.0, **kwargs,
    )


def _serve(daemon, series):
    """Submit one recommend request per series; block for the answers."""
    futures = daemon.submit_many([
        RepairRequest(id=s.name, values=s.values, mode="recommend")
        for s in series
    ])
    return [future.result(timeout=60) for future in futures]


def _shifted_series(rng, n, length=120):
    """Series far outside the training families (big offset + variance)."""
    return [
        TimeSeries(200.0 + 50.0 * rng.normal(size=length), name=f"shift{i}")
        for i in range(n)
    ]


class TestRollingWindow:
    """The contract the health document's rolling windows gave, now held
    by the sink's lifetime views (exact below ``k`` observations); the
    recent view is the SLO burn window."""

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SloTracker(sketch_k=0)

    def test_push_len_total(self):
        tracker = SloTracker(())
        for v in (1.0, 2.0, 3.0):
            tracker.record_series(v)
        view = tracker.views()["series_latency"]
        assert view["count"] == tracker.n_series == tracker.n_events == 3
        assert (view["min"], view["p50"], view["max"]) == (1.0, 2.0, 3.0)

    def test_recent_view_is_the_burn_window(self):
        now = [1000.0]
        policy = SloPolicy.latency("p99", threshold_s=0.1)
        tracker = SloTracker([policy], clock=lambda: now[0])
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            tracker.record_series(v)
        now[0] += policy.fast_window_s + 2 * tracker.bucket_s
        for v in (6.0, 7.0, 8.0):
            tracker.record_series(v)
        status = tracker.status()["policies"][0]
        assert status["fast_events"] == 3
        assert status["slow_events"] == 8
        assert tracker.views()["series_latency"]["count"] == 8

    def test_nonfinite_dropped(self):
        tracker = SloTracker(())
        for v in (1.0, np.nan, np.inf, 2.0):
            tracker.record_series(v)
        assert tracker.views()["series_latency"]["count"] == 2

    def test_summary_fields(self):
        tracker = SloTracker(())
        for v in np.arange(100, dtype=float):
            tracker.record_series(v)
        summary = tracker.views()["series_latency"]
        assert summary["count"] == 100
        assert summary["min"] == 0.0
        assert summary["max"] == 99.0
        assert summary["p50"] == pytest.approx(49.5)
        assert summary["p95"] >= summary["p50"]
        assert summary["p99"] >= summary["p95"]

    def test_empty_summary_zeroed(self):
        views = SloTracker().views()
        for name in ("latency", "series_latency", "confidence", "disagreement"):
            assert views[name]["count"] == 0
            assert views[name]["mean"] == 0.0


class TestFeatureBaseline:
    def test_from_matrix_shapes(self, rng):
        X = rng.normal(size=(200, 5))
        baseline = FeatureBaseline.from_matrix(X)
        assert baseline.n_features == 5
        assert baseline.feature_names == ("f0", "f1", "f2", "f3", "f4")
        assert baseline.n_samples == 200
        assert baseline.edges.shape == (5, baseline.n_bins - 1)
        assert baseline.expected.shape == (5, baseline.n_bins)
        assert np.allclose(baseline.expected.sum(axis=1), 1.0)
        assert baseline.sketch_values.shape == (5, 21)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            FeatureBaseline.from_matrix(np.arange(10.0))
        with pytest.raises(ValueError):
            FeatureBaseline.from_matrix(np.ones((1, 4)))

    def test_custom_names_and_mismatch_fallback(self, rng):
        X = rng.normal(size=(50, 3))
        named = FeatureBaseline.from_matrix(X, feature_names=["a", "b", "c"])
        assert named.feature_names == ("a", "b", "c")
        fallback = FeatureBaseline.from_matrix(X, feature_names=["a"])
        assert fallback.feature_names == ("f0", "f1", "f2")

    def test_dict_round_trip(self, rng):
        X = rng.normal(size=(80, 4))
        baseline = FeatureBaseline.from_matrix(X, feature_names=list("wxyz"))
        restored = FeatureBaseline.from_dict(
            json.loads(json.dumps(baseline.as_dict()))
        )
        assert restored.feature_names == baseline.feature_names
        assert restored.n_samples == baseline.n_samples
        assert np.allclose(restored.mean, baseline.mean)
        assert np.allclose(restored.edges, baseline.edges)
        assert np.allclose(restored.expected, baseline.expected)
        assert np.allclose(restored.sketch_values, baseline.sketch_values)


class TestDriftStatistics:
    def test_bucket_proportions_sum_to_one(self, rng):
        values = rng.normal(size=500)
        edges = np.percentile(values, [25, 50, 75])
        proportions = _bucket_proportions(values, edges)
        assert proportions.shape == (4,)
        assert proportions.sum() == pytest.approx(1.0)

    def test_psi_identical_near_zero(self):
        p = np.array([0.25, 0.25, 0.25, 0.25])
        assert psi_statistic(p, p) == pytest.approx(0.0)

    def test_psi_shift_is_large_and_finite(self):
        expected = np.array([0.5, 0.5, 0.0, 0.0])
        actual = np.array([0.0, 0.0, 0.5, 0.5])
        value = psi_statistic(expected, actual)
        assert np.isfinite(value)
        assert value > 1.0

    def test_ks_bounds(self, rng):
        a = rng.normal(size=400)
        assert ks_statistic(a, a) == pytest.approx(0.0)
        assert ks_statistic(a, a + 100.0) == pytest.approx(1.0)
        assert ks_statistic(np.zeros(50), np.zeros(50)) == pytest.approx(0.0)

    def test_ks_empty_sample(self):
        assert ks_statistic(np.array([]), np.arange(5.0)) == 0.0


class TestDriftDetector:
    @pytest.fixture
    def baseline(self, rng):
        return FeatureBaseline.from_matrix(
            rng.normal(size=(400, 3)), feature_names=["a", "b", "c"]
        )

    def test_warmup_returns_none(self, baseline, rng):
        detector = DriftDetector(baseline, window_size=64, min_samples=32)
        report = detector.update(rng.normal(size=(10, 3)))
        assert report is None

    def test_healthy_traffic_not_triggered(self, baseline, rng):
        detector = DriftDetector(baseline, window_size=128, min_samples=64)
        report = detector.update(rng.normal(size=(128, 3)))
        assert isinstance(report, DriftReport)
        assert not report.triggered
        assert detector.n_alerts == 0

    def test_shift_triggers_once_then_rearms(
        self, baseline, rng, fresh_metrics
    ):
        detector = DriftDetector(baseline, window_size=128, min_samples=64)
        # Sustained shift: one alert, not one per update.
        for _ in range(5):
            report = detector.update(8.0 + rng.normal(size=(128, 3)))
        assert report.triggered
        assert report.max_psi > detector.psi_threshold
        assert detector.n_alerts == 1
        assert detector.last_report is report
        assert fresh_metrics.total("repro_drift_alerts_total") == 1
        # Recovery flushes the window and re-arms the alert.
        recovered = detector.update(rng.normal(size=(128, 3)))
        assert not recovered.triggered
        detector.update(8.0 + rng.normal(size=(128, 3)))
        assert detector.n_alerts == 2
        assert fresh_metrics.total("repro_drift_alerts_total") == 2

    def test_report_shape_and_worst_feature(self, baseline, rng):
        detector = DriftDetector(baseline, window_size=128, min_samples=64)
        window = rng.normal(size=(128, 3))
        window[:, 1] += 10.0  # only feature "b" drifts
        report = detector.update(window)
        assert set(report.psi) == {"a", "b", "c"}
        assert report.worst_feature == "b"
        assert report.as_dict()["triggered"] is True

    def test_feature_count_mismatch_rejected(self, baseline, rng):
        detector = DriftDetector(baseline)
        with pytest.raises(ValueError):
            detector.update(rng.normal(size=(4, 5)))

    def test_add_is_due_once_per_min_samples_rows(self, baseline, rng):
        detector = DriftDetector(baseline, window_size=64, min_samples=16)
        due = [detector.add(rng.normal(size=(5, 3))) for _ in range(10)]
        # Five rows per call: due at row 20 (warm, 20 unscored), then at
        # row 40, the first call after 16 more rows.
        assert due == [False, False, False, True, False, False, False,
                       True, False, False]
        assert detector.last_report is None  # add() never scores
        assert detector.warm and detector._total == 50


class TestVoteDisagreement:
    def test_uniform_entropy(self):
        entropy = vote_entropy(np.full((2, 4), 0.25))
        assert np.allclose(entropy, np.log(4))

    def test_identical_members_zero(self):
        member = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
        stacked = np.stack([member, member, member])
        assert np.allclose(vote_disagreement(stacked), 0.0)

    def test_disagreeing_members_positive(self):
        confident_a = np.array([[0.98, 0.01, 0.01]])
        confident_b = np.array([[0.01, 0.98, 0.01]])
        value = vote_disagreement(np.stack([confident_a, confident_b]))
        assert value.shape == (1,)
        assert value[0] > 0.3

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            vote_disagreement(np.ones((2, 3)))


class TestInferenceMonitor:
    """The per-request telemetry the serving daemon reports."""

    def test_unfitted_engine_rejected(self):
        with pytest.raises(NotFittedError):
            ServingDaemon(ADarts())

    def test_recommend_matches_engine(self, served_engine):
        engine, series = served_engine
        direct = engine.recommend(series[0])
        with _daemon(engine) as daemon:
            (served,) = _serve(daemon, series[:1])
        assert served.algorithm == direct.algorithm
        assert served.ranking == direct.ranking

    def test_windows_and_mix_accumulate(self, served_engine):
        engine, series = served_engine
        with _daemon(engine, batch=10) as daemon:
            _serve(daemon, series[:10])
            _serve(daemon, series[:1])
            views = daemon.slo_tracker.views()
        assert views["n_requests"] == 11
        assert views["n_series"] == 11
        assert views["latency"]["count"] == 11
        assert views["series_latency"]["count"] == 11
        assert views["confidence"]["count"] == 11
        assert views["disagreement"]["count"] == 11
        mix = views["recommendation_mix"]
        assert sum(mix["counts"].values()) == 11
        assert sum(mix["fractions"].values()) == pytest.approx(1.0)
        confidence = views["confidence"]
        assert confidence["min"] > 0.0 and confidence["max"] <= 1.0

    def test_drift_detector_autobuilt(self, served_engine):
        engine, _ = served_engine
        daemon = _daemon(engine)
        assert daemon.drift_detector is not None
        assert daemon.drift_detector.baseline is engine.feature_baseline_

    def test_metrics_recorded_when_installed(self, served_engine):
        engine, series = served_engine
        registry = MetricsRegistry()
        with use_metrics(registry), _daemon(engine, batch=4) as daemon:
            _serve(daemon, series[:4])
        text = registry.to_prometheus()
        # One batch: one engine call over four series.
        assert "repro_inference_requests_total 1" in text
        assert "repro_inference_series_total 4" in text
        assert "repro_inference_seconds" in text


class TestHealthSnapshot:
    @pytest.fixture
    def snapshot(self, served_engine):
        engine, series = served_engine
        detector = DriftDetector(engine.feature_baseline_, min_samples=8)
        with _daemon(engine, drift_detector=detector) as daemon:
            _serve(daemon, series[:12])
            return daemon.health()

    def test_document_keys(self, snapshot):
        document = snapshot.as_dict()
        for key in (
            "generated_at", "uptime_s", "n_requests", "n_series",
            "latency", "series_latency", "confidence", "disagreement",
            "recommendation_mix", "drift", "caches", "backends", "alerts",
        ):
            assert key in document
        assert document["n_requests"] == 12
        for stat in ("p50", "p95", "p99", "mean"):
            assert stat in document["latency"]
        assert document["drift"]["enabled"] is True
        assert document["drift"]["report"]["n_samples"] == 12

    def test_json_round_trip(self, snapshot):
        document = json.loads(snapshot.to_json())
        assert document["n_series"] == 12
        mix = document["recommendation_mix"]
        assert sum(mix["counts"].values()) == 12

    def test_prometheus_rendering(self, snapshot):
        text = snapshot.to_prometheus()
        assert "repro_serving_requests_total 12" in text
        assert 'repro_serving_latency_seconds{stat="p95"}' in text
        assert "repro_drift_psi_max" in text
        assert "repro_serving_recommendations_total" in text

    def test_export_by_extension(self, snapshot, tmp_path):
        json_path = snapshot.export(tmp_path / "health.json")
        prom_path = snapshot.export(tmp_path / "health.prom")
        assert json.loads(json_path.read_text())["n_requests"] == 12
        assert "# TYPE" in prom_path.read_text()

    def test_collect_with_explicit_caches(self, served_engine):
        """The feature-cache section is the engine extractor's cache."""
        import copy

        from repro.parallel import FeatureCache

        engine, series = served_engine
        engine = copy.deepcopy(engine)
        engine.extractor.cache = FeatureCache()
        with _daemon(engine) as daemon:
            _serve(daemon, series[:1])
            _serve(daemon, series[:1])
            snapshot = daemon.health()
        assert snapshot.caches["feature_cache"]["hits"] == 1
        assert snapshot.caches["feature_cache"]["misses"] == 1
        assert "series_bank" in snapshot.caches
