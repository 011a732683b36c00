"""End-to-end serving observability: train, serve, drift, health document.

The acceptance scenario for the serving layer: train A-DARTS on a
synthetic corpus, push >= 200 recommendations through a
:class:`~repro.serving.ServingDaemon`, verify that in-distribution
traffic does NOT trigger its drift detector, then inject feature-shifted
series and verify that it DOES — and that the resulting health document
renders in both JSON and Prometheus forms.

When ``REPRO_HEALTH_SNAPSHOT_OUT`` is set (CI does this), the final
health snapshot is also written there so the workflow can upload it as
an artifact; ``REPRO_LEDGER_OUT`` does the same for the serving-time
repair provenance ledger.
"""

import contextlib
import json
import os
import pathlib
import shutil

import numpy as np
import pytest

from repro import ADarts, ModelRaceConfig, TimeSeries
from repro.clustering.atlas import ClusterAtlas
from repro.observability import (
    DriftDetector,
    RepairLedger,
    Tracer,
    read_ledger,
    summarize_ledger,
    use_ledger,
    use_tracer,
)
from repro.pipeline.scoring import ScoreWeights
from repro.serving import RepairRequest, ServingDaemon

FAST_CONFIG = ModelRaceConfig(
    n_partial_sets=2, n_folds=2, max_elite=2, random_state=0,
    weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
)
LENGTH = 120


def _training_corpus(rng, n_per_family=20):
    series, labels = [], []
    t = np.linspace(0, 4 * np.pi, LENGTH)
    for i in range(n_per_family):
        values = np.sin(t * (1 + 0.04 * i)) + 0.05 * rng.normal(size=LENGTH)
        series.append(TimeSeries(values, name=f"sine{i}"))
        labels.append("linear")
    for i in range(n_per_family):
        values = 0.5 * np.cumsum(rng.normal(size=LENGTH))
        series.append(TimeSeries(values, name=f"walk{i}"))
        labels.append("mean")
    return series, np.array(labels)


def _in_distribution_series(rng, n, corpus):
    """Lightly perturbed resamples of the training corpus.

    A 40-series corpus cannot characterise a whole random-walk family,
    so "healthy" traffic is the corpus itself under small measurement
    noise — exactly the regime the drift detector must stay quiet in.
    """
    out = []
    for i in range(n):
        source = corpus[i % len(corpus)]
        scale = 0.01 * (np.std(source.values) or 1.0)
        values = source.values + scale * rng.normal(size=len(source.values))
        out.append(TimeSeries(values, name=f"live{i}"))
    return out


def _shifted_series(rng, n):
    """Traffic far outside the training envelope (offset + variance)."""
    return [
        TimeSeries(
            300.0 + 80.0 * rng.normal(size=LENGTH), name=f"shift{i}"
        )
        for i in range(n)
    ]


def _daemon(engine, batch, **kwargs):
    """One inline shard serving ``batch`` requests per batch."""
    return ServingDaemon(
        engine, n_shards=1, shard_backend="inline", max_batch=batch,
        max_delay_s=1.0, **kwargs,
    )


def _serve(daemon, series):
    """One recommend request per series; blocks for the answers."""
    futures = daemon.submit_many([
        RepairRequest(id=s.name, values=s.values, mode="recommend",
                      name=s.name)
        for s in series
    ])
    return [future.result(timeout=60) for future in futures]


def _family_atlas(corpus):
    """fit_features has no clustering phase, so the two training
    families are registered as atlas representatives by hand."""
    t = np.linspace(0, 4 * np.pi, LENGTH)
    atlas = ClusterAtlas()
    atlas.add("corpus:c0", "linear", np.sin(t))
    atlas.add(
        "corpus:c1",
        "mean",
        np.mean([s.values for s in corpus[20:]], axis=0),
    )
    return atlas


@pytest.fixture(scope="module")
def trained_engine():
    rng = np.random.default_rng(42)
    series, labels = _training_corpus(rng)
    engine = ADarts(
        config=FAST_CONFIG, classifier_names=["knn", "decision_tree"]
    )
    X = engine.extractor.extract_many(series)
    engine.fit_features(X, labels)
    assert engine.feature_baseline_ is not None
    return engine, series


class TestServingEndToEnd:
    def test_monitor_drift_and_health_document(
        self, trained_engine, tmp_path, fresh_metrics
    ):
        engine, corpus = trained_engine
        rng = np.random.default_rng(99)
        detector = DriftDetector(
            engine.feature_baseline_, window_size=128, min_samples=64
        )
        daemon = _daemon(engine, 8, drift_detector=detector).start()

        # -- phase 1: >= 200 in-distribution recommendations --------------
        live = _in_distribution_series(rng, 200, corpus)
        for start in range(0, len(live), 8):
            _serve(daemon, live[start : start + 8])
        views = daemon.slo_tracker.views()
        assert views["n_series"] == views["n_requests"] == 200
        assert detector.last_report is not None, "drift window warmed up"
        assert not detector.last_report.triggered, (
            f"in-distribution traffic must not trigger drift "
            f"(max PSI {detector.last_report.max_psi:.3f})"
        )
        assert detector.n_alerts == 0
        assert fresh_metrics.total("repro_drift_alerts_total") == 0

        # Confidence/disagreement views carry plausible values.
        confidence = views["confidence"]
        assert confidence["count"] == 200
        assert confidence["min"] > 0.0 and confidence["max"] <= 1.0
        assert views["disagreement"]["count"] == 200
        assert views["disagreement"]["min"] >= 0.0
        mix = views["recommendation_mix"]["counts"]
        assert sum(mix.values()) == 200
        assert set(mix) <= {"linear", "mean"}

        # -- phase 2: feature-shifted traffic triggers the detector --------
        shifted = _shifted_series(rng, 160)
        for start in range(0, len(shifted), 8):
            _serve(daemon, shifted[start : start + 8])
        assert detector.last_report.triggered, (
            f"shifted traffic must trigger drift "
            f"(max PSI {detector.last_report.max_psi:.3f})"
        )
        assert detector.n_alerts >= 1
        alerts = fresh_metrics.total("repro_drift_alerts_total")
        assert alerts == detector.n_alerts
        assert detector.last_report.max_psi > detector.psi_threshold

        # -- phase 3: the health document, both renderings -----------------
        snapshot = daemon.health()
        daemon.stop()
        document = json.loads(snapshot.to_json())
        assert document["n_series"] == 360
        assert document["latency"]["count"] > 0
        assert document["latency"]["p95"] >= document["latency"]["p50"] >= 0
        assert document["confidence"]["count"] > 0
        assert document["drift"]["enabled"] is True
        assert document["drift"]["n_alerts"] >= 1
        assert document["drift"]["report"]["triggered"] is True
        assert document["caches"]["feature_cache"] is None or (
            "hit_rate" in document["caches"]["feature_cache"]
        )

        prometheus = snapshot.to_prometheus()
        assert "repro_serving_requests_total" in prometheus
        assert 'repro_serving_latency_seconds{stat="p99"}' in prometheus
        assert "repro_drift_psi_max" in prometheus
        assert "repro_drift_triggered 1" in prometheus
        assert "repro_drift_alerts_total" in prometheus

        # -- round trip through export -------------------------------------
        json_path = snapshot.export(tmp_path / "health.json")
        prom_path = snapshot.export(tmp_path / "health.prom")
        assert json.loads(json_path.read_text())["n_series"] == 360
        assert "repro_drift_psi_max" in prom_path.read_text()

        # -- CI artifact hook ----------------------------------------------
        out = os.environ.get("REPRO_HEALTH_SNAPSHOT_OUT")
        if out:
            snapshot.export(pathlib.Path(out))

    def test_monitored_results_identical_to_bare_engine(self, trained_engine):
        engine, corpus = trained_engine
        rng = np.random.default_rng(5)
        series = _in_distribution_series(rng, 10, corpus)
        with _daemon(engine, 10) as daemon:
            served = _serve(daemon, series)
        bare = engine.recommend_many(series)
        for a, b in zip(served, bare):
            assert a.algorithm == b.algorithm
            assert a.ranking == b.ranking
            assert a.confidence == b.probabilities[b.algorithm]

    def test_ledger_and_scorecards_during_serving(
        self, trained_engine, tmp_path
    ):
        engine, corpus = trained_engine
        engine.cluster_atlas_ = _family_atlas(corpus)

        ledger_path = tmp_path / "serving_ledger.jsonl"
        ledger = RepairLedger(ledger_path)
        rng = np.random.default_rng(7)
        live = _in_distribution_series(rng, 24, corpus)
        try:
            with use_tracer(Tracer()), use_ledger(ledger), \
                    _daemon(engine, 24) as daemon:
                _serve(daemon, live)
                snapshot = daemon.health()
        finally:
            engine.cluster_atlas_ = None
        ledger.close()

        # Every served series produced a repair row with full lineage.
        rows = read_ledger(ledger_path)
        repairs = [r for r in rows if r["kind"] == "repair"]
        assert len(repairs) == 24
        assert [r["data"]["series"] for r in repairs] == [s.name for s in live]
        assert all(r["trace_id"] for r in repairs), (
            "the engine's span must stamp trace ids onto ledger rows"
        )
        assert all(r["data"]["cluster"]["cluster"] for r in repairs)

        # Scorecards accumulate per imputer and per cluster.
        cards = snapshot.scorecards
        assert set(cards["per_imputer"]) <= {"linear", "mean"}
        assert sum(c["n"] for c in cards["per_imputer"].values()) == 24
        for card in cards["per_imputer"].values():
            assert 0.0 < card["mean_confidence"] <= 1.0
        assert cards["per_cluster"]
        assert sum(c["n"] for c in cards["per_cluster"].values()) == 24
        for card in cards["per_cluster"].values():
            assert -1.0 <= card["mean_ncc"] <= 1.0

        # The audited ledger cards are the same fold as the live ones.
        audited = summarize_ledger(rows)["repairs"]
        for live_cards, ledger_view in (
            (cards["per_imputer"], audited["per_algorithm"]),
            (cards["per_cluster"], audited["per_cluster"]),
        ):
            assert list(live_cards) == list(ledger_view)
            for name, card in live_cards.items():
                other = ledger_view[name]
                assert (card["n"], card["degraded"]) == (
                    other["n"], other["degraded"]
                )
                for key in ("mean_confidence", "mean_ncc"):
                    if key in card:
                        assert card[key] == pytest.approx(
                            other[key], abs=1e-12
                        )

        # Both health-document renderings surface the scorecards.
        document = snapshot.as_dict()
        assert document["scorecards"]["per_imputer"] == cards["per_imputer"]
        prometheus = snapshot.to_prometheus()
        assert "repro_serving_imputer_series_total" in prometheus
        assert "repro_serving_imputer_confidence_mean" in prometheus
        assert "repro_serving_cluster_ncc_mean" in prometheus

        # -- CI artifact hook ----------------------------------------------
        out = os.environ.get("REPRO_LEDGER_OUT")
        if out:
            shutil.copyfile(ledger_path, pathlib.Path(out))

    @pytest.mark.parametrize("with_ledger", [False, True], ids=["bare", "ledger"])
    def test_one_atlas_assignment_per_served_series(
        self, trained_engine, monkeypatch, with_ledger
    ):
        engine, corpus = trained_engine
        monkeypatch.setattr(engine, "cluster_atlas_", _family_atlas(corpus))
        assign = ClusterAtlas.assign
        calls = []

        def counting_assign(atlas, values):
            calls.append(1)
            return assign(atlas, values)

        monkeypatch.setattr(ClusterAtlas, "assign", counting_assign)
        live = _in_distribution_series(np.random.default_rng(9), 20, corpus)
        ledger = RepairLedger()
        events = []
        with contextlib.ExitStack() as stack:
            if with_ledger:
                stack.enter_context(use_ledger(ledger))
            daemon = stack.enter_context(_daemon(engine, 20))
            record = daemon.slo_tracker.record_request

            def capture(latency, batch_events, **kwargs):
                events.extend(batch_events)
                return record(latency, batch_events, **kwargs)

            monkeypatch.setattr(daemon.slo_tracker, "record_request", capture)
            _serve(daemon, live)
        assert len(calls) == 20
        slices = [
            s for event in events for s in event["slices"]
            if s.startswith("cluster:")
        ]
        assert len(slices) == 20
        if with_ledger:
            repairs = [r for r in ledger.records() if r["kind"] == "repair"]
            assert [
                f"cluster:{r['data']['cluster']['cluster']}" for r in repairs
            ] == slices

    def test_serving_without_ledger_unchanged(self, trained_engine):
        engine, corpus = trained_engine
        rng = np.random.default_rng(13)
        series = _in_distribution_series(rng, 6, corpus)
        # No ledger installed: no repair rows, but scorecards still work.
        with _daemon(engine, 6) as daemon:
            served = _serve(daemon, series)
            cards = daemon.health().scorecards
        assert all(r.status == 200 for r in served)
        assert sum(c["n"] for c in cards["per_imputer"].values()) == 6
        assert cards["per_cluster"] == {}

    def test_baseline_survives_save_load(self, trained_engine, tmp_path):
        from repro.core.serialization import load_engine, save_engine

        engine, corpus = trained_engine
        path = save_engine(engine, tmp_path / "engine.json")
        restored = load_engine(path)
        assert restored.feature_baseline_ is not None
        detector = DriftDetector(restored.feature_baseline_, min_samples=8)
        rng = np.random.default_rng(3)
        with _daemon(restored, 8, drift_detector=detector) as daemon:
            served = _serve(daemon, _in_distribution_series(rng, 8, corpus))
        assert len(served) == 8
        assert detector.last_report is not None
