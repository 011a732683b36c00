"""Serving-path degradation: member drops, quarantine, and static fallback.

These tests poison ensemble members through the ``ensemble.member`` fault
site and assert the serving daemon *degrades* — drops the failing member,
eventually quarantines it, or answers from the static fallback — while
the request itself always succeeds and every degradation leaves an
observable trace (counters, metrics, health-snapshot sections).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import ADarts, ModelRaceConfig, TimeSeries
from repro.core.voting import MEMBER_QUARANTINE_THRESHOLD
from repro.observability import MetricsRegistry, use_metrics
from repro.pipeline.scoring import ScoreWeights
from repro.resilience import (
    FaultPlan,
    FaultRule,
    reset_resilience_stats,
    use_fault_injector,
)
from repro.serving import RepairRequest, ServingDaemon

pytestmark = pytest.mark.chaos

FAST_CONFIG = ModelRaceConfig(
    n_partial_sets=2, n_folds=2, max_elite=2, random_state=0,
    weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
)


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_resilience_stats()
    yield
    reset_resilience_stats()


def _make_corpus(rng, n_per_family=12, length=100):
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
def fitted_engine():
    rng = np.random.default_rng(11)
    series, labels = _make_corpus(rng)
    engine = ADarts(
        config=FAST_CONFIG, classifier_names=["knn", "decision_tree"]
    )
    X = engine.extractor.extract_many(series)
    engine.fit_features(X, labels)
    return engine, series


@pytest.fixture
def engine_and_series(fitted_engine):
    """Per-test deep copy so breaker state never leaks between tests."""
    engine, series = fitted_engine
    return copy.deepcopy(engine), series


def _poison(match=None, **kwargs):
    return FaultPlan(
        [FaultRule(site="ensemble.member", match=match, **kwargs)], seed=0
    )


def _daemon(engine, batch):
    """One inline shard that serves ``batch`` requests as one batch."""
    return ServingDaemon(
        engine, n_shards=1, shard_backend="inline", max_batch=batch,
        max_delay_s=1.0,
    )


def _serve(daemon, series):
    """One batch of recommend requests; blocks for the responses."""
    futures = daemon.submit_many([
        RepairRequest(id=f"r{i}", values=s.values, mode="recommend")
        for i, s in enumerate(series)
    ])
    return [future.result(timeout=60) for future in futures]


class TestMemberDegradation:
    def test_failing_member_is_dropped_not_fatal(self, engine_and_series):
        engine, series = engine_and_series
        with _daemon(engine, 3) as daemon:
            with use_fault_injector(_poison(match="#0").injector()):
                responses = _serve(daemon, series[:3])
            snapshot = daemon.health()
        assert [r.status for r in responses] == [200] * 3
        assert all(r.degraded for r in responses)
        assert snapshot.resilience["degraded_requests"] == 3
        assert snapshot.resilience["fallback_requests"] == 0
        # Member #0 failed the one vote; the healthy member still voted.
        assert snapshot.resilience["process"]["member_failures"] == 1
        assert snapshot.disagreement["count"] == 3

    def test_degradation_counters_recorded(self, engine_and_series):
        engine, series = engine_and_series
        registry = MetricsRegistry()
        with use_metrics(registry), _daemon(engine, 2) as daemon:
            with use_fault_injector(_poison(match="#0").injector()):
                _serve(daemon, series[:2])
        text = registry.to_prometheus()
        assert "repro_inference_degraded_total 1" in text
        assert "repro_ensemble_member_failures_total" in text

    def test_repeated_failures_quarantine_member_once(self, engine_and_series):
        engine, series = engine_and_series
        with _daemon(engine, 2) as daemon:
            with use_fault_injector(_poison(match="#0").injector()):
                for _ in range(MEMBER_QUARANTINE_THRESHOLD + 2):
                    _serve(daemon, series[:2])
            quarantined = daemon.quarantined_members()
            # Post-quarantine requests skip the member but still answer.
            responses = _serve(daemon, series[:2])
            members = daemon.health().resilience["quarantined_members"]
        assert len(quarantined) == 1 and quarantined[0].endswith("#0")
        assert members == quarantined  # listed once
        assert [r.status for r in responses] == [200, 200]
        assert all(r.degraded for r in responses)

    def test_full_ensemble_failure_serves_static_fallback(
        self, engine_and_series
    ):
        engine, series = engine_and_series
        with _daemon(engine, 4) as daemon:
            with use_fault_injector(_poison().injector()):  # every member
                responses = _serve(daemon, series[:4])
            snapshot = daemon.health()
        assert [r.status for r in responses] == [200] * 4
        assert all(r.degraded for r in responses)
        # The documented fallback preference: "linear" when trained on it.
        assert {r.algorithm for r in responses} == {"linear"}
        assert snapshot.resilience["fallback_requests"] == 4
        assert snapshot.resilience["degraded_requests"] == 4
        # A fallback answer has no vote to disagree about.
        assert snapshot.disagreement["count"] == 0

    def test_healthy_requests_are_not_flagged(self, engine_and_series):
        engine, series = engine_and_series
        with _daemon(engine, 3) as daemon:
            responses = _serve(daemon, series[:3])
            stats = daemon.stats()
        assert [r.status for r in responses] == [200] * 3
        assert not any(r.degraded for r in responses)
        assert stats["degraded"] == 0
        assert stats["fallback"] == 0


class TestHealthSnapshotResilience:
    def _degraded_daemon(self, engine, series):
        daemon = _daemon(engine, 2).start()
        with use_fault_injector(_poison(match="#0").injector()):
            for _ in range(MEMBER_QUARANTINE_THRESHOLD):
                _serve(daemon, series[:2])
        return daemon

    def test_snapshot_reports_degradation(self, engine_and_series):
        engine, series = engine_and_series
        with self._degraded_daemon(engine, series) as daemon:
            snapshot = daemon.health()
        resilience = snapshot.resilience
        assert resilience["degraded_requests"] == 2 * MEMBER_QUARANTINE_THRESHOLD
        assert resilience["fallback_requests"] == 0
        assert any(m.endswith("#0") for m in resilience["quarantined_members"])
        assert "member_failures" in resilience["process"]
        alerts = snapshot.alerts
        assert alerts["degraded_requests"] == 2 * MEMBER_QUARANTINE_THRESHOLD
        assert alerts["quarantined_members"] >= 1
        document = snapshot.as_dict()
        assert document["resilience"] == resilience

    def test_snapshot_prometheus_exposition(self, engine_and_series):
        engine, series = engine_and_series
        with self._degraded_daemon(engine, series) as daemon:
            text = daemon.health().to_prometheus()
        assert "repro_serving_degraded_total" in text
        assert "repro_serving_fallback_total" in text
        assert "repro_serving_quarantined_members 1" in text
        assert 'repro_resilience_events_total{event="member_failures"}' in text

    def test_clean_monitor_reports_zeroes(self, engine_and_series):
        engine, series = engine_and_series
        with _daemon(engine, 2) as daemon:
            _serve(daemon, series[:2])
            snapshot = daemon.health()
        assert snapshot.resilience["degraded_requests"] == 0
        assert snapshot.resilience["fallback_requests"] == 0
        assert snapshot.resilience["quarantined_members"] == []
