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
    use_fault_injector,
)
from repro.serving import RepairRequest, ServingDaemon

pytestmark = pytest.mark.chaos

FAST_CONFIG = ModelRaceConfig(
    n_partial_sets=2, n_folds=2, max_elite=2, random_state=0,
    weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
)


@pytest.fixture(autouse=True)
def _fresh_stats(fresh_metrics):
    """Every test counts into its own registry (``resilience_stats``
    reads the installed one)."""
    yield fresh_metrics


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


def _counters(registry) -> dict:
    """Every counter series of ``registry``: ``{(name, labels): value}``."""
    return {
        (name, labels): doc["value"]
        for name, series in registry.as_dict().items()
        for labels, doc in series.items()
        if doc["type"] == "counter"
    }


class TestEachEventCountedOnce:
    def test_fault_events_move_one_counter_each(
        self, engine_and_series, fresh_metrics
    ):
        """One lost shard batch (resubmitted), one failed member vote that
        quarantines the member and one degraded request: each moves one
        registry counter by exactly 1, and the health document reads
        those counts back."""
        from repro.parallel import ExecutionEngine, ParallelConfig
        from repro.resilience import CircuitBreaker, resilience_stats

        engine, series = engine_and_series
        # Quarantine the member on its first failed vote.
        engine._ensemble.breaker = CircuitBreaker(1, name="ensemble")
        lost_batch = FaultPlan(
            [FaultRule(site="serving.shard", match="shard-0", times=1)], seed=0
        )
        daemon = ServingDaemon(
            engine, n_shards=2, shard_backend="inline", max_batch=1,
            max_delay_s=1.0, injector=lost_batch.injector(),
        )
        ExecutionEngine(ParallelConfig(n_jobs=1)).map(abs, [-1, -2, -3])
        before = _counters(fresh_metrics)
        with daemon, use_fault_injector(
            _poison(match="#0", times=1).injector()
        ):
            responses = _serve(daemon, series[:1])
            snapshot = daemon.health()
        assert [r.status for r in responses] == [200]
        assert responses[0].degraded
        after = _counters(fresh_metrics)
        moved = {
            key: after[key] - before.get(key, 0.0)
            for key in after
            if after[key] != before.get(key, 0.0)
        }
        fault_counts = {
            key: delta for key, delta in moved.items()
            if key[0].startswith(
                ("repro_resilience_", "repro_ensemble_", "repro_serving_")
            ) or key[0] in (
                "repro_inference_degraded_total",
                "repro_inference_fallback_total",
            )
        }
        assert fault_counts == {
            ("repro_resilience_faults_injected_total",
             '{kind="raise",site="serving.shard"}'): 1.0,
            ("repro_resilience_faults_injected_total",
             '{kind="raise",site="ensemble.member"}'): 1.0,
            ("repro_serving_shard_failures_total", '{shard="0"}'): 1.0,
            ("repro_ensemble_member_failures_total",
             '{member="knn"}'): 1.0,
            ("repro_resilience_quarantines_total",
             '{scope="ensemble"}'): 1.0,
            ("repro_inference_degraded_total", "_"): 1.0,
        }
        expected = dict.fromkeys(resilience_stats(), 0)
        expected.update(
            faults_injected=2, quarantines=1, member_failures=1,
            degraded_requests=1,
        )
        assert snapshot.resilience["process"] == expected
        assert resilience_stats() == expected
        assert snapshot.resilience["resubmissions"] == 1
        assert snapshot.resilience["degraded_requests"] == 1
        kernels = snapshot.resources["kernels"]
        assert kernels["serving_batch"] == {
            "calls": 1, "bytes_moved": series[0].values.nbytes, "chunks": 1,
            "scratch_allocations": 0,
        }
        assert snapshot.backends == {
            "serial": {
                "batches": 1, "tasks": 3,
                "seconds": snapshot.backends["serial"]["seconds"],
            },
        }
        assert "backend_decisions" not in snapshot.resources
