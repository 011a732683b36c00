"""Tests for the SLO engine: quantile sketch + burn-rate tracker."""

import pickle

import numpy as np
import pytest

from repro import TimeSeries
from repro.observability.slo import (
    QuantileSketch,
    SloPolicy,
    SloTracker,
    default_policies,
)
from repro.serving import RepairRequest, ServingDaemon

QS = (0.5, 0.95, 0.99)


def _distributions(seed):
    # Positive support throughout (like latencies): relative error is
    # ill-defined where a quantile crosses zero.
    rng = np.random.default_rng(seed)
    return {
        "normal": rng.normal(10.0, 3.0, size=10_000),
        "lognormal": rng.lognormal(0.0, 1.0, size=10_000),
        "uniform": rng.uniform(0.5, 10.5, size=10_000),
        "exponential": rng.exponential(2.0, size=10_000),
    }


def _rel_err(estimate, exact, scale):
    return abs(estimate - exact) / max(abs(exact), 1e-9 * scale)


class TestQuantileSketch:
    def test_exact_below_capacity(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=500)
        sketch = QuantileSketch()
        sketch.extend(data)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert sketch.quantile(q) == pytest.approx(
                np.percentile(data, q * 100), abs=1e-12
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parity_with_np_percentile(self, seed):
        # Acceptance bar: p50/p95/p99 within 1% relative error of
        # np.percentile on >= 3 distributions at n=10k.
        for name, data in _distributions(seed).items():
            sketch = QuantileSketch()
            sketch.extend(data)
            spread = float(np.ptp(data))
            for q in QS:
                exact = float(np.percentile(data, q * 100))
                err = _rel_err(sketch.quantile(q), exact, spread)
                assert err < 0.01, (
                    f"{name} seed={seed} p{q * 100:g}: rel err {err:.4%}"
                )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merge_of_halves_matches_whole(self, seed):
        for name, data in _distributions(seed).items():
            left, right = QuantileSketch(), QuantileSketch()
            left.extend(data[: len(data) // 2])
            right.extend(data[len(data) // 2:])
            merged = QuantileSketch().merge(left).merge(right)
            assert merged.count == len(data)
            spread = float(np.ptp(data))
            for q in QS:
                exact = float(np.percentile(data, q * 100))
                err = _rel_err(merged.quantile(q), exact, spread)
                assert err < 0.01, (
                    f"merged {name} seed={seed} p{q * 100:g}: {err:.4%}"
                )

    def test_merge_folds_in_place_without_touching_other(self):
        # merge() is an in-place fold: returns self, never mutates other.
        rng = np.random.default_rng(3)
        a, b = QuantileSketch(), QuantileSketch()
        a.extend(rng.normal(size=100))
        b.extend(rng.normal(size=100))
        before_b = b.quantile(0.5)
        merged = a.merge(b)
        assert merged is a
        assert a.count == 200
        assert b.count == 100
        assert b.quantile(0.5) == before_b

    def test_picklable(self):
        rng = np.random.default_rng(4)
        data = rng.lognormal(size=20_000)
        sketch = QuantileSketch()
        sketch.extend(data)
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.count == sketch.count
        for q in QS:
            assert clone.quantile(q) == sketch.quantile(q)
        # The revived sketch keeps accepting updates (fresh lock).
        clone.update(1.0)
        assert clone.count == sketch.count + 1

    def test_fixed_memory(self):
        # Stored items stay bounded while the count grows unbounded.
        sketch = QuantileSketch(k=128)
        rng = np.random.default_rng(5)
        sketch.extend(rng.normal(size=50_000))
        stored = sum(len(level) for level in sketch._levels)
        assert sketch.count == 50_000
        assert stored < 128 * 8

    def test_min_max_exact(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=30_000)
        sketch = QuantileSketch(k=64)
        sketch.extend(data)
        assert sketch.quantile(0.0) == float(data.min())
        assert sketch.quantile(1.0) == float(data.max())

    def test_empty_and_validation(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) == 0.0
        assert sketch.summary()["count"] == 0
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            QuantileSketch(k=2)

    def test_summary_keys(self):
        sketch = QuantileSketch()
        sketch.extend([1.0, 2.0, 3.0])
        summary = sketch.summary()
        assert set(summary) == {
            "count", "mean", "min", "max", "p50", "p95", "p99",
        }
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(2.0)


class TestSloPolicy:
    def test_latency_constructor_maps_quantile_to_budget(self):
        policy = SloPolicy.latency("p99", quantile=0.99, threshold_s=0.05)
        assert policy.kind == "latency"
        assert policy.budget == pytest.approx(0.01)
        assert policy.threshold == pytest.approx(0.05)
        assert "p99" in policy.describe()
        assert "50ms" in policy.describe()

    def test_error_rate_constructor(self):
        policy = SloPolicy.error_rate("errors", budget=0.001)
        assert policy.kind == "error_rate"
        assert policy.budget == pytest.approx(0.001)
        assert "0.100%" in policy.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            SloPolicy(name="bad", kind="latency", budget=0.0, threshold=1.0)
        with pytest.raises(ValueError):
            SloPolicy(name="bad", kind="nope", budget=0.1, threshold=1.0)

    def test_default_policies_have_unique_names(self):
        names = [p.name for p in default_policies()]
        assert len(names) == len(set(names)) >= 3


class _FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _tracker(policies=None):
    clock = _FakeClock()
    tracker = SloTracker(
        policies
        or [SloPolicy.latency("lat_p99", quantile=0.99, threshold_s=0.1)],
        clock=clock,
    )
    return tracker, clock


class TestSloTracker:
    def test_healthy_traffic_never_alerts(self):
        tracker, clock = _tracker()
        for _ in range(200):
            tracker.record_series(0.01, check=False)
            clock.advance(1.0)
        assert tracker.evaluate() == []
        assert tracker.n_alerts == 0

    def test_burn_rate_alert_fires_and_rearms_deterministically(self):
        tracker, clock = _tracker()

        # Phase 1: sustained badness -> both windows burn -> one alert.
        for _ in range(50):
            tracker.record_series(0.5, check=False)
            clock.advance(1.0)
        fired = tracker.evaluate()
        assert [a.policy for a in fired] == ["lat_p99"]
        assert fired[0].fast_burn >= tracker.policies[0].fast_burn
        assert fired[0].n_events >= tracker.policies[0].min_events
        # Alert latches: continued badness does not re-fire.
        tracker.record_series(0.5, check=False)
        assert tracker.evaluate() == []
        assert tracker.n_alerts == 1

        # Phase 2: recovery — healthy traffic pushes the fast window
        # under its burn threshold, re-arming the policy.
        for _ in range(400):
            tracker.record_series(0.01, check=False)
            clock.advance(1.0)
        assert tracker.evaluate() == []
        status = tracker.status()["policies"][0]
        assert status["alerting"] is False

        # Phase 3: second excursion fires again.
        for _ in range(50):
            tracker.record_series(0.5, check=False)
            clock.advance(1.0)
        second = tracker.evaluate()
        assert [a.policy for a in second] == ["lat_p99"]
        assert second[0] is not fired[0]
        assert tracker.n_alerts == 2
        assert tracker.status()["policies"][0]["n_alerts"] == 2

    def test_min_events_guard(self):
        tracker, clock = _tracker()
        for _ in range(5):  # below min_events=10
            tracker.record_series(9.9, check=False)
            clock.advance(1.0)
        assert tracker.evaluate() == []

    def test_error_rate_policy(self):
        tracker, clock = _tracker([SloPolicy.error_rate("err", budget=0.01)])
        for i in range(100):
            tracker.record_series(0.01, error=i % 2 == 0, check=False)
            clock.advance(1.0)
        fired = tracker.evaluate()
        assert [a.policy for a in fired] == ["err"]
        assert fired[0].kind == "error_rate"

    def test_slices_track_per_key_scorecards(self):
        tracker, clock = _tracker()
        for i in range(20):
            tracker.record_series(
                0.5 if i % 2 else 0.01,
                slices=("imputer:cdrec", "cluster:3"),
                check=False,
            )
            clock.advance(1.0)
        slices = tracker.status()["slices"]
        assert set(slices) == {"imputer:cdrec", "cluster:3"}
        row = slices["imputer:cdrec"]
        assert row["n"] == 20
        assert row["bad"]["lat_p99"] == 10

    def test_slice_overflow_folds(self):
        tracker, clock = _tracker()
        tracker.max_slices = 4
        for i in range(10):
            tracker.record_series(0.01, slices=(f"cluster:{i}",), check=False)
        slices = tracker.status()["slices"]
        assert "overflow" in slices
        assert len(slices) <= 5  # 4 + overflow

    def test_duplicate_policy_names_rejected(self):
        with pytest.raises(ValueError):
            SloTracker(
                [
                    SloPolicy.latency("x", threshold_s=0.1),
                    SloPolicy.latency("x", threshold_s=0.2),
                ]
            )

    def test_status_document_shape(self):
        tracker, clock = _tracker()
        tracker.record_series(0.02, check=False)
        status = tracker.status()
        assert set(status) == {
            "n_events", "n_alerts", "latency_sketch", "policies", "slices",
        }
        policy = status["policies"][0]
        for key in (
            "policy", "kind", "objective", "fast_burn", "slow_burn",
            "budget_remaining", "alerting", "n_alerts",
        ):
            assert key in policy


class TestShardFoldPattern:
    """The serving daemon's fold: per-shard sketches merged into one
    fleet view, and one tracker fed by N interleaved shard streams."""

    def test_merged_shard_sketches_match_whole_stream(self):
        rng = np.random.default_rng(7)
        stream = rng.lognormal(mean=-4.0, sigma=0.8, size=20_000)
        whole = QuantileSketch(1024)
        for value in stream:
            whole.update(value)
        # Round-robin the same stream over 4 "shards", then fold.
        shards = [QuantileSketch(1024) for _ in range(4)]
        for i, value in enumerate(stream):
            shards[i % 4].update(value)
        merged = QuantileSketch(1024)
        for sketch in shards:
            merged.merge(sketch)
        assert merged.count == whole.count == len(stream)
        exact = np.quantile(stream, [0.5, 0.9, 0.99])
        scale = float(stream.max() - stream.min())
        for q, truth in zip((0.5, 0.9, 0.99), exact):
            for view in (whole, merged):
                assert _rel_err(view.quantile(q), truth, scale) < 0.02
        # The documented 1% tolerance: the fold equals the whole stream.
        for q in (0.5, 0.9, 0.99):
            assert _rel_err(
                merged.quantile(q), whole.quantile(q), scale
            ) < 0.01

    def test_merge_concurrent_with_updates(self):
        """Folding shard sketches while shards keep writing is safe: no
        lost counts, no crash — the daemon's health() runs live."""
        import threading

        shards = [QuantileSketch(128) for _ in range(4)]
        n_per_shard = 5_000
        stop = threading.Event()
        merge_counts = []

        def writer(sketch, seed):
            rng = np.random.default_rng(seed)
            for value in rng.random(n_per_shard):
                sketch.update(value)

        def folder():
            while not stop.is_set():
                merged = QuantileSketch(128)
                for sketch in shards:
                    merged.merge(sketch)
                merge_counts.append(merged.count)

        threads = [
            threading.Thread(target=writer, args=(s, i))
            for i, s in enumerate(shards)
        ]
        fold_thread = threading.Thread(target=folder)
        fold_thread.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        fold_thread.join()
        final = QuantileSketch(128)
        for sketch in shards:
            final.merge(sketch)
        assert final.count == 4 * n_per_shard
        assert merge_counts == sorted(merge_counts)  # counts only grow

    def test_alerts_identical_one_stream_vs_merged_shards(self):
        """Burn-rate alerts depend on the event multiset per bucket, not
        on which shard delivered each event."""

        def run(order):
            tracker, clock = _tracker(
                [SloPolicy.latency(
                    "p99", quantile=0.99, threshold_s=0.1, min_events=10,
                )]
            )
            fired = []
            for second in range(120):
                clock.advance(1.0)
                for shard in order(second):
                    # Each "shard" contributes one bad event per tick
                    # once the outage starts at t=60.
                    latency = 0.5 if second >= 60 else 0.01
                    tracker.record_series(
                        latency, slices=(f"shard:{shard}",), check=False
                    )
                fired.extend(a.policy for a in tracker.evaluate())
            return fired, tracker.n_alerts, tracker.status()

        single, n_single, status_single = run(lambda s: [0, 0, 0, 0])
        merged, n_merged, status_merged = run(
            lambda s: [(s + k) % 4 for k in range(4)]
        )
        assert single == merged
        assert n_single == n_merged == 1
        for a, b in zip(
            status_single["policies"], status_merged["policies"]
        ):
            assert a["fast_burn"] == b["fast_burn"]
            assert a["slow_burn"] == b["slow_burn"]
            assert a["n_alerts"] == b["n_alerts"]

    def test_concurrent_record_latency_exact_counts(self):
        """8 threads hammering one tracker lose no events or buckets."""
        import threading

        tracker, clock = _tracker()
        n_threads, n_events = 8, 2_000

        def hammer(seed):
            rng = np.random.default_rng(seed)
            for value in rng.random(n_events):
                tracker.record_series(
                    0.01 * value, slices=("shard:%d" % (seed % 4),),
                    check=False,
                )

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        status = tracker.status()
        assert tracker.n_events == n_threads * n_events
        assert tracker.sketch.count == n_threads * n_events
        assert sum(
            s["n"] for s in status["slices"].values()
        ) == n_threads * n_events
        for policy in status["policies"]:
            assert policy["slow_events"] == n_threads * n_events

    def test_concurrent_record_request_views_stay_exact(self):
        """Writers folding whole requests while a reader renders the
        views: no lost request, series, mix or slice count."""
        import sys
        import threading

        tracker, clock = _tracker()
        n_threads, n_requests = 8, 300
        stop = threading.Event()

        def writer(seed):
            for i in range(n_requests):
                algorithm = "linear" if (seed + i) % 2 else "mean"
                event = {
                    "seconds": 0.001 * (i % 7),
                    "algorithm": algorithm,
                    "confidence": 0.5,
                    "slices": (f"imputer:{algorithm}", f"shard:{seed % 2}"),
                }
                tracker.record_request(0.01, (event, event), check=False)

        def reader():
            while not stop.is_set():
                tracker.views()
                tracker.status()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(i,))
                for i in range(n_threads)
            ]
            render = threading.Thread(target=reader)
            render.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            stop.set()
            render.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not render.is_alive()
        assert not any(t.is_alive() for t in threads)
        total = n_threads * n_requests
        views = tracker.views()
        assert views["n_requests"] == views["latency"]["count"] == total
        assert views["n_series"] == views["series_latency"]["count"] == 2 * total
        assert sum(views["recommendation_mix"]["counts"].values()) == 2 * total
        cards = views["scorecards"]["per_imputer"]
        assert sum(card["n"] for card in cards.values()) == 2 * total
        slices = tracker.status()["slices"]
        assert slices["shard:0"]["n"] + slices["shard:1"]["n"] == 2 * total


class TestMonitoredTraffic:
    def test_one_slo_event_per_served_series(self, serving_engine):
        # One request per series, through the daemon's stock policies.
        rng = np.random.default_rng(23)
        t = np.linspace(0, 4 * np.pi, 96)
        traffic = []
        for i in range(16):
            values = np.sin(t * (1 + 0.03 * i)) + 0.05 * rng.normal(size=96)
            lo = 10 + (i % 5)
            values[lo : lo + 16] = np.nan
            traffic.append(TimeSeries(values, name=f"live{i}"))
        with ServingDaemon(
            serving_engine, n_shards=1, shard_backend="inline", max_batch=1
        ) as daemon:
            for series in traffic:
                daemon.submit(RepairRequest(
                    id=series.name, values=series.values, mode="recommend"
                )).result(timeout=60)
        tracker = daemon.slo_tracker
        status = tracker.status()
        assert status["n_events"] == len(traffic), (
            "one SLO event per served series"
        )
        assert status["latency_sketch"]["p99"] > 0.0
        assert any(key.startswith("imputer:") for key in status["slices"])
