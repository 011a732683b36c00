"""Shared-memory transport tests: SharedArray lifecycle, bounded handle
size, attach-cache staleness, SeriesBank sharing, and the serving
engine's publish/attach/release cycle."""

import os
import pickle

import numpy as np
import pytest

from repro.parallel import SharedArray, active_segments, shm_available
from repro.timeseries.batch import SeriesBank

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable in this environment"
)


class TestSharedArray:
    def test_roundtrip_and_registry(self):
        data = np.arange(12.0).reshape(3, 4)
        seg = SharedArray.create(data)
        try:
            assert seg.handle[0] in active_segments()
            view = SharedArray.attach(seg.handle)
            np.testing.assert_array_equal(view.array, data)
            # Attached view is zero-copy: segments share the buffer.
            seg.array[0, 0] = 99.0
            assert view.array[0, 0] == 99.0
            view.close()
        finally:
            seg.close()
            seg.unlink()
        assert seg.handle[0] not in active_segments()

    def test_handle_is_tiny_compared_to_array(self):
        data = np.zeros((256, 1024))
        seg = SharedArray.create(data)
        try:
            handle_bytes = len(pickle.dumps(seg.handle))
            assert handle_bytes < 256
            assert handle_bytes * 1000 < data.nbytes
        finally:
            seg.close()
            seg.unlink()

    def test_unlink_is_idempotent(self):
        seg = SharedArray.create(np.ones(4))
        seg.close()
        seg.unlink()
        seg.unlink()  # no raise
        assert active_segments() == ()

    def test_non_contiguous_input_copied(self):
        base = np.arange(20.0).reshape(4, 5)
        strided = base[:, ::2]
        seg = SharedArray.create(strided)
        try:
            np.testing.assert_array_equal(seg.array, strided)
        finally:
            seg.close()
            seg.unlink()


class TestSharedMap:
    def test_series_bank_share_attach(self):
        rng = np.random.default_rng(2)
        bank = SeriesBank(rng.normal(size=(6, 48)))
        seg = bank.share()
        try:
            clone = SeriesBank.attach(seg.handle)
            np.testing.assert_array_equal(clone.raw, bank.raw)
            np.testing.assert_array_equal(clone.znorm, bank.znorm)
        finally:
            seg.unlink()
        assert active_segments() == ()


class TestAttachCacheStaleness:
    """Regression: segment names are recycled by the OS, so the attach
    cache must never serve a mapping whose geometry no longer matches
    the incoming handle."""

    def test_same_name_different_geometry_reattaches(self):
        from repro.parallel.shm import attach_cached, clear_attach_cache

        clear_attach_cache()
        seg = SharedArray.create(np.arange(16.0).reshape(4, 4))
        try:
            cached = attach_cached(seg.handle)
            assert cached.array.shape == (4, 4)
            # A recycled name arrives with different geometry: the stale
            # mapping must be dropped, not served as-is.
            recycled = (seg.handle[0], (2, 2), seg.handle[2])
            fresh = attach_cached(recycled)
            assert fresh is not cached
            assert fresh.array.shape == (2, 2)
            np.testing.assert_array_equal(
                fresh.array, np.arange(4.0).reshape(2, 2)
            )
            # And the fresh mapping is what the cache now holds.
            assert attach_cached(recycled) is fresh
        finally:
            clear_attach_cache()
            seg.close()
            seg.unlink()

    def test_dtype_mismatch_reattaches(self):
        from repro.parallel.shm import attach_cached, clear_attach_cache

        clear_attach_cache()
        seg = SharedArray.create(np.arange(8.0))
        try:
            cached = attach_cached(seg.handle)
            recycled = (seg.handle[0], (16,), np.dtype(np.float32).str)
            fresh = attach_cached(recycled)
            assert fresh is not cached
            assert fresh.array.dtype == np.float32
        finally:
            clear_attach_cache()
            seg.close()
            seg.unlink()

    def test_closed_cached_segment_reattaches(self):
        from repro.parallel.shm import attach_cached, clear_attach_cache

        clear_attach_cache()
        seg = SharedArray.create(np.ones(6))
        try:
            cached = attach_cached(seg.handle)
            cached.close()  # e.g. torn down by an earlier batch
            fresh = attach_cached(seg.handle)
            assert fresh is not cached
            np.testing.assert_array_equal(fresh.array, np.ones(6))
        finally:
            clear_attach_cache()
            seg.close()
            seg.unlink()


class TestFeatureCacheDurability:
    def test_put_leaves_no_temp_files(self, tmp_path):
        from repro.parallel import FeatureCache

        cache = FeatureCache(tmp_path)
        for i in range(4):
            cache.put(f"key{i}", np.arange(8.0) + i)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"key{i}.npy" for i in range(4)]

    def test_put_is_fsynced_before_rename(self, tmp_path, monkeypatch):
        """The published name must only ever point at flushed bytes."""
        import repro.parallel.cache as cache_mod
        from repro.parallel import FeatureCache

        order = []
        real_fsync = os.fsync
        real_replace = cache_mod.pathlib.Path.replace

        def spy_fsync(fd):
            order.append("fsync")
            return real_fsync(fd)

        def spy_replace(self, target):
            order.append(("replace", target.name))
            return real_replace(self, target)

        monkeypatch.setattr(cache_mod.os, "fsync", spy_fsync)
        monkeypatch.setattr(cache_mod.pathlib.Path, "replace", spy_replace)
        FeatureCache(tmp_path).put("abc", np.arange(4.0))
        assert order[0] == "fsync"  # file data flushed first
        assert ("replace", "abc.npy") in order
        np.testing.assert_array_equal(
            np.load(tmp_path / "abc.npy"), np.arange(4.0)
        )

    def test_reload_after_put(self, tmp_path):
        from repro.observability import MetricsRegistry, use_metrics
        from repro.parallel import FeatureCache

        FeatureCache(tmp_path).put("vec", np.linspace(0, 1, 5))
        fresh = FeatureCache(tmp_path)  # a new process
        with use_metrics(MetricsRegistry()):
            np.testing.assert_array_equal(
                fresh.get("vec"), np.linspace(0, 1, 5)
            )
            assert fresh.stats()["misses"] == 0


class TestSharedEngineLifecycle:
    """The serving daemon's engine transport rides the same SharedArray
    lifecycle rules: publish once, attach many, release exactly once."""

    def test_publish_attach_release(self, serving_engine):
        from repro.serving.shards import SharedEngine, attach_shared_engine
        from repro.timeseries import TimeSeries

        before = set(active_segments())
        export = SharedEngine.publish(serving_engine)
        created = set(active_segments()) - before
        assert len(created) == 2  # JSON document + training matrix
        assert export.nbytes > 0

        # An attached engine answers like the original.
        attached = attach_shared_engine(export.handle)
        rng = np.random.default_rng(7)
        t = np.linspace(0, 4 * np.pi, 96)
        values = np.sin(t) + 0.05 * rng.normal(size=96)
        values[30:45] = np.nan
        series = TimeSeries(values, name="probe")
        rec_a = serving_engine.recommend_many([series])[0]
        rec_b = attached.recommend_many([series])[0]
        assert rec_a.algorithm == rec_b.algorithm
        assert list(rec_a.ranking) == list(rec_b.ranking)
        fixed_a = serving_engine.repair_many([series], [rec_a])[0]
        fixed_b = attached.repair_many([series], [rec_b])[0]
        assert np.array_equal(
            fixed_a.values, fixed_b.values, equal_nan=True
        )

        export.release()
        assert set(active_segments()) & created == set()
        # Release is idempotent.
        export.release()

    def test_attached_matrix_is_zero_copy(self, serving_engine):
        from repro.parallel.shm import attach_cached
        from repro.serving.shards import SharedEngine, attach_shared_engine

        export = SharedEngine.publish(serving_engine)
        try:
            attached = attach_shared_engine(export.handle)
            segment = attach_cached(tuple(export.handle["train_x"]))
            X = attached._train_X
            # The imported engine's matrix must alias the shared segment,
            # not a per-worker copy: that is the zero-pickling claim.
            assert np.shares_memory(X, segment.array)
        finally:
            export.release()

    def test_pool_stop_unlinks_after_worker_crash(self, serving_engine):
        """Killing a shard process outright must not leak segments."""
        from repro.serving import LoadGenerator, ShardPool

        before = set(active_segments())
        pool = ShardPool(serving_engine, 2, backend="process")
        with pool:
            requests = LoadGenerator(seed=31, length=96).requests(4)
            results, shard_id, _ = pool.run_batch(requests)
            assert all(r["status"] == 200 for r in results)
            # Simulate an external kill of one worker process.
            victim = pool._shards[0].runner
            victim._proc.terminate()
            victim._proc.join(timeout=5)
        assert set(active_segments()) == before
