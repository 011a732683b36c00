"""Tests for resource accounting: registry, instrumentation, stamps."""

import gc

import numpy as np
import pytest

from repro.observability.resources import (
    AccountingRegistry,
    count_kernel,
    get_accounting,
    kernel_stats,
    resource_stamp,
    sample_rss,
)


def _inc(x):
    return x + 1


@pytest.fixture(autouse=True)
def _clean_registry():
    get_accounting().reset()
    yield
    get_accounting().reset()


class TestAccountingRegistry:
    def test_account_add_sub_and_peak(self):
        registry = AccountingRegistry()
        registry.account_add("bank", 1000, items=2)
        registry.account_add("bank", 500)
        registry.account_sub("bank", 300, items=1)
        snapshot = registry.snapshot()
        row = snapshot["accounts"]["bank"]
        assert row["bytes"] == 1200
        assert row["peak_bytes"] == 1500
        assert row["items"] == 2
        assert row["allocated_bytes"] == 1500
        assert row["allocations"] == 2

    def test_account_never_goes_negative(self):
        registry = AccountingRegistry()
        registry.account_add("x", 100)
        registry.account_sub("x", 500)
        assert registry.account_bytes("x") == 0

    def test_account_clear(self):
        registry = AccountingRegistry()
        registry.account_add("x", 100, items=3)
        registry.account_clear("x")
        row = registry.snapshot()["accounts"]["x"]
        assert row["bytes"] == 0 and row["items"] == 0
        assert row["peak_bytes"] == 100  # peaks survive clears

    def test_kernel_counters_accumulate(self, fresh_metrics):
        count_kernel("ncc", bytes_moved=100, chunks=2, scratch_allocations=1)
        count_kernel("ncc", bytes_moved=50, chunks=1)
        row = kernel_stats()["ncc"]
        assert row == {
            "calls": 2, "bytes_moved": 150, "chunks": 3,
            "scratch_allocations": 1,
        }
        assert fresh_metrics.counter(
            "repro_kernel_calls_total", labels={"kernel": "ncc"}
        ).value == 2

    def test_backend_decisions(self, fresh_metrics, idle_daemon):
        from repro.parallel import ParallelConfig
        from repro.parallel.executor import ExecutionEngine

        ExecutionEngine(ParallelConfig(n_jobs=1)).map(_inc, [1, 2])
        with ExecutionEngine(ParallelConfig(n_jobs=2, backend="thread")) as e:
            e.map(_inc, [1, 2])
            e.map(_inc, [3, 4])
        snapshot = idle_daemon().health()
        batches = {
            name: stats["batches"] for name, stats in snapshot.backends.items()
        }
        assert batches == {"serial": 1, "thread": 2}
        # Reported once: the resources section no longer repeats it.
        assert "backend_decisions" not in snapshot.resources

    def test_sample_reports_rss(self):
        registry = AccountingRegistry()
        sample = registry.sample()
        assert sample["rss_bytes"] > 0
        assert sample["hwm_bytes"] >= sample["rss_bytes"] > 0

    def test_reset(self):
        registry = AccountingRegistry()
        registry.account_add("x", 10)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["accounts"] == {}
        assert set(snapshot) == {"process", "accounts"}

    def test_sample_rss_positive(self):
        sample = sample_rss()
        assert sample["rss_bytes"] > 0
        assert sample["hwm_bytes"] >= sample["rss_bytes"]

    def test_resource_stamp_keys(self):
        stamp = resource_stamp()
        assert set(stamp) == {
            "rss_bytes", "rss_hwm_bytes", "series_bank_bytes",
            "series_bank_disk_bytes", "feature_cache_bytes",
            "score_memo_bytes", "shared_memory_bytes",
        }
        assert stamp["rss_bytes"] > 0

    def test_global_registry_is_singleton(self):
        assert get_accounting() is get_accounting()


class TestComponentInstrumentation:
    def test_series_bank_accounts_and_releases_on_gc(self):
        from repro.timeseries.batch import SeriesBank

        registry = get_accounting()
        base = registry.account_bytes("series_bank")
        rng = np.random.default_rng(0)
        bank = SeriesBank(rng.normal(size=(8, 64)))
        held = registry.account_bytes("series_bank") - base
        assert held >= bank.raw.nbytes
        del bank
        gc.collect()
        assert registry.account_bytes("series_bank") == base

    def test_series_bank_derived_arrays_grow_account(self):
        from repro.timeseries.batch import SeriesBank

        registry = get_accounting()
        rng = np.random.default_rng(1)
        bank = SeriesBank(rng.normal(size=(8, 64)))
        before = registry.account_bytes("series_bank")
        bank.cached("extra", lambda: np.zeros((8, 64)))
        assert registry.account_bytes("series_bank") > before
        del bank
        gc.collect()

    def test_feature_cache_tracks_bytes(self):
        from repro.parallel.cache import FeatureCache

        registry = get_accounting()
        cache = FeatureCache()
        vec = np.arange(10, dtype=float)
        cache.put("a" * 40, vec)
        assert registry.account_bytes("feature_cache") >= vec.nbytes
        assert cache.stats()["bytes"] >= vec.nbytes
        cache.clear()
        assert registry.account_bytes("feature_cache") == 0

    def test_feature_cache_replacement_is_delta_accounted(self):
        from repro.parallel.cache import FeatureCache

        registry = get_accounting()
        cache = FeatureCache()
        key = "k" * 40
        cache.put(key, np.zeros(100))
        cache.put(key, np.zeros(10))  # replace with a smaller vector
        assert registry.account_bytes("feature_cache") == \
            np.zeros(10).nbytes

    def test_feature_cache_memory_is_lru_capped(self):
        from repro.parallel.cache import FEATURE_CACHE_ENTRIES, FeatureCache

        registry = get_accounting()
        cache = FeatureCache()
        vector = np.zeros(56)
        first = FeatureCache.key(np.array([-1.0]), ("fp",))
        cache.put(first, vector)
        n = FEATURE_CACHE_ENTRIES + 50
        for i in range(n):
            key = FeatureCache.key(np.array([float(i)]), ("fp",))
            cache.put(key, vector)
            if i == FEATURE_CACHE_ENTRIES // 2:
                assert cache.get(first) is not None  # touched: most recent
        assert len(cache) == FEATURE_CACHE_ENTRIES
        assert registry.account_bytes("feature_cache") == \
            FEATURE_CACHE_ENTRIES * vector.nbytes
        assert cache.stats()["bytes"] == FEATURE_CACHE_ENTRIES * vector.nbytes
        assert cache.get(first) is not None
        oldest = FeatureCache.key(np.array([0.0]), ("fp",))
        assert cache.get(oldest) is None
        cache.clear()
        assert registry.account_bytes("feature_cache") == 0

    def test_feature_cache_eviction_keeps_disk_entries(
        self, tmp_path, monkeypatch, fresh_metrics
    ):
        from repro.features import FeatureExtractor
        from repro.parallel import cache as cache_module

        monkeypatch.setattr(cache_module, "FEATURE_CACHE_ENTRIES", 8)
        registry = get_accounting()
        cache = cache_module.FeatureCache(tmp_path)
        fx = FeatureExtractor(cache=cache)
        rng = np.random.default_rng(0)
        series = [rng.normal(size=40) for _ in range(20)]
        matrix = fx.extract_many(series)
        assert len(cache) == 8
        assert len(list(tmp_path.glob("*.npy"))) == 20
        assert registry.account_bytes("feature_cache") == 8 * matrix[0].nbytes
        # An evicted vector comes back from disk, byte-identical.
        again = fx.extract_many(series[:1])
        assert cache.stats()["hits"] == 1
        assert again.tobytes() == matrix[:1].tobytes()
        assert len(cache) == 8
        assert registry.account_bytes("feature_cache") == 8 * matrix[0].nbytes

    def test_score_memo_tracks_bytes(self):
        from repro.parallel.cache import ScoreMemo

        registry = get_accounting()
        memo = ScoreMemo()
        memo.put(("pipe", "fold"), 0.5)
        assert registry.account_bytes("score_memo") > 0
        memo.clear()
        assert registry.account_bytes("score_memo") == 0

    def test_shared_array_accounts_lifecycle(self, fresh_metrics):
        pytest.importorskip("multiprocessing.shared_memory")
        from repro.parallel.shm import SharedArray

        registry = get_accounting()
        arr = SharedArray.create(np.arange(32, dtype=float))
        try:
            assert registry.account_bytes("shared_memory") >= 32 * 8
            assert "shm_create" in kernel_stats()
        finally:
            arr.close()
            arr.unlink()
        assert registry.account_bytes("shared_memory") == 0
        # Double-unlink must not drive the account negative (guarded by
        # the _CREATED liveness check).
        arr.unlink()
        assert registry.account_bytes("shared_memory") == 0

    def test_batch_kernels_record_counters(self, fresh_metrics):
        from repro.timeseries.batch import SeriesBank, ncc_cross

        rng = np.random.default_rng(2)
        bank = SeriesBank(rng.normal(size=(6, 64)))
        bank.corr_matrix()
        ncc_cross(bank.znorm[:3], bank.znorm[3:])
        kernels = kernel_stats()
        assert kernels["corr_matrix"]["calls"] >= 1
        assert kernels["ncc_cross"]["bytes_moved"] > 0
        assert kernels["ncc_cross"]["chunks"] >= 1

    def test_extractor_block_kernel_recorded(self, fresh_metrics):
        from repro.features.extractor import FeatureExtractor
        from repro.timeseries.series import TimeSeries

        rng = np.random.default_rng(3)
        series = [
            TimeSeries(rng.normal(size=64), name=f"s{i}") for i in range(4)
        ]
        FeatureExtractor().extract_many(series)
        kernels = kernel_stats()
        assert "extract_block" in kernels
        assert kernels["extract_block"]["bytes_moved"] > 0

    def test_impute_block_kernel_recorded(self, fresh_metrics):
        from repro.imputation import get_imputer
        from repro.timeseries.series import TimeSeries

        rng = np.random.default_rng(4)
        series = []
        for i in range(4):
            values = rng.normal(size=48)
            values[10:16] = np.nan
            series.append(TimeSeries(values, name=f"s{i}"))
        imputer = get_imputer("linear")
        imputer.impute_many(series)
        kernels = kernel_stats()
        names = [k for k in kernels if k.startswith("impute_block.")]
        assert names, f"no impute_block kernel recorded: {sorted(kernels)}"
        assert kernels[names[0]]["chunks"] >= 1

    def test_executor_records_backend_decision(self, fresh_metrics):
        from repro.parallel import ParallelConfig, engine_stats
        from repro.parallel.executor import ExecutionEngine

        engine = ExecutionEngine(ParallelConfig(n_jobs=1, backend="serial"))
        engine.map(_inc, [1, 2, 3])
        assert engine_stats()["serial"]["batches"] == 1
        assert engine_stats()["serial"]["tasks"] == 3


class TestLedgerResourceStamps:
    def test_repair_rows_carry_resource_stamp(self, tmp_path):
        from repro import ADarts, ModelRaceConfig, TimeSeries
        from repro.observability import RepairLedger, read_ledger, use_ledger
        from repro.pipeline.scoring import ScoreWeights

        rng = np.random.default_rng(7)
        t = np.linspace(0, 4 * np.pi, 64)
        series, labels = [], []
        for i in range(6):
            series.append(TimeSeries(
                np.sin(t * (1 + 0.1 * i)) + 0.05 * rng.normal(size=64),
                name=f"s{i}",
            ))
            labels.append("linear")
        for i in range(6):
            series.append(TimeSeries(
                0.5 * np.cumsum(rng.normal(size=64)), name=f"w{i}",
            ))
            labels.append("mean")
        engine = ADarts(
            config=ModelRaceConfig(
                n_partial_sets=2, n_folds=2, max_elite=2, random_state=0,
                weights=ScoreWeights(alpha=0.5, beta=0.25, gamma=0.0),
            ),
            classifier_names=["knn"],
        )
        X = engine.extractor.extract_many(series)

        path = tmp_path / "ledger.jsonl"
        with RepairLedger(path) as ledger, use_ledger(ledger):
            engine.fit_features(X, np.array(labels))
            faulty = series[0].values.copy()
            faulty[5:12] = np.nan
            engine.recommend_many([TimeSeries(faulty, name="live")])

        rows = read_ledger(path)
        fits = [r for r in rows if r["kind"] == "fit"]
        repairs = [r for r in rows if r["kind"] == "repair"]
        assert fits and repairs
        for row in fits + repairs:
            stamp = row["data"]["resources"]
            assert stamp["rss_bytes"] > 0
            assert "series_bank_bytes" in stamp
