"""Unit tests for repro.parallel: config, engine, and caches."""

import numpy as np
import pytest

from repro.exceptions import ValidationError, WorkerCrashError
from repro.observability import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.parallel import (
    AUTO_PROCESS_MIN_TASKS,
    ExecutionEngine,
    FeatureCache,
    ParallelConfig,
    ScoreMemo,
    available_cpus,
    hash_array,
    hash_arrays,
)


def _square(x):
    return x * x


class TestParallelConfig:
    def test_defaults_are_serial(self):
        cfg = ParallelConfig()
        assert cfg.n_jobs == 1
        assert cfg.resolve_backend(1000) == "serial"

    def test_invalid_backend(self):
        with pytest.raises(ValidationError):
            ParallelConfig(backend="gpu")

    def test_invalid_chunk_size(self):
        with pytest.raises(ValidationError):
            ParallelConfig(chunk_size=0)

    def test_zero_jobs_means_all_cpus(self):
        assert ParallelConfig(n_jobs=0).effective_jobs == available_cpus()
        assert ParallelConfig(n_jobs=-1).effective_jobs == available_cpus()

    def test_auto_backend_scales_with_workload(self):
        cfg = ParallelConfig(n_jobs=4, backend="auto")
        assert cfg.resolve_backend(1) == "serial"
        assert cfg.resolve_backend(AUTO_PROCESS_MIN_TASKS - 1) == "thread"
        assert cfg.resolve_backend(AUTO_PROCESS_MIN_TASKS) == "process"

    def test_explicit_backend_respected(self):
        cfg = ParallelConfig(n_jobs=4, backend="thread")
        assert cfg.resolve_backend(1000) == "thread"

    def test_single_job_always_serial(self):
        cfg = ParallelConfig(n_jobs=1, backend="process")
        assert cfg.resolve_backend(1000) == "serial"

    def test_chunk_size_derivation(self):
        cfg = ParallelConfig(n_jobs=4)
        assert cfg.resolve_chunk_size(16) == 1
        assert cfg.resolve_chunk_size(160) == 10
        assert ParallelConfig(n_jobs=4, chunk_size=7).resolve_chunk_size(160) == 7

    def test_with_jobs(self):
        cfg = ParallelConfig(n_jobs=1, backend="thread", chunk_size=3)
        other = cfg.with_jobs(8)
        assert other.n_jobs == 8
        assert other.backend == "thread"
        assert other.chunk_size == 3


class TestExecutionEngine:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_map_preserves_order(self, backend):
        engine = ExecutionEngine(ParallelConfig(n_jobs=4, backend=backend))
        items = list(range(37))
        assert engine.map(_square, items) == [x * x for x in items]

    def test_empty_batch(self):
        assert ExecutionEngine().map(_square, []) == []

    def test_default_config_is_serial(self):
        assert ExecutionEngine().config.n_jobs == 1

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("task failed")

        engine = ExecutionEngine(ParallelConfig(n_jobs=2, backend="thread"))
        with pytest.raises(RuntimeError, match="task failed"):
            engine.map(boom, [1, 2, 3])

    def test_task_errors_are_answers_not_crashes(self):
        """Only a lost worker demotes a batch: a task that raises a
        crash-class error just propagates it, with no serial rerun."""

        def crashy(x):
            raise WorkerCrashError("task-level failure")

        engine = ExecutionEngine(ParallelConfig(n_jobs=2, backend="thread"))
        with engine, pytest.raises(WorkerCrashError):
            engine.map(crashy, list(range(8)), label="crashy")
        assert engine.n_demotions == 0

    def test_batch_emits_span_and_metrics(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        engine = ExecutionEngine(ParallelConfig(n_jobs=2, backend="thread"))
        with use_tracer(tracer), use_metrics(registry):
            engine.map(_square, list(range(8)), label="test.batch")
        names = [s.name for s in tracer.finished_spans()]
        assert "test.batch" in names
        span = next(s for s in tracer.finished_spans() if s.name == "test.batch")
        assert span.tags["backend"] == "thread"
        assert span.tags["n_tasks"] == 8
        doc = registry.as_dict()
        assert "repro_parallel_tasks_total" in doc
        (labels_repr, payload), = doc["repro_parallel_tasks_total"].items()
        assert 'backend="thread"' in labels_repr
        assert payload["value"] == 8


class TestHashing:
    def test_hash_array_content_addressed(self):
        a = np.arange(10, dtype=float)
        assert hash_array(a) == hash_array(a.copy())
        b = a.copy()
        b[3] += 1e-12
        assert hash_array(a) != hash_array(b)

    def test_hash_array_dtype_and_shape_sensitive(self):
        a = np.arange(6, dtype=float)
        assert hash_array(a) != hash_array(a.reshape(2, 3))
        assert hash_array(a) != hash_array(a.astype(np.float32))

    def test_hash_object_labels(self):
        y1 = np.array(["knn", "linear"], dtype=object)
        y2 = np.array(["knn", "linear"], dtype=object)
        y3 = np.array(["knn", "cdrec"], dtype=object)
        assert hash_array(y1) == hash_array(y2)
        assert hash_array(y1) != hash_array(y3)

    def test_hash_arrays_extra_context(self):
        a = np.arange(4, dtype=float)
        assert hash_arrays(a, extra="ctx1") != hash_arrays(a, extra="ctx2")


class TestFeatureCache:
    def test_memory_roundtrip_bit_identical(self):
        cache = FeatureCache()
        vec = np.array([1.0, np.pi, -0.5])
        key = cache.key(np.arange(5, dtype=float), ("fp",))
        assert cache.get(key) is None
        cache.put(key, vec)
        out = cache.get(key)
        assert out.tobytes() == vec.tobytes()
        # Returned copies are independent of the stored vector.
        out[0] = 99.0
        assert cache.get(key)[0] == 1.0

    def test_hit_miss_accounting(self, fresh_metrics):
        cache = FeatureCache()
        key = cache.key(np.ones(3), ("fp",))
        cache.get(key)
        cache.put(key, np.zeros(2))
        cache.get(key)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert cache.hit_rate == stats["hit_rate"] == 0.5
        # Counted once, on the registry: every instance reads the
        # process-wide totals.
        assert fresh_metrics.total("repro_feature_cache_hits_total") == 1
        assert FeatureCache().stats()["hits"] == 1

    def test_disk_persistence(self, tmp_path, fresh_metrics):
        vec = np.array([0.25, -1.75, 3.5])
        key = FeatureCache.key(np.arange(4, dtype=float), ("fp", 3))
        first = FeatureCache(tmp_path)
        first.put(key, vec)
        # A brand-new cache instance (fresh process, conceptually) hits disk.
        second = FeatureCache(tmp_path)
        out = second.get(key)
        assert out is not None
        assert out.tobytes() == vec.tobytes()
        assert second.stats()["hits"] == 1

    def test_key_depends_on_fingerprint(self):
        values = np.arange(8, dtype=float)
        assert FeatureCache.key(values, ("a",)) != FeatureCache.key(values, ("b",))

    def test_clear(self, tmp_path):
        cache = FeatureCache(tmp_path)
        key = cache.key(np.ones(2), ())
        cache.put(key, np.ones(2))
        cache.clear(disk=True)
        assert len(cache) == 0
        assert cache.get(key) is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: b"",
            lambda raw: raw[:20],
            lambda raw: raw[:-8],
            lambda raw: b"these bytes are not an npy file",
        ],
        ids=["empty", "truncated-header", "truncated-data", "not-npy"],
    )
    def test_unreadable_entry_is_a_miss(self, tmp_path, caplog, corrupt):
        from repro.features.extractor import FeatureExtractor
        from repro.timeseries.series import TimeSeries

        rng = np.random.default_rng(5)
        series = [TimeSeries(rng.normal(size=48).cumsum(), name=f"s{i}")
                  for i in range(3)]
        cold = FeatureExtractor().extract_many(series)
        FeatureExtractor(cache=FeatureCache(tmp_path)).extract_many(series)
        entry = sorted(tmp_path.glob("*.npy"))[0]
        entry.write_bytes(corrupt(entry.read_bytes()))
        cache = FeatureCache(tmp_path)
        with caplog.at_level("WARNING", logger="repro"), use_metrics(
            MetricsRegistry()
        ):
            warm = FeatureExtractor(cache=cache).extract_many(series)
            stats = cache.stats()
        assert any("unreadable cache entry" in r.getMessage()
                   for r in caplog.records)
        assert stats["misses"] == 1 and stats["hits"] == 2
        assert warm.tobytes() == cold.tobytes()

    def test_metrics_counters_flow(self):
        registry = MetricsRegistry()
        cache = FeatureCache()
        key = cache.key(np.ones(2), ())
        with use_metrics(registry):
            cache.get(key)
            cache.put(key, np.ones(2))
            cache.get(key)
        doc = registry.as_dict()
        assert doc["repro_feature_cache_hits_total"]["_"]["value"] == 1
        assert doc["repro_feature_cache_misses_total"]["_"]["value"] == 1


class TestScoreMemo:
    def test_roundtrip_and_accounting(self, fresh_metrics):
        memo = ScoreMemo()
        key = (("knn", (), "standard", ()), "foldhash")
        assert memo.get(key) is None
        memo.put(key, "score-object")
        assert memo.get(key) == "score-object"
        assert memo.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "hit_rate": 0.5,
        }
        assert memo.hit_rate == 0.5
        memo.clear()
        assert len(memo) == 0
        # The registry counters are process-wide and monotonic.
        assert memo.stats()["hits"] == 1
        assert fresh_metrics.total("repro_race_score_memo_misses_total") == 1
