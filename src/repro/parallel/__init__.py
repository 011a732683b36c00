"""repro.parallel — backend-pluggable execution engine and hot-path caches.

The performance substrate of the reproduction:

* :class:`ParallelConfig` — the ``n_jobs`` / ``backend`` / ``chunk_size``
  knob bundle threaded through ``ModelRaceConfig``, ``ADarts``,
  ``ClusterLabeler``, and the CLI;
* :class:`ExecutionEngine` — order-preserving ``map`` over ``serial`` /
  ``thread`` / ``process`` backends (``auto`` selects by workload size),
  instrumented into the process tracer/metrics registry;
* :class:`FeatureCache` — content-hash keyed series→feature-vector cache
  with optional on-disk persistence under ``~/.cache/repro``;
* :class:`ScoreMemo` — per-race memo of (pipeline, fold-content) →
  :class:`~repro.pipeline.scoring.PipelineScore`.

Everything degrades gracefully: with the default configuration
(``n_jobs=1``) every instrumented call site executes the exact
historical serial code path.
"""

from repro.parallel.cache import (
    FeatureCache,
    ScoreMemo,
    default_cache_dir,
    hash_array,
    hash_arrays,
)
from repro.parallel.config import (
    AUTO_MIN_BATCH_SECONDS,
    AUTO_PROCESS_MIN_SECONDS,
    AUTO_PROCESS_MIN_TASKS,
    AUTO_SERIAL_MAX_TASKS,
    BACKENDS,
    TARGET_CHUNK_SECONDS,
    ParallelConfig,
    SERIAL,
    available_cpus,
)
from repro.parallel.executor import (
    ExecutionEngine,
    engine_stats,
    reset_engine_stats,
)
from repro.parallel.shm import (
    SharedArray,
    active_segments,
    attach_cached,
    clear_attach_cache,
    shm_available,
)

__all__ = [
    "AUTO_MIN_BATCH_SECONDS",
    "AUTO_PROCESS_MIN_SECONDS",
    "AUTO_PROCESS_MIN_TASKS",
    "AUTO_SERIAL_MAX_TASKS",
    "BACKENDS",
    "TARGET_CHUNK_SECONDS",
    "ExecutionEngine",
    "FeatureCache",
    "ParallelConfig",
    "SERIAL",
    "ScoreMemo",
    "SharedArray",
    "active_segments",
    "attach_cached",
    "available_cpus",
    "clear_attach_cache",
    "default_cache_dir",
    "engine_stats",
    "hash_array",
    "hash_arrays",
    "reset_engine_stats",
    "shm_available",
]
