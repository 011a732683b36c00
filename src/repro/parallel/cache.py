"""Content-addressed caches for the feature-extraction and race hot paths.

Two caches, both counting hits and misses once, on the process metrics
registry (so ``stats()`` reports the process-wide totals of all instances
of its class, as :func:`~repro.timeseries.batch.bank_cache_stats` does):

* :class:`FeatureCache` — maps ``sha1(series bytes + extractor
  fingerprint)`` to the extracted feature vector, keeping at most
  :data:`FEATURE_CACHE_ENTRIES` of them in memory (least recently used
  evicted first).  Optionally persists
  each vector as an ``.npy`` file under a cache directory (default
  ``~/.cache/repro/features``, overridable via ``REPRO_CACHE_DIR``), so
  repeated runs over the same corpus skip extraction entirely.
* :class:`ScoreMemo` — a per-race memo of ``(pipeline config key, fold
  content hash)`` → :class:`~repro.pipeline.scoring.PipelineScore`.
  Because the key hashes the *content* of the fold's training data, any
  repeat of identical work — nested partial sets that resolve to the
  same fold, or back-to-back races over the same corpus when the memo is
  shared — returns the cached score instead of refitting the pipeline.

Keys are content hashes, never object identities, so cache correctness
is invariant to how the caller arrived at the data.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import sys
import threading
from collections import OrderedDict

import numpy as np

from repro.observability import get_logger, get_metrics
from repro.observability.metrics import lookup_stats
from repro.observability.resources import get_accounting

_log = get_logger(__name__)

#: In-memory entries one :class:`FeatureCache` keeps before evicting the
#: least recently used (~1.8 MB of 56-feature vectors).  Bounds a
#: long-running server's cache on non-repeating traffic; persisted
#: ``.npy`` entries are never evicted.
FEATURE_CACHE_ENTRIES = 4096


def hash_array(array: np.ndarray) -> str:
    """Stable content hash of a numpy array (dtype/shape aware).

    Numeric arrays hash their raw bytes; object/string arrays (e.g.
    label vectors) hash the string rendering of their elements.
    """
    arr = np.ascontiguousarray(array)
    digest = hashlib.sha1()
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    if arr.dtype.kind in "OUS":  # object / unicode / bytes
        digest.update("\x1f".join(str(v) for v in arr.ravel()).encode())
    else:
        digest.update(arr.tobytes())
    return digest.hexdigest()


def hash_arrays(*arrays: np.ndarray, extra: str = "") -> str:
    """Joint content hash of several arrays plus an optional context tag."""
    digest = hashlib.sha1()
    for array in arrays:
        digest.update(hash_array(array).encode())
    if extra:
        digest.update(extra.encode())
    return digest.hexdigest()


def default_cache_dir() -> pathlib.Path:
    """Root of the on-disk cache (``REPRO_CACHE_DIR`` or ``~/.cache/repro``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return pathlib.Path(root).expanduser()
    return pathlib.Path("~/.cache/repro").expanduser()


class FeatureCache:
    """Thread-safe feature-vector cache, optionally disk-persistent.

    Memory holds the :data:`FEATURE_CACHE_ENTRIES` most recently used
    vectors; an evicted entry's bytes leave the ``feature_cache`` account,
    and a persisted one is read back from disk on its next lookup.

    Parameters
    ----------
    directory:
        Where to persist vectors as ``<key>.npy``.  ``None`` keeps the
        cache memory-only; :meth:`persistent` builds one rooted at
        :func:`default_cache_dir`.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = pathlib.Path(directory) if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._mem: OrderedDict[str, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        #: Live bytes held in ``_mem`` by this instance (accounting).
        self._bytes = 0

    @classmethod
    def persistent(cls) -> "FeatureCache":
        """Disk-backed cache under the default cache directory."""
        return cls(default_cache_dir() / "features")

    # ------------------------------------------------------------------
    @staticmethod
    def key(values: np.ndarray, fingerprint: tuple) -> str:
        """Cache key: content hash of the series plus the extractor config."""
        return hash_arrays(
            np.asarray(values, dtype=float), extra=repr(fingerprint)
        )

    def get(self, key: str) -> np.ndarray | None:
        """Cached vector for ``key`` (a fresh copy), or ``None``."""
        with self._lock:
            vector = self._mem.get(key)
            if vector is not None:
                self._mem.move_to_end(key)
        if vector is None and self.directory is not None:
            path = self.directory / f"{key}.npy"
            if path.exists():
                try:
                    vector = np.load(path)
                except (OSError, ValueError, EOFError) as exc:  # corrupt entry
                    _log.warning("dropping unreadable cache entry %s: %s", path, exc)
                    vector = None
                else:
                    with self._lock:
                        if key not in self._mem:
                            self._bytes += vector.nbytes
                            get_accounting().account_add(
                                "feature_cache", vector.nbytes
                            )
                        self._mem[key] = vector
                        self._mem.move_to_end(key)
                        self._evict()
        if vector is None:
            get_metrics().counter(
                "repro_feature_cache_misses_total",
                "Feature-cache lookups that required extraction",
            ).inc()
            return None
        get_metrics().counter(
            "repro_feature_cache_hits_total",
            "Feature-cache lookups served without extraction",
        ).inc()
        return vector.copy()

    def put(self, key: str, vector: np.ndarray) -> None:
        """Store ``vector`` under ``key`` (memory, plus disk if configured)."""
        vector = np.asarray(vector, dtype=float).copy()
        with self._lock:
            old = self._mem.get(key)
            self._mem[key] = vector
            self._mem.move_to_end(key)
            delta = vector.nbytes - (old.nbytes if old is not None else 0)
            self._bytes += delta
            if old is None:
                get_accounting().account_add("feature_cache", vector.nbytes)
            elif delta:
                if delta > 0:
                    get_accounting().account_add("feature_cache", delta, items=0)
                else:
                    get_accounting().account_sub("feature_cache", -delta, items=0)
            self._evict()
        if self.directory is not None:
            path = self.directory / f"{key}.npy"
            # fsync-then-rename for atomicity *and* durability: a rename
            # alone leaves a window where a crash (or a killed worker)
            # publishes a name pointing at unflushed data — a truncated
            # entry that poisons every later run sharing the directory.
            # The tmp name keeps the ``.npy`` ending so ``np.save`` does
            # not append another one.
            tmp = path.with_name(f"{key}.tmp.npy")
            try:
                with tmp.open("wb") as fh:
                    np.save(fh, vector)
                    fh.flush()
                    os.fsync(fh.fileno())
                tmp.replace(path)
                try:  # best effort: persist the rename itself
                    dir_fd = os.open(self.directory, os.O_RDONLY)
                    try:
                        os.fsync(dir_fd)
                    finally:
                        os.close(dir_fd)
                except OSError:
                    pass
            except OSError as exc:  # disk full / read-only: stay memory-only
                _log.warning("feature cache write failed for %s: %s", path, exc)

    def _evict(self) -> None:
        """Drop least recently used entries beyond the cap (lock held)."""
        while len(self._mem) > FEATURE_CACHE_ENTRIES:
            _, dropped = self._mem.popitem(last=False)
            self._bytes -= dropped.nbytes
            get_accounting().account_sub("feature_cache", dropped.nbytes)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    @property
    def hit_rate(self) -> float:
        """Process-wide fraction of lookups served (0.0 when unused)."""
        return lookup_stats("repro_feature_cache")["hit_rate"]

    def stats(self) -> dict:
        """Health-document payload: this cache's entries and bytes, and
        the process-wide hits / misses / hit_rate."""
        return {
            "entries": len(self),
            **lookup_stats("repro_feature_cache"),
            "persistent": self.directory is not None,
            "bytes": self._bytes,
        }

    def clear(self, *, disk: bool = False) -> None:
        """Drop in-memory entries; ``disk=True`` also removes persisted files."""
        with self._lock:
            dropped_bytes, dropped_items = self._bytes, len(self._mem)
            self._mem.clear()
            self._bytes = 0
        get_accounting().account_sub(
            "feature_cache", dropped_bytes, items=dropped_items
        )
        if disk and self.directory is not None:
            for path in self.directory.glob("*.npy"):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - best effort
                    pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.directory) if self.directory else "memory"
        stats = self.stats()
        return (
            f"FeatureCache({where}, entries={stats['entries']}, "
            f"hits={stats['hits']}, misses={stats['misses']})"
        )


class ScoreMemo:
    """Memo of pipeline evaluation outcomes keyed by work content.

    The key is ``(pipeline config key, fold content hash)`` where the
    fold hash covers the training slice, the evaluation context (test
    set, weights, time scale), and nothing else — identical work always
    collides, different work never does.
    """

    def __init__(self):
        self._store: dict[tuple, object] = {}
        self._lock = threading.Lock()
        #: Estimated live bytes held by this memo (accounting).
        self._bytes = 0

    def get(self, key: tuple):
        """Cached :class:`PipelineScore` for ``key``, or ``None``."""
        with self._lock:
            result = self._store.get(key)
        if result is None:
            get_metrics().counter(
                "repro_race_score_memo_misses_total",
                "Race evaluations that had to be executed",
            ).inc()
            return None
        get_metrics().counter(
            "repro_race_score_memo_hits_total",
            "Race evaluations served from the score memo",
        ).inc()
        return result

    def put(self, key: tuple, score) -> None:
        # Scores are small objects; the shallow size is an estimate, but
        # it keeps the memo's growth visible in the accounts.
        nbytes = sys.getsizeof(score)
        with self._lock:
            fresh = key not in self._store
            self._store[key] = score
            if fresh:
                self._bytes += nbytes
        if fresh:
            get_accounting().account_add("score_memo", nbytes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    @property
    def hit_rate(self) -> float:
        """Process-wide fraction of lookups served (0.0 when unused)."""
        return lookup_stats("repro_race_score_memo")["hit_rate"]

    def stats(self) -> dict:
        """This memo's entries and the process-wide hits / misses / hit_rate."""
        return {"entries": len(self), **lookup_stats("repro_race_score_memo")}

    def clear(self) -> None:
        with self._lock:
            dropped_bytes, dropped_items = self._bytes, len(self._store)
            self._store.clear()
            self._bytes = 0
        if dropped_items:
            get_accounting().account_sub(
                "score_memo", dropped_bytes, items=dropped_items
            )
