"""FeatureExtractor facade: one call from series to feature vector.

ModelRace and the recommendation engine always go through this class so the
*same* extractor configuration is used at training and inference time
(steps 2 and 6 of Fig. 2).

Every vector comes from one implementation: the block kernels of
:mod:`repro.features.statistical` and :mod:`repro.features.topological`,
which compute each feature as a row-wise reduction over a stack of
equal-length series.  A series' vector depends on that series alone, so
extracting it alone, inside any batch, or from the cache gives the same
bytes.  With a :class:`~repro.parallel.FeatureCache`, each series is keyed
by ``sha1(series content + extractor fingerprint)``; repeated series
(within a batch, or across calls and processes when the cache is
disk-backed) are extracted once.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.observability import get_metrics, get_tracer
from repro.observability.resources import count_kernel
from repro.parallel import FeatureCache
from repro.features.statistical import (
    STATISTICAL_FEATURE_NAMES,
    statistical_features_block,
)
from repro.features.topological import (
    TOPOLOGICAL_FEATURE_NAMES,
    topological_features_block,
)
from repro.timeseries.batch import SeriesBank
from repro.timeseries.series import TimeSeries


#: Bytes of one stacked block on the list path.  The kernels hold about
#: ten block-sized temporaries at once, so a large batch is cut into
#: blocks of this size to keep its extraction scratch near 10x this.
#: Rows are independent, so the cut does not change any vector.
_LIST_BLOCK_BYTES = 256 * 1024


def _prepare(series) -> tuple[np.ndarray, np.ndarray]:
    """``(raw, clean)`` float arrays of one series (array or TimeSeries).

    ``raw`` keeps NaN as missing (it keys the cache and feeds the
    missing-pattern features); ``clean`` has the gaps linearly
    interpolated.  Non-1-D, empty and ±inf input raise
    :class:`ValidationError`, as does a series with no observed value.
    """
    ts = series if isinstance(series, TimeSeries) else TimeSeries(series)
    raw = ts.values
    return raw, ts.interpolated().values if ts.has_missing else raw


class FeatureExtractor:
    """Extract a fixed-order numeric feature vector from a (faulty) series.

    Parameters
    ----------
    use_statistical:
        Include the statistical feature families (canonical, dependencies,
        trends).
    use_topological:
        Include the persistence-diagram features.
    use_missing_pattern:
        Include the missing-pattern features (the paper's future-work
        extension; off by default to match the published system).
    embedding_dimension, embedding_delay:
        Parameters of the time-delay embedding for the topological features.
    cache:
        Optional :class:`~repro.parallel.FeatureCache`; series content
        hashes are looked up before extraction and stored after.

    At least one family must be enabled.  Feature order is stable across
    calls, exposed via :attr:`feature_names`.
    """

    def __init__(
        self,
        use_statistical: bool = True,
        use_topological: bool = True,
        use_missing_pattern: bool = False,
        embedding_dimension: int = 3,
        embedding_delay: int = 2,
        cache: FeatureCache | None = None,
    ):
        if not (use_statistical or use_topological or use_missing_pattern):
            raise ValidationError("at least one feature family must be enabled")
        self.use_statistical = bool(use_statistical)
        self.use_topological = bool(use_topological)
        self.use_missing_pattern = bool(use_missing_pattern)
        self.embedding_dimension = int(embedding_dimension)
        self.embedding_delay = int(embedding_delay)
        if self.embedding_dimension < 1 or self.embedding_delay < 1:
            raise ValidationError(
                "embedding dimension and delay must be >= 1, got "
                f"{self.embedding_dimension}, {self.embedding_delay}"
            )
        self.cache = cache
        names: list[str] = []
        if self.use_statistical:
            names.extend(STATISTICAL_FEATURE_NAMES)
        if self.use_topological:
            names.extend(TOPOLOGICAL_FEATURE_NAMES)
        if self.use_missing_pattern:
            from repro.timeseries.patterns import MISSING_PATTERN_FEATURE_NAMES

            names.extend(MISSING_PATTERN_FEATURE_NAMES)
        self._names = tuple(names)

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Names of the extracted features, in output order."""
        return self._names

    @property
    def n_features(self) -> int:
        """Dimensionality of the produced vectors."""
        return len(self._names)

    @property
    def fingerprint(self) -> tuple:
        """Cache-key component identifying this extractor configuration.

        Two extractors with equal fingerprints produce bit-identical
        vectors for identical input, so cached vectors are shareable
        across instances (and across processes via a disk-backed cache).
        """
        return (
            "fx2",  # bump when extraction semantics change
            self.use_statistical,
            self.use_topological,
            self.use_missing_pattern,
            self.embedding_dimension,
            self.embedding_delay,
        )

    def extract(self, series) -> np.ndarray:
        """Extract the feature vector of one series (array or TimeSeries)."""
        return self.extract_many([series])[0]

    def extract_block(
        self, matrix, *, bank: SeriesBank | None = None
    ) -> np.ndarray:
        """Feature matrix of pre-stacked equal-length rows via block kernels.

        ``matrix`` is an ``(n_series, length)`` NaN-free float matrix (rows
        already interpolated — a :attr:`SeriesBank.raw` qualifies).  Pass
        ``bank`` to memoize reusable derived arrays (the detrended
        periodogram) in the bank's :meth:`cached
        <repro.timeseries.batch.SeriesBank.cached>` store across repeated
        extractions.  Missing-pattern features need each row's NaN mask,
        so they are only available through :meth:`extract_many` on a list.
        """
        if self.use_missing_pattern:
            raise ValidationError(
                "missing-pattern features need per-series NaN masks; "
                "block extraction covers statistical/topological only"
            )
        return self._block(matrix, bank=bank)

    def _block(self, matrix, *, bank=None, raws=None) -> np.ndarray:
        """Feature rows of a clean stack; ``raws`` feed the ``miss_*`` columns."""
        X = np.ascontiguousarray(matrix, dtype=np.float64)
        metrics = get_metrics()
        cols: dict[str, np.ndarray] = {}
        if self.use_statistical:
            with metrics.histogram(
                "repro_features_block_seconds",
                "Per-feature-block extraction wall seconds",
                labels={"block": "statistical"},
            ).time():
                cols.update(
                    statistical_features_block(
                        X, cache=bank.cached if bank is not None else None
                    )
                )
        if self.use_topological:
            with metrics.histogram(
                "repro_features_block_seconds",
                "Per-feature-block extraction wall seconds",
                labels={"block": "topological"},
            ).time():
                cols.update(
                    topological_features_block(
                        X,
                        dimension=self.embedding_dimension,
                        delay=self.embedding_delay,
                    )
                )
        if raws is not None:
            from repro.timeseries.patterns import missing_pattern_features

            with metrics.histogram(
                "repro_features_block_seconds",
                "Per-feature-block extraction wall seconds",
                labels={"block": "missing_pattern"},
            ).time():
                rows = [missing_pattern_features(raw) for raw in raws]
            for name in rows[0]:
                cols[name] = np.array([row[name] for row in rows])
        out = np.empty((X.shape[0], self.n_features), dtype=float)
        for col_idx, name in enumerate(self._names):
            out[:, col_idx] = cols[name]
        count_kernel(
            "extract_block",
            bytes_moved=X.nbytes + out.nbytes,
            chunks=len(cols),
            scratch_allocations=1,
        )
        return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)

    def extract_many(self, series_list) -> np.ndarray:
        """Extract a feature matrix (n_series, n_features).

        ``series_list`` is a list of arrays / :class:`TimeSeries`, or a
        prepared :class:`~repro.timeseries.batch.SeriesBank`, in which case
        the block kernels run over its (already cleaned, truncated) rows
        and derived arrays are memoized on the bank.

        A list is prepared series by series (gaps interpolated, ±inf
        rejected); with a :attr:`cache`, each series is looked up by
        content hash and repeats inside the batch are extracted once.  The
        remaining series are grouped by length and stacked into blocks of
        at most :data:`_LIST_BLOCK_BYTES`, one block-kernel call each.  Row
        order matches ``series_list``.
        """
        bank = series_list if isinstance(series_list, SeriesBank) else None
        n_series = bank.n if bank is not None else len(series_list)
        if not n_series:
            raise ValidationError("series_list is empty")
        tracer = get_tracer()
        metrics = get_metrics()
        span = tracer.span(
            "features.extract_many",
            subsystem="features",
            n_series=n_series,
            n_features=self.n_features,
        )
        with span, metrics.histogram(
            "repro_features_extract_many_seconds",
            "Wall seconds per extract_many batch",
        ).time():
            if bank is not None and bank.on_disk:
                # Out-of-core: stream scratch-cap-sized row blocks off
                # the memmap and drop their pages after each pass, so
                # peak RSS tracks the block size, not the corpus.  The
                # per-row features are row-independent, so blockwise
                # results match the one-shot call exactly; the bank's
                # derived-array memo is skipped (it would pin
                # corpus-sized spectra in RAM).
                span.set_tag("mode", "bank-outofcore")
                from repro.timeseries.batch import DEFAULT_BLOCK_BYTES

                rows = max(
                    1, int(DEFAULT_BLOCK_BYTES // max(1, bank.length * 24))
                )
                matrix = np.empty((bank.n, self.n_features), dtype=float)
                for start in range(0, bank.n, rows):
                    stop = min(bank.n, start + rows)
                    matrix[start:stop] = self.extract_block(
                        bank.raw[start:stop]
                    )
                    bank.release_pages()
                span.set_tag("block_rows", rows)
            elif bank is not None:
                span.set_tag("mode", "bank")
                matrix = self.extract_block(bank.raw, bank=bank)
            else:
                span.set_tag("mode", "list")
                matrix = self._extract_list(series_list, span)
        metrics.counter(
            "repro_features_series_total",
            "Series pushed through feature extraction",
        ).inc(n_series)
        return matrix

    def _extract_list(self, series_list, span) -> np.ndarray:
        """Cache lookup, in-batch dedup, then block calls per length group."""
        prepared = [_prepare(s) for s in series_list]
        out = np.empty((len(prepared), self.n_features), dtype=float)
        # Each entry: the rows that share one series; the first is extracted.
        todo: dict = {}
        if self.cache is not None:
            fingerprint = self.fingerprint
            for i, (raw, _) in enumerate(prepared):
                key = self.cache.key(raw, fingerprint)
                hit = self.cache.get(key)
                if hit is not None:
                    out[i] = hit
                else:
                    todo.setdefault(key, []).append(i)
            span.set_tag("cache_hits", len(prepared) - sum(map(len, todo.values())))
            span.set_tag("cache_misses", len(todo))
        else:
            todo = {i: [i] for i in range(len(prepared))}
        groups: dict[int, list[int]] = {}
        for rows in todo.values():
            groups.setdefault(prepared[rows[0]][1].shape[0], []).append(rows[0])
        n_blocks = 0
        for length, firsts in groups.items():
            step = max(1, _LIST_BLOCK_BYTES // (8 * length))
            for start in range(0, len(firsts), step):
                part = firsts[start : start + step]
                out[part] = self._block(
                    np.vstack([prepared[i][1] for i in part]),
                    raws=(
                        [prepared[i][0] for i in part]
                        if self.use_missing_pattern
                        else None
                    ),
                )
                n_blocks += 1
        span.set_tag("blocks", n_blocks)
        for key, rows in todo.items():
            out[rows[1:]] = out[rows[0]]
            if self.cache is not None:
                self.cache.put(key, out[rows[0]])
        return out

    def __repr__(self) -> str:
        return (
            f"FeatureExtractor(statistical={self.use_statistical}, "
            f"topological={self.use_topological}, n_features={self.n_features})"
        )


def extract_features_matrix(series_list, extractor: FeatureExtractor | None = None):
    """Convenience wrapper: extract a feature matrix with a default extractor."""
    extractor = extractor or FeatureExtractor()
    return extractor.extract_many(series_list)
