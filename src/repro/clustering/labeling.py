"""Cluster-level dataset labeling (Section VI, step 1 of Fig. 2).

Running every imputation algorithm on every series is prohibitive; instead
the corpus is clustered, *representatives* of each cluster are labeled by
racing all algorithms on injected missing blocks, and the winning label is
propagated to the rest of the cluster.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.clustering.incremental import IncrementalClustering
from repro.exceptions import ValidationError
from repro.observability import get_logger, get_metrics, get_tracer
from repro.clustering.atlas import ClusterAtlas
from repro.observability.ledger import get_ledger
from repro.imputation.base import BaseImputer, get_imputer
from repro.imputation.evaluation import rank_imputers
from repro.parallel import ExecutionEngine, ParallelConfig
from repro.timeseries.missing import inject_missing_block, inject_tip_block
from repro.timeseries.series import TimeSeries, TimeSeriesDataset
from repro.utils.rng import ensure_rng

_log = get_logger(__name__)


def _rank_worker(
    job: tuple[np.ndarray, np.ndarray], *, imputer_names: tuple[str, ...]
) -> tuple[list[tuple[str, float]], float]:
    """Race the imputer slate on one (truth, mask) pair (picklable worker).

    Returns the ranking plus the wall seconds it took, so the parent
    process can record per-race latency even under the process backend
    (where worker-side metrics registries are no-ops).
    """
    truth, mask = job
    imputers = [get_imputer(name) for name in imputer_names]
    start = time.perf_counter()
    ranked = rank_imputers(imputers, truth, mask)
    return ranked, time.perf_counter() - start

#: Default algorithm slate used for labeling — one strong member per family,
#: kept small so labeling stays laptop-fast.
DEFAULT_LABELING_IMPUTERS: tuple[str, ...] = (
    "cdrec",
    "svdimp",
    "softimpute",
    "stmvl",
    "knn",
    "linear",
    "tkcm",
    "iim",
)


@dataclass
class LabeledCorpus:
    """Output of the labeling stage.

    Attributes
    ----------
    series:
        Faulty series (with injected missing blocks), ready for feature
        extraction.
    labels:
        Best-imputer name per series (cluster-propagated).
    rankings:
        Full algorithm ranking (best first) per series.
    categories:
        Dataset category per series (used by per-category experiments).
    n_benchmark_runs:
        How many full algorithm races were executed (cluster count), the
        cost the clustering amortizes.
    atlas:
        Fit-time :class:`~repro.clustering.atlas.ClusterAtlas` — one
        z-normalized representative + winning label per cluster, used at
        serving time to assign incoming series a cluster (and NCC) for
        repair provenance rows and per-cluster scorecards.
    """

    series: list[TimeSeries]
    labels: np.ndarray
    rankings: list[list[str]]
    categories: list[str] = field(default_factory=list)
    n_benchmark_runs: int = 0
    atlas: ClusterAtlas | None = None

    def __len__(self) -> int:
        return len(self.series)


class ClusterLabeler:
    """Label datasets at cluster granularity.

    Parameters
    ----------
    imputer_names:
        Algorithm slate to race (defaults to
        :data:`DEFAULT_LABELING_IMPUTERS`).
    missing_ratio:
        Size of the injected missing block, as a fraction of series length.
        May be a single float or a sequence of floats — with a sequence,
        clusters cycle through the ratios, matching the paper's "synthetic
        missing blocks of varying sizes" and diversifying the labels (small
        gaps favour interpolation, long gaps favour cross-series methods).
    clustering:
        A fitted-per-dataset clustering factory; ``None`` uses
        :class:`IncrementalClustering` defaults.
    patterns:
        Missingness patterns to label with: ``"block"`` (interior block at
        a random position) and/or ``"tip"`` (block at the series end, the
        forecasting scenario).  Each (cluster, ratio, pattern) combination
        yields one labeled configuration.
    tie_epsilon:
        Relative RMSE margin within which two algorithms count as tied.
        Near-tied winners are label noise (both repairs are equally
        verisimilar), so ties collapse onto the earliest tied algorithm in
        ``imputer_names`` order.  0.0 disables tie handling.
    random_state:
        Seed for block injection.
    parallel:
        Optional :class:`~repro.parallel.ParallelConfig`.  Mask injection
        stays serial (it consumes the seeded RNG in a fixed order), but
        the per-(cluster, ratio, pattern) imputer races — the dominant
        labeling cost — fan out across workers.  Results are identical
        to the serial path for a fixed seed.
    """

    def __init__(
        self,
        imputer_names=None,
        missing_ratio=0.1,
        clustering: IncrementalClustering | None = None,
        patterns: tuple[str, ...] = ("block",),
        tie_epsilon: float = 0.0,
        random_state: int | None = 0,
        parallel: ParallelConfig | None = None,
    ):
        if imputer_names is None:
            imputer_names = DEFAULT_LABELING_IMPUTERS
        self.imputer_names = tuple(imputer_names)
        if not self.imputer_names:
            raise ValidationError("imputer_names must be non-empty")
        try:
            ratios = tuple(float(r) for r in missing_ratio)
        except TypeError:
            ratios = (float(missing_ratio),)
        if not ratios or any(not 0 < r < 1 for r in ratios):
            raise ValidationError(
                f"missing_ratio values must be in (0, 1), got {missing_ratio}"
            )
        self.missing_ratios = ratios
        self.patterns = tuple(patterns)
        if not self.patterns or any(
            p not in ("block", "tip") for p in self.patterns
        ):
            raise ValidationError(
                f"patterns must be drawn from ('block', 'tip'), got {patterns}"
            )
        if tie_epsilon < 0:
            raise ValidationError(f"tie_epsilon must be >= 0, got {tie_epsilon}")
        self.tie_epsilon = float(tie_epsilon)
        self._clustering_template = clustering
        self.random_state = random_state
        self.parallel = parallel

    @property
    def missing_ratio(self) -> float:
        """First (or only) configured missing ratio."""
        return self.missing_ratios[0]

    def _make_clustering(self) -> IncrementalClustering:
        if self._clustering_template is None:
            return IncrementalClustering()
        t = self._clustering_template
        return IncrementalClustering(
            delta=t.delta,
            split_ratio=t.split_ratio,
            min_cluster_size=t.min_cluster_size,
            random_state=t.random_state,
        )

    def _imputers(self) -> list[BaseImputer]:
        return [get_imputer(name) for name in self.imputer_names]

    def _resolve_ties(self, ranked: list[tuple[str, float]]) -> list[str]:
        """Collapse near-tied winners onto a deterministic preference.

        Algorithms whose RMSE is within ``tie_epsilon`` (relative) of the
        best are re-ordered by their position in ``imputer_names`` — the
        stable preference that keeps label noise out of the training set.
        """
        names = [name for name, _ in ranked]
        if self.tie_epsilon <= 0 or not ranked:
            return names
        best_score = ranked[0][1]
        if not np.isfinite(best_score):
            return names
        threshold = best_score * (1.0 + self.tie_epsilon)
        tied = [name for name, score in ranked if score <= threshold]
        if len(tied) <= 1:
            return names
        preference = {name: i for i, name in enumerate(self.imputer_names)}
        tied.sort(key=lambda name: preference.get(name, len(preference)))
        rest = [name for name in names if name not in tied]
        return tied + rest

    # ------------------------------------------------------------------
    def label_dataset(
        self,
        dataset: TimeSeriesDataset,
        engine: ExecutionEngine | None = None,
    ) -> LabeledCorpus:
        """Cluster one dataset and label each cluster via its members.

        The whole cluster matrix (not a single series) is fed to the
        algorithms — the matrix methods need cross-series context — with a
        missing block injected into every member.  One labeled sample is
        produced per (series, missing-ratio) combination: varying block
        sizes diversify which algorithm wins.

        ``engine`` lets :meth:`label_corpus` share one worker pool across
        datasets; standalone calls build (and tear down) their own.
        """
        if engine is None:
            with ExecutionEngine(self.parallel) as engine:
                return self.label_dataset(dataset, engine=engine)
        tracer = get_tracer()
        metrics = get_metrics()
        labeling_span = tracer.span(
            "labeling.label_dataset",
            subsystem="labeling",
            dataset=dataset.name,
            n_series=len(dataset),
        )
        rank_hist = metrics.histogram(
            "repro_labeling_rank_seconds",
            "Wall seconds per (cluster, ratio, pattern) algorithm race",
        )
        with labeling_span:
            corpus = self._label_dataset_inner(dataset, rank_hist, engine)
        labeling_span.set_tag("n_clusters", corpus.n_benchmark_runs)
        labeling_span.set_tag("n_labeled", len(corpus))
        metrics.counter(
            "repro_labeling_benchmark_runs_total",
            "Full algorithm races executed during labeling",
        ).inc(corpus.n_benchmark_runs)
        metrics.counter(
            "repro_labeling_series_total",
            "Labeled series produced by cluster propagation",
        ).inc(len(corpus))
        _log.debug(
            "labeled dataset %s: %d series from %d benchmark runs",
            dataset.name,
            len(corpus),
            corpus.n_benchmark_runs,
        )
        return corpus

    def _label_dataset_inner(
        self, dataset: TimeSeriesDataset, rank_hist, engine: ExecutionEngine
    ) -> LabeledCorpus:
        rng = ensure_rng(self.random_state)
        clustering = self._make_clustering().fit(list(dataset.series))
        # Phase 1 (serial, RNG-ordered): build one job per
        # (cluster, ratio, pattern) — the injected masks and faulty
        # series are produced in a fixed order so parallel execution
        # cannot perturb the seeded randomness.
        jobs: list[tuple[np.ndarray, np.ndarray]] = []
        job_faulty: list[list[TimeSeries]] = []
        job_meta: list[dict] = []
        cluster_truth: dict[str, np.ndarray] = {}
        dataset_name = dataset.name or "dataset"
        for cluster_idx, members in enumerate(clustering.clusters_):
            cluster_id = f"{dataset_name}:c{cluster_idx}"
            cluster_series = [dataset[i] for i in members]
            min_len = min(len(s) for s in cluster_series)
            truth = np.vstack([s.values[:min_len] for s in cluster_series])
            if np.isnan(truth).any():
                truth = np.vstack(
                    [TimeSeries(row).interpolated().values for row in truth]
                )
            cluster_truth[cluster_id] = truth
            for ratio in self.missing_ratios:
                for pattern in self.patterns:
                    mask = np.zeros_like(truth, dtype=bool)
                    cluster_faulty: list[TimeSeries] = []
                    for row_idx, member in enumerate(members):
                        row_series = TimeSeries(truth[row_idx])
                        if pattern == "tip":
                            _, spec = inject_tip_block(row_series, ratio=ratio)
                        else:
                            _, spec = inject_missing_block(
                                row_series, ratio=ratio, random_state=rng
                            )
                        mask[row_idx, spec.start : spec.stop] = True
                        cluster_faulty.append(
                            dataset[member].with_values(
                                np.where(mask[row_idx], np.nan, truth[row_idx])
                            )
                        )
                    jobs.append((truth, mask))
                    job_faulty.append(cluster_faulty)
                    job_meta.append(
                        {
                            "dataset": dataset_name,
                            "cluster_id": cluster_id,
                            "n_members": len(members),
                            "ratio": float(ratio),
                            "pattern": pattern,
                        }
                    )
        # Phase 2 (parallel): race the imputer slate on every
        # representative job.  Each job is independent; the engine
        # preserves job order, so labels come back deterministic.
        task = functools.partial(
            _rank_worker, imputer_names=self.imputer_names
        )
        outcomes = engine.map(task, jobs, label="labeling.rank_clusters")
        # Phase 3 (serial): resolve ties, propagate labels, and record
        # provenance — one ledger "label" row per race plus one atlas
        # entry per cluster (representative = mean member series, winner
        # = the first race's winning algorithm for that cluster).
        ledger = get_ledger()
        atlas = ClusterAtlas()
        registered: set[str] = set()
        labels: list[str] = []
        rankings: list[list[str]] = []
        faulty_series: list[TimeSeries] = []
        for (ranked, elapsed), cluster_faulty, meta in zip(
            outcomes, job_faulty, job_meta
        ):
            rank_hist.observe(elapsed)
            ranking_names = self._resolve_ties(ranked)
            truth = cluster_truth[meta["cluster_id"]]
            if meta["cluster_id"] not in registered:
                registered.add(meta["cluster_id"])
                atlas.add(
                    meta["cluster_id"], ranking_names[0], truth.mean(axis=0)
                )
            if ledger.enabled:
                from repro.timeseries.batch import ncc_rowwise, znorm_rows

                rep = atlas.representatives[
                    atlas.ids.index(meta["cluster_id"])
                ]
                member_ncc = ncc_rowwise(
                    znorm_rows(truth), np.tile(rep, (truth.shape[0], 1))
                )
                ledger.record(
                    "label",
                    {
                        **meta,
                        "winner": ranking_names[0],
                        "ranking": list(ranking_names),
                        "scores": {name: float(s) for name, s in ranked},
                        "member_ncc": [float(v) for v in member_ncc],
                    },
                )
            for faulty in cluster_faulty:
                faulty_series.append(faulty)
                labels.append(ranking_names[0])
                rankings.append(list(ranking_names))
        return LabeledCorpus(
            series=faulty_series,
            labels=np.array(labels, dtype=object),
            rankings=rankings,
            categories=[dataset.category] * len(faulty_series),
            n_benchmark_runs=len(jobs),
            atlas=atlas,
        )

    def label_corpus(self, datasets: list[TimeSeriesDataset]) -> LabeledCorpus:
        """Label several datasets and concatenate the results."""
        if not datasets:
            raise ValidationError("datasets list is empty")
        # One engine (one worker pool) shared across every dataset.
        with ExecutionEngine(self.parallel) as engine:
            parts = [self.label_dataset(ds, engine=engine) for ds in datasets]
        atlas = ClusterAtlas()
        for part in parts:
            if part.atlas is not None:
                atlas.merge(part.atlas)
        return LabeledCorpus(
            series=[s for p in parts for s in p.series],
            labels=np.concatenate([p.labels for p in parts]),
            rankings=[r for p in parts for r in p.rankings],
            categories=[c for p in parts for c in p.categories],
            n_benchmark_runs=sum(p.n_benchmark_runs for p in parts),
            atlas=atlas,
        )
