"""The A-DARTS facade: train once, recommend imputation algorithms forever.

Typical use::

    from repro import ADarts
    from repro.datasets import load_category

    engine = ADarts().fit_datasets(load_category("Water"))
    rec = engine.recommend(faulty_series)
    repaired = rec.impute(faulty_series)

``fit_datasets`` runs the full Fig. 2 training path — cluster-label the
corpus (1), extract features (2), race pipelines with ModelRace (3-5) — and
``recommend`` runs the inference path — extract the new series' features (6)
and soft-vote over the winning pipelines (7).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.clustering.atlas import ClusterAtlas
from repro.clustering.labeling import ClusterLabeler, LabeledCorpus
from repro.parallel import FeatureCache, ParallelConfig
from repro.core.config import ModelRaceConfig
from repro.core.modelrace import ModelRace, RaceResult
from repro.core.voting import MajorityVotingEnsemble, SoftVotingEnsemble
from repro.datasets.splits import holdout_split
from repro.exceptions import EnsembleError, NotFittedError, ValidationError
from repro.features.extractor import FeatureExtractor
from repro.imputation.base import get_imputer
from repro.observability import (
    FeatureBaseline,
    get_logger,
    get_metrics,
    get_tracer,
    resource_stamp,
)
from repro.observability.ledger import (
    get_ledger,
    new_id,
    repair_context,
)
from repro.observability.serving import vote_disagreement
from repro.parallel.cache import hash_arrays
from repro.pipeline.pipeline import Pipeline, make_seed_pipelines
from repro.resilience.stats import count_event
from repro.timeseries.series import TimeSeries, TimeSeriesDataset
from repro.utils.timing import Timer

_log = get_logger(__name__)


#: Preference order of the static fallback when the whole ensemble is
#: unavailable: robust, dependency-free imputers first.
FALLBACK_ALGORITHMS: tuple[str, ...] = ("linear", "mean")


@dataclass(frozen=True)
class Recommendation:
    """One recommendation: the chosen algorithm plus the full ranking.

    Attributes
    ----------
    algorithm:
        Name of the recommended imputation algorithm.
    ranking:
        All candidate algorithms, best first.
    probabilities:
        Soft-vote probability per algorithm (aligned with ``ranking``'s
        class set, mapped by name).
    degraded:
        True when this recommendation was produced in degraded mode —
        ensemble members were dropped from the vote, or the static
        fallback answered because no member could vote.
    repair_id:
        Stable id of this repair's provenance row in the active
        :class:`~repro.observability.ledger.RepairLedger`, ``None`` when
        no ledger was installed.  ``repro explain <repair_id>`` renders
        the full decision path behind it.
    disagreement:
        Soft-vote disagreement across the members that voted
        (:func:`~repro.observability.serving.vote_disagreement`);
        ``None`` when the static fallback answered.
    features:
        The series' feature row, as the vote saw it.
    cluster:
        The series' :class:`~repro.clustering.atlas.ClusterAtlas`
        assignment (``{"cluster", "ncc", "label"}``) when the ledger
        annotation made one, so serving need not assign again.

    ``disagreement``, ``features`` and ``cluster`` are serving telemetry,
    not part of the answer: they take no part in equality.
    """

    algorithm: str
    ranking: tuple[str, ...]
    probabilities: dict[str, float]
    degraded: bool = False
    repair_id: str | None = None
    disagreement: float | None = field(default=None, compare=False)
    features: np.ndarray | None = field(default=None, compare=False, repr=False)
    cluster: dict | None = field(default=None, compare=False, repr=False)

    def impute(self, series: TimeSeries) -> TimeSeries:
        """Apply the recommended algorithm to the faulty series.

        Runs under a :class:`~repro.observability.ledger.repair_context`
        so the imputer's ``impute`` ledger row (timing + post-repair
        quality stats) is correlated with this recommendation's
        ``repair_id``.
        """
        with repair_context(self.repair_id):
            return get_imputer(self.algorithm).impute_series(series)


class ADarts:
    """Automated DAta Repair in Time Series.

    Parameters
    ----------
    extractor:
        Feature extractor (default: statistical + topological).
    config:
        ModelRace configuration.
    labeler:
        Cluster labeler used by :meth:`fit_datasets`.
    classifier_names:
        Classifier families to seed the race with (default: all 12).
    voting:
        ``"soft"`` (paper default) or ``"majority"`` (ablation).
    test_ratio:
        Fraction of labeled data held out as the race's internal test set.
    random_state:
        Seed for the internal holdout split.
    parallel:
        Optional :class:`~repro.parallel.ParallelConfig` applied to the
        parallelizable training stages — cluster labeling and the
        ModelRace fold evaluations.  Stage-level configs already set on
        an explicitly passed ``config`` / ``labeler`` are left untouched.
    feature_cache:
        Optional :class:`~repro.parallel.FeatureCache` installed on the
        extractor (unless the extractor already has one), deduplicating
        repeated series across training and inference batches.
    """

    def __init__(
        self,
        extractor: FeatureExtractor | None = None,
        config: ModelRaceConfig | None = None,
        labeler: ClusterLabeler | None = None,
        classifier_names=None,
        voting: str = "soft",
        test_ratio: float = 0.25,
        random_state: int | None = 0,
        parallel: ParallelConfig | None = None,
        feature_cache: FeatureCache | None = None,
    ):
        if voting not in ("soft", "majority"):
            raise ValidationError(f"voting must be soft/majority, got {voting!r}")
        self.extractor = extractor or FeatureExtractor()
        self.config = config or ModelRaceConfig()
        self.labeler = labeler or ClusterLabeler()
        self.parallel = parallel
        if parallel is not None:
            # Copy-on-write: never mutate a caller-shared config object.
            if self.config.parallel.n_jobs == 1:
                self.config = replace(self.config, parallel=parallel)
            if self.labeler.parallel is None:
                self.labeler.parallel = parallel
        if feature_cache is not None and self.extractor.cache is None:
            self.extractor.cache = feature_cache
        self.classifier_names = classifier_names
        self.voting = voting
        self.test_ratio = float(test_ratio)
        self.random_state = random_state
        self._ensemble = None
        self._race_result: RaceResult | None = None
        self._labeled_corpus: LabeledCorpus | None = None
        self._train_X: np.ndarray | None = None
        self._train_y: np.ndarray | None = None
        #: Distributional fingerprint of the training feature matrix,
        #: captured by :meth:`fit_features` and consumed by the serving
        #: drift monitor (see :mod:`repro.observability.serving`).
        self.feature_baseline_: FeatureBaseline | None = None
        #: Fit-time provenance head — run/fit/race ids plus the training
        #: ledger rows — captured by :meth:`fit_features` when a
        #: :class:`~repro.observability.ledger.RepairLedger` is active,
        #: and persisted through export/import so serving-side ``repair``
        #: rows can reference their training lineage.
        self.ledger_head_: dict | None = None
        #: Fit-time cluster atlas (representatives + winning labels),
        #: captured by :meth:`fit_datasets`; used at serving time to
        #: assign incoming series a cluster + NCC for provenance rows.
        self.cluster_atlas_: ClusterAtlas | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit_features(
        self, X: np.ndarray, y: np.ndarray, seed_pipelines: list[Pipeline] | None = None
    ) -> "ADarts":
        """Train from an already-extracted feature matrix and labels."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        tracer = get_tracer()
        with tracer.span(
            "adarts.fit_features",
            subsystem="training",
            n_samples=int(X.shape[0]),
            n_features=int(X.shape[1]) if X.ndim == 2 else 0,
        ):
            X_train, X_test, y_train, y_test = holdout_split(
                X, y, test_ratio=self.test_ratio, random_state=self.random_state
            )
            seeds = seed_pipelines or make_seed_pipelines(self.classifier_names)
            race = ModelRace(self.config)
            self._race_result = race.run(seeds, X_train, y_train, X_test, y_test)
            ensemble_cls = (
                SoftVotingEnsemble if self.voting == "soft" else MajorityVotingEnsemble
            )
            # Members were fitted on X_train inside the race's final refit;
            # refit on the full labeled data so inference uses everything.
            members = []
            for p in self._race_result.elite:
                fresh = p.clone()
                try:
                    fresh.fit(X, y)
                except Exception as exc:
                    _log.warning(
                        "full-data refit failed for %s: %s: %s",
                        p,
                        type(exc).__name__,
                        exc,
                    )
                    continue
                members.append(fresh)
            if not members:
                raise ValidationError("no pipeline survived training")
            self._ensemble = ensemble_cls(members)
        _log.info(
            "trained: %d ensemble members, %d evaluations, prune ratio %.1f%%",
            len(members),
            self._race_result.n_evaluations,
            100 * self._race_result.prune_ratio,
        )
        # Kept for export/serialization (see repro.core.serialization).
        self._train_X = X
        self._train_y = y
        # Fingerprint the training distribution so a serving-side
        # DriftDetector can compare incoming traffic against it.
        try:
            names = (
                self.extractor.feature_names
                if X.ndim == 2 and X.shape[1] == self.extractor.n_features
                else None
            )
            self.feature_baseline_ = FeatureBaseline.from_matrix(
                X, feature_names=names
            )
        except ValueError as exc:  # degenerate matrices: skip, don't fail fit
            _log.warning("feature baseline capture skipped: %s", exc)
            self.feature_baseline_ = None
        self._capture_ledger_head(X, y, members)
        return self

    def _capture_ledger_head(self, X, y, members) -> None:
        """Emit the ``fit`` provenance row and snapshot the lineage head.

        The head bundles this fit's run/fit/race ids together with the
        training rows themselves (race, labeling, fit), so it can travel
        inside the exported engine document and let ``repro explain``
        reconstruct training lineage even when serving writes to a
        different ledger file.
        """
        ledger = get_ledger()
        if not ledger.enabled:
            return
        race_id = (
            self._race_result.ledger_record_id if self._race_result else None
        )
        fit_id = ledger.record(
            "fit",
            {
                "n_samples": int(X.shape[0]),
                "n_features": int(X.shape[1]) if X.ndim == 2 else 0,
                "classes": sorted(str(c) for c in set(y.tolist())),
                "train_hash": hash_arrays(X, y),
                "race_id": race_id,
                "voting": self.voting,
                "n_members": len(members),
                "test_ratio": self.test_ratio,
                "resources": resource_stamp(),
            },
            record_id=new_id("fit"),
        )
        head_rows = [
            row
            for row in ledger.records()
            if row["id"] in (fit_id, race_id) or row["kind"] == "label"
        ]
        self.ledger_head_ = {
            "run_id": ledger.run_id,
            "fit_id": fit_id,
            "race_id": race_id,
            "records": head_rows,
        }

    def fit_labeled(self, corpus: LabeledCorpus) -> "ADarts":
        """Train from a labeled corpus (faulty series + best-imputer labels)."""
        X = self.extractor.extract_many(corpus.series)
        return self.fit_features(X, corpus.labels)

    def fit_datasets(self, datasets: list[TimeSeriesDataset]) -> "ADarts":
        """Full training path: cluster-label the datasets, then train."""
        datasets = list(datasets)
        with get_tracer().span(
            "adarts.fit_datasets",
            subsystem="training",
            n_datasets=len(datasets),
        ):
            corpus = self.labeler.label_corpus(datasets)
            self._labeled_corpus = corpus
            self.cluster_atlas_ = corpus.atlas
            return self.fit_labeled(corpus)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether training has completed."""
        return self._ensemble is not None

    @property
    def winning_pipelines(self) -> list[Pipeline]:
        """The elite pipelines selected by ModelRace."""
        if self._ensemble is None:
            raise NotFittedError("ADarts is not fitted")
        return list(self._ensemble.pipelines)

    @property
    def quarantined_members(self) -> tuple[str, ...]:
        """Ensemble members whose circuits are open: votes skip them."""
        if self._ensemble is None:
            raise NotFittedError("ADarts is not fitted")
        return self._ensemble.quarantined_members

    @property
    def race_result(self) -> RaceResult:
        """Diagnostics of the ModelRace run."""
        if self._race_result is None:
            raise NotFittedError("ADarts is not fitted")
        return self._race_result

    def recommend(self, series: TimeSeries) -> Recommendation:
        """Recommend the best imputation algorithm for one faulty series."""
        return self.recommend_many([series])[0]

    def extract_features(self, series_list) -> np.ndarray:
        """Inference-path feature extraction (traced, cache-aware)."""
        with get_tracer().span("inference.extract", subsystem="inference"):
            return self.extractor.extract_many(series_list)

    def _recommendations_from_proba(
        self, proba: np.ndarray, X: np.ndarray, detail
    ) -> list[Recommendation]:
        """Turn a vote's probability matrix into Recommendations."""
        classes = [str(c) for c in self._ensemble.classes_]
        disagreement = vote_disagreement(detail.member_probas)
        out = []
        for i, row in enumerate(proba):
            order = np.argsort(row)[::-1]
            ranking = tuple(classes[j] for j in order)
            out.append(
                Recommendation(
                    algorithm=ranking[0],
                    ranking=ranking,
                    probabilities={classes[j]: float(row[j]) for j in order},
                    degraded=detail.degraded,
                    disagreement=float(disagreement[i]),
                    features=X[i],
                )
            )
        return out

    def _fallback_recommendations(self, X: np.ndarray) -> list[Recommendation]:
        """Static degraded-mode answer when no ensemble member can vote.

        Recommends the first :data:`FALLBACK_ALGORITHMS` entry present in
        the ensemble's class set (``linear``, then ``mean``), falling back
        to the alphabetically first known class.  Every recommendation is
        flagged ``degraded=True`` so callers can tell it apart from a
        real vote.
        """
        classes = [str(c) for c in self._ensemble.classes_]
        chosen = next(
            (a for a in FALLBACK_ALGORITHMS if a in classes), classes[0]
        )
        ranking = (chosen,) + tuple(c for c in classes if c != chosen)
        probabilities = {c: (1.0 if c == chosen else 0.0) for c in ranking}
        return [
            Recommendation(
                algorithm=chosen,
                ranking=ranking,
                probabilities=probabilities,
                degraded=True,
                features=row,
            )
            for row in X
        ]

    def annotate_with_ledger(
        self, series_list, recommendations: list[Recommendation], detail
    ) -> list[Recommendation]:
        """Emit one ``repair`` provenance row per recommendation.

        Returns the recommendations with their ``repair_id`` and atlas
        assignment (``cluster``) filled in (via
        :func:`dataclasses.replace`); a no-op pass-through when no
        ledger is installed.  ``detail`` is the vote's
        :class:`~repro.core.voting.VoteDetail`, or ``None`` when the
        static fallback answered.
        """
        ledger = get_ledger()
        if not ledger.enabled:
            return recommendations
        head = self.ledger_head_ or {}
        fingerprint = self.extractor.fingerprint
        vote = None
        if detail is not None:
            vote = {
                "n_members": detail.n_members,
                "used": list(detail.used_members),
                "failed": list(detail.failed_members),
                "skipped": list(detail.skipped_members),
            }
        atlas = self.cluster_atlas_
        # One resource stamp per annotate call (not per row): the memory
        # state is request-scoped, and per-row sampling would re-read
        # /proc for every series in a batch.
        resources = resource_stamp()
        rows = [np.asarray(series.values, dtype=float) for series in series_list]
        assignments = (
            atlas.assign_many(rows)
            if atlas is not None and len(atlas)
            else [None] * len(rows)
        )
        out = []
        for series, values, assignment, rec in zip(
            series_list, rows, assignments, recommendations
        ):
            top = sorted(rec.probabilities.items(), key=lambda kv: -kv[1])[:5]
            repair_id = ledger.record(
                "repair",
                {
                    "series": getattr(series, "name", None),
                    "series_len": int(values.size),
                    "n_missing": int(np.isnan(values).sum()),
                    "feature_hash": FeatureCache.key(values, fingerprint),
                    "cluster": assignment,
                    "algorithm": rec.algorithm,
                    "confidence": rec.probabilities.get(rec.algorithm),
                    "probabilities": dict(top),
                    "ranking": list(rec.ranking[:5]),
                    "vote": vote,
                    "quarantined_members": (
                        list(detail.skipped_members) if detail is not None else []
                    ),
                    "degraded": bool(rec.degraded),
                    "fallback": detail is None,
                    "fit_run_id": head.get("run_id"),
                    "fit_id": head.get("fit_id"),
                    "race_id": head.get("race_id"),
                    "resources": resources,
                },
                record_id=new_id("rep"),
            )
            out.append(replace(rec, repair_id=repair_id, cluster=assignment))
        return out

    def recommend_many(self, series_list) -> list[Recommendation]:
        """Vectorized recommendation over several series.

        Inference latency is recorded into the
        ``repro_inference_seconds`` (per request) and
        ``repro_inference_seconds_per_series`` histograms of the process
        metrics registry, and the whole call runs under an
        ``adarts.recommend_many`` span — all no-ops unless observability
        is installed.
        Degradation: when ensemble members fail to vote they are dropped
        and the vote re-normalizes over the survivors (recommendations are
        flagged ``degraded=True``); when *no* member can vote, the static
        fallback (:data:`FALLBACK_ALGORITHMS`) answers instead of raising.
        Each recommendation carries its feature row and its vote
        disagreement, so a caller can feed drift and scorecards without
        extracting or voting again.
        """
        if self._ensemble is None:
            raise NotFittedError("ADarts is not fitted")
        tracer = get_tracer()
        metrics = get_metrics()
        n_series = len(series_list)
        timer = Timer()
        with timer, tracer.span(
            "adarts.recommend_many", subsystem="inference", n_series=n_series
        ):
            X = self.extract_features(series_list)
            with tracer.span("inference.vote", subsystem="inference"):
                try:
                    detail = self._ensemble.predict_proba_detailed(X)
                except EnsembleError as exc:
                    _log.error(
                        "ensemble vote failed entirely (%s); serving the "
                        "static fallback recommendation",
                        exc,
                    )
                    detail = None
                    count_event("fallback_requests")
            if detail is None:
                out = self._fallback_recommendations(X)
            else:
                out = self._recommendations_from_proba(detail.proba, X, detail)
            out = self.annotate_with_ledger(series_list, out, detail)
            if detail is None or detail.degraded:
                count_event("degraded_requests")
                if detail is not None:
                    _log.warning(
                        "degraded vote: %d/%d members used (failed: %s; "
                        "quarantined: %s)",
                        detail.n_used,
                        detail.n_members,
                        list(detail.failed_members),
                        list(detail.skipped_members),
                    )
        metrics.counter(
            "repro_inference_requests_total",
            "recommend/recommend_many calls served",
        ).inc()
        metrics.counter(
            "repro_inference_series_total",
            "Series scored through the recommendation path",
        ).inc(n_series)
        metrics.histogram(
            "repro_inference_seconds",
            "Wall seconds per recommend_many request",
        ).observe(timer.elapsed)
        if n_series:
            metrics.histogram(
                "repro_inference_seconds_per_series",
                "Wall seconds per individual series recommendation",
            ).observe(timer.elapsed / n_series)
        return out

    def repair(self, series: TimeSeries) -> TimeSeries:
        """One-call repair: recommend, impute, return the completed series."""
        return self.recommend(series).impute(series)

    def repair_many(
        self, series_list, recommendations: list | None = None
    ) -> list[TimeSeries]:
        """Batched repair: recommend once, impute per-algorithm in batches.

        Series sharing a recommended algorithm are grouped and pushed
        through that imputer's :meth:`~repro.imputation.base.BaseImputer.
        impute_series_many` (one batched kernel call per algorithm for the
        vectorized imputers), with each repair's ledger rows correlated to
        its recommendation's ``repair_id``.  Results come back in input
        order; series with nothing missing are returned as-is, exactly
        like the per-series ``rec.impute`` path.

        Pass ``recommendations`` (aligned with ``series_list``) to reuse
        an earlier :meth:`recommend_many` call.
        """
        series_list = list(series_list)
        if recommendations is None:
            recommendations = self.recommend_many(series_list)
        if len(recommendations) != len(series_list):
            raise ValidationError(
                f"{len(recommendations)} recommendations for "
                f"{len(series_list)} series"
            )
        out: list[TimeSeries | None] = [None] * len(series_list)
        groups: dict[str, list[int]] = {}
        for i, (series, rec) in enumerate(zip(series_list, recommendations)):
            if series.has_missing:
                groups.setdefault(rec.algorithm, []).append(i)
            else:
                out[i] = series
        for algorithm, indices in groups.items():
            repaired = get_imputer(algorithm).impute_series_many(
                [series_list[i] for i in indices],
                repair_ids=[recommendations[i].repair_id for i in indices],
            )
            for i, series in zip(indices, repaired):
                out[i] = series
        return out

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        """Hard label predictions from pre-extracted features."""
        if self._ensemble is None:
            raise NotFittedError("ADarts is not fitted")
        return self._ensemble.predict(np.asarray(X, dtype=float))

    def predict_rankings(self, X) -> list[list]:
        """Per-sample label rankings from pre-extracted features."""
        if self._ensemble is None:
            raise NotFittedError("ADarts is not fitted")
        return self._ensemble.predict_rankings(np.asarray(X, dtype=float))
