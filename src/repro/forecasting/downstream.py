"""Downstream forecasting experiment harness (Section VII-F, Fig. 12).

Protocol: hide the final 20% of each series (a block "at the tip"), repair
it with the recommended imputation algorithm, fit a forecaster on the
repaired series, and compare a 12-step forecast against the true future.
"with A-DARTS" uses the trained recommendation engine; "without" uses the
static binary-vector recommendation of the ImputeBench study ([32]): each
algorithm carries a score vector over dataset properties, the dataset is
described by a binary property vector, and the best dot product wins.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.forecasting.metrics import smape
from repro.forecasting.models import BaseForecaster, HoltWintersForecaster
from repro.imputation.base import get_imputer
from repro.timeseries.missing import inject_tip_block
from repro.timeseries.series import TimeSeries, TimeSeriesDataset

#: Property axes of the binary recommendation vector ([32]'s decision table).
_PROPERTY_AXES = ("high_correlation", "periodic", "irregular", "trending")

#: Static per-algorithm scores along the property axes — encodes the
#: qualitative guidance of the ImputeBench study.
_ALGORITHM_SCORES: dict[str, tuple[float, float, float, float]] = {
    "cdrec":      (0.9, 0.5, 0.2, 0.5),
    "svdimp":     (0.8, 0.5, 0.2, 0.4),
    "softimpute": (0.7, 0.4, 0.3, 0.4),
    "stmvl":      (0.6, 0.6, 0.4, 0.6),
    "knn":        (0.8, 0.4, 0.3, 0.3),
    "linear":     (0.2, 0.2, 0.5, 0.7),
    "tkcm":       (0.3, 0.9, 0.2, 0.2),
    "iim":        (0.7, 0.3, 0.4, 0.4),
}


class BinaryVectorRecommender:
    """The static recommendation rule of the ImputeBench study.

    Builds a binary dataset-property vector from cheap diagnostics and
    recommends the algorithm with the highest dot product against the
    static score table.  Configuration-free but *data-blind*: every series
    of a dataset gets the same recommendation.
    """

    def __init__(self, algorithm_scores: dict | None = None):
        if algorithm_scores is None:
            algorithm_scores = _ALGORITHM_SCORES
        if not algorithm_scores:
            raise ValidationError("algorithm_scores must be non-empty")
        self.algorithm_scores = dict(algorithm_scores)

    @staticmethod
    def dataset_properties(dataset: TimeSeriesDataset) -> np.ndarray:
        """Binary property vector (high_correlation, periodic, irregular, trending)."""
        from repro.features.extractor import FeatureExtractor
        from repro.timeseries.batch import SeriesBank

        sample = list(dataset.series)[: min(8, len(dataset))]
        # One SeriesBank pass (clean + truncate + z-norm once, blockwise
        # GEMM) instead of the O(n²) per-pair correlation loop.
        corr = SeriesBank.from_series(sample).average_correlation()
        extractor = FeatureExtractor(use_topological=False)
        feats = dict(zip(extractor.feature_names, extractor.extract_many(sample).T))
        seasonality = float(np.mean(feats["trend_seasonality_strength"]))
        entropy = float(np.mean(feats["trend_spectral_entropy"]))
        slope_r2 = float(np.mean(feats["trend_r2"]))
        return np.array(
            [
                1.0 if corr > 0.6 else 0.0,
                1.0 if seasonality > 0.5 else 0.0,
                1.0 if entropy > 0.75 else 0.0,
                1.0 if slope_r2 > 0.3 else 0.0,
            ]
        )

    def recommend(self, dataset: TimeSeriesDataset) -> str:
        """One algorithm name for the whole dataset."""
        props = self.dataset_properties(dataset)
        best_name, best_score = None, -np.inf
        for name, scores in sorted(self.algorithm_scores.items()):
            value = float(np.asarray(scores) @ props)
            if value > best_score:
                best_name, best_score = name, value
        assert best_name is not None
        return best_name


def downstream_forecast_error(
    series: TimeSeries,
    future: np.ndarray,
    imputer_name: str,
    context_matrix: np.ndarray | None = None,
    tip_ratio: float = 0.2,
    horizon: int = 12,
    forecaster: BaseForecaster | None = None,
) -> float:
    """sMAPE of forecasting after repairing a tip block with one algorithm.

    Parameters
    ----------
    series:
        The complete historical series (no NaNs).
    future:
        The true next ``horizon`` values.
    imputer_name:
        Algorithm used to repair the injected tip block.
    context_matrix:
        Optional (n_series, length) matrix of sibling series giving the
        matrix methods cross-series context; the faulty series is appended
        as the final row.
    """
    future = np.asarray(future, dtype=float)
    if future.shape[0] < horizon:
        raise ValidationError(
            f"need {horizon} future values, got {future.shape[0]}"
        )
    faulty, _spec = inject_tip_block(series, ratio=tip_ratio)
    imputer = get_imputer(imputer_name)
    if context_matrix is not None:
        stacked = np.vstack([context_matrix, faulty.values[None, :]])
        repaired_values = imputer.impute(stacked)[-1]
    else:
        repaired_values = imputer.impute(faulty.values[None, :])[0]
    model = forecaster or HoltWintersForecaster()
    model.fit(repaired_values)
    prediction = model.forecast(horizon)
    return smape(future[:horizon], prediction)


def run_downstream_experiment(
    dataset: TimeSeriesDataset,
    recommend_fn,
    horizon: int = 12,
    tip_ratio: float = 0.2,
    forecaster_factory=None,
) -> float:
    """Average sMAPE over a dataset under a per-series recommendation function.

    ``recommend_fn(faulty_series) -> imputer name``.  Each series is split
    into history (all but the last ``horizon`` points) and future; the tip
    block is injected into the history.  Sibling histories provide context.
    """
    matrix = dataset.to_matrix()
    n, length = matrix.shape
    if length <= horizon + 8:
        raise ValidationError("series too short for the downstream protocol")
    histories = matrix[:, : length - horizon]
    futures = matrix[:, length - horizon :]
    errors = []
    for i in range(n):
        history = TimeSeries(histories[i], name=f"{dataset.name}_{i}")
        faulty, _ = inject_tip_block(history, ratio=tip_ratio)
        name = recommend_fn(faulty)
        context = np.delete(histories, i, axis=0)
        factory = forecaster_factory or HoltWintersForecaster
        errors.append(
            downstream_forecast_error(
                history,
                futures[i],
                name,
                context_matrix=context,
                tip_ratio=tip_ratio,
                horizon=horizon,
                forecaster=factory(),
            )
        )
    return float(np.mean(errors))
