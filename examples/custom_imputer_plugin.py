"""Scenario: extending A-DARTS with a custom imputation algorithm.

Applications can register their own repair techniques; the labeling stage,
the recommendation engine, and the voting inference pick them up with no
further wiring.  Here we add a seasonal-mean imputer tuned for strongly
periodic data and let the labeling race decide — on each cluster — whether
it actually beats the built-in algorithms.

Run:
    python examples/custom_imputer_plugin.py
"""

import numpy as np

from repro import ADarts, ModelRaceConfig
from repro.clustering.labeling import ClusterLabeler
from repro.datasets import load_category
from repro.imputation import BaseImputer, register_imputer
from repro.imputation.base import interpolate_rows_block


@register_imputer
class SeasonalMeanImputer(BaseImputer):
    """Fill each missing point with the mean of same-phase observations.

    Strong on strictly periodic series (Power/Climate); useless elsewhere —
    a perfect candidate for a *learned* recommendation.
    """

    name = "seasonal_mean"

    def __init__(self, period: int | None = None):
        self.period = period

    def _detect_period(self, row: np.ndarray) -> int:
        x = row - row.mean()
        denom = float(x @ x) or 1.0
        best_lag, best = 1, 0.2
        for lag in range(2, min(120, x.shape[0] // 2)):
            val = float(x[:-lag] @ x[lag:] / denom)
            if val > best:
                best, best_lag = val, lag
        return best_lag

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        out = interpolate_rows_block(X, mask)
        for i in range(X.shape[0]):
            if not mask[i].any():
                continue
            observed = np.where(mask[i], np.nan, X[i])
            period = self.period or self._detect_period(out[i])
            if period < 2:
                continue
            for t in np.flatnonzero(mask[i]):
                phase_values = observed[t % period :: period]
                phase_values = phase_values[~np.isnan(phase_values)]
                if phase_values.size:
                    out[i, t] = phase_values.mean()
        return out


def main() -> None:
    # Label Power data with a slate that includes the new algorithm.
    labeler = ClusterLabeler(
        imputer_names=("seasonal_mean", "linear", "knn", "svdimp", "mean")
    )
    engine = ADarts(
        labeler=labeler,
        config=ModelRaceConfig(n_partial_sets=2, n_folds=2, max_elite=3),
        classifier_names=["knn", "decision_tree", "gaussian_nb"],
    )
    datasets = load_category("Power", n_series=14, n_datasets=3)
    engine.fit_datasets(datasets)

    labels = engine._labeled_corpus.labels
    values, counts = np.unique(labels, return_counts=True)
    print("label distribution after adding the custom imputer:")
    for value, count in zip(values, counts):
        print(f"  {value:<14} {count}")

    faulty = engine._labeled_corpus.series[0]
    rec = engine.recommend(faulty)
    print(f"\nrecommendation for a periodic faulty series: {rec.algorithm}")
    print(f"ranking: {rec.ranking}")


if __name__ == "__main__":
    main()
