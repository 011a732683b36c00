"""ST-MVL: spatio-temporal multi-view learning (Yi et al., IJCAI'16).

ST-MVL blends four views of a missing entry:

* **UCF** (user-based collaborative filtering): values of correlated *other
  series* at the same time step, similarity-weighted;
* **ICF** (item-based): values of *nearby time steps* of the same series,
  distance-weighted (inverse-distance smoothing);
* **SES** (spatial empirical statistic): the cross-series mean at that step;
* **TES** (temporal empirical statistic): the series' own mean.

The views are combined by a ridge regression fit on observed entries where
all views are computable ("multi-view learning").
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.imputation.base import BaseImputer, interpolate_rows_block, register_imputer


@register_imputer
class STMVLImputer(BaseImputer):
    """Spatio-temporal multi-view imputation.

    Parameters
    ----------
    temporal_window:
        Half-width of the temporal smoothing window for the ICF view.
    n_neighbours:
        Number of correlated series used by the UCF view.
    alpha:
        Ridge penalty of the view-blending regression.
    """

    name = "stmvl"

    def __init__(
        self, temporal_window: int = 5, n_neighbours: int = 3, alpha: float = 1.0
    ):
        if temporal_window < 1:
            raise ValidationError(
                f"temporal_window must be >= 1, got {temporal_window}"
            )
        if n_neighbours < 1:
            raise ValidationError(f"n_neighbours must be >= 1, got {n_neighbours}")
        self.temporal_window = int(temporal_window)
        self.n_neighbours = int(n_neighbours)
        self.alpha = float(alpha)

    # ------------------------------------------------------------------
    def _views(self, filled: np.ndarray, X: np.ndarray, mask: np.ndarray):
        """Compute the four view matrices over the whole grid."""
        n, m = filled.shape
        # ICF: inverse-distance weighted temporal smoothing of own series.
        icf = np.empty_like(filled)
        w = self.temporal_window
        offsets = np.abs(np.arange(-w, w + 1, dtype=float))
        offsets[w] = np.inf  # exclude self (zero weight)
        weights = 1.0 / offsets
        for t in range(m):
            lo, hi = max(0, t - w), min(m, t + w + 1)
            seg = filled[:, lo:hi]
            wseg = weights[w - (t - lo) : w + (hi - t)]
            denom = wseg.sum()
            icf[:, t] = seg @ wseg / denom if denom > 0 else filled[:, t]
        # UCF: similarity-weighted average over most-correlated other series.
        corr = np.corrcoef(filled) if n > 1 else np.ones((1, 1))
        corr = np.nan_to_num(corr, nan=0.0)
        np.fill_diagonal(corr, -np.inf)
        ucf = np.empty_like(filled)
        for i in range(n):
            if n == 1:
                ucf[i] = filled[i]
                continue
            order = np.argsort(corr[i])[::-1][: self.n_neighbours]
            sims = np.clip(corr[i, order], 0.0, None)
            if sims.sum() <= 0:
                ucf[i] = filled[order].mean(axis=0)
            else:
                ucf[i] = (sims[:, None] * filled[order]).sum(axis=0) / sims.sum()
        # SES: per-time-step cross-series mean; TES: per-series mean.
        ses = np.tile(filled.mean(axis=0), (n, 1))
        tes = np.tile(filled.mean(axis=1)[:, None], (1, m))
        return ucf, icf, ses, tes

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        filled = interpolate_rows_block(X, mask)
        ucf, icf, ses, tes = self._views(filled, X, mask)
        observed = ~mask
        design = np.stack(
            [ucf[observed], icf[observed], ses[observed], tes[observed]], axis=1
        )
        target = X[observed]
        # Ridge blend fit on observed entries (with intercept).
        design = np.hstack([design, np.ones((design.shape[0], 1))])
        A = design.T @ design + self.alpha * np.eye(design.shape[1])
        b = design.T @ target
        coef = np.linalg.solve(A, b)
        full_design = np.stack(
            [ucf[mask], icf[mask], ses[mask], tes[mask], np.ones(mask.sum())], axis=1
        )
        out = X.copy()
        out[mask] = full_design @ coef
        return out
