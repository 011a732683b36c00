"""IIM: learning individual models for imputation (Zhang et al., ICDE'19).

IIM fits, for each faulty series, an *individual* regression model over its
nearest-neighbour series: the candidate value for each missing cell is a
locally learned linear combination of the neighbours' values at that time
step, trained on the commonly observed region.  Distinct from global matrix
methods, each series gets its own model ("individual").
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.imputation.base import BaseImputer, interpolate_rows_block, register_imputer


@register_imputer
class IIMImputer(BaseImputer):
    """Individual per-series regression imputation.

    Parameters
    ----------
    n_neighbours:
        Number of donor series in each individual model.
    alpha:
        Ridge penalty of the per-series regression.
    """

    name = "iim"

    def __init__(self, n_neighbours: int = 3, alpha: float = 0.1):
        if n_neighbours < 1:
            raise ValidationError(f"n_neighbours must be >= 1, got {n_neighbours}")
        if alpha < 0:
            raise ValidationError(f"alpha must be >= 0, got {alpha}")
        self.n_neighbours = int(n_neighbours)
        self.alpha = float(alpha)

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        n, m = X.shape
        filled = interpolate_rows_block(X, mask)
        if n < 2:
            return filled
        out = filled.copy()
        corr = np.corrcoef(filled)
        corr = np.nan_to_num(corr, nan=0.0)
        np.fill_diagonal(corr, -np.inf)
        for i in range(n):
            row_mask = mask[i]
            if not row_mask.any():
                continue
            donors = np.argsort(np.abs(corr[i]))[::-1][: self.n_neighbours]
            # Train on positions where the target and all donors are observed.
            train = ~row_mask
            for d in donors:
                train &= ~mask[d]
            if train.sum() < self.n_neighbours + 2:
                continue  # not enough common support; keep interpolation
            D_train = filled[donors][:, train].T
            D_train = np.hstack([D_train, np.ones((D_train.shape[0], 1))])
            y_train = X[i, train]
            A = D_train.T @ D_train + self.alpha * np.eye(D_train.shape[1])
            coef = np.linalg.solve(A, D_train.T @ y_train)
            D_miss = filled[donors][:, row_mask].T
            D_miss = np.hstack([D_miss, np.ones((D_miss.shape[0], 1))])
            out[i, row_mask] = D_miss @ coef
        return out
