"""TRMF: temporal regularized matrix factorization (Yu, Rao, Dhillon).

Factorizes the series matrix ``X ~= W F`` (W: series loadings, F: temporal
factors of shape (rank, length)) with an autoregressive penalty on the rows
of ``F``: each temporal factor should follow an AR model over a small lag
set.  Missing entries are excluded from the data term, and after alternating
minimization, imputed from ``W F``.  The AR regularizer is what lets TRMF
extrapolate inside long gaps where pure low-rank methods flatten out.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.imputation.base import BaseImputer, interpolate_rows_block, register_imputer
from repro.utils.rng import ensure_rng


@register_imputer
class TRMFImputer(BaseImputer):
    """Temporal regularized matrix factorization.

    Parameters
    ----------
    rank:
        Number of latent temporal factors (None = auto: ~n/3).
    lags:
        AR lag set for the temporal regularizer.
    lambda_w, lambda_f:
        Ridge penalties on W and F.
    lambda_ar:
        Weight of the autoregressive temporal penalty.
    max_iter:
        Alternating-minimization iterations.
    random_state:
        Seed for factor initialization.
    """

    name = "trmf"

    def __init__(
        self,
        rank: int | None = None,
        lags: tuple[int, ...] = (1, 2),
        lambda_w: float = 0.1,
        lambda_f: float = 0.1,
        lambda_ar: float = 10.0,
        max_iter: int = 30,
        random_state: int | None = 0,
    ):
        if rank is not None and rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        if not lags or any(l < 1 for l in lags):
            raise ValidationError(f"lags must be positive integers, got {lags}")
        self.rank = rank
        self.lags = tuple(int(l) for l in lags)
        self.lambda_w = float(lambda_w)
        self.lambda_f = float(lambda_f)
        self.lambda_ar = float(lambda_ar)
        self.max_iter = int(max_iter)
        self.random_state = random_state

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        n, m = X.shape
        rng = ensure_rng(self.random_state)
        rank = self.rank if self.rank is not None else max(1, n // 3)
        rank = min(rank, n, m)
        observed = ~mask
        filled = interpolate_rows_block(X, mask)
        # Warm-start factors from the SVD of the interpolated fill.
        U, s, Vt = np.linalg.svd(filled, full_matrices=False)
        W = U[:, :rank] * np.sqrt(s[:rank])
        F = (np.sqrt(s[:rank])[:, None] * Vt[:rank]) + 1e-3 * rng.normal(
            size=(rank, m)
        )
        max_lag = max(self.lags)
        ar = np.full(len(self.lags), 1.0 / len(self.lags))  # fixed AR weights
        eye_r = np.eye(rank)
        for _ in range(self.max_iter):
            # --- W step: per-series ridge regression on observed entries.
            for i in range(n):
                obs = observed[i]
                if obs.sum() == 0:
                    continue
                Fo = F[:, obs]
                A = Fo @ Fo.T + self.lambda_w * eye_r
                b = Fo @ X[i, obs]
                W[i] = np.linalg.solve(A, b)
            # --- F step: per-time-step ridge with AR coupling to neighbours.
            WtW = W.T @ W
            for t in range(m):
                obs = observed[:, t]
                A = (W[obs].T @ W[obs]) + self.lambda_f * eye_r
                b = W[obs].T @ X[obs, t] if obs.any() else np.zeros(rank)
                # AR penalty pulls f_t toward sum_l ar_l f_{t-l} (and couples
                # forward as f_t appears in the prediction of f_{t+l}).
                if t >= max_lag:
                    target = np.zeros(rank)
                    for coef, lag in zip(ar, self.lags):
                        target += coef * F[:, t - lag]
                    A += self.lambda_ar * eye_r
                    b += self.lambda_ar * target
                for coef, lag in zip(ar, self.lags):
                    t_fwd = t + lag
                    if t_fwd < m and t_fwd >= max_lag:
                        others = np.zeros(rank)
                        for c2, l2 in zip(ar, self.lags):
                            if l2 != lag:
                                others += c2 * F[:, t_fwd - l2]
                        A += self.lambda_ar * (coef**2) * eye_r
                        b += self.lambda_ar * coef * (F[:, t_fwd] - others)
                F[:, t] = np.linalg.solve(A, b)
        approx = W @ F
        out = X.copy()
        out[mask] = approx[mask]
        return out
