"""TeNMF: nonnegative matrix factorization for time-series recovery (Mei et al.).

Factorizes the (shifted-to-nonnegative) series matrix with multiplicative
updates masked to observed entries, adding a temporal-smoothness penalty on
the time-factor matrix.  The nonnegativity constraint yields parts-based
factors that work well on load-curve-like data (Power).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.imputation.base import BaseImputer, interpolate_rows_block, register_imputer
from repro.utils.rng import ensure_rng

_EPS = 1e-10


@register_imputer
class TeNMFImputer(BaseImputer):
    """Temporal nonnegative matrix factorization.

    Parameters
    ----------
    rank:
        Inner factorization dimension (None = auto: ~n/3).
    smoothness:
        Weight of the temporal first-difference penalty on H.
    max_iter:
        Multiplicative-update iterations.
    random_state:
        Seed for factor initialization.
    """

    name = "tenmf"

    def __init__(
        self,
        rank: int | None = None,
        smoothness: float = 0.5,
        max_iter: int = 150,
        random_state: int | None = 0,
    ):
        if rank is not None and rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        if smoothness < 0:
            raise ValidationError(f"smoothness must be >= 0, got {smoothness}")
        self.rank = rank
        self.smoothness = float(smoothness)
        self.max_iter = int(max_iter)
        self.random_state = random_state

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        n, m = X.shape
        rng = ensure_rng(self.random_state)
        rank = self.rank if self.rank is not None else max(1, n // 3)
        rank = min(rank, n, m)
        observed = ~mask
        # Shift to nonnegative domain on observed values.
        obs_vals = X[observed]
        shift = float(obs_vals.min())
        V = np.where(observed, X - shift, 0.0)
        Omega = observed.astype(float)
        scale = max(float(V[observed].mean()), _EPS)
        W = rng.uniform(0.1, 1.0, size=(n, rank)) * np.sqrt(scale / rank)
        H = rng.uniform(0.1, 1.0, size=(rank, m)) * np.sqrt(scale / rank)
        for _ in range(self.max_iter):
            WH = W @ H
            # Masked multiplicative updates (Lee–Seung restricted to Omega).
            numer_w = (Omega * V) @ H.T
            denom_w = (Omega * WH) @ H.T + _EPS
            W *= numer_w / denom_w
            WH = W @ H
            numer_h = W.T @ (Omega * V)
            denom_h = W.T @ (Omega * WH) + _EPS
            if self.smoothness > 0:
                # Temporal smoothness: neighbours attract (numerator),
                # self-weight repels (denominator) — standard graph-NMF form.
                neighbour = np.zeros_like(H)
                neighbour[:, 1:] += H[:, :-1]
                neighbour[:, :-1] += H[:, 1:]
                degree = np.full(m, 2.0)
                degree[0] = degree[-1] = 1.0
                numer_h = numer_h + self.smoothness * neighbour
                denom_h = denom_h + self.smoothness * H * degree
            H *= numer_h / denom_h
        approx = W @ H + shift
        if not np.isfinite(approx).all():
            return interpolate_rows_block(X, mask)
        out = X.copy()
        out[mask] = approx[mask]
        return out
