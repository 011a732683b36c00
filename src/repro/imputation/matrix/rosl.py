"""ROSL: robust orthonormal subspace learning (Shu, Porikli, Ahuja).

ROSL decomposes the data as ``X = D*alpha + E`` with an orthonormal subspace
``D``, group-sparse coefficients ``alpha``, and a sparse error term ``E``
that absorbs outliers.  The robustness to sparse corruption is why it shines
on anomaly-laden datasets (e.g. Water).  We implement a compact alternating
scheme: low-rank fit via truncated SVD, sparse residual via soft
thresholding, iterated on the filled matrix.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.imputation.base import (
    BaseImputer,
    interpolate_rows_block,
    register_imputer,
)
from repro.imputation.matrix._kernels import (
    ActiveStack,
    reconstruct_truncated,
    svd_block,
)


@register_imputer
class ROSLImputer(BaseImputer):
    """Robust low-rank + sparse imputation.

    Parameters
    ----------
    rank:
        Subspace dimension (None = auto: ~n/3).
    sparsity:
        Sparse-term threshold as a fraction of the residual's robust scale;
        larger values treat more structure as outliers.
    max_iter:
        Alternating iterations.
    tol:
        Relative-change convergence tolerance on imputed entries.
    """

    name = "rosl"

    def __init__(
        self,
        rank: int | None = None,
        sparsity: float = 2.5,
        max_iter: int = 50,
        tol: float = 1e-4,
    ):
        if rank is not None and rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        if sparsity <= 0:
            raise ValidationError(f"sparsity must be > 0, got {sparsity}")
        self.rank = rank
        self.sparsity = float(sparsity)
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    def _impute_block(self, X3: np.ndarray, mask3: np.ndarray) -> np.ndarray:
        B, n, L = X3.shape
        cur3 = interpolate_rows_block(X3, mask3)
        rank = self.rank if self.rank is not None else max(1, n // 3)
        rank = min(rank, min(n, L))
        E = np.zeros_like(cur3)
        state = ActiveStack(cur3, mask3, self.tol)
        for it in range(1, self.max_iter + 1):
            if not state.alive:
                break
            U, s, Vt = svd_block(state.cur - E)
            low_rank = reconstruct_truncated(U, s, Vt, rank)
            residual = state.cur - low_rank
            flat = residual.reshape(residual.shape[0], -1)
            med = np.median(flat, axis=1)
            scale = (
                np.median(np.abs(flat - med[:, None]), axis=1) + 1e-12
            )
            E = np.sign(residual) * np.maximum(
                np.abs(residual) - (self.sparsity * scale)[:, None, None], 0.0
            )
            (E,) = state.advance(
                np.where(state.mask, low_rank, state.cur), it, (E,)
            )
        return state.finalize()
