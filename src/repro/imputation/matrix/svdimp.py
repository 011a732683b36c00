"""SVDImpute: iterative truncated-SVD imputation (Troyanskaya et al.).

Initialize missing entries, compute a rank-``k`` SVD, replace the missing
entries with the reconstruction, and repeat until convergence.  The classic
expectation-maximization view of low-rank matrix completion.
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
class SVDImputer(BaseImputer):
    """Iterative rank-k SVD imputation.

    Parameters
    ----------
    rank:
        Number of singular triplets kept (None = auto: ~n/3).
    max_iter:
        Maximum EM iterations.
    tol:
        Relative-change convergence threshold on imputed entries.
    """

    name = "svdimp"

    def __init__(self, rank: int | None = None, max_iter: int = 60, tol: float = 1e-5):
        if rank is not None and rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    def _impute_block(self, X3: np.ndarray, mask3: np.ndarray) -> np.ndarray:
        B, n, L = X3.shape
        cur3 = interpolate_rows_block(X3, mask3)
        rank = self.rank if self.rank is not None else max(1, n // 3)
        rank = min(rank, min(n, L))
        state = ActiveStack(cur3, mask3, self.tol)
        for it in range(1, self.max_iter + 1):
            if not state.alive:
                break
            U, s, Vt = svd_block(state.cur)
            approx = reconstruct_truncated(U, s, Vt, rank)
            state.advance(np.where(state.mask, approx, state.cur), it)
        result = state.finalize()
        for b in range(B):
            self._record_convergence(state.iters[b], state.converged[b])
        return result
