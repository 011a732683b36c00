"""SoftImpute: spectral regularization via soft-thresholded SVD (Mazumder et al.).

Each iteration replaces the missing entries with the current low-rank
estimate, computes an SVD, and *soft-thresholds* the singular values by
``lam`` (the nuclear-norm proximal operator).  Unlike hard-truncated SVD,
the effective rank adapts to the data.
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
    reconstruct_shrunk,
    svd_block,
)


@register_imputer
class SoftImputer(BaseImputer):
    """Soft-thresholded SVD imputation.

    Parameters
    ----------
    lam:
        Shrinkage applied to singular values, as a *fraction of the largest
        singular value* of the initial fill (keeps the scale data-free).
    max_iter:
        Maximum iterations.
    tol:
        Relative-change convergence threshold on imputed entries.
    """

    name = "softimpute"

    def __init__(self, lam: float = 0.1, max_iter: int = 80, tol: float = 1e-5):
        if lam < 0:
            raise ValidationError(f"lam must be >= 0, got {lam}")
        self.lam = float(lam)
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    def _impute_block(self, X3: np.ndarray, mask3: np.ndarray) -> np.ndarray:
        cur3 = interpolate_rows_block(X3, mask3)
        # Per-problem threshold from each problem's own initial spectrum.
        s0 = np.linalg.svd(cur3, compute_uv=False)
        thresholds = self.lam * (
            s0[:, 0] if s0.shape[1] else np.ones(cur3.shape[0])
        )
        state = ActiveStack(cur3, mask3, self.tol)
        thr = thresholds
        for it in range(1, self.max_iter + 1):
            if not state.alive:
                break
            U, s, Vt = svd_block(state.cur)
            s_shrunk = np.maximum(s - thr[:, None], 0.0)
            approx = reconstruct_shrunk(U, s_shrunk, Vt)
            (thr,) = state.advance(
                np.where(state.mask, approx, state.cur), it, (thr,)
            )
        return state.finalize()
