"""SVT: singular value thresholding for matrix completion (Cai, Candès, Shen).

SVT runs a Uzawa-style iteration on the dual variable ``Y``:

    X_k = shrink(Y_{k-1}, tau)          (soft-threshold the SVD)
    Y_k = Y_{k-1} + delta * P_Omega(M - X_k)

where ``P_Omega`` projects onto the observed entries.  We follow the paper's
recommended defaults: ``tau ~ 5 * sqrt(n*m)`` and step ``delta ~ 1.2 / p``
with ``p`` the observed fraction.
"""

from __future__ import annotations

import numpy as np

from repro.imputation.base import (
    BaseImputer,
    interpolate_rows_block,
    register_imputer,
)
from repro.imputation.matrix._kernels import (
    masked_norms,
    reconstruct_shrunk,
    svd_block,
)


@register_imputer
class SVTImputer(BaseImputer):
    """Singular value thresholding.

    Parameters
    ----------
    tau:
        Threshold; None uses ``tau_scale * sqrt(n * m)``.
    tau_scale:
        Multiplier for the automatic tau.
    max_iter:
        Maximum Uzawa iterations.
    tol:
        Relative residual tolerance on observed entries.
    """

    name = "svt"

    def __init__(
        self,
        tau: float | None = None,
        tau_scale: float = 5.0,
        max_iter: int = 120,
        tol: float = 1e-4,
    ):
        self.tau = tau
        self.tau_scale = float(tau_scale)
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    def _impute_block(self, X3: np.ndarray, mask3: np.ndarray) -> np.ndarray:
        B, n, m = X3.shape
        obs3 = ~mask3
        M3 = np.where(obs3, X3, 0.0)
        tau = self.tau if self.tau is not None else self.tau_scale * np.sqrt(n * m)
        p = obs3.mean(axis=(1, 2))
        delta = 1.2 / np.maximum(p, 1e-6)
        # M3 is already zero at unobserved cells, so the full-matrix norm
        # equals the norm of the observed entries.
        norm_M = masked_norms(M3) + 1e-12
        interp3 = interpolate_rows_block(X3, mask3)
        best3 = interp3.copy()
        # Compacted active-problem state: converged problems are dropped
        # from the working arrays; their best iterate is already in best3.
        idx = np.arange(B)
        Y = np.zeros_like(M3)
        M_act, obs_act, norm_act, delta_act = M3, obs3, norm_M, delta
        for _ in range(self.max_iter):
            if idx.size == 0:
                break
            U, s, Vt = svd_block(Y)
            s_shrunk = np.maximum(s - tau, 0.0)
            Xk = reconstruct_shrunk(U, s_shrunk, Vt)
            residual = np.where(obs_act, M_act - Xk, 0.0)
            rel = masked_norms(residual) / norm_act
            best3[idx] = Xk
            conv = rel < self.tol
            if conv.any():
                keep = ~conv
                Y = (Y + delta_act[:, None, None] * residual)[keep]
                idx = idx[keep]
                M_act, obs_act = M_act[keep], obs_act[keep]
                norm_act, delta_act = norm_act[keep], delta_act[keep]
            else:
                Y = Y + delta_act[:, None, None] * residual
        # A threshold too high for the data collapses SVT to rank zero;
        # such problems keep the interpolation instead of filling zeros.
        collapsed = ~best3.any(axis=(1, 2))
        best3[collapsed] = interp3[collapsed]
        return np.where(mask3, best3, X3)
