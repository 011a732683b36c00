"""CDRec: centroid-decomposition based recovery (Khayati et al.).

CDRec recovers missing blocks by iterating a truncated *centroid
decomposition* (CD) of the series matrix.  CD approximates SVD using sign
vectors: each step finds a sign vector ``z`` maximizing ``||X^T z||`` (via the
scalable sign-vector search), extracts a centroid (loading) pair, deflates,
and repeats.  Reconstruction from the first ``k`` centroid pairs replaces the
missing values; the loop stops when the imputed entries converge.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.imputation.base import (
    BaseImputer,
    interpolate_rows_block,
    register_imputer,
)
from repro.imputation.matrix._kernels import ActiveStack


def _sign_vector(X: np.ndarray, max_passes: int = 100) -> np.ndarray:
    """Find a local-optimum sign vector z in {-1, 1}^n maximizing ||X^T z||.

    Greedy single-flip ascent (the "SSV" strategy): flip any coordinate whose
    flip increases the objective until no improvement remains.
    """
    n = X.shape[0]
    z = np.ones(n)
    v = X.T @ z  # current projection, kept incrementally updated
    for _ in range(max_passes):
        # Gain of flipping coordinate i: changes v by -2 z_i X[i].
        improved = False
        for i in range(n):
            delta = v - 2.0 * z[i] * X[i]
            if delta @ delta > v @ v + 1e-12:
                v = delta
                z[i] = -z[i]
                improved = True
        if not improved:
            break
    return z


def centroid_decomposition(
    X: np.ndarray, k: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated centroid decomposition X ~= L R^T.

    Returns loading matrix ``L`` of shape (n, k) and relevance matrix ``R``
    of shape (m, k) such that ``L @ R.T`` approximates ``X``.
    """
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    rank = min(n, m) if k is None else min(k, n, m)
    residual = X.copy()
    L = np.zeros((n, rank))
    R = np.zeros((m, rank))
    for j in range(rank):
        z = _sign_vector(residual)
        c = residual.T @ z
        norm = np.linalg.norm(c)
        if norm < 1e-12:
            break
        r = c / norm
        l = residual @ r
        L[:, j] = l
        R[:, j] = r
        residual = residual - np.outer(l, r)
    return L, R


@register_imputer
class CDRecImputer(BaseImputer):
    """Iterative centroid-decomposition recovery.

    Parameters
    ----------
    rank:
        Truncation rank ``k`` of the decomposition (None = auto: ~n/3).
    max_iter:
        Maximum refinement iterations.
    tol:
        Convergence threshold on the relative change of imputed entries.
    """

    name = "cdrec"

    def __init__(self, rank: int | None = None, max_iter: int = 50, tol: float = 1e-4):
        if rank is not None and rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        current = interpolate_rows_block(X, mask)
        n = X.shape[0]
        rank = self.rank if self.rank is not None else max(1, n // 3)
        prev = current[mask]
        converged = False
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            L, R = centroid_decomposition(current, k=rank)
            approx = L @ R.T
            current[mask] = approx[mask]
            new = current[mask]
            denom = np.linalg.norm(prev) + 1e-12
            if np.linalg.norm(new - prev) / denom < self.tol:
                converged = True
                break
            prev = new
        self._record_convergence(n_iter, converged)
        return current

    def _impute_block(self, X3: np.ndarray, mask3: np.ndarray) -> np.ndarray:
        B, n, L = X3.shape
        if n != 1:
            # The greedy sign-vector search is sequential per matrix;
            # multi-series problems keep the per-problem loop.
            return super()._impute_block(X3, mask3)
        # Single-series problems: the sign vector of a 1-row matrix is
        # always [1] (a flip never improves ||X^T z||), so the centroid
        # decomposition is the rank-1 pair r = row/||row||, l = row @ r.
        # Stacked (1, L) @ (L, 1) products are the dot products the
        # per-problem loop takes, so each problem gets its bytes.
        cur3 = interpolate_rows_block(X3, mask3)
        state = ActiveStack(cur3, mask3, self.tol)
        for it in range(1, self.max_iter + 1):
            if not state.alive:
                break
            rows = state.cur
            norms = np.sqrt(rows @ rows.transpose(0, 2, 1))
            live = norms >= 1e-12  # the decomposition's deflation break
            r = rows / np.where(live, norms, 1.0)
            loading = rows @ r.transpose(0, 2, 1)
            approx = np.where(live, loading * r, 0.0)
            state.advance(np.where(state.mask, approx, state.cur), it)
        result = state.finalize()
        for b in range(B):
            self._record_convergence(state.iters[b], state.converged[b])
        return result
