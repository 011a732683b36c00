"""GROUSE: Grassmannian rank-one update subspace estimation (Balzano et al.).

GROUSE tracks a low-dimensional subspace from incomplete column vectors,
performing one gradient step on the Grassmann manifold per column.  We treat
each *time step* of the series matrix as an incomplete vector over the
series dimension, stream the columns (several passes), and reconstruct
missing coordinates from the learned subspace.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.imputation.base import (
    BaseImputer,
    interpolate_rows_block,
    register_imputer,
)
from repro.utils.rng import ensure_rng


@register_imputer
class GROUSEImputer(BaseImputer):
    """Streaming subspace-tracking imputation.

    Parameters
    ----------
    rank:
        Subspace dimension (None = auto: ~n/3 of the series count).
    n_passes:
        Number of sweeps over all columns.
    step:
        Gradient step size on the Grassmannian.
    random_state:
        Seed for subspace initialization.
    """

    name = "grouse"

    def __init__(
        self,
        rank: int | None = None,
        n_passes: int = 3,
        step: float = 0.2,
        random_state: int | None = 0,
    ):
        if rank is not None and rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        if n_passes < 1:
            raise ValidationError(f"n_passes must be >= 1, got {n_passes}")
        self.rank = rank
        self.n_passes = int(n_passes)
        self.step = float(step)
        self.random_state = random_state

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        n_series, length = X.shape
        rng = ensure_rng(self.random_state)
        observed = ~mask
        # Standardize rows on observed values: subspace tracking assumes
        # centered, comparable-scale coordinates.
        row_mean = np.zeros((n_series, 1))
        row_std = np.ones((n_series, 1))
        for i in range(n_series):
            obs = X[i, observed[i]]
            if obs.size:
                row_mean[i] = obs.mean()
                std = obs.std()
                row_std[i] = std if std > 0 else 1.0
        X = (X - row_mean) / row_std
        # Warm-start the subspace from the SVD of an interpolated fill
        # rather than a random basis: far fewer passes to converge.  When
        # rank is unset, pick the smallest dimension explaining 90% of the
        # warm fill's energy — oversized subspaces extrapolate noise.
        warm = interpolate_rows_block(X, mask)
        U_full, s_full, _ = np.linalg.svd(warm, full_matrices=False)
        if self.rank is not None:
            rank = min(self.rank, n_series)
        else:
            energy = np.cumsum(s_full**2) / max(float((s_full**2).sum()), 1e-12)
            rank = int(np.searchsorted(energy, 0.9) + 1)
            rank = min(max(1, rank), n_series)
        U = U_full[:, :rank]
        if U.shape[1] < rank:
            extra, _ = np.linalg.qr(rng.normal(size=(n_series, rank - U.shape[1])))
            U = np.hstack([U, extra])
        for sweep in range(self.n_passes):
            eta = self.step / (1 + sweep)  # decaying step per pass
            for t in range(length):
                omega = observed[:, t]
                if omega.sum() <= rank:
                    continue  # not enough observations to update safely
                v = X[omega, t]
                U_omega = U[omega]
                # Least-squares weights of the observed part in the subspace.
                w, *_ = np.linalg.lstsq(U_omega, v, rcond=None)
                p = U @ w  # current prediction (full vector)
                r = np.zeros(n_series)
                r[omega] = v - p[omega]  # residual on observed coords
                r_norm = np.linalg.norm(r)
                p_norm = np.linalg.norm(p)
                w_norm = np.linalg.norm(w)
                if r_norm < 1e-12 or p_norm < 1e-12 or w_norm < 1e-12:
                    continue
                # Grassmannian geodesic step (rank-one update).  The greedy
                # step angle atan(||r||/||p||) is bounded, so a warm-started
                # subspace is refined rather than destroyed.
                angle = eta * np.arctan(r_norm / p_norm)
                U = U + (
                    (np.cos(angle) - 1.0) * np.outer(p / p_norm, w / w_norm)
                    + np.sin(angle) * np.outer(r / r_norm, w / w_norm)
                )
                # Re-orthonormalize occasionally for numerical hygiene.
                if t % 64 == 0:
                    U, _ = np.linalg.qr(U)
        U, _ = np.linalg.qr(U)
        # Final reconstruction of missing coordinates per column.  Ridge
        # regularization keeps overparameterized subspaces (rank above the
        # data's true rank) from extrapolating noise into the gap.
        out = X.copy()
        fallback = interpolate_rows_block(X, mask)
        eye_r = np.eye(U.shape[1])
        for t in range(length):
            miss = mask[:, t]
            if not miss.any():
                continue
            omega = ~miss
            if omega.sum() <= rank:
                out[miss, t] = fallback[miss, t]
                continue
            U_omega = U[omega]
            w = np.linalg.solve(
                U_omega.T @ U_omega + 0.1 * eye_r, U_omega.T @ X[omega, t]
            )
            pred = U @ w
            out[miss, t] = pred[miss]
        # Undo the row standardization.
        return out * row_std + row_mean

    def _impute_block(self, X3: np.ndarray, mask3: np.ndarray) -> np.ndarray:
        # A single series spans no subspace to track, so it is
        # interpolated; multi-series subspace tracking stays sequential
        # per problem.
        if X3.shape[1] < 2:
            return interpolate_rows_block(X3, mask3)
        return super()._impute_block(X3, mask3)
