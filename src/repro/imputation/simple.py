"""Baseline imputers: mean, linear interpolation, and cross-series kNN."""

from __future__ import annotations

import numpy as np

from repro.imputation.base import (
    BaseImputer,
    interpolate_rows_block,
    register_imputer,
)
from repro.exceptions import ValidationError


@register_imputer
class MeanImputer(BaseImputer):
    """Replace each missing value with its series' observed mean.

    The weakest sensible baseline: ignores time entirely.  Series with no
    observed values fall back to the global observed mean.
    """

    name = "mean"

    def _impute_block(self, X3: np.ndarray, mask3: np.ndarray) -> np.ndarray:
        # Closed form over the whole (B, n, L) stack: masked row means
        # with a per-problem global-mean fallback for dead rows.
        obs3 = ~mask3
        counts = obs3.sum(axis=2)
        sums = np.where(obs3, X3, 0.0).sum(axis=2)
        row_mean = sums / np.maximum(counts, 1)
        total = counts.sum(axis=1)
        global_mean = sums.sum(axis=1) / np.maximum(total, 1)
        fill = np.where(counts > 0, row_mean, global_mean[:, None])
        out = X3.copy()
        out[mask3] = np.broadcast_to(fill[:, :, None], out.shape)[mask3]
        return out


@register_imputer
class LinearImputer(BaseImputer):
    """Per-series linear interpolation with edge extension.

    Strong on smooth/low-noise series, poor across long blocks where the
    signal turns within the gap.
    """

    name = "linear"

    def _impute_block(self, X3: np.ndarray, mask3: np.ndarray) -> np.ndarray:
        return interpolate_rows_block(X3, mask3)


@register_imputer
class KNNImputer(BaseImputer):
    """Cross-series k-nearest-neighbour imputation.

    For each faulty series, find the ``k`` most correlated other series on
    the commonly observed positions and average their (z-aligned) values
    inside the gap.  Exploits inter-series redundancy like the matrix
    methods but without factorization.

    Parameters
    ----------
    k:
        Number of neighbour series to average.
    """

    name = "knn"

    def __init__(self, k: int = 3):
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        self.k = int(k)

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        n_series = X.shape[0]
        base = interpolate_rows_block(X, mask)
        out = base.copy()
        for i in range(n_series):
            row_mask = mask[i]
            if not row_mask.any():
                continue
            target = base[i]
            sims = np.full(n_series, -np.inf)
            signs = np.ones(n_series)
            for j in range(n_series):
                if j == i:
                    continue
                common = ~(mask[i] | mask[j])
                if common.sum() < 3:
                    continue
                a = X[i, common]
                b = X[j, common]
                sa, sb = a.std(), b.std()
                if sa == 0 or sb == 0:
                    continue
                corr = float(np.corrcoef(a, b)[0, 1])
                # Anti-correlated donors are as informative as correlated
                # ones once flipped; rank by |corr| and remember the sign.
                sims[j] = abs(corr)
                signs[j] = 1.0 if corr >= 0 else -1.0
            order = np.argsort(sims)[::-1]
            neighbours = [j for j in order if np.isfinite(sims[j])][: self.k]
            if not neighbours:
                continue
            # Align each neighbour to the target scale on observed positions,
            # then average their values in the gap.
            estimates = []
            obs = ~row_mask
            for j in neighbours:
                donor = base[j]
                d_std = donor[obs].std()
                if d_std == 0:
                    continue
                scale = signs[j] * (
                    target[obs].std() / d_std if target[obs].std() > 0 else 1.0
                )
                shift = target[obs].mean() - scale * donor[obs].mean()
                estimates.append(scale * donor[row_mask] + shift)
            if estimates:
                out[i, row_mask] = np.mean(estimates, axis=0)
        return out

    def _impute_block(self, X3: np.ndarray, mask3: np.ndarray) -> np.ndarray:
        # A single series has no neighbours, so it is interpolated; the
        # multi-series case keeps the per-problem neighbour search, whose
        # |corr| ranking is too order-sensitive to re-derive blockwise
        # without risking different neighbour picks.
        if X3.shape[1] < 2:
            return interpolate_rows_block(X3, mask3)
        return super()._impute_block(X3, mask3)
