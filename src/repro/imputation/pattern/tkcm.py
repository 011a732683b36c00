"""TKCM: top-k case matching for pattern-determining series (Wellenzohn et al.).

For each missing block, TKCM takes the *anchor window* immediately preceding
the gap, searches the series history for the ``k`` most similar windows
(smallest z-normalized Euclidean distance), and imputes the gap with the
average of the values that followed those historical matches.  This exploits
recurring patterns (periodic load curves, heartbeats) that matrix methods
blur.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.imputation.base import BaseImputer, interpolate_rows_block, register_imputer


def _znorm(w: np.ndarray) -> np.ndarray:
    std = w.std()
    if std == 0:
        return np.zeros_like(w)
    return (w - w.mean()) / std


@register_imputer
class TKCMImputer(BaseImputer):
    """Top-k case matching.

    Parameters
    ----------
    k:
        Number of historical matches averaged.
    window:
        Anchor window length (None = auto: 2x the gap length, capped).
    """

    name = "tkcm"

    def __init__(self, k: int = 3, window: int | None = None):
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if window is not None and window < 2:
            raise ValidationError(f"window must be >= 2, got {window}")
        self.k = int(k)
        self.window = window

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        out = interpolate_rows_block(X, mask)
        for i in range(X.shape[0]):
            row_mask = mask[i]
            if not row_mask.any():
                continue
            self._impute_row(X[i], row_mask, out, i)
        return out

    def _impute_row(
        self, row: np.ndarray, row_mask: np.ndarray, out: np.ndarray, i: int
    ) -> None:
        n = row.shape[0]
        # Work gap by gap.
        blocks: list[tuple[int, int]] = []
        start = None
        for t, miss in enumerate(row_mask):
            if miss and start is None:
                start = t
            elif not miss and start is not None:
                blocks.append((start, t - start))
                start = None
        if start is not None:
            blocks.append((start, n - start))
        # The reference history is the interpolated row: matching still works
        # across other gaps without NaN bookkeeping.
        history = out[i]
        for gap_start, gap_len in blocks:
            window = self.window or min(max(4, 2 * gap_len), max(4, n // 4))
            anchor_start = gap_start - window
            if anchor_start < 0:
                continue  # no anchor before the gap; keep interpolation
            anchor = _znorm(history[anchor_start:gap_start])
            candidates: list[tuple[float, int]] = []
            for pos in range(0, n - window - gap_len + 1):
                # Skip candidates whose window or continuation overlaps the gap
                # or contains originally missing values.
                span = slice(pos, pos + window + gap_len)
                if pos <= gap_start < pos + window + gap_len:
                    continue
                if row_mask[span].any():
                    continue
                cand = _znorm(history[pos : pos + window])
                dist = float(np.linalg.norm(anchor - cand))
                candidates.append((dist, pos))
            if not candidates:
                continue
            candidates.sort(key=lambda c: c[0])
            # Quality guard: a z-normalized window of length w has norm
            # ~sqrt(w); if even the best match is far, the signal has no
            # repeating pattern and interpolation is safer than a bad graft.
            if candidates[0][0] > 0.5 * np.sqrt(window):
                continue
            top = candidates[: self.k]
            continuations = []
            anchor_raw = history[anchor_start:gap_start]
            for _, pos in top:
                cand_raw = history[pos : pos + window]
                cont = history[pos + window : pos + window + gap_len]
                # Rescale the continuation from the candidate's local scale
                # to the anchor's local scale.
                c_std = cand_raw.std()
                scale = (anchor_raw.std() / c_std) if c_std > 0 else 1.0
                shift = anchor_raw.mean() - scale * cand_raw.mean()
                continuations.append(scale * cont + shift)
            out[i, gap_start : gap_start + gap_len] = np.mean(continuations, axis=0)
