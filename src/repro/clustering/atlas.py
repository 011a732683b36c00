"""Cluster atlas: fit-time cluster representatives for serving-side assignment.

Labeling (:class:`~repro.clustering.labeling.ClusterLabeler`) leaves one
representative per cluster with its winning imputer; the atlas travels
with the exported engine and gives every served series a cluster for
its repair ledger row and the per-cluster serving scorecard.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.imputation.base import interpolate_rows_block

_EPS = 1e-12


class ClusterAtlas:
    """Fit-time cluster representatives, queryable at serving time.

    Built by :class:`~repro.clustering.labeling.ClusterLabeler`: one
    z-normalized representative series per labeling cluster, together
    with the cluster's winning imputer.  :meth:`assign` then gives any
    incoming series a cluster assignment — the nearest representative by
    NCC (:func:`~repro.timeseries.batch.ncc_rowwise`) — which repair
    ledger rows and the per-cluster serving scorecard both use.
    """

    def __init__(self):
        self.ids: list[str] = []
        self.labels: list[str] = []
        self.representatives: list[np.ndarray] = []
        # Serving traffic is usually fixed-length, so the z-normed,
        # truncated representative matrices are cached per query length.
        self._prepared: dict[int, list] = {}

    @property
    def n_clusters(self) -> int:
        return len(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, cluster_id: str, label: str, representative) -> None:
        """Register one cluster; ``representative`` is z-normalized here."""
        values = np.asarray(representative, dtype=float).ravel()
        if values.size < 2:
            raise ValidationError("cluster representative needs >= 2 points")
        self.ids.append(str(cluster_id))
        self.labels.append(str(label))
        self.representatives.append(_znorm(values))
        self._prepared.clear()

    def merge(self, other: "ClusterAtlas") -> "ClusterAtlas":
        """Fold another atlas's clusters into this one (corpus labeling)."""
        self.ids.extend(other.ids)
        self.labels.extend(other.labels)
        self.representatives.extend(other.representatives)
        self._prepared.clear()
        return self

    # -- assignment ------------------------------------------------------
    def assign(self, values) -> dict | None:
        """Nearest-representative assignment of one series.

        Returns ``{"cluster", "ncc", "label"}`` or ``None`` for an empty
        atlas or a series shorter than two points; see :meth:`assign_many`.
        """
        return self.assign_many([values])[0]

    def assign_many(self, rows) -> list[dict | None]:
        """Nearest-representative assignment of every series in ``rows``.

        One result per row, as :meth:`assign` gives it.  NaNs are linearly
        interpolated first (serving series are faulty by definition; an
        all-NaN series becomes zeros); both sides are truncated to the
        common length and z-normalized, matching the labeling-time
        treatment.  Rows of one length share one interpolation pass and
        one ``rfft``/``irfft`` per representative length group; every
        row gets the bytes a batch of one would give it.
        """
        arrays = [np.asarray(values, dtype=float).ravel() for values in rows]
        out: list[dict | None] = [None] * len(arrays)
        if not self.ids:
            return out
        by_length: dict[int, list[int]] = {}
        for i, values in enumerate(arrays):
            if values.size >= 2:
                by_length.setdefault(values.size, []).append(i)
        for n, members in by_length.items():
            # One problem per row: an all-NaN row must not borrow the
            # batch's mean.
            block = np.stack([arrays[i] for i in members])[:, None, :]
            series = interpolate_rows_block(block, np.isnan(block))[:, 0, :]
            rows_at = np.arange(len(members))
            best_idx = np.zeros(len(members), dtype=np.intp)
            best_ncc = np.full(len(members), -np.inf)
            for length, indices, conj_fft, norms, size in self._prepare(n):
                x = _znorm(series[:, :length])
                # Shift-maximized NCC against every representative at once
                # (the ncc_rowwise recipe with the representatives' FFTs
                # and norms precomputed).
                cc = np.fft.irfft(
                    np.fft.rfft(x, size, axis=1)[:, None, :] * conj_fft,
                    size,
                    axis=2,
                )
                if length > 1:
                    cc = np.concatenate(
                        (cc[..., -(length - 1):], cc[..., :length]), axis=2
                    )
                peaks = cc.max(axis=2)
                # Row norms by batched dot products: the bytes of
                # ``np.linalg.norm`` on each row.
                x_norms = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
                denom = x_norms[:, None] * norms
                nccs = np.divide(
                    peaks, denom, out=np.zeros_like(peaks), where=denom != 0.0
                )
                group_best = nccs.argmax(axis=1)
                value = nccs[rows_at, group_best]
                better = value > best_ncc  # the first group wins a tie
                best_idx = np.where(better, indices[group_best], best_idx)
                best_ncc = np.where(better, value, best_ncc)
            for i, idx, ncc in zip(members, best_idx.tolist(), best_ncc.tolist()):
                out[i] = {
                    "cluster": self.ids[idx],
                    "ncc": ncc,
                    "label": self.labels[idx],
                }
        return out

    def _prepare(self, n: int) -> list:
        """Representatives grouped by common length with ``n``-point series.

        Each entry is ``(length, indices, conj_fft, norms, fft_size)``
        with the z-normed, truncated representatives' conjugate FFTs and
        norms precomputed, so :meth:`assign_many` only transforms the
        queries.
        """
        cached = self._prepared.get(n)
        if cached is None:
            from repro.timeseries.batch import _fft_size

            groups: dict[int, list[int]] = {}
            for idx, rep in enumerate(self.representatives):
                groups.setdefault(min(n, rep.size), []).append(idx)
            cached = []
            for length, indices in groups.items():
                matrix = _znorm(
                    np.vstack([self.representatives[i][:length] for i in indices])
                )
                size = _fft_size(length)
                cached.append(
                    (
                        length,
                        np.asarray(indices, dtype=np.intp),
                        np.conj(np.fft.rfft(matrix, size, axis=1)),
                        np.linalg.norm(matrix, axis=1),
                        size,
                    )
                )
            if len(self._prepared) >= 32:  # unbounded-length traffic guard
                self._prepared.clear()
            self._prepared[n] = cached
        return cached

    # -- persistence -----------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "ids": list(self.ids),
            "labels": list(self.labels),
            "representatives": [r.tolist() for r in self.representatives],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "ClusterAtlas":
        atlas = cls()
        for cluster_id, label, rep in zip(
            document["ids"], document["labels"], document["representatives"]
        ):
            rep = np.asarray(rep, dtype=float)
            if rep.ndim != 1 or rep.size < 2 or not np.isfinite(rep).all():
                raise ValidationError(
                    "cluster representative needs >= 2 finite points"
                )
            atlas.ids.append(str(cluster_id))
            atlas.labels.append(str(label))
            atlas.representatives.append(rep)
        return atlas


def _znorm(values: np.ndarray) -> np.ndarray:
    """Z-normalize a series, or each row of a 2-D block (a constant row
    is only centred)."""
    std = values.std(axis=-1, keepdims=True)
    return (values - values.mean(axis=-1, keepdims=True)) / np.where(
        std > _EPS, std, 1.0
    )
