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
        atlas.  NaNs are linearly interpolated first (serving series are
        faulty by definition; an all-NaN series becomes zeros); both sides are truncated to the common
        length and z-normalized, matching the labeling-time treatment.
        """
        if not self.ids:
            return None
        values = np.asarray(values, dtype=float).ravel()
        series = interpolate_rows_block(values[None, :], np.isnan(values)[None, :])[0]
        if series.size < 2:
            return None
        best_idx, best_ncc = 0, -np.inf
        for length, indices, conj_fft, norms, size in self._prepare(
            series.size
        ):
            x = _znorm(series[:length])
            # Shift-maximized NCC against every representative at once
            # (the ncc_rowwise recipe with the representatives' FFTs and
            # norms precomputed — this runs once per served series).
            cc = np.fft.irfft(
                np.fft.rfft(x, size)[None, :] * conj_fft, size, axis=1
            )
            if length > 1:
                cc = np.concatenate(
                    (cc[:, -(length - 1):], cc[:, :length]), axis=1
                )
            peaks = cc.max(axis=1)
            denom = np.linalg.norm(x) * norms
            nccs = np.divide(
                peaks, denom, out=np.zeros_like(peaks), where=denom != 0.0
            )
            group_best = int(np.argmax(nccs))
            if nccs[group_best] > best_ncc:
                best_idx, best_ncc = indices[group_best], float(nccs[group_best])
        return {
            "cluster": self.ids[best_idx],
            "ncc": best_ncc,
            "label": self.labels[best_idx],
        }

    def _prepare(self, n: int) -> list:
        """Representatives grouped by common length with ``n``-point series.

        Each entry is ``(length, indices, conj_fft, norms, fft_size)``
        with the z-normed, truncated representatives' conjugate FFTs and
        norms precomputed, so :meth:`assign` only transforms the query.
        """
        cached = self._prepared.get(n)
        if cached is None:
            from repro.timeseries.batch import _fft_size

            groups: dict[int, list[int]] = {}
            for idx, rep in enumerate(self.representatives):
                groups.setdefault(min(n, rep.size), []).append(idx)
            cached = []
            for length, indices in groups.items():
                matrix = np.vstack(
                    [_znorm(self.representatives[i][:length]) for i in indices]
                )
                size = _fft_size(length)
                cached.append(
                    (
                        length,
                        indices,
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
    std = values.std()
    return (values - values.mean()) / (std if std > _EPS else 1.0)
