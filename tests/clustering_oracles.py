"""Reference phase-2 refinement for :class:`IncrementalClustering`.

``IncrementalClustering._refine_incremental`` keeps running correlation
sums so each merge/move candidate is a lookup.  The path it replaced
recomputes ``rho(C_i ∪ C_j)`` from an ``np.ix_`` submatrix for every
candidate; it stays here as the parity oracle.  The library version
must reach exactly the same labels.
"""

from __future__ import annotations

from repro.clustering.incremental import IncrementalClustering, correlation_gain


class LegacyRefinementClustering(IncrementalClustering):
    """:class:`IncrementalClustering` whose phase 2 is the rescanning oracle."""

    def _refine_legacy(self, clusters: list[list[int]], m: int) -> list[list[int]]:
        """Reference phase-2 refinement: rescans ``np.ix_`` submatrices.

        Every merge/move candidate recomputes ``rho(C_i ∪ C_j)`` from
        scratch — O(|C|²) per candidate.  Kept as the semantics-defining
        path; the library's ``_refine_incremental`` is parity-tested
        against it.
        """
        changed = True
        guard = 0
        while changed and guard < 10 * max(1, len(clusters)):
            changed = False
            guard += 1
            # Merge pass over small clusters.
            order = sorted(range(len(clusters)), key=lambda i: len(clusters[i]))
            for i in order:
                if not clusters[i] or len(clusters[i]) > self.min_cluster_size:
                    continue
                rho_i = self._avg_corr(clusters[i])
                best_gain, best_j = 0.0, -1
                for j in range(len(clusters)):
                    if j == i or not clusters[j]:
                        continue
                    union = clusters[i] + clusters[j]
                    rho_union = self._avg_corr(union)
                    # Guard: a merge must not break the phase-1 correlation
                    # threshold — for large m the gain's second term vanishes
                    # and Eq. 1 alone would merge anything positive.
                    if rho_union < self.delta:
                        continue
                    gain = correlation_gain(
                        rho_union, rho_i, self._avg_corr(clusters[j]), m
                    )
                    if gain > best_gain:
                        best_gain, best_j = gain, j
                if best_j >= 0:
                    clusters[best_j].extend(clusters[i])
                    clusters[i] = []
                    changed = True
                    continue
                # No whole-cluster merge: try moving individual series.
                for x in list(clusters[i]):
                    if len(clusters[i]) <= 1:
                        break
                    best_gain, best_j = 0.0, -1
                    for j in range(len(clusters)):
                        if j == i or not clusters[j]:
                            continue
                        rho_union = self._avg_corr(clusters[j] + [x])
                        if rho_union < self.delta:
                            continue
                        gain = correlation_gain(
                            rho_union,
                            self._avg_corr([x]),
                            self._avg_corr(clusters[j]),
                            m,
                        )
                        if gain > best_gain:
                            best_gain, best_j = gain, j
                    if best_j >= 0:
                        clusters[i].remove(x)
                        clusters[best_j].append(x)
                        changed = True
        return clusters

    _refine_incremental = _refine_legacy


def atlas_assign(atlas, values) -> dict | None:
    """:meth:`ClusterAtlas.assign` one series at a time: the reference
    for the batched :meth:`ClusterAtlas.assign_many`.

    Interpolates the series as a one-row problem, then for each group of
    representatives sharing a common length z-normalizes both sides and
    takes the shift-maximized NCC with one FFT of the query.
    """
    import numpy as np

    from repro.imputation.base import interpolate_rows_block
    from repro.timeseries.batch import _fft_size

    def _znorm(values):
        std = values.std()
        return (values - values.mean()) / (std if std > 1e-12 else 1.0)

    if not atlas.ids:
        return None
    values = np.asarray(values, dtype=float).ravel()
    series = interpolate_rows_block(values[None, :], np.isnan(values)[None, :])[0]
    if series.size < 2:
        return None
    groups: dict[int, list[int]] = {}
    for idx, rep in enumerate(atlas.representatives):
        groups.setdefault(min(series.size, rep.size), []).append(idx)
    best_idx, best_ncc = 0, -np.inf
    for length, indices in groups.items():
        matrix = np.vstack(
            [_znorm(atlas.representatives[i][:length]) for i in indices]
        )
        size = _fft_size(length)
        conj_fft = np.conj(np.fft.rfft(matrix, size, axis=1))
        norms = np.linalg.norm(matrix, axis=1)
        x = _znorm(series[:length])
        cc = np.fft.irfft(np.fft.rfft(x, size)[None, :] * conj_fft, size, axis=1)
        if length > 1:
            cc = np.concatenate((cc[:, -(length - 1):], cc[:, :length]), axis=1)
        peaks = cc.max(axis=1)
        denom = np.linalg.norm(x) * norms
        nccs = np.divide(peaks, denom, out=np.zeros_like(peaks), where=denom != 0.0)
        group_best = int(np.argmax(nccs))
        if nccs[group_best] > best_ncc:
            best_idx, best_ncc = indices[group_best], float(nccs[group_best])
    return {
        "cluster": atlas.ids[best_idx],
        "ncc": best_ncc,
        "label": atlas.labels[best_idx],
    }
