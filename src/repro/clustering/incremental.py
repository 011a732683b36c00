"""Incremental correlation-gain clustering (Algorithm 2).

Two phases:

1. **Initial split** — starting from one all-series cluster, any cluster
   whose average pairwise correlation is below ``delta`` is re-clustered
   into ``max(2, p * |C|)`` sub-clusters (k-means on correlation profiles);
   the queue drains when every cluster is sufficiently correlated.
2. **Refinement** — merge clusters (or move individual series) whenever the
   *correlation gain* (Eq. 1) is positive, reducing the cluster count while
   preserving intra-cluster correlation.

The correlation gain extends Louvain modularity to time series:

    dG_ij = (1 / 2m) * ( rho(C_i ∪ C_j) - rho(C_i) * rho(C_j) / m )
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ClusteringError, ValidationError
from repro.timeseries.correlation import pairwise_correlation_matrix
from repro.timeseries.series import TimeSeries
from repro.utils.rng import ensure_rng


def correlation_gain(
    rho_union: float, rho_i: float, rho_j: float, m: int
) -> float:
    """Eq. 1: gain of merging clusters with the given average correlations."""
    if m <= 0:
        raise ValidationError(f"m must be > 0, got {m}")
    return (rho_union - (rho_i * rho_j) / m) / (2 * m)


class _RefineSums:
    """Incrementally maintained correlation sums for phase-2 refinement.

    Given the precomputed corpus correlation matrix and an initial
    partition, maintains

    * ``col[x, c]`` — ``corr[x, members(c)].sum()`` for every series
      ``x`` and cluster ``c`` (the per-series column sums);
    * ``internal[c]`` — the sum of the distinct intra-cluster pairs
      ``sum_{i<j in c} corr[i, j]``;
    * ``sizes[c]`` — ``|c|``.

    With these, the average correlation of a move target ``C ∪ {x}`` is
    ``(internal[c] + col[x, c]) / C(|c|+1, 2)`` — an O(1) lookup — and a
    merge candidate ``C_i ∪ C_j`` needs only the O(|C_i|) gather
    ``col[members(i), j].sum()``.  Accepted merges/moves update the
    sums in O(n).
    """

    def __init__(self, corr: np.ndarray, clusters: list[list[int]]):
        n = corr.shape[0]
        ncl = len(clusters)
        self.corr = corr
        self.col = np.zeros((n, ncl))
        self.internal = np.zeros(ncl)
        self.sizes = np.zeros(ncl, dtype=np.int64)
        for c, members in enumerate(clusters):
            if not members:
                continue
            idx = np.asarray(members)
            self.col[:, c] = corr[:, idx].sum(axis=1)
            # Column sums over members count each internal pair twice
            # plus the unit diagonal once per member.
            self.sizes[c] = len(members)
            self.internal[c] = (self.col[idx, c].sum() - len(members)) / 2.0

    # -- queries -------------------------------------------------------
    def rho(self, c: int) -> float:
        """Average pairwise correlation of cluster ``c`` (1.0 if |c| <= 1)."""
        k = int(self.sizes[c])
        if k <= 1:
            return 1.0
        return float(self.internal[c] / (k * (k - 1) / 2.0))

    def rho_merge(
        self, i: int, j: int, members_i: np.ndarray
    ) -> tuple[float, float]:
        """``rho(C_i ∪ C_j)`` plus the cross-pair sum (for the update)."""
        cross = float(self.col[members_i, j].sum())
        k = int(self.sizes[i] + self.sizes[j])
        rho = (float(self.internal[i] + self.internal[j]) + cross) / (
            k * (k - 1) / 2.0
        )
        return rho, cross

    def rho_move(self, x: int, j: int) -> float:
        """``rho(C_j ∪ {x})`` as an O(1) lookup (x must not be in j)."""
        k = int(self.sizes[j]) + 1
        return float(
            (self.internal[j] + self.col[x, j]) / (k * (k - 1) / 2.0)
        )

    # -- updates -------------------------------------------------------
    def apply_merge(self, i: int, j: int, cross: float) -> None:
        """Fold cluster ``i`` into ``j`` (O(n))."""
        self.internal[j] += self.internal[i] + cross
        self.internal[i] = 0.0
        self.col[:, j] += self.col[:, i]
        self.col[:, i] = 0.0
        self.sizes[j] += self.sizes[i]
        self.sizes[i] = 0

    def apply_move(self, x: int, i: int, j: int) -> None:
        """Move series ``x`` from cluster ``i`` to ``j`` (O(n))."""
        # col[x, i] counts corr[x, x] == 1 exactly once.
        self.internal[i] -= self.col[x, i] - self.corr[x, x]
        self.internal[j] += self.col[x, j]
        self.col[:, i] -= self.corr[:, x]
        self.col[:, j] += self.corr[:, x]
        self.sizes[i] -= 1
        self.sizes[j] += 1


class IncrementalClustering:
    """Split-then-refine clustering over a precomputed correlation matrix.

    Parameters
    ----------
    delta:
        Correlation threshold below which a cluster is split further.
    split_ratio:
        The ``p`` of Algorithm 2 — sub-cluster count is ``max(2, p * |C|)``.
    min_cluster_size:
        Clusters at or below this size are candidates for merging.
    random_state:
        Seed for the k-means initializations inside splits.

    Phase 2 maintains per-cluster internal correlation sums and
    per-series column sums (:class:`_RefineSums`), so every merge/move
    candidate's ``rho_union`` is an O(1)/O(|C|) lookup.
    """

    def __init__(
        self,
        delta: float = 0.75,
        split_ratio: float = 0.2,
        min_cluster_size: int = 3,
        random_state: int | None = 0,
    ):
        if not 0 < delta <= 1:
            raise ValidationError(f"delta must be in (0, 1], got {delta}")
        if not 0 < split_ratio <= 1:
            raise ValidationError(f"split_ratio must be in (0, 1], got {split_ratio}")
        self.delta = float(delta)
        self.split_ratio = float(split_ratio)
        self.min_cluster_size = int(min_cluster_size)
        self.random_state = random_state
        self.labels_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _avg_corr(self, members: list[int]) -> float:
        if len(members) <= 1:
            return 1.0
        idx = np.asarray(members)
        sub = self._corr[np.ix_(idx, idx)]
        iu = np.triu_indices(len(members), k=1)
        return float(sub[iu].mean())

    def _split(self, members: list[int], k: int, rng) -> list[list[int]]:
        """k-means on correlation-profile rows of the members."""
        idx = np.asarray(members)
        profiles = self._corr[idx]  # row = similarity profile vs. all series
        k = min(k, len(members))
        centers = profiles[rng.choice(len(members), size=k, replace=False)]
        assign = np.zeros(len(members), dtype=int)
        for _ in range(20):
            dists = ((profiles[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assign = dists.argmin(axis=1)
            if (new_assign == assign).all():
                break
            assign = new_assign
            for c in range(k):
                mask = assign == c
                if mask.any():
                    centers[c] = profiles[mask].mean(axis=0)
        groups = [
            [members[i] for i in np.flatnonzero(assign == c)] for c in range(k)
        ]
        groups = [g for g in groups if g]
        if len(groups) < 2:  # degenerate k-means: force a balanced bisection
            half = len(members) // 2
            groups = [members[:half], members[half:]]
        return groups

    # ------------------------------------------------------------------
    def _refine_incremental(
        self, clusters: list[list[int]], m: int
    ) -> list[list[int]]:
        """Louvain-style phase 2 on maintained correlation sums.

        Small clusters merge into the partner of highest positive gain,
        else their series move one by one.  ``rho`` of a move target is
        an O(1) lookup and a merge candidate costs O(|C_i|) (a
        column-sum gather), with every accepted merge/move updating the
        sums in O(n).  ``tests/clustering_oracles.py`` keeps the
        submatrix-rescanning reference it is parity-tested against.
        """
        sums = _RefineSums(self._corr, clusters)
        changed = True
        guard = 0
        while changed and guard < 10 * max(1, len(clusters)):
            changed = False
            guard += 1
            order = sorted(range(len(clusters)), key=lambda i: len(clusters[i]))
            for i in order:
                if not clusters[i] or len(clusters[i]) > self.min_cluster_size:
                    continue
                rho_i = sums.rho(i)
                best_gain, best_j, best_cross = 0.0, -1, 0.0
                members_i = np.asarray(clusters[i])
                for j in range(len(clusters)):
                    if j == i or not clusters[j]:
                        continue
                    rho_union, cross = sums.rho_merge(i, j, members_i)
                    # Guard: a merge must not break the phase-1 correlation
                    # threshold — for large m the gain's second term vanishes
                    # and Eq. 1 alone would merge anything positive.
                    if rho_union < self.delta:
                        continue
                    gain = correlation_gain(rho_union, rho_i, sums.rho(j), m)
                    if gain > best_gain:
                        best_gain, best_j, best_cross = gain, j, cross
                if best_j >= 0:
                    sums.apply_merge(i, best_j, best_cross)
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
                        rho_union = sums.rho_move(x, j)
                        if rho_union < self.delta:
                            continue
                        gain = correlation_gain(
                            rho_union, 1.0, sums.rho(j), m
                        )
                        if gain > best_gain:
                            best_gain, best_j = gain, j
                    if best_j >= 0:
                        sums.apply_move(x, i, best_j)
                        clusters[i].remove(x)
                        clusters[best_j].append(x)
                        changed = True
        return clusters

    # ------------------------------------------------------------------
    def fit(self, series_list: list[TimeSeries]) -> "IncrementalClustering":
        """Cluster the series; sets ``labels_`` and ``clusters_``."""
        if not series_list:
            raise ClusteringError("cannot cluster an empty series list")
        n = len(series_list)
        rng = ensure_rng(self.random_state)
        self._corr = pairwise_correlation_matrix(series_list)
        m = n  # total number of series (the `m` of Eq. 1)

        # Phase 1: initial splitting (lines 2-9).
        pending: list[list[int]] = [list(range(n))]
        final: list[list[int]] = []
        while pending:
            cluster = pending.pop()
            if len(cluster) <= 1 or self._avg_corr(cluster) >= self.delta:
                final.append(cluster)
                continue
            k = max(2, int(round(self.split_ratio * len(cluster))))
            pending.extend(self._split(cluster, k, rng))

        # Phase 2: refinement by merge/move on correlation gain (lines 10-18).
        clusters = self._refine_incremental([list(c) for c in final], m)
        clusters = [c for c in clusters if c]
        labels = np.empty(n, dtype=int)
        for cid, members in enumerate(clusters):
            for idx in members:
                labels[idx] = cid
        self.labels_ = labels
        self.clusters_ = clusters
        return self

    # ------------------------------------------------------------------
    @property
    def n_clusters_(self) -> int:
        """Number of final clusters."""
        if self.labels_ is None:
            raise ClusteringError("clustering is not fitted")
        return len(self.clusters_)

    def average_correlation(self) -> float:
        """Mean intra-cluster correlation over all final clusters."""
        if self.labels_ is None:
            raise ClusteringError("clustering is not fitted")
        values = [self._avg_corr(c) for c in self.clusters_]
        return float(np.mean(values))
