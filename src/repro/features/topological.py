"""Topological feature extraction (Section V-B, Fig. 4).

The extractor follows the paper's recipe:

1. **Time-delay embedding** — map the series into vectors
   ``v(j) = (v_j, v_{j+tau}, ..., v_{j+(d-1)tau})`` capturing nonlinear
   temporal structure;
2. **Persistence diagram** — record the birth/death of patterns.  We compute
   two complementary 0-dimensional diagrams, both exact:

   * the *Rips diagram of the embedded point cloud* via its Euclidean
     minimum spanning tree (the 0-dim Rips persistence is exactly the MST
     edge set) — captures the cloud's cluster/loop-scale geometry;
   * the *sublevel-set diagram of the raw signal* via an interval sweep
     over the value filtration (on a path graph every component is an
     interval, so the elder-rule union-find reduces to endpoint updates) —
     captures when each valley/peak pattern is born and dies, which is
     sensitive to temporal order (statistical features are time-agnostic;
     this is not).

3. **Diagram statistics** — lifetimes, persistence entropy, and
   distributional summaries become the feature vector.

Computing 1-dimensional (hole) persistence exactly requires boundary-matrix
reduction, too slow to run per-series inside ModelRace; the two 0-dim
diagrams above retain the order- and shape-sensitivity the paper needs (the
ablation in Fig. 9 reproduces with them).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.features.statistical import _moments
from repro.observability.resources import count_kernel


def _sublevel_pairs(values: list, order: list) -> list[tuple[float, float]]:
    """Finite (birth, death) pairs of the sublevel-set filtration.

    ``values`` is one row as a plain Python list and ``order`` its stable
    ascending argsort (lists, because the loop touches single elements
    and numpy scalar indexing boxes each one).  On a path graph every
    component is an interval of positions, so the elder-rule union-find
    reduces to an interval sweep: a newly activated vertex can only join
    the component ending just left of it and the one starting just right
    of it.  Each interval keeps its far endpoint and its birth at both
    ends; interior entries go stale, but no later vertex neighbours them.
    A pair of positive length needs both neighbours active — the younger
    of the two components dies at the new vertex's value — so a one-sided
    join never emits one.  Pairs come in the union-find's order, with its
    tie-breaking.
    """
    n = len(values)
    # Position p = idx + 1; slots 0 and n + 1 are never active.
    far: list = [None] * (n + 2)
    low = [0.0] * (n + 2)
    pairs: list[tuple[float, float]] = []
    for idx in order:
        value = values[idx]
        p = idx + 1
        left = far[p - 1]
        right = far[p + 1]
        if left is None:
            if right is None:
                far[p] = p
                low[p] = value
                continue
            # The elder rule as the union-find applies it: on a tie the new
            # vertex's own value survives (it may differ in the sign of 0).
            birth = low[p + 1]
            if not value > birth:
                birth = value
            far[p] = right
            far[right] = p
            low[p] = low[right] = birth
            continue
        # The union-find joins the left component first.
        left_birth = low[p - 1]
        if not value > left_birth:
            left_birth = value
        if right is None:
            far[left] = p
            far[p] = left
            low[left] = low[p] = left_birth
            continue
        right_birth = low[p + 1]
        if left_birth > right_birth:
            dying, birth = left_birth, right_birth
        else:
            dying, birth = right_birth, left_birth
        if value > dying:
            pairs.append((dying, value))
        far[left] = right
        far[right] = left
        low[left] = low[right] = birth
    return pairs


# ---------------------------------------------------------------------------
# Blockwise kernels over a stacked ``(n_series, length)`` matrix.  The
# z-normalization takes its moments from one pass (``_moments``, shared
# with the statistical block).  The Rips side (delay embedding → pairwise
# distances → MST) batches fully: Prim's algorithm runs in lockstep over a
# chunk of distance matrices, so its Python loop runs ``n_points`` times
# per *chunk* instead of per series; a one-row chunk (a lone served
# series) steps with plain indexing.  The sublevel sweep runs per row; its
# diagram statistics run per group of rows with the same pair count.
# ---------------------------------------------------------------------------

#: Cap on the MST scratch of one chunk of rows (bytes): the chunk's
#: squared-distance stack plus one coordinate-difference plane take at most
#: two thirds of it, the rest is headroom for the block's other arrays.
_MST_CHUNK_BYTES = 8 * 1024 * 1024

_DIAGRAM_STAT_KEYS = (
    "count", "life_mean", "life_std", "life_max", "life_sum",
    "life_q75", "entropy", "top_ratio",
)


def _mst_edge_lengths_block(sq: np.ndarray) -> np.ndarray:
    """Sorted MST edge lengths of a ``(batch, n, n)`` squared-distance stack.

    Returns ``(batch, n - 1)``; ``sq`` is scratch.  Prim runs in lockstep
    over the stack: first-index argmin, ``best`` holding +inf for tree
    members, so each step is one argmin and one row update per entry.  A
    one-entry stack of finite distances steps with plain indexing,
    closing each new member's column; every MST has the same sorted edge
    weights, so the bytes agree.  (NaN distances, from rows whose moments
    overflow, would break that argument.)
    """
    batch, n = sq.shape[0], sq.shape[1]
    if n < 2:
        return np.empty((batch, 0))
    if batch == 1 and np.isfinite(sq).all():
        dist, best = sq[0], sq[0, 0].copy()
        dist[:, 0] = best[0] = np.inf
        edges = np.empty((1, n - 1))
        for k in range(n - 1):
            j = best.argmin()
            edges[0, k] = best[j]
            dist[:, j] = np.inf
            np.minimum(best, dist[j], out=best)
            best[j] = np.inf
        edges.sort(axis=1)
        return np.sqrt(edges, out=edges)
    rows_of = sq.reshape(batch * n, n)
    base = np.arange(batch) * n
    # +inf for tree members, 0.0 elsewhere: adding it to a distance row
    # keeps tree members out of the next argmin and leaves the rest exact.
    penalty = np.zeros((batch, n))
    penalty_flat = penalty.reshape(-1)
    penalty_flat[base] = np.inf
    best = sq[:, 0, :] + penalty
    best_flat = best.reshape(-1)
    edges = np.empty((batch, n - 1))
    for k in range(n - 1):
        flat = base + best.argmin(axis=1)
        np.sqrt(best_flat[flat], out=edges[:, k])
        penalty_flat[flat] = np.inf
        row = rows_of[flat]
        row += penalty
        np.minimum(best, row, out=best)
        best_flat[flat] = np.inf
    edges.sort(axis=1)
    return edges


def _diagram_stats_block(lifetimes: np.ndarray, prefix: str) -> dict[str, np.ndarray]:
    """Lifetime distribution and entropy of diagrams with equal pair counts.

    ``lifetimes`` has shape ``(n_series, n_pairs)`` — every row has the same
    pair count, true of Rips diagrams (always ``n_points - 1`` MST edges);
    sublevel diagrams are grouped by pair count first.  Each row's values
    are the same bytes the one-diagram form gives for that row alone.
    """
    n_rows, n_pairs = lifetimes.shape
    if n_pairs == 0:
        return {f"{prefix}_{k}": np.zeros(n_rows) for k in _DIAGRAM_STAT_KEYS}
    means, _, var = _moments(lifetimes)
    total = np.add.reduce(lifetimes, axis=1)
    life_max = lifetimes.max(axis=1)
    entropy = np.zeros(n_rows)
    top_ratio = np.zeros(n_rows)
    ok = total > 0
    if ok.any():
        p = lifetimes[ok] / total[ok, None]
        entropy[ok] = -(p * np.log(p + 1e-15)).sum(axis=1) / np.log(max(2, n_pairs))
        top_ratio[ok] = life_max[ok] / total[ok]
    return {
        f"{prefix}_count": np.full(n_rows, np.log1p(n_pairs)),
        f"{prefix}_life_mean": means,
        f"{prefix}_life_std": np.sqrt(var),
        f"{prefix}_life_max": life_max,
        f"{prefix}_life_sum": np.log1p(total),
        f"{prefix}_life_q75": np.percentile(lifetimes, 75, axis=1),
        f"{prefix}_entropy": entropy,
        f"{prefix}_top_ratio": top_ratio,
    }


def _sublevel_features_block(rows: np.ndarray) -> dict[str, np.ndarray]:
    """Sublevel-diagram statistics of each row of a ``(n_rows, length)`` stack.

    The argsort runs over the whole stack and the pairing per row; each
    row's lifetimes go into one preallocated array, and the statistics run
    once per group of rows with the same pair count (rows without pairs
    keep all-zero statistics).
    """
    n_rows, length = rows.shape
    orders = np.argsort(rows, axis=1, kind="stable")
    lifetimes = np.empty((n_rows, length - 1))
    counts = np.zeros(n_rows, dtype=np.intp)
    for i in range(n_rows):
        pairs = _sublevel_pairs(rows[i].tolist(), orders[i].tolist())
        if pairs:
            counts[i] = len(pairs)
            lifetimes[i, : len(pairs)] = [death - birth for birth, death in pairs]
    feats = {f"topo_sub_{k}": np.zeros(n_rows) for k in _DIAGRAM_STAT_KEYS}
    for count in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == count)
        stats = _diagram_stats_block(lifetimes[group, :count], "topo_sub")
        for key, column in stats.items():
            feats[key][group] = column
    return feats


def topological_features_block(
    matrix,
    *,
    dimension: int = 3,
    delay: int = 2,
    max_points: int = 128,
) -> dict[str, np.ndarray]:
    """All 16 topological features over a stack of equal-length rows.

    ``matrix`` is ``(n_series, length)`` with no NaNs.  Returns ``{name:
    (n_series,) float64 array}`` in :data:`TOPOLOGICAL_FEATURE_NAMES` order.
    Rows are z-normalized first so diagram scales are comparable across
    datasets; constant rows skip the normalization, and rows too short
    for the delay embedding get all-zero Rips features.
    """
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValidationError(
            "topological_features_block expects a non-empty 2-D matrix"
        )
    if dimension < 1 or delay < 1:
        raise ValidationError(
            f"embedding dimension and delay must be >= 1, got {dimension}, {delay}"
        )
    if not np.isfinite(X).all():
        raise ValidationError(
            "topological_features_block expects finite rows; interpolate first"
        )
    # Overflowing rows (values near the float limit) give NaN/inf
    # features quietly; the extractor zeroes them.
    with np.errstate(all="ignore"):
        n_rows, length = X.shape
        _, centered, var = _moments(X)
        stds = np.sqrt(var)
        znorm = np.where(
            (stds > 0)[:, None],
            centered / np.where(stds > 0, stds, 1.0)[:, None],
            X,
        )
        feats = _sublevel_features_block(znorm)
        # Rips diagrams: batched embedding, chunked distance stacks,
        # lockstep MST.
        n_vectors = length - (dimension - 1) * delay
        if n_vectors < 2:
            feats.update(
                {f"topo_rips_{k}": np.zeros(n_rows) for k in _DIAGRAM_STAT_KEYS}
            )
            return feats
        embed_idx = (
            np.arange(n_vectors)[:, None] + delay * np.arange(dimension)[None, :]
        )
        if n_vectors > max_points:
            step = n_vectors / max_points
            embed_idx = embed_idx[(step * np.arange(max_points)).astype(int)]
        cloud = znorm[:, embed_idx]
        n_points = cloud.shape[1]
        chunk = max(1, _MST_CHUNK_BYTES // (3 * n_points * n_points * 8))
        edges = np.empty((n_rows, n_points - 1))
        n_chunks = 0
        scratch_bytes = 0
        for start in range(0, n_rows, chunk):
            part = cloud[start : start + chunk]
            # Accumulate one embedding coordinate at a time, in coordinate
            # order, so no (chunk, n, n, dimension) tensor is ever built.
            sq = np.zeros((part.shape[0], n_points, n_points))
            diff = np.empty_like(sq)
            for k in range(dimension):
                np.subtract(part[:, :, None, k], part[:, None, :, k], out=diff)
                diff *= diff
                sq += diff
            del diff
            edges[start : start + chunk] = _mst_edge_lengths_block(sq)
            n_chunks += 1
            scratch_bytes += sq.nbytes
        count_kernel(
            "topological_mst",
            bytes_moved=cloud.nbytes + edges.nbytes + scratch_bytes,
            chunks=n_chunks,
            scratch_allocations=n_chunks,
        )
        feats.update(_diagram_stats_block(edges, "topo_rips"))
        return feats


#: Stable ordering of topological feature names.  The probe row is too
#: short for the embedding, so importing records no MST kernel call.
TOPOLOGICAL_FEATURE_NAMES: tuple[str, ...] = tuple(
    topological_features_block(np.zeros((1, 4))).keys()
)
