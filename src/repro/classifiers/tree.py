"""CART decision trees (gini/entropy): split search, growth, node table.

Shared by :mod:`repro.classifiers.forest` and
:mod:`repro.classifiers.boosting`, so the split machinery lives here.
Every tree is stored in a flat :class:`NodeTable` and predicted by one
walk over all its trees and rows.  :func:`build_tree` grows one tree
depth-first; :func:`grow_forest` grows many trees level by level on one
presort, for forests whose nodes draw nothing from a generator.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import BaseClassifier, register_classifier
from repro.exceptions import ValidationError


#: Scratch one level of batched forest growth may allocate, as the feature
#: kernels cap their blocks.  Half goes to the level's item vectors, which
#: bound how many trees grow together, and half to one block of its scan.
_LEVEL_BYTES = 4 << 20


class NodeTable:
    """One or more binary trees stored as flat node arrays.

    Node ``k`` sends a row left when ``row[feature[k]] <= threshold[k]``
    and right otherwise; a leaf has ``feature[k] == -1`` and
    ``left[k] == right[k] == -1``.  ``value[k]`` is the node's output
    (class probabilities, or a regression mean of width 1) and
    ``roots[t]`` is the root of tree ``t``.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "roots")

    def __init__(self, feature, threshold, left, right, value, roots):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.roots = roots

    @property
    def n_trees(self) -> int:
        return self.roots.size

    @classmethod
    def concat(cls, tables: list[NodeTable]) -> NodeTable:
        """One table holding the trees of ``tables`` in order."""
        if len(tables) == 1:
            return tables[0]
        offsets = np.cumsum([0] + [t.feature.size for t in tables[:-1]])

        def links(name):
            return np.concatenate([
                np.where(getattr(t, name) >= 0, getattr(t, name) + off, -1)
                for t, off in zip(tables, offsets)
            ])

        return cls(
            np.concatenate([t.feature for t in tables]),
            np.concatenate([t.threshold for t in tables]),
            links("left"),
            links("right"),
            np.concatenate([t.value for t in tables]),
            np.concatenate([t.roots + off for t, off in zip(tables, offsets)]),
        )

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf of every (tree, row) pair, shape (n_trees, n_rows).

        All trees and rows descend together, one level per step.
        """
        n, d = X.shape
        xs = np.ascontiguousarray(X, dtype=float).ravel()
        size = self.feature.size
        # children[k] is node k's left child, children[k + size] its right.
        children = np.concatenate([self.left, self.right])
        node = np.repeat(self.roots, n)
        offset = np.tile(np.arange(0, n * d, d), self.roots.size)
        live = np.flatnonzero(self.feature.take(node) >= 0)
        while live.size:
            at = node.take(live)
            x = xs.take(offset.take(live) + self.feature.take(at))
            at += size * ~(x <= self.threshold.take(at))
            node[live] = at = children.take(at)
            live = live[self.feature.take(at) >= 0]
        return node.reshape(self.roots.size, n)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values, shape (n_trees, n_rows, value width)."""
        return self.value.take(self.apply(X), axis=0)


def _impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity per row of class counts; supports gini and entropy."""
    totals = counts.sum(axis=-1, keepdims=True)
    p = counts / np.maximum(totals, 1e-12)
    if criterion == "gini":
        return 1.0 - (p**2).sum(axis=-1)
    return -(p * np.log2(p + 1e-12)).sum(axis=-1)


def _best_cut(
    gains: np.ndarray, sorted_x: np.ndarray, min_leaf: int
) -> tuple[int, np.floating, float] | None:
    """Best (column, threshold, gain) of an (n-1, d) grid of cuts after row i.

    Cuts between equal values or leaving a child below ``min_leaf`` rows are
    masked.  Ties go to the first column, then the first row within it.
    """
    n = sorted_x.shape[0]
    sizes = np.arange(1, n)[:, None]
    gains[
        ~(sorted_x[1:] - sorted_x[:-1] > 0) | (sizes < min_leaf) | (n - sizes < min_leaf)
    ] = -np.inf
    col, pos = divmod(int(np.argmax(gains.T)), n - 1)
    gain = float(gains[pos, col])
    if not gain > 1e-12:
        return None
    return col, 0.5 * (sorted_x[pos, col] + sorted_x[pos + 1, col]), gain


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    criterion: str,
    feature_indices: np.ndarray,
    min_leaf: int,
    rng: np.random.Generator | None = None,
    extra_random: bool = False,
) -> tuple[int, float, float] | None:
    """Find the best (feature, threshold, gain) over the given features.

    All candidate features are scanned at once.  ``extra_random`` draws a
    single random threshold per non-constant feature (Extra-Trees style),
    in ``feature_indices`` order, instead of scanning every cut.
    Returns None when no split improves impurity.
    """
    n = X.shape[0]
    Xf = X[:, feature_indices]
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent_imp = float(_impurity(parent_counts[None, :], criterion)[0])
    classes = np.arange(n_classes)
    if extra_random:
        lo, hi = Xf.min(axis=0), Xf.max(axis=0)
        live = hi > lo
        if not live.any():
            return None
        # A range too wide for a double is drawn at half scale, so every
        # threshold still costs exactly one draw from ``rng``.
        with np.errstate(over="ignore"):
            scale = np.where(np.isinf(hi - lo), 2.0, 1.0)[live]
        thr = np.full(Xf.shape[1], np.nan)
        thr[live] = scale * rng.uniform(lo[live] / scale, hi[live] / scale)
        left_counts = (Xf <= thr).T.astype(float) @ (y[:, None] == classes)
        right_counts = parent_counts - left_counts
        n_left = left_counts.sum(axis=1)
        gains = parent_imp - (
            n_left / n * _impurity(left_counts, criterion)
            + (n - n_left) / n * _impurity(right_counts, criterion)
        )
        gains[~live | (n_left < min_leaf) | (n - n_left < min_leaf)] = -np.inf
        j = int(np.argmax(gains))
        if not gains[j] > 1e-12:
            return None
        return int(feature_indices[j]), float(thr[j]), float(gains[j])
    # Exhaustive scan: prefix class counts along every sorted column.
    order = np.argsort(Xf, axis=0, kind="stable")
    sorted_x = Xf[order, np.arange(Xf.shape[1])]
    prefix = (y[order][..., None] == classes).astype(float).cumsum(axis=0)
    left_counts = prefix[:-1]
    right_counts = parent_counts - left_counts
    n_left = np.arange(1.0, n)[:, None]
    child_imp = (
        n_left * _impurity(left_counts, criterion)
        + (n - n_left) * _impurity(right_counts, criterion)
    ) / n
    cut = _best_cut(parent_imp - child_imp, sorted_x, min_leaf)
    if cut is None:
        return None
    col, thr, gain = cut
    return int(feature_indices[col]), float(thr), gain


class _Nodes:
    """A node table under depth-first growth: nodes are appended in preorder."""

    def __init__(self):
        self.roots: list[int] = []
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []

    def add(self, value: np.ndarray) -> int:
        """Append a leaf holding ``value``; returns its index."""
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.value) - 1

    def split(
        self, k: int, feature: int, threshold: float, left: int, right: int
    ) -> None:
        self.feature[k] = feature
        self.threshold[k] = threshold
        self.left[k] = left
        self.right[k] = right

    def table(self) -> NodeTable:
        return NodeTable(
            np.array(self.feature, dtype=np.int64),
            np.array(self.threshold, dtype=float),
            np.array(self.left, dtype=np.int64),
            np.array(self.right, dtype=np.int64),
            np.array(self.value, dtype=float).reshape(len(self.value), -1),
            np.array(self.roots, dtype=np.int64),
        )


def _grow(
    nodes: _Nodes,
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    max_depth: int,
    min_split: int,
    min_leaf: int,
    criterion: str,
    max_features: int | None,
    rng: np.random.Generator | None,
    extra_random: bool,
    depth: int,
) -> int:
    counts = np.bincount(y, minlength=n_classes).astype(float)
    k = nodes.add(counts / max(counts.sum(), 1e-12))
    if (
        depth >= max_depth
        or X.shape[0] < min_split
        or np.count_nonzero(counts) == 1
    ):
        return k
    n_features = X.shape[1]
    if max_features is not None and max_features < n_features:
        assert rng is not None
        feature_indices = rng.choice(n_features, size=max_features, replace=False)
    else:
        feature_indices = np.arange(n_features)
    split = best_split(
        X, y, n_classes, criterion, feature_indices, min_leaf,
        rng=rng, extra_random=extra_random,
    )
    if split is None:
        return k
    feat, thr, _ = split
    mask = X[:, feat] <= thr
    args = (n_classes, max_depth, min_split, min_leaf, criterion,
            max_features, rng, extra_random, depth + 1)
    left = _grow(nodes, X[mask], y[mask], *args)
    right = _grow(nodes, X[~mask], y[~mask], *args)
    nodes.split(k, feat, thr, left, right)
    return k


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    max_depth: int,
    min_split: int,
    min_leaf: int,
    criterion: str,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
    extra_random: bool = False,
) -> NodeTable:
    """Grow one CART tree depth-first; node draws from ``rng`` come in preorder."""
    nodes = _Nodes()
    nodes.roots.append(_grow(
        nodes, X, y, n_classes, max_depth, min_split, min_leaf, criterion,
        max_features, rng, extra_random, 0,
    ))
    return nodes.table()


#: Bytes per item of a level's item vectors: the item list and the
#: vectors that regroup it by child.
_ITEM_BYTES = 48


def _scan_item_bytes(n_classes: int) -> int:
    """Bytes per item of a scan block: prefix counts, cut vectors and the
    (cut, class) impurity terms."""
    return 8 * (12 + 6 * n_classes)


def _first_max(group: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the first maximum of ``values`` in each run of equal ``group``."""
    first = np.r_[True, group[1:] != group[:-1]]
    run = np.cumsum(first) - 1
    top = np.maximum.reduceat(values, np.flatnonzero(first))
    hit = np.flatnonzero(values == top.take(run))
    return hit[np.r_[True, run.take(hit[1:]) != run.take(hit[:-1])]]


def _scan_block(
    xs: np.ndarray,
    y: np.ndarray,
    wf: np.ndarray,
    n_rows: int,
    pair: np.ndarray,
    runs: np.ndarray,
    run_len: np.ndarray,
    counts: np.ndarray,
    size: np.ndarray,
    min_leaf: int,
    criterion: str,
) -> tuple[np.ndarray, ...]:
    """Best cut per node over consecutive ``runs`` holding the items ``pair``.

    Returns the node, gain, feature and threshold of each node's first
    best cut within the block.
    """
    d = xs.size // n_rows
    run = np.repeat(runs, run_len)
    col = run % d
    row = pair % n_rows
    x = xs.take(row * d + col)
    w = wf.take(pair)
    # Prefix sums restart at every run: its first item takes back the
    # totals of the run before, which are that run's node's counts.  The
    # counts are integers, so the sums are exact.
    starts = (np.cumsum(run_len) - run_len)[1:]
    before = runs[:-1] // d
    class_left = np.zeros((pair.size, counts.shape[1]))
    class_left[np.arange(pair.size), y.take(row)] = w
    class_left[starts] -= counts.take(before, axis=0)
    np.cumsum(class_left, axis=0, out=class_left)
    n_left = w.astype(float)
    n_left[starts] -= size.take(before)
    np.cumsum(n_left, out=n_left)
    n = np.repeat(size.take(runs // d), run_len)
    cut = np.flatnonzero(
        (run[1:] == run[:-1]) & (np.diff(x) > 0)
        & (n_left[:-1] >= min_leaf) & (n[:-1] - n_left[:-1] >= min_leaf)
    )
    left = class_left.take(cut, axis=0)
    del class_left
    n_left, n, node = n_left.take(cut), n.take(cut), run.take(cut) // d
    gains = _impurity(counts, criterion).take(node) - (
        n_left * _impurity(left, criterion)
        + (n - n_left) * _impurity(counts.take(node, axis=0) - left, criterion)
    ) / n
    # Cuts run in (node, feature, value) order, so the first maximum of a
    # node breaks ties as the depth-first scan does.
    best = _first_max(node, gains) if cut.size else cut
    at = cut.take(best)
    return (
        node.take(best), gains.take(best), col.take(at),
        0.5 * (x.take(at) + x.take(at + 1)),
    )


def _level_splits(
    xs: np.ndarray,
    y: np.ndarray,
    wf: np.ndarray,
    n_rows: int,
    pair: np.ndarray,
    npairs: np.ndarray,
    counts: np.ndarray,
    min_leaf: int,
    criterion: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best cut of every open node of one level, by segmented prefix sums.

    ``pair`` lists the level's items, ``tree * n_rows + row``, grouped by
    node, then by feature, then by value: node ``m`` owns ``d`` runs of
    ``npairs[m]`` items.  ``counts`` are the nodes' class counts.  The runs
    are scanned in blocks whose scratch stays under half of
    :data:`_LEVEL_BYTES`.
    Returns each node's cut feature (-1 where no cut gains) and threshold,
    and the item offset of every run.
    """
    n_nodes = counts.shape[0]
    d = xs.size // n_rows
    size = counts.sum(axis=1)
    run_len = np.repeat(npairs, d)
    run_end = np.cumsum(run_len)
    run_start = run_end - run_len
    block = max(1, _LEVEL_BYTES // 2 // _scan_item_bytes(counts.shape[1]))
    bests, lo = [], 0
    while lo < run_len.size:
        hi = max(lo + 1, int(np.searchsorted(run_end, run_start[lo] + block, "right")))
        bests.append(_scan_block(
            xs, y, wf, n_rows, pair[run_start[lo]:run_end[hi - 1]],
            np.arange(lo, hi), run_len[lo:hi], counts, size, min_leaf, criterion,
        ))
        lo = hi
    node, gains, col, thr = (np.concatenate(parts) for parts in zip(*bests))
    best = _first_max(node, gains) if node.size else node
    best = best[gains.take(best) > 1e-12]
    feature = np.full(n_nodes, -1)
    threshold = np.zeros(n_nodes)
    feature[node.take(best)] = col.take(best)
    threshold[node.take(best)] = thr.take(best)
    return feature, threshold, run_start


def _open_nodes(
    counts: np.ndarray, depth: int, max_depth: int, min_split: int
) -> np.ndarray:
    """Nodes that may split: below ``max_depth``, big enough, not pure."""
    if depth >= max_depth:
        return np.zeros(counts.shape[0], dtype=bool)
    return (counts.sum(axis=1) >= min_split) & ((counts > 0).sum(axis=1) > 1)


def _grow_level_wise(
    xs: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    weights: np.ndarray,
    presort: np.ndarray,
    max_depth: int,
    min_split: int,
    min_leaf: int,
    criterion: str,
) -> NodeTable:
    """Grow one tree per row of ``weights`` together, one depth at a time."""
    n_trees, n_rows = weights.shape
    d = presort.shape[0]
    wf = weights.ravel()
    trees = np.arange(n_trees)
    counts = np.bincount(
        (trees[:, None] * n_classes + y).ravel(), weights=wf,
        minlength=n_trees * n_classes,
    ).reshape(n_trees, n_classes)
    values = [counts]
    splits: list[tuple[np.ndarray, ...]] = []
    next_id = n_trees
    depth = 0
    # The open roots' items: each tree's weighted rows, feature by
    # feature in presorted order.
    is_open = _open_nodes(counts, depth, max_depth, min_split)
    t, j, p = np.nonzero((weights[is_open] > 0)[:, presort])
    pair = trees[is_open].take(t) * n_rows + presort[j, p]
    del t, j, p
    ids = trees[is_open]
    npairs = (weights[is_open] > 0).sum(axis=1)
    counts = counts[is_open]
    side = np.zeros(wf.size, dtype=np.int64)
    while ids.size:
        feature, threshold, run_start = _level_splits(
            xs, y, wf, n_rows, pair, npairs, counts, min_leaf, criterion,
        )
        cut = np.flatnonzero(feature >= 0)
        if not cut.size:
            break
        # Each pair of a cut node goes left or right by its value in the
        # cut feature, as the depth-first split mask does.
        lens = npairs.take(cut)
        chosen = run_start.take(cut * d + feature.take(cut))
        cut_pairs = pair.take(
            np.repeat(chosen - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        )
        goes_left = (
            xs.take((cut_pairs % n_rows) * d + np.repeat(feature.take(cut), lens))
            <= np.repeat(threshold.take(cut), lens)
        )
        n_children = 2 * cut.size
        child = 2 * np.repeat(np.arange(cut.size), lens) + ~goes_left
        child_counts = np.bincount(
            child * n_classes + y.take(cut_pairs % n_rows), weights=wf.take(cut_pairs),
            minlength=n_children * n_classes,
        ).reshape(n_children, n_classes)
        child_ids = np.arange(next_id, next_id + n_children)
        next_id += n_children
        values.append(child_counts)
        splits.append((ids.take(cut), feature.take(cut), threshold.take(cut),
                       child_ids[0::2], child_ids[1::2]))
        depth += 1
        child_open = _open_nodes(child_counts, depth, max_depth, min_split)
        # Regroup the items of open children by child.  A stable sort keeps
        # each child's runs in (feature, value) order; the items of closed
        # nodes sort last, under the key n_children, and are dropped.
        side[cut_pairs] = ~goes_left
        slot = np.full(ids.size, n_children)
        slot[cut] = 2 * np.arange(cut.size)
        key = np.repeat(slot, d * npairs)
        key += side.take(pair)
        key[~np.r_[child_open, False, False].take(key)] = n_children
        npairs = np.bincount(child, minlength=n_children)[child_open]
        pair = pair.take(np.argsort(key, kind="stable")[:d * npairs.sum()])
        del key
        ids = child_ids[child_open]
        counts = child_counts[child_open]
    value = np.concatenate(values)
    value /= np.maximum(value.sum(axis=1, keepdims=True), 1e-12)
    feature = np.full(next_id, -1)
    threshold = np.zeros(next_id)
    left = np.full(next_id, -1)
    right = np.full(next_id, -1)
    for node, feat, thr, lo, hi in splits:
        feature[node], threshold[node], left[node], right[node] = feat, thr, lo, hi
    return NodeTable(feature, threshold, left, right, value, trees)


def grow_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    weights: np.ndarray,
    max_depth: int,
    min_split: int,
    min_leaf: int,
    criterion: str,
) -> NodeTable:
    """Grow one CART tree per row of integer row ``weights``, all at once.

    Tree ``t`` is, node for node, the tree :func:`build_tree` grows on
    ``X[idx], y[idx]`` for any ``idx`` with ``np.bincount(idx) ==
    weights[t]``, scanning every feature at every node.  ``X`` is sorted
    once.  The trees grow level by level in chunks whose item vectors stay
    under half of :data:`_LEVEL_BYTES`; a chunk holds at least one tree.
    """
    xs = np.ascontiguousarray(X, dtype=float).ravel()
    presort = np.argsort(X, axis=0, kind="stable").T.copy()
    per_tree = X.shape[1] * (weights > 0).sum(axis=1) * _ITEM_BYTES
    bounds, total = [0], 0
    for t, size in enumerate(per_tree.tolist()):
        if total and total + size > _LEVEL_BYTES // 2:
            bounds.append(t)
            total = 0
        total += size
    bounds.append(len(per_tree))
    return NodeTable.concat([
        _grow_level_wise(
            xs, y, n_classes, weights[lo:hi], presort,
            max_depth, min_split, min_leaf, criterion,
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ])


@register_classifier
class DecisionTreeClassifier(BaseClassifier):
    """CART decision tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth.
    min_samples_split:
        Minimum samples required to attempt a split.
    min_samples_leaf:
        Minimum samples in each child.
    criterion:
        ``"gini"`` or ``"entropy"``.
    """

    name = "decision_tree"

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        criterion: str = "gini",
    ):
        super().__init__()
        if max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        if criterion not in ("gini", "entropy"):
            raise ValidationError(f"criterion must be gini/entropy, got {criterion!r}")
        self.max_depth = int(max_depth)
        self.min_samples_split = max(2, int(min_samples_split))
        self.min_samples_leaf = max(1, int(min_samples_leaf))
        self.criterion = criterion

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._tree = build_tree(
            X, y, self.n_classes_,
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
            self.criterion,
        )

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._tree.predict(X)[0]
