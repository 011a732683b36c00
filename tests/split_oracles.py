"""Scalar reference implementations of the tree split searches and walks.

These are the per-feature loops that :func:`repro.classifiers.tree.best_split`
and the gradient-boosting stumps replaced with one vectorised scan per
node, and the per-row walks over linked nodes that
:class:`repro.classifiers.tree.NodeTable` replaced with one level-wise
walk over all trees and rows.  They stay here as parity oracles: the
library versions must return exactly the same splits, gains, nodes and
predictions, and consume the random generator exactly as these loops do.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.tree import _impurity


def best_split_reference(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    criterion: str,
    feature_indices: np.ndarray,
    min_leaf: int,
    rng: np.random.Generator | None = None,
    extra_random: bool = False,
) -> tuple[int, float, float] | None:
    """One feature at a time: argsort, prefix counts, impurity, argmax."""
    n = X.shape[0]
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent_imp = float(_impurity(parent_counts[None, :], criterion)[0])
    best: tuple[int, float, float] | None = None
    best_gain = 1e-12
    for feat in feature_indices:
        col = X[:, feat]
        if extra_random:
            lo, hi = col.min(), col.max()
            if hi <= lo:
                continue
            thr = rng.uniform(lo, hi)
            left_mask = col <= thr
            n_left = int(left_mask.sum())
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            left_counts = np.bincount(y[left_mask], minlength=n_classes).astype(float)
            right_counts = parent_counts - left_counts
            gain = parent_imp - (
                n_left / n * float(_impurity(left_counts[None, :], criterion)[0])
                + (n - n_left) / n * float(_impurity(right_counts[None, :], criterion)[0])
            )
            if gain > best_gain:
                best_gain = gain
                best = (int(feat), float(thr), gain)
            continue
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        distinct = np.flatnonzero(np.diff(sorted_col) > 0)
        if distinct.size == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y[order]] = 1.0
        prefix = onehot.cumsum(axis=0)
        sizes_left = distinct + 1
        valid = (sizes_left >= min_leaf) & (n - sizes_left >= min_leaf)
        if not valid.any():
            continue
        cand = distinct[valid]
        left_counts = prefix[cand]
        right_counts = parent_counts[None, :] - left_counts
        n_left = (cand + 1).astype(float)
        n_right = n - n_left
        child_imp = (
            n_left * _impurity(left_counts, criterion)
            + n_right * _impurity(right_counts, criterion)
        ) / n
        gains = parent_imp - child_imp
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            pos = cand[j]
            thr = 0.5 * (sorted_col[pos] + sorted_col[pos + 1])
            best_gain = float(gains[j])
            best = (int(feat), float(thr), best_gain)
    return best


def grow_stump_reference(
    X: np.ndarray, r: np.ndarray, max_depth: int, min_leaf: int, depth: int = 0
) -> dict:
    """Regression-stump node dict, grown one feature at a time."""
    node = {"value": float(r.mean()) if r.size else 0.0}
    if depth >= max_depth or X.shape[0] < 2 * min_leaf:
        return node
    best_gain, best = 1e-12, None
    total_sum, total_n = r.sum(), r.shape[0]
    parent_sse_gain = (total_sum**2) / total_n
    for feat in range(X.shape[1]):
        order = np.argsort(X[:, feat], kind="stable")
        sorted_x = X[order, feat]
        prefix = np.cumsum(r[order])
        distinct = np.flatnonzero(np.diff(sorted_x) > 0)
        if distinct.size == 0:
            continue
        n_left = distinct + 1
        valid = (n_left >= min_leaf) & (total_n - n_left >= min_leaf)
        if not valid.any():
            continue
        cand = distinct[valid]
        left_sum = prefix[cand]
        n_l = (cand + 1).astype(float)
        n_r = total_n - n_l
        gain = left_sum**2 / n_l + (total_sum - left_sum) ** 2 / n_r - parent_sse_gain
        j = int(np.argmax(gain))
        if gain[j] > best_gain:
            best_gain = float(gain[j])
            pos = cand[j]
            best = (feat, 0.5 * (sorted_x[pos] + sorted_x[pos + 1]))
    if best is None:
        return node
    feat, thr = best
    mask = X[:, feat] <= thr
    node.update(
        feature=feat,
        threshold=thr,
        left=grow_stump_reference(X[mask], r[mask], max_depth, min_leaf, depth + 1),
        right=grow_stump_reference(X[~mask], r[~mask], max_depth, min_leaf, depth + 1),
    )
    return node


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "proba")

    def __init__(self, proba):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.proba = proba


def tree_predict_proba(node: _Node, X: np.ndarray, n_classes: int) -> np.ndarray:
    """Probability matrix from a grown tree (iterative traversal)."""
    out = np.empty((X.shape[0], n_classes))
    for i, row in enumerate(X):
        cur = node
        while cur.left is not None:
            cur = cur.left if row[cur.feature] <= cur.threshold else cur.right
        out[i] = cur.proba
    return out


def stump_predict_reference(root: dict, X: np.ndarray) -> np.ndarray:
    """Regression-stump predictions, one row at a time."""
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = root
        while "feature" in node:
            node = (
                node["left"] if row[node["feature"]] <= node["threshold"]
                else node["right"]
            )
        out[i] = node["value"]
    return out


def table_to_nodes(table, k: int) -> _Node:
    """The tree of a flat node table below node ``k``, as linked nodes."""
    node = _Node(table.value[k])
    if table.feature[k] >= 0:
        node.feature = int(table.feature[k])
        node.threshold = float(table.threshold[k])
        node.left = table_to_nodes(table, table.left[k])
        node.right = table_to_nodes(table, table.right[k])
    return node


def table_to_stump_dict(table, k: int) -> dict:
    """A regression tree of a flat node table, in the node-dict form above."""
    node = {"value": float(table.value[k, 0])}
    if table.feature[k] >= 0:
        node.update(
            feature=int(table.feature[k]),
            threshold=float(table.threshold[k]),
            left=table_to_stump_dict(table, table.left[k]),
            right=table_to_stump_dict(table, table.right[k]),
        )
    return node


def node_key(node: _Node) -> tuple:
    """Everything a linked tree holds, as nested tuples for exact equality."""
    proba = tuple(node.proba.tolist())
    if node.left is None:
        return (proba,)
    return (
        node.feature, node.threshold, proba,
        node_key(node.left), node_key(node.right),
    )
