"""CART decision tree (gini/entropy) with vectorized split search.

Shared by :mod:`repro.classifiers.forest` and
:mod:`repro.classifiers.boosting`, so the split machinery lives here.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import BaseClassifier, register_classifier
from repro.exceptions import ValidationError


def _impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity per row of class counts; supports gini and entropy."""
    totals = counts.sum(axis=-1, keepdims=True)
    p = counts / np.maximum(totals, 1e-12)
    if criterion == "gini":
        return 1.0 - (p**2).sum(axis=-1)
    return -(p * np.log2(p + 1e-12)).sum(axis=-1)


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "proba")

    def __init__(self, proba):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.proba = proba


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
        ~(np.diff(sorted_x, axis=0) > 0) | (sizes < min_leaf) | (n - sizes < min_leaf)
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
    sorted_x = np.take_along_axis(Xf, order, axis=0)
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
    depth: int = 0,
) -> _Node:
    """Recursively grow a CART tree; returns the root node."""
    counts = np.bincount(y, minlength=n_classes).astype(float)
    node = _Node(counts / max(counts.sum(), 1e-12))
    if (
        depth >= max_depth
        or X.shape[0] < min_split
        or np.unique(y).size == 1
    ):
        return node
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
        return node
    feat, thr, _ = split
    mask = X[:, feat] <= thr
    node.feature = feat
    node.threshold = thr
    node.left = build_tree(
        X[mask], y[mask], n_classes, max_depth, min_split, min_leaf, criterion,
        max_features, rng, extra_random, depth + 1,
    )
    node.right = build_tree(
        X[~mask], y[~mask], n_classes, max_depth, min_split, min_leaf, criterion,
        max_features, rng, extra_random, depth + 1,
    )
    return node


def tree_predict_proba(node: _Node, X: np.ndarray, n_classes: int) -> np.ndarray:
    """Probability matrix from a grown tree (iterative traversal)."""
    out = np.empty((X.shape[0], n_classes))
    for i, row in enumerate(X):
        cur = node
        while cur.left is not None:
            cur = cur.left if row[cur.feature] <= cur.threshold else cur.right
        out[i] = cur.proba
    return out


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
        self._root = build_tree(
            X, y, self.n_classes_,
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
            self.criterion,
        )

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        return tree_predict_proba(self._root, X, self.n_classes_)
