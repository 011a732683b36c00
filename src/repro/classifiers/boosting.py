"""Boosted ensembles: gradient boosting (the CatBoost stand-in) and AdaBoost."""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import BaseClassifier, register_classifier
from repro.classifiers.tree import NodeTable, _best_cut, _Nodes, build_tree
from repro.exceptions import ValidationError
from repro.utils.rng import ensure_rng


def _grow_stump(
    nodes: _Nodes, X: np.ndarray, r: np.ndarray, max_depth: int, min_leaf: int,
    depth: int,
) -> int:
    total_sum, total_n = r.sum(), r.shape[0]
    # The sum over the count is exactly what ``r.mean()`` computes.
    k = nodes.add(np.array([total_sum / total_n if total_n else 0.0]))
    if depth >= max_depth or total_n < 2 * min_leaf:
        return k
    # One scan over every feature: prefix residual sums along each
    # sorted column give the SSE reduction of every cut.
    order = np.argsort(X, axis=0, kind="stable")
    sorted_x = X[order, np.arange(X.shape[1])]
    left_sum = np.cumsum(r[order], axis=0)[:-1]
    n_l = np.arange(1.0, total_n)[:, None]
    gain = (
        left_sum**2 / n_l
        + (total_sum - left_sum) ** 2 / (total_n - n_l)
        - total_sum**2 / total_n
    )
    best = _best_cut(gain, sorted_x, min_leaf)
    if best is None:
        return k
    feat, thr, _ = best
    mask = X[:, feat] <= thr
    left = _grow_stump(nodes, X[mask], r[mask], max_depth, min_leaf, depth + 1)
    right = _grow_stump(nodes, X[~mask], r[~mask], max_depth, min_leaf, depth + 1)
    nodes.split(k, feat, thr, left, right)
    return k


def regression_stumps(
    X: np.ndarray, residuals: np.ndarray, max_depth: int, min_leaf: int
) -> NodeTable:
    """One depth-limited regression tree per column of ``residuals``.

    Leaves hold the mean residual, so the table's values have width 1.
    """
    nodes = _Nodes()
    for r in residuals.T:
        nodes.roots.append(_grow_stump(nodes, X, r, max_depth, min_leaf, 0))
    return nodes.table()


@register_classifier
class GradientBoostingClassifier(BaseClassifier):
    """Multi-class gradient boosting with softmax loss (CatBoost stand-in).

    One regression tree per class per round fits the softmax gradient.

    Parameters
    ----------
    n_estimators:
        Boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth of the per-round regression trees.
    subsample:
        Row-sampling fraction per round (stochastic gradient boosting).
    random_state:
        Seed for subsampling.
    """

    name = "gradient_boosting"

    def __init__(
        self,
        n_estimators: int = 40,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        subsample: float = 1.0,
        random_state: int | None = 0,
    ):
        super().__init__()
        if n_estimators < 1:
            raise ValidationError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0 < learning_rate <= 1:
            raise ValidationError(f"learning_rate must be in (0,1], got {learning_rate}")
        if max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        if not 0 < subsample <= 1:
            raise ValidationError(f"subsample must be in (0,1], got {subsample}")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.subsample = float(subsample)
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n, k = X.shape[0], self.n_classes_
        rng = ensure_rng(self.random_state)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0
        scores = np.zeros((n, k))
        stages: list[NodeTable] = []
        for _ in range(self.n_estimators):
            exp = np.exp(scores - scores.max(axis=1, keepdims=True))
            proba = exp / exp.sum(axis=1, keepdims=True)
            gradient = onehot - proba
            if self.subsample < 1.0:
                idx = rng.choice(n, size=max(2, int(self.subsample * n)), replace=False)
            else:
                idx = np.arange(n)
            stage = regression_stumps(X[idx], gradient[idx], self.max_depth, 1)
            scores += self.learning_rate * stage.predict(X)[:, :, 0].T
            stages.append(stage)
        self._stumps = NodeTable.concat(stages)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        n, k = X.shape[0], self.n_classes_
        scores = np.zeros((n, k))
        leaves = self._stumps.predict(X).reshape(-1, k, n)
        # Stage by stage, as fitting added them.
        for stage in leaves:
            scores += self.learning_rate * stage.T
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)


@register_classifier
class AdaBoostClassifier(BaseClassifier):
    """SAMME AdaBoost over shallow CART trees.

    Parameters
    ----------
    n_estimators:
        Boosting rounds.
    max_depth:
        Depth of the weak learners.
    learning_rate:
        Shrinkage on the stage weights.
    random_state:
        Seed for weighted resampling.
    """

    name = "adaboost"

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 2,
        learning_rate: float = 1.0,
        random_state: int | None = 0,
    ):
        super().__init__()
        if n_estimators < 1:
            raise ValidationError(f"n_estimators must be >= 1, got {n_estimators}")
        if max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        if not learning_rate > 0:
            raise ValidationError(f"learning_rate must be > 0, got {learning_rate}")
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.learning_rate = float(learning_rate)
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n, k = X.shape[0], self.n_classes_
        rng = ensure_rng(self.random_state)
        weights = np.full(n, 1.0 / n)
        trees: list[NodeTable] = []
        self._alphas: list[float] = []
        for _ in range(self.n_estimators):
            # Weighted resampling approximates weighted impurity fitting.
            idx = rng.choice(n, size=n, replace=True, p=weights)
            tree = build_tree(
                X[idx], y[idx], k, self.max_depth, 2, 1, "gini",
            )
            pred = np.argmax(tree.predict(X)[0], axis=1)
            err = float(weights[pred != y].sum())
            if err >= 1.0 - 1.0 / k:
                continue  # worse than chance; skip stage
            err = max(err, 1e-10)
            alpha = self.learning_rate * (np.log((1 - err) / err) + np.log(k - 1))
            weights *= np.exp(alpha * (pred != y))
            weights /= weights.sum()
            trees.append(tree)
            self._alphas.append(alpha)
        if not trees:
            # Degenerate input: keep one unweighted tree as fallback.
            trees.append(build_tree(X, y, k, self.max_depth, 2, 1, "gini"))
            self._alphas.append(1.0)
        self._trees = NodeTable.concat(trees)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros((X.shape[0], self.n_classes_))
        votes = np.argmax(self._trees.predict(X), axis=2)
        for alpha, pred in zip(self._alphas, votes):
            scores[np.arange(X.shape[0]), pred] += alpha
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)
