"""Boosted ensembles: gradient boosting (the CatBoost stand-in) and AdaBoost."""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import BaseClassifier, register_classifier
from repro.classifiers.tree import _best_cut, _Node, build_tree, tree_predict_proba
from repro.exceptions import ValidationError
from repro.utils.rng import ensure_rng


class _RegressionStump:
    """Depth-limited regression tree on residuals (for gradient boosting)."""

    def __init__(self, max_depth: int, min_leaf: int):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._root: dict | None = None

    def fit(self, X: np.ndarray, residual: np.ndarray) -> "_RegressionStump":
        self._root = self._grow(X, residual, 0)
        return self

    def _grow(self, X: np.ndarray, r: np.ndarray, depth: int) -> dict:
        node = {"value": float(r.mean()) if r.size else 0.0}
        if depth >= self.max_depth or X.shape[0] < 2 * self.min_leaf:
            return node
        total_sum, total_n = r.sum(), r.shape[0]
        # One scan over every feature: prefix residual sums along each
        # sorted column give the SSE reduction of every cut.
        order = np.argsort(X, axis=0, kind="stable")
        sorted_x = np.take_along_axis(X, order, axis=0)
        left_sum = np.cumsum(r[order], axis=0)[:-1]
        n_l = np.arange(1.0, total_n)[:, None]
        gain = (
            left_sum**2 / n_l
            + (total_sum - left_sum) ** 2 / (total_n - n_l)
            - total_sum**2 / total_n
        )
        best = _best_cut(gain, sorted_x, self.min_leaf)
        if best is None:
            return node
        feat, thr, _ = best
        mask = X[:, feat] <= thr
        node.update(
            feature=feat,
            threshold=thr,
            left=self._grow(X[mask], r[mask], depth + 1),
            right=self._grow(X[~mask], r[~mask], depth + 1),
        )
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self._root
            while "feature" in node:
                node = (
                    node["left"] if row[node["feature"]] <= node["threshold"]
                    else node["right"]
                )
            out[i] = node["value"]
        return out


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
        self._stages: list[list[_RegressionStump]] = []
        for _ in range(self.n_estimators):
            exp = np.exp(scores - scores.max(axis=1, keepdims=True))
            proba = exp / exp.sum(axis=1, keepdims=True)
            gradient = onehot - proba
            if self.subsample < 1.0:
                idx = rng.choice(n, size=max(2, int(self.subsample * n)), replace=False)
            else:
                idx = np.arange(n)
            stage = []
            for c in range(k):
                stump = _RegressionStump(self.max_depth, min_leaf=1)
                stump.fit(X[idx], gradient[idx, c])
                scores[:, c] += self.learning_rate * stump.predict(X)
                stage.append(stump)
            self._stages.append(stage)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros((X.shape[0], self.n_classes_))
        for stage in self._stages:
            for c, stump in enumerate(stage):
                scores[:, c] += self.learning_rate * stump.predict(X)
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
        self._trees: list[_Node] = []
        self._alphas: list[float] = []
        for _ in range(self.n_estimators):
            # Weighted resampling approximates weighted impurity fitting.
            idx = rng.choice(n, size=n, replace=True, p=weights)
            tree = build_tree(
                X[idx], y[idx], k, self.max_depth, 2, 1, "gini",
            )
            pred = np.argmax(tree_predict_proba(tree, X, k), axis=1)
            err = float(weights[pred != y].sum())
            if err >= 1.0 - 1.0 / k:
                continue  # worse than chance; skip stage
            err = max(err, 1e-10)
            alpha = self.learning_rate * (np.log((1 - err) / err) + np.log(k - 1))
            weights *= np.exp(alpha * (pred != y))
            weights /= weights.sum()
            self._trees.append(tree)
            self._alphas.append(alpha)
        if not self._trees:
            # Degenerate input: keep one unweighted tree as fallback.
            self._trees.append(build_tree(X, y, k, self.max_depth, 2, 1, "gini"))
            self._alphas.append(1.0)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros((X.shape[0], self.n_classes_))
        for alpha, tree in zip(self._alphas, self._trees):
            pred = np.argmax(tree_predict_proba(tree, X, self.n_classes_), axis=1)
            scores[np.arange(X.shape[0]), pred] += alpha
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)
