"""Bagged tree ensembles: random forest and extremely randomized trees."""

from __future__ import annotations

import numbers

import numpy as np

from repro.classifiers.base import BaseClassifier, register_classifier
from repro.classifiers.tree import NodeTable, build_tree, grow_forest
from repro.exceptions import ValidationError
from repro.utils.rng import ensure_rng, spawn_rng


class _BaseForest(BaseClassifier):
    """Shared machinery for bootstrap/perturbed tree ensembles."""

    #: Extra-Trees draw random thresholds instead of scanning; forests don't.
    _extra_random = False
    #: Random forests bootstrap rows; Extra-Trees use the full sample.
    _bootstrap = True

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        max_features: str | int = "sqrt",
        criterion: str = "gini",
        random_state: int | None = 0,
    ):
        super().__init__()
        if n_estimators < 1:
            raise ValidationError(f"n_estimators must be >= 1, got {n_estimators}")
        if max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        if max_features not in ("sqrt", "log2", "all") and not (
            isinstance(max_features, numbers.Integral) and max_features >= 1
        ):
            raise ValidationError(
                f"max_features must be sqrt/log2/all or an int >= 1, got {max_features!r}"
            )
        if criterion not in ("gini", "entropy"):
            raise ValidationError(f"criterion must be gini/entropy, got {criterion!r}")
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = max(1, int(min_samples_leaf))
        self.max_features = max_features
        self.criterion = criterion
        self.random_state = random_state

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features)))
        if self.max_features == "all":
            return n_features
        return min(int(self.max_features), n_features)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = ensure_rng(self.random_state)
        rngs = spawn_rng(rng, self.n_estimators)
        k = self._resolve_max_features(X.shape[1])
        n = X.shape[0]
        growth = (self.max_depth, 2, self.min_samples_leaf, self.criterion)
        if k >= X.shape[1] and self._bootstrap and not self._extra_random:
            # No node draws from a generator, so all trees grow at once;
            # each bootstrap becomes integer row weights.
            weights = np.stack([
                np.bincount(r.integers(0, n, size=n), minlength=n) for r in rngs
            ])
            self._trees = grow_forest(X, y, self.n_classes_, weights, *growth)
            return
        tables = []
        for tree_rng in rngs:
            if self._bootstrap:
                idx = tree_rng.integers(0, n, size=n)
                Xb, yb = X[idx], y[idx]
            else:
                Xb, yb = X, y
            tables.append(
                build_tree(
                    Xb, yb, self.n_classes_, *growth,
                    max_features=k, rng=tree_rng, extra_random=self._extra_random,
                )
            )
        self._trees = NodeTable.concat(tables)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        # The sum runs over trees in order, as the per-tree loop added them.
        return self._trees.predict(X).sum(axis=0) / self._trees.n_trees


@register_classifier
class RandomForestClassifier(_BaseForest):
    """Bootstrap-aggregated CART forest with feature subsampling.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_leaf, criterion:
        Per-tree growth controls.
    max_features:
        Features considered per split: ``"sqrt"``, ``"log2"``, ``"all"``,
        or an int.
    random_state:
        Seed for bootstraps and feature subsampling.
    """

    name = "random_forest"
    _extra_random = False
    _bootstrap = True


@register_classifier
class ExtraTreesClassifier(_BaseForest):
    """Extremely randomized trees: random thresholds, no bootstrap.

    Same parameters as :class:`RandomForestClassifier`.
    """

    name = "extra_trees"
    _extra_random = True
    _bootstrap = False
