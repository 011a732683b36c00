"""Classifier base class and registry.

Contract
--------
* ``fit(X, y)`` — ``X`` is (n_samples, n_features) float, ``y`` any hashable
  labels; the base class encodes labels into 0..K-1 and exposes ``classes_``.
* ``predict_proba(X)`` — (n_samples, K) rows summing to 1.
* ``predict(X)`` — argmax of the probabilities, decoded to original labels.
* ``get_params`` / ``clone`` — hyperparameter reflection used by the
  pipeline synthesizer.

Classes seen once at fit time remain predictable: classifiers never emit
labels outside ``classes_``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import NotFittedError, RegistryError, ValidationError
from repro.utils.validation import check_2d

_FLOAT_MAX = np.finfo(np.float64).max


class BaseClassifier(ABC):
    """Abstract multi-class probabilistic classifier."""

    #: Registry key; subclasses must override.
    name: str = "base"

    def __init__(self) -> None:
        self.classes_: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def fit(self, X, y) -> "BaseClassifier":
        """Fit on features X and labels y; returns self."""
        X = check_2d(X, name="X", allow_nan=False)
        y = np.asarray(y)
        if y.ndim != 1:
            raise ValidationError(f"y must be 1-D, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValidationError(
                f"X has {X.shape[0]} samples but y has {y.shape[0]}"
            )
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self._fit(X, y_enc.astype(int))
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Class-probability matrix aligned with ``classes_``."""
        if self.classes_ is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        X = check_2d(X, name="X", allow_nan=False)
        proba = self._predict_proba(X)
        # NaN -> 0, -inf and negatives -> 0, +inf -> the largest float.
        proba = np.minimum(
            np.maximum(np.where(np.isnan(proba), 0.0, proba), 0.0), _FLOAT_MAX
        )
        row_sums = proba.sum(axis=1, keepdims=True)
        return np.where(
            row_sums > 0,
            proba / np.maximum(row_sums, 1e-12),
            1.0 / proba.shape[1],
        )

    def predict(self, X) -> np.ndarray:
        """Predicted labels (decoded to the original label space)."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    # ------------------------------------------------------------------
    # Reflection
    # ------------------------------------------------------------------
    def get_params(self) -> dict:
        """Constructor hyperparameters (public attributes set in __init__)."""
        return {
            k: v
            for k, v in vars(self).items()
            if not k.startswith("_") and not k.endswith("_")
        }

    def clone(self) -> "BaseClassifier":
        """Fresh unfitted instance with identical hyperparameters."""
        return type(self)(**self.get_params())

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @property
    def n_classes_(self) -> int:
        """Number of classes seen at fit time."""
        if self.classes_ is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        return len(self.classes_)

    @abstractmethod
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        """Fit on encoded labels y in 0..K-1."""

    @abstractmethod
    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Return raw (possibly unnormalized) non-negative class scores."""


CLASSIFIER_REGISTRY: dict[str, type[BaseClassifier]] = {}


def register_classifier(cls: type[BaseClassifier]) -> type[BaseClassifier]:
    """Class decorator adding a classifier to the registry by name."""
    key = cls.name
    if not key or key == "base":
        raise RegistryError(f"classifier {cls.__name__} must define a unique name")
    if key in CLASSIFIER_REGISTRY and CLASSIFIER_REGISTRY[key] is not cls:
        raise RegistryError(f"classifier name {key!r} already registered")
    CLASSIFIER_REGISTRY[key] = cls
    return cls


def available_classifiers() -> list[str]:
    """Sorted registered classifier names."""
    return sorted(CLASSIFIER_REGISTRY)


def get_classifier(name: str, **params) -> BaseClassifier:
    """Instantiate a registered classifier by name."""
    try:
        cls = CLASSIFIER_REGISTRY[name]
    except KeyError:
        raise RegistryError(
            f"unknown classifier {name!r}; available: {available_classifiers()}"
        ) from None
    return cls(**params)
