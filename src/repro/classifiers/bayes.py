"""Gaussian naive Bayes classifier."""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import BaseClassifier, register_classifier
from repro.exceptions import ValidationError


@register_classifier
class GaussianNBClassifier(BaseClassifier):
    """Gaussian naive Bayes with variance smoothing.

    Parameters
    ----------
    var_smoothing:
        Fraction of the largest feature variance added to all variances
        for numerical stability.
    """

    name = "gaussian_nb"

    def __init__(self, var_smoothing: float = 1e-6):
        super().__init__()
        if var_smoothing < 0:
            raise ValidationError(f"var_smoothing must be >= 0, got {var_smoothing}")
        self.var_smoothing = float(var_smoothing)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        k = self.n_classes_
        d = X.shape[1]
        self._means = np.zeros((k, d))
        self._vars = np.zeros((k, d))
        self._priors = np.zeros(k)
        for c in range(k):
            members = X[y == c]
            self._means[c] = members.mean(axis=0)
            self._vars[c] = members.var(axis=0)
            self._priors[c] = members.shape[0] / X.shape[0]
        eps = self.var_smoothing * float(X.var(axis=0).max() or 1.0) + 1e-12
        self._vars += eps
        # Prediction-invariant terms of the log joint likelihood.
        self._log_norm = np.log(2 * np.pi * self._vars)
        self._log_priors = np.log(self._priors + 1e-12)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        # Log joint likelihood of every (row, class) pair, then softmax.
        diff = X[:, None, :] - self._means
        log_like = -0.5 * (self._log_norm + diff**2 / self._vars).sum(axis=2)
        log_proba = self._log_priors + log_like
        log_proba -= log_proba.max(axis=1, keepdims=True)
        proba = np.exp(log_proba)
        return proba / proba.sum(axis=1, keepdims=True)
