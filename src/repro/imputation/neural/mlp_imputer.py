"""MLP window imputer — the numpy stand-in for the deep learners.

The paper's suite includes deep imputers (BRITS, DeepMVI, MPIN).  Offline we
occupy the same niche — a *learned, nonlinear* model trained on the series'
own windows — with a compact multilayer perceptron:

* training pairs are (context window with a synthetic hole, true values);
* windows are drawn from the observed portions of all series;
* at inference, each missing value is predicted from its bidirectional
  context, blending the forward and backward passes (the BRITS idea).

Training uses plain mini-batch gradient descent with a tanh hidden layer —
enough capacity to beat interpolation on nonlinear signals, small enough to
train in milliseconds on benchmark-sized matrices.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.imputation.base import BaseImputer, interpolate_rows_block, register_imputer
from repro.utils.rng import ensure_rng


class _TinyMLP:
    """One-hidden-layer regression MLP trained with mini-batch SGD + momentum."""

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(n_in)
        self.W1 = rng.normal(0.0, scale, size=(n_in, n_hidden))
        self.b1 = np.zeros(n_hidden)
        self.W2 = rng.normal(0.0, 1.0 / np.sqrt(n_hidden), size=(n_hidden, 1))
        self.b2 = np.zeros(1)
        self._vel = [np.zeros_like(p) for p in (self.W1, self.b1, self.W2, self.b2)]

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hidden = np.tanh(X @ self.W1 + self.b1)
        return hidden @ self.W2 + self.b2, hidden

    def train_step(self, X, y, lr: float, momentum: float = 0.9) -> float:
        pred, hidden = self.forward(X)
        err = pred - y[:, None]
        n = X.shape[0]
        grad_out = err / n
        gW2 = hidden.T @ grad_out
        gb2 = grad_out.sum(axis=0)
        grad_hidden = (grad_out @ self.W2.T) * (1.0 - hidden**2)
        gW1 = X.T @ grad_hidden
        gb1 = grad_hidden.sum(axis=0)
        params = (self.W1, self.b1, self.W2, self.b2)
        grads = (gW1, gb1, gW2, gb2)
        for vel, param, grad in zip(self._vel, params, grads):
            vel *= momentum
            vel -= lr * grad
            param += vel
        return float((err**2).mean())

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0][:, 0]


@register_imputer
class MLPImputer(BaseImputer):
    """Bidirectional window MLP imputation.

    Parameters
    ----------
    context:
        Number of observations on each side used as input features.
    n_hidden:
        Hidden layer width.
    epochs:
        Training epochs over the sampled windows.
    lr:
        SGD learning rate.
    random_state:
        Seed controlling weight init and window sampling.
    """

    name = "mlp"

    def __init__(
        self,
        context: int = 6,
        n_hidden: int = 16,
        epochs: int = 60,
        lr: float = 0.05,
        random_state: int | None = 0,
    ):
        if context < 1:
            raise ValidationError(f"context must be >= 1, got {context}")
        if n_hidden < 1:
            raise ValidationError(f"n_hidden must be >= 1, got {n_hidden}")
        self.context = int(context)
        self.n_hidden = int(n_hidden)
        self.epochs = int(epochs)
        self.lr = float(lr)
        self.random_state = random_state

    def _windows(self, filled: np.ndarray, mask: np.ndarray):
        """Extract (features, target) pairs from fully observed windows."""
        c = self.context
        feats, targets = [], []
        for i in range(filled.shape[0]):
            row = filled[i]
            clean = ~mask[i]
            for t in range(c, row.shape[0] - c):
                span = slice(t - c, t + c + 1)
                if not clean[span].all():
                    continue
                window = np.concatenate([row[t - c : t], row[t + 1 : t + c + 1]])
                feats.append(window)
                targets.append(row[t])
        if not feats:
            return None, None
        return np.asarray(feats), np.asarray(targets)

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        filled = interpolate_rows_block(X, mask)
        rng = ensure_rng(self.random_state)
        feats, targets = self._windows(filled, mask)
        if feats is None or feats.shape[0] < 8:
            return filled
        # Standardize features/targets for stable training.
        f_mean, f_std = feats.mean(), feats.std() + 1e-12
        feats_z = (feats - f_mean) / f_std
        t_mean, t_std = targets.mean(), targets.std() + 1e-12
        targets_z = (targets - t_mean) / t_std
        model = _TinyMLP(feats_z.shape[1], self.n_hidden, rng)
        n = feats_z.shape[0]
        batch = min(64, n)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                model.train_step(feats_z[idx], targets_z[idx], self.lr)
        # Iterative refinement: predict missing points from current context,
        # sweep a few times so long gaps propagate information inwards.
        c = self.context
        out = filled.copy()
        for _ in range(3):
            for i in range(X.shape[0]):
                miss_idx = np.flatnonzero(mask[i])
                for t in miss_idx:
                    if t < c or t >= X.shape[1] - c:
                        continue
                    window = np.concatenate(
                        [out[i, t - c : t], out[i, t + 1 : t + c + 1]]
                    )
                    z = (window - f_mean) / f_std
                    pred = model.predict(z[None, :])[0]
                    out[i, t] = pred * t_std + t_mean
        return out
