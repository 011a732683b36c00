"""DynaMMo: mining co-evolving sequences with missing values (Li et al., KDD'09).

DynaMMo models the multivariate series as a linear dynamical system

    z_{t+1} = A z_t + w,   x_t = C z_t + v

learned with EM: the E-step runs Kalman filtering + RTS smoothing over the
current estimate, the M-step re-fits (A, C, noise covariances), and the
missing observations are replaced by their smoothed means ``C E[z_t]``.
This captures temporal *dynamics* explicitly, which low-rank methods do not.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.imputation.base import BaseImputer, interpolate_rows_block, register_imputer
from repro.utils.rng import ensure_rng


def _kalman_smooth(Y, A, C, Q, R, mu0, V0):
    """Kalman filter + RTS smoother; returns smoothed means/covs and pair covs."""
    h, length = A.shape[0], Y.shape[1]
    mu_pred = np.zeros((length, h))
    V_pred = np.zeros((length, h, h))
    mu_filt = np.zeros((length, h))
    V_filt = np.zeros((length, h, h))
    eye_h = np.eye(h)
    for t in range(length):
        if t == 0:
            mu_pred[t] = mu0
            V_pred[t] = V0
        else:
            mu_pred[t] = A @ mu_filt[t - 1]
            V_pred[t] = A @ V_filt[t - 1] @ A.T + Q
        S = C @ V_pred[t] @ C.T + R
        K = V_pred[t] @ C.T @ np.linalg.solve(S, np.eye(S.shape[0]))
        innov = Y[:, t] - C @ mu_pred[t]
        mu_filt[t] = mu_pred[t] + K @ innov
        V_filt[t] = (eye_h - K @ C) @ V_pred[t]
    mu_smooth = np.zeros_like(mu_filt)
    V_smooth = np.zeros_like(V_filt)
    V_pair = np.zeros((length - 1, h, h)) if length > 1 else np.zeros((0, h, h))
    mu_smooth[-1] = mu_filt[-1]
    V_smooth[-1] = V_filt[-1]
    for t in range(length - 2, -1, -1):
        J = V_filt[t] @ A.T @ np.linalg.solve(V_pred[t + 1], eye_h)
        mu_smooth[t] = mu_filt[t] + J @ (mu_smooth[t + 1] - mu_pred[t + 1])
        V_smooth[t] = V_filt[t] + J @ (V_smooth[t + 1] - V_pred[t + 1]) @ J.T
        V_pair[t] = J @ V_smooth[t + 1]
    return mu_smooth, V_smooth, V_pair


@register_imputer
class DynaMMoImputer(BaseImputer):
    """EM-trained linear dynamical system imputation.

    Parameters
    ----------
    hidden_dim:
        Latent state dimension (None = auto: ~n/2, capped at 8).
    max_iter:
        EM iterations.
    random_state:
        Seed for parameter initialization.
    """

    name = "dynammo"

    def __init__(
        self,
        hidden_dim: int | None = None,
        max_iter: int = 15,
        random_state: int | None = 0,
    ):
        if hidden_dim is not None and hidden_dim < 1:
            raise ValidationError(f"hidden_dim must be >= 1, got {hidden_dim}")
        self.hidden_dim = hidden_dim
        self.max_iter = int(max_iter)
        self.random_state = random_state

    def _impute(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        n, length = X.shape
        rng = ensure_rng(self.random_state)
        h = self.hidden_dim if self.hidden_dim is not None else min(8, max(1, n // 2))
        h = min(h, n)
        Y = interpolate_rows_block(X, mask)
        # Standardize rows for numerically stable EM; remember the transform.
        row_mean = Y.mean(axis=1, keepdims=True)
        row_std = Y.std(axis=1, keepdims=True)
        row_std[row_std == 0] = 1.0
        Yz = (Y - row_mean) / row_std
        A = np.eye(h) + 0.01 * rng.normal(size=(h, h))
        C = rng.normal(size=(n, h)) * 0.5
        Q = np.eye(h)
        R = np.eye(n)
        mu0 = np.zeros(h)
        V0 = np.eye(h)
        eye_h = np.eye(h)
        for _ in range(self.max_iter):
            mu, V, V_pair = _kalman_smooth(Yz, A, C, Q, R, mu0, V0)
            # Sufficient statistics.
            Ezz = V.sum(axis=0) + mu.T @ mu
            Ezz_head = V[:-1].sum(axis=0) + mu[:-1].T @ mu[:-1]
            Ezz_tail = V[1:].sum(axis=0) + mu[1:].T @ mu[1:]
            Ezz_pair = V_pair.sum(axis=0) + mu[1:].T @ mu[:-1]
            # M-step.
            A = Ezz_pair @ np.linalg.solve(Ezz_head + 1e-8 * eye_h, eye_h)
            C = (Yz @ mu) @ np.linalg.solve(Ezz + 1e-8 * eye_h, eye_h)
            resid_q = (Ezz_tail - A @ Ezz_pair.T) / max(length - 1, 1)
            Q = (resid_q + resid_q.T) / 2 + 1e-6 * eye_h
            recon = C @ mu.T
            resid_r = Yz - recon
            R = np.diag(np.maximum((resid_r**2).mean(axis=1), 1e-6))
            mu0 = mu[0]
            V0 = V[0] + 1e-6 * eye_h
            # Update the working estimate at missing positions only.
            Yz[mask] = recon[mask]
        out = X.copy()
        reconstructed = Yz * row_std + row_mean
        if not np.isfinite(reconstructed).all():
            return interpolate_rows_block(X, mask)
        out[mask] = reconstructed[mask]
        return out
