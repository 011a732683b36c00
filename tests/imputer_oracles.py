"""Scalar reference implementations of the imputers' block kernels.

Every imputer runs through ``BaseImputer.impute_many`` and one kernel per
problem shape.  These are the per-problem loops that the block kernels
replaced: row interpolation by ``np.interp``, the scalar loops of Mean,
Linear, SVDImp, SoftImpute, SVT and ROSL, the one-series interpolation
shortcut of GROUSE and kNN, the quality statistics of one completed
matrix, and the atlas's one-series interpolation.  They stay here as
parity oracles: the library kernels must give exactly their bytes (Mean
to summation order), and :func:`oracle_impute` reproduces the
per-problem ``impute`` contract around them.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ImputationError, ValidationError

_EPS = 1e-12


def interpolate_rows(X: np.ndarray) -> np.ndarray:
    """Fill NaNs in each row by ``np.interp`` with edge extension.

    Rows with no observed values are filled with the global observed mean
    (0.0 when the whole matrix is missing).
    """
    out = X.copy()
    observed_all = X[~np.isnan(X)]
    global_mean = float(observed_all.mean()) if observed_all.size else 0.0
    for i in range(out.shape[0]):
        row = out[i]
        mask = np.isnan(row)
        if not mask.any():
            continue
        obs_idx = np.flatnonzero(~mask)
        if obs_idx.size == 0:
            row[:] = global_mean
            continue
        row[mask] = np.interp(np.flatnonzero(mask), obs_idx, row[obs_idx])
    return out


def atlas_interpolate(values: np.ndarray) -> np.ndarray:
    """The atlas's former one-series interpolation (all-NaN -> zeros)."""
    mask = np.isnan(values)
    if not mask.any():
        return values
    obs = np.flatnonzero(~mask)
    if obs.size == 0:
        return np.zeros_like(values)
    out = values.copy()
    out[mask] = np.interp(np.flatnonzero(mask), obs, values[obs])
    return out


def repair_quality_stats(completed: np.ndarray, mask: np.ndarray) -> dict:
    """Residual/quality proxies of one completed matrix."""
    completed = np.atleast_2d(np.asarray(completed, dtype=float))
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    observed = completed[~mask]
    imputed = completed[mask]
    obs_mean = float(observed.mean()) if observed.size else 0.0
    obs_std = float(observed.std()) if observed.size else 0.0
    imp_mean = float(imputed.mean()) if imputed.size else 0.0
    imp_std = float(imputed.std()) if imputed.size else 0.0
    plausibility = abs(imp_mean - obs_mean) / max(obs_std, _EPS)
    scale_ratio = imp_std / max(obs_std, _EPS)
    diffs = np.abs(np.diff(completed, axis=1))
    flips = mask[:, 1:] != mask[:, :-1]
    overall = float(diffs.mean()) if diffs.size else 0.0
    boundary = float(diffs[flips].mean()) if flips.any() else 0.0
    return {
        "n_missing": int(mask.sum()),
        "missing_fraction": float(mask.mean()) if mask.size else 0.0,
        "observed_mean": obs_mean,
        "observed_std": obs_std,
        "imputed_mean": imp_mean,
        "imputed_std": imp_std,
        "plausibility_z": float(plausibility),
        "scale_ratio": float(scale_ratio),
        "roughness_ratio": float(boundary / max(overall, _EPS)) if boundary else 0.0,
    }


# ---------------------------------------------------------------------------
# Per-problem kernels: kernel(imputer, X, mask) -> completed X
# ---------------------------------------------------------------------------
def mean_kernel(imp, X, mask):
    observed_all = X[~mask]
    global_mean = float(observed_all.mean())
    for i in range(X.shape[0]):
        row_mask = mask[i]
        if not row_mask.any():
            continue
        observed = X[i, ~row_mask]
        fill = float(observed.mean()) if observed.size else global_mean
        X[i, row_mask] = fill
    return X


def linear_kernel(imp, X, mask):
    return interpolate_rows(X)


def svdimp_kernel(imp, X, mask):
    current = interpolate_rows(X)
    n = X.shape[0]
    rank = imp.rank if imp.rank is not None else max(1, n // 3)
    rank = min(rank, min(current.shape))
    prev = current[mask]
    for _ in range(imp.max_iter):
        U, s, Vt = np.linalg.svd(current, full_matrices=False)
        approx = (U[:, :rank] * s[:rank]) @ Vt[:rank]
        current[mask] = approx[mask]
        new = current[mask]
        denom = np.linalg.norm(prev) + 1e-12
        if np.linalg.norm(new - prev) / denom < imp.tol:
            break
        prev = new
    return current


def softimpute_kernel(imp, X, mask):
    current = interpolate_rows(X)
    s0 = np.linalg.svd(current, compute_uv=False)
    threshold = imp.lam * (s0[0] if s0.size else 1.0)
    prev = current[mask]
    for _ in range(imp.max_iter):
        U, s, Vt = np.linalg.svd(current, full_matrices=False)
        s_shrunk = np.maximum(s - threshold, 0.0)
        approx = (U * s_shrunk) @ Vt
        current[mask] = approx[mask]
        new = current[mask]
        denom = np.linalg.norm(prev) + 1e-12
        if np.linalg.norm(new - prev) / denom < imp.tol:
            break
        prev = new
    return current


def svt_kernel(imp, X, mask):
    observed = ~mask
    M = np.where(observed, X, 0.0)
    n, m = X.shape
    tau = imp.tau if imp.tau is not None else imp.tau_scale * np.sqrt(n * m)
    p = observed.mean()
    delta = 1.2 / max(p, 1e-6)
    norm_M = np.linalg.norm(M[observed]) + 1e-12
    Y = np.zeros_like(M)
    best = interpolate_rows(X)
    for _ in range(imp.max_iter):
        U, s, Vt = np.linalg.svd(Y, full_matrices=False)
        s_shrunk = np.maximum(s - tau, 0.0)
        Xk = (U * s_shrunk) @ Vt
        residual = np.where(observed, M - Xk, 0.0)
        rel = np.linalg.norm(residual[observed]) / norm_M
        best = Xk
        if rel < imp.tol:
            break
        Y = Y + delta * residual
    out = X.copy()
    # If SVT collapsed to zero rank (threshold too high for the data),
    # fall back to interpolation rather than filling zeros.
    if not np.any(best):
        return interpolate_rows(X)
    out[mask] = best[mask]
    return out


def _soft(arr: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(arr) * np.maximum(np.abs(arr) - threshold, 0.0)


def rosl_kernel(imp, X, mask):
    current = interpolate_rows(X)
    n = X.shape[0]
    rank = imp.rank if imp.rank is not None else max(1, n // 3)
    rank = min(rank, min(current.shape))
    E = np.zeros_like(current)
    prev = current[mask]
    for _ in range(imp.max_iter):
        U, s, Vt = np.linalg.svd(current - E, full_matrices=False)
        low_rank = (U[:, :rank] * s[:rank]) @ Vt[:rank]
        residual = current - low_rank
        scale = np.median(np.abs(residual - np.median(residual))) + 1e-12
        E = _soft(residual, imp.sparsity * scale)
        current[mask] = low_rank[mask]
        new = current[mask]
        denom = np.linalg.norm(prev) + 1e-12
        if np.linalg.norm(new - prev) / denom < imp.tol:
            break
        prev = new
    return current


#: Kernels whose scalar code left ``src/``.
ORACLE_KERNELS = {
    "mean": mean_kernel,
    "linear": linear_kernel,
    "svdimp": svdimp_kernel,
    "softimpute": softimpute_kernel,
    "svt": svt_kernel,
    "rosl": rosl_kernel,
}

#: Imputers that interpolated one-series problems instead of running.
ONE_SERIES_INTERPOLATES = frozenset({"grouse", "knn"})


def oracle_kernel(imp, X, mask):
    """The per-problem kernel ``imp`` ran on one problem before batching."""
    kernel = ORACLE_KERNELS.get(imp.name)
    if kernel is not None:
        return kernel(imp, X, mask)
    if imp.name in ONE_SERIES_INTERPOLATES and X.shape[0] < 2:
        return interpolate_rows(X)
    # CDRec's one-series loop and every multi-series problem of the
    # remaining imputers: the per-problem kernel still in the library.
    return imp._impute(X, mask)


def oracle_impute(imp, matrix) -> np.ndarray:
    """The per-problem ``impute`` contract around :func:`oracle_kernel`."""
    X = np.asarray(matrix, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise ValidationError(f"matrix must be 1-D or 2-D, got shape {X.shape}")
    if np.isinf(X).any():
        raise ValidationError("matrix contains infinite values")
    mask = np.isnan(X)
    if not mask.any():
        return X.copy()
    if mask.all():
        raise ImputationError("matrix is entirely missing; nothing to learn from")
    completed = np.asarray(oracle_kernel(imp, X.copy(), mask), dtype=float)
    completed[~mask] = X[~mask]
    return completed
