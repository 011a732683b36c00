"""Statistical feature extraction (Section V-B).

The paper concatenates features from TSFresh/Catch22/Kats-style extractors
and groups them into three coarse categories, reproduced here:

* **Canonical** — basic summary statistics of value distribution and change;
* **Dependencies** — autocorrelation structure at several lags, partial
  autocorrelations, and nonlinearity of dependence;
* **Trends** — seasonality, spectral shape, stationarity, and linear-trend
  diagnostics.

Every feature is a row-wise reduction over a stacked ``(n_series,
length)`` matrix of equal-length, already-interpolated rows (features must
be computable on faulty input — :class:`~repro.features.FeatureExtractor`
interpolates before stacking).  Each row's features depend on that row
alone, and every value is finite: degenerate inputs (constant rows,
too-short rows, zero spectra) map to fixed defaults.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.exceptions import ValidationError


def average_ranks(X: np.ndarray) -> np.ndarray:
    """Per-row average ranks (1-based, ties share their mean rank).

    The same arithmetic as ``scipy.stats.rankdata(X, axis=1)``: a stable
    sort, the first index of each run of equal values, and the run's
    mean rank; a row holding NaN ranks as all-NaN.
    """
    X = np.asarray(X, dtype=np.float64)
    n_rows, length = X.shape
    order = np.argsort(X, axis=1, kind="stable")
    y = np.take_along_axis(X, order, axis=1)
    starts = np.ones(X.shape, dtype=bool)
    starts[:, 1:] = y[:, :-1] != y[:, 1:]
    indices = np.flatnonzero(starts)
    counts = np.diff(indices, append=X.size)
    ordinal = np.broadcast_to(np.arange(1, length + 1, dtype=np.float64), X.shape)
    ranks = np.repeat(ordinal[starts] + (counts - 1) / 2, counts).reshape(X.shape)
    out = np.empty_like(ranks)
    np.put_along_axis(out, order, ranks, axis=1)
    out[np.isnan(X).any(axis=1)] = np.nan
    return out


def _finite_rows(values: np.ndarray) -> np.ndarray:
    """NaN/inf from degenerate rows → 0.0, elementwise."""
    out = np.asarray(values, dtype=np.float64).copy()
    np.copyto(out, 0.0, where=~np.isfinite(out))
    return out


def _acf_matrix(x0: np.ndarray, denom: np.ndarray, max_lag: int) -> np.ndarray:
    """ACF of pre-centered rows at lags ``0..max_lag`` (column 0 unused).

    Rows with zero energy (``denom == 0``) and lags ``>= length`` yield 0.0.
    """
    n_rows, length = x0.shape
    acf = np.zeros((n_rows, max_lag + 1), dtype=x0.dtype)
    safe = denom != 0
    for lag in range(1, max_lag + 1):
        if lag >= length:
            break
        num = np.einsum("ij,ij->i", x0[:, :-lag], x0[:, lag:])
        np.divide(num, denom, out=acf[:, lag], where=safe)
    return acf


def _skew_kurtosis(X: np.ndarray, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Biased skewness and excess kurtosis per row.

    The same central-moment arithmetic as ``scipy.stats.skew`` /
    ``scipy.stats.kurtosis`` (m3/m2^1.5 and m4/m2^2 - 3, NaN where m2 is
    numerically zero), without scipy's per-call array-API dispatch,
    which cost more than the moments themselves on small blocks.
    """
    d = X - means[:, None]
    d2 = d**2
    m2 = d2.mean(axis=1)
    m3 = (d2 * d).mean(axis=1)
    m4 = (d2**2).mean(axis=1)
    flat = m2 <= (np.finfo(np.float64).eps * means) ** 2
    skew = np.where(flat, np.nan, m3 / m2**1.5)
    kurtosis = np.where(flat, np.nan, m4 / m2**2.0) - 3.0
    return skew, kurtosis


def _canonical_block(X: np.ndarray) -> dict[str, np.ndarray]:
    n_rows, length = X.shape
    diffs = np.diff(X, axis=1) if length > 1 else np.zeros((n_rows, 1), dtype=X.dtype)
    means = X.mean(axis=1)
    stds = X.std(axis=1)
    q25, q50, q75 = np.percentile(X, [25, 50, 75], axis=1)
    if length > 1:
        centered = X - np.median(X, axis=1, keepdims=True)
        crossings = np.mean(
            np.sign(centered[:, :-1]) != np.sign(centered[:, 1:]), axis=1
        )
    else:
        crossings = np.zeros(n_rows)
    gate = stds > 0
    skew, kurtosis = _skew_kurtosis(X, means)
    return {
        "canon_mean": means,
        "canon_std": stds,
        "canon_skew": np.where(gate, skew, 0.0),
        "canon_kurtosis": np.where(gate, kurtosis, 0.0),
        "canon_median": q50,
        "canon_iqr": q75 - q25,
        "canon_range": X.max(axis=1) - X.min(axis=1),
        "canon_cv": stds / (np.abs(means) + 1e-12),
        "canon_above_mean_ratio": (X > means[:, None]).mean(axis=1),
        "canon_abs_diff_mean": np.abs(diffs).mean(axis=1),
        "canon_diff_std": diffs.std(axis=1),
        "canon_median_crossings": crossings,
        "canon_energy": (X**2).mean(axis=1),
    }


def _rs_block(segment: np.ndarray) -> np.ndarray:
    """Rescaled range R/S per row (0.0 when too short or constant)."""
    n_rows, length = segment.shape
    if length < 4:
        return np.zeros(n_rows)
    dev = np.cumsum(segment - segment.mean(axis=1, keepdims=True), axis=1)
    spread = dev.max(axis=1) - dev.min(axis=1)
    scale = segment.std(axis=1)
    return np.divide(
        spread, scale, out=np.zeros(n_rows, dtype=np.float64), where=scale > 0
    )


def _rs_ratio_block(X: np.ndarray) -> np.ndarray:
    n_rows, length = X.shape
    full = _rs_block(X)
    half = (_rs_block(X[:, : length // 2]) + _rs_block(X[:, length // 2 :])) / 2
    ok = (full > 0) & (half > 0)
    ratio = np.ones(n_rows)
    np.divide(full, half, out=ratio, where=ok)
    out = np.zeros(n_rows)
    np.log2(ratio, out=out, where=ok)
    return out


def _dependency_block(X: np.ndarray) -> dict[str, np.ndarray]:
    n_rows, length = X.shape
    x0 = X - X.mean(axis=1, keepdims=True)
    denom = np.einsum("ij,ij->i", x0, x0)
    fz_max_lag = min(length // 2, 128) if length > 4 else length - 1
    acf = _acf_matrix(x0, denom, max(20, fz_max_lag - 1))

    feats: dict[str, np.ndarray] = {}
    lags = (1, 2, 3, 5, 10, 20)
    for lag in lags:
        feats[f"dep_acf_lag{lag}"] = acf[:, lag]
    # First zero crossing: first lag where the ACF drops from >0 to <=0.
    first_zero = np.zeros(n_rows)
    if fz_max_lag > 1:
        cur = acf[:, 1:fz_max_lag]
        prev = np.concatenate([np.ones((n_rows, 1), dtype=cur.dtype), cur[:, :-1]], axis=1)
        cond = (prev > 0) & (cur <= 0)
        hit = cond.any(axis=1)
        first_zero = np.where(hit, (cond.argmax(axis=1) + 1) / fz_max_lag, 0.0)
    feats["dep_acf_first_zero"] = first_zero
    upper = min(11, length)
    feats["dep_acf_energy10"] = (
        (acf[:, 1:upper] ** 2).sum(axis=1) if upper > 1 else np.zeros(n_rows)
    )
    r1, r2 = acf[:, 1], acf[:, 2]
    ok = np.abs(r1) < 1
    safe_denom = np.where(ok, 1 - r1**2, 1.0)
    feats["dep_pacf_lag2"] = np.where(ok, (r2 - r1**2) / safe_denom, 0.0)
    # Nonlinear dependence: lag-1 ACF of the squared centered values.
    sq0 = x0**2
    sq0 = sq0 - sq0.mean(axis=1, keepdims=True)
    sq_denom = np.einsum("ij,ij->i", sq0, sq0)
    if length > 1:
        sq_num = np.einsum("ij,ij->i", sq0[:, :-1], sq0[:, 1:])
        feats["dep_acf_sq_lag1"] = np.divide(
            sq_num, sq_denom, out=np.zeros(n_rows), where=sq_denom != 0
        )
    else:
        feats["dep_acf_sq_lag1"] = np.zeros(n_rows)
    # Spearman rank ACF: Pearson correlation of the rank transforms.
    if length > 2:
        ra = average_ranks(X[:, :-1])
        rb = average_ranks(X[:, 1:])
        ra = ra - ra.mean(axis=1, keepdims=True)
        rb = rb - rb.mean(axis=1, keepdims=True)
        cov = np.einsum("ij,ij->i", ra, rb)
        norm = np.sqrt(
            np.einsum("ij,ij->i", ra, ra) * np.einsum("ij,ij->i", rb, rb)
        )
        rho = np.divide(cov, norm, out=np.full(n_rows, np.nan), where=norm != 0)
        feats["dep_rank_acf_lag1"] = np.where(X.std(axis=1) > 0, rho, 0.0)
    else:
        feats["dep_rank_acf_lag1"] = np.zeros(n_rows)
    diffs = np.diff(X, axis=1) if length > 1 else np.zeros((n_rows, 1), dtype=X.dtype)
    ti_denom = (diffs**2).mean(axis=1) ** 1.5 + 1e-12
    feats["dep_time_irreversibility"] = (diffs**3).mean(axis=1) / ti_denom
    feats["dep_rs_ratio"] = _rs_ratio_block(X)
    feats["dep_acf_mean_abs"] = np.abs(
        np.stack([acf[:, lag] for lag in lags], axis=1)
    ).mean(axis=1)
    return feats


def _seasonality_block(X: np.ndarray) -> np.ndarray:
    n_rows, length = X.shape
    var = X.var(axis=1)
    best = np.zeros(n_rows, dtype=X.dtype)
    for period in (4, 7, 12, 24, 50, 96):
        if period * 2 >= length:
            continue
        seasonal_diff = X[:, period:] - X[:, :-period]
        best = np.maximum(best, 1.0 - seasonal_diff.var(axis=1) / (2 * var))
    return np.where(var > 0, np.clip(best, 0.0, 1.0), 0.0)


def _stationarity_block(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_rows, length = X.shape
    k = max(2, min(8, length // 16))
    chunks = np.array_split(X, k, axis=1)
    means = np.stack([chunk.mean(axis=1) for chunk in chunks], axis=1)
    variances = np.stack([chunk.var(axis=1) for chunk in chunks], axis=1)
    scale = X.std(axis=1) + 1e-12
    return means.std(axis=1) / scale, variances.std(axis=1) / scale**2


def _level_shift_block(X: np.ndarray) -> np.ndarray:
    n_rows, length = X.shape
    w = max(4, length // 12)
    if length < 2 * w:
        return np.zeros(n_rows)
    starts = list(range(0, length - w, w))
    if len(starts) < 2:
        return np.zeros(n_rows)
    means = np.stack([X[:, i : i + w].mean(axis=1) for i in starts], axis=1)
    scale = X.std(axis=1) + 1e-12
    return np.abs(np.diff(means, axis=1)).max(axis=1) / scale


def _polyfit_system(t: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``np.polyfit``'s scaled Vandermonde matrix, column scale and rcond.

    ``np.linalg.lstsq(lhs, y + 0.0, rcond)[0] / scale`` is then exactly
    ``np.polyfit(t, y, degree)``: the same arithmetic, with the design
    built once per block instead of once per row.
    """
    lhs = np.vander(t, degree + 1)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    return lhs, scale, len(t) * np.finfo(t.dtype).eps


def _trend_block(X: np.ndarray, *, cache=None) -> dict[str, np.ndarray]:
    n_rows, length = X.shape
    stds = X.std(axis=1)
    t = np.arange(length, dtype=float)
    slope = np.zeros(n_rows)
    r2 = np.zeros(n_rows)
    resid = X - X.mean(axis=1, keepdims=True)
    fitted = np.flatnonzero(stds > 0)
    if length > 2:
        # Fit per row with a single-RHS lstsq: a multi-RHS lstsq differs
        # from single-RHS at ~1e-16, which is chaotic on exact-polynomial
        # rows (argmax over a numerically-zero residual spectrum).
        lhs, scale, rcond = _polyfit_system(t, 1)
        for i in fitted:
            sl, ic = np.linalg.lstsq(lhs, X[i] + 0.0, rcond)[0] / scale
            resid[i] = X[i] - (sl * t + ic)
            slope[i] = sl
            r2[i] = 1.0 - resid[i].var() / X[i].var()
    feats: dict[str, np.ndarray] = {
        "trend_slope": slope,
        "trend_r2": np.maximum(0.0, r2),
        "trend_resid_std": resid.std(axis=1),
    }
    detrended = resid - resid.mean(axis=1, keepdims=True)

    def _spectrum() -> np.ndarray:
        return np.abs(np.fft.rfft(detrended, axis=1)) ** 2

    key = ("stat_rfft_sq", length)
    spectrum = cache(key, _spectrum) if cache is not None else _spectrum()
    spectrum = spectrum[:, 1:]  # drop DC
    n_bins = spectrum.shape[1]
    spec_entropy = np.ones(n_rows)
    peak_freq = np.zeros(n_rows)
    peak_power = np.zeros(n_rows)
    centroid = np.zeros(n_rows)
    low = np.zeros(n_rows)
    if n_bins:
        total = spectrum.sum(axis=1)
        ok = total > 0
        if ok.any():
            p = spectrum[ok] / total[ok, None]
            spec_entropy[ok] = -(p * np.log(p + 1e-15)).sum(axis=1) / np.log(n_bins)
            peak_idx = np.argmax(spectrum[ok], axis=1)
            peak_freq[ok] = (peak_idx + 1) / length
            peak_power[ok] = p[np.arange(p.shape[0]), peak_idx]
            centroid[ok] = (np.arange(1, n_bins + 1) * p).sum(axis=1) / n_bins
            low[ok] = p[:, : max(1, n_bins // 10)].sum(axis=1)
    feats["trend_spectral_entropy"] = spec_entropy
    feats["trend_peak_freq"] = peak_freq
    feats["trend_peak_power"] = peak_power
    feats["trend_spectral_centroid"] = centroid
    feats["trend_lowfreq_power"] = low
    feats["trend_seasonality_strength"] = _seasonality_block(X)
    mean_drift, var_drift = _stationarity_block(X)
    feats["trend_stat_mean_drift"] = mean_drift
    feats["trend_stat_var_drift"] = var_drift
    feats["trend_level_shift"] = _level_shift_block(X)
    quad = np.zeros(n_rows)
    if length > 3:
        lhs, scale, rcond = _polyfit_system(t, 2)
        for i in fitted:
            quad[i] = np.linalg.lstsq(lhs, X[i] + 0.0, rcond)[0][0] / scale[0]
    feats["trend_curvature"] = quad
    return feats


def statistical_features_block(matrix, *, cache=None) -> dict[str, np.ndarray]:
    """All 40 statistical features over a stack of equal-length rows.

    ``matrix`` is ``(n_series, length)`` with no NaNs — interpolate before
    stacking (``SeriesBank`` and ``FeatureExtractor`` do).  Returns
    ``{name: (n_series,) float64 array}`` in
    :data:`STATISTICAL_FEATURE_NAMES` order.

    ``cache`` is an optional ``cache(key, builder)`` memo (pass
    ``SeriesBank.cached``) used to reuse the detrended periodogram across
    repeated extractions over the same bank.
    """
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValidationError(
            "statistical_features_block expects a non-empty 2-D matrix"
        )
    if not np.isfinite(X).all():
        raise ValidationError(
            "statistical_features_block expects finite rows; interpolate first"
        )
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        feats = _canonical_block(X)
        feats.update(_dependency_block(X))
        feats.update(_trend_block(X, cache=cache))
        return {name: _finite_rows(col) for name, col in feats.items()}


#: Stable ordering of statistical feature names (probe a tiny block once).
STATISTICAL_FEATURE_NAMES: tuple[str, ...] = tuple(
    statistical_features_block(np.sin(np.linspace(0, 6.28, 64))[None, :]).keys()
)
