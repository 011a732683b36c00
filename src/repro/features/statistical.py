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

A block does its shared work once: one moments pass and one ``np.diff``
(:class:`_Rows`), one ACF divide over all lags, one reduction per chunk
width, one finite-value fix over the stacked columns.  Each repeats
numpy's own arithmetic, so the bytes are those of the per-family kernels
kept as oracles in ``tests/feature_oracles.py``.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

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


def _row_mean(A: np.ndarray) -> np.ndarray:
    """``A.mean(axis=1)`` (a bool stack's sums are exact counts): the same
    row sum and divide, without the method's Python-level dispatch."""
    return np.add.reduce(A, axis=1) / A.shape[1]


def _moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, centered rows and variances over the last axis: the bytes
    of ``X.mean``, ``X - X.mean(keepdims=True)`` and ``X.var`` (numpy's
    variance is the mean of the squared centered rows).  A ``(n, k, w)``
    stack of equal-width windows gives each window's bytes."""
    length = X.shape[-1]
    means = np.add.reduce(X, axis=-1) / length
    centered = X - means[..., None]
    var = np.add.reduce(centered * centered, axis=-1) / length
    return means, centered, var


class _Rows(NamedTuple):
    """What every family of one block shares, computed once."""

    X: np.ndarray
    means: np.ndarray
    centered: np.ndarray  # X - means
    squares: np.ndarray  # centered ** 2
    var: np.ndarray
    std: np.ndarray
    diffs: np.ndarray  # first differences; one zero column for length 1

    @classmethod
    def of(cls, X: np.ndarray) -> "_Rows":
        means = _row_mean(X)
        centered = X - means[:, None]
        squares = centered * centered
        var = _row_mean(squares)  # _moments' arithmetic, keeping the squares
        n_rows, length = X.shape
        diffs = np.diff(X, axis=1) if length > 1 else np.zeros((n_rows, 1))
        return cls(X, means, centered, squares, var, np.sqrt(var), diffs)


def _acf(x0: np.ndarray, denom: np.ndarray, max_lag: int) -> np.ndarray:
    """ACF of pre-centered rows at lags ``0..max_lag`` (column 0 unused).

    Rows with zero energy (``denom == 0``) and lags ``>= length`` yield
    0.0.  The lag products are summed per lag; one divide normalizes all.
    """
    n_rows, length = x0.shape
    num = np.zeros((n_rows, max_lag + 1))
    for lag in range(1, min(max_lag, length - 1) + 1):
        num[:, lag] = np.einsum("ij,ij->i", x0[:, :-lag], x0[:, lag:])
    safe = (denom != 0)[:, None]
    return np.divide(num, denom[:, None], out=np.zeros_like(num), where=safe)


def _skew_kurtosis(rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
    """Biased skewness and excess kurtosis per row.

    The same central-moment arithmetic as ``scipy.stats.skew`` /
    ``scipy.stats.kurtosis`` (m3/m2^1.5 and m4/m2^2 - 3, NaN where m2 is
    numerically zero), without scipy's per-call array-API dispatch,
    which cost more than the moments themselves on small blocks.
    """
    d, d2, m2 = rows.centered, rows.squares, rows.var
    m3 = _row_mean(d2 * d)
    m4 = _row_mean(d2 * d2)
    flat = m2 <= (np.finfo(np.float64).eps * rows.means) ** 2
    skew = np.where(flat, np.nan, m3 / m2**1.5)
    kurtosis = np.where(flat, np.nan, m4 / m2**2.0) - 3.0
    return skew, kurtosis


def _canonical(rows: _Rows) -> dict[str, np.ndarray]:
    X, means, stds, diffs = rows.X, rows.means, rows.std, rows.diffs
    n_rows, length = X.shape
    q25, q50, q75 = np.percentile(X, [25, 50, 75], axis=1)
    crossings = np.zeros(n_rows)
    if length > 1:
        signs = np.sign(X - np.median(X, axis=1, keepdims=True))
        crossings = _row_mean(signs[:, :-1] != signs[:, 1:])
    gate = stds > 0
    skew, kurtosis = _skew_kurtosis(rows)
    return {
        "canon_mean": means,
        "canon_std": stds,
        "canon_skew": np.where(gate, skew, 0.0),
        "canon_kurtosis": np.where(gate, kurtosis, 0.0),
        "canon_median": q50,
        "canon_iqr": q75 - q25,
        "canon_range": X.max(axis=1) - X.min(axis=1),
        "canon_cv": stds / (np.abs(means) + 1e-12),
        "canon_above_mean_ratio": _row_mean(X > means[:, None]),
        "canon_abs_diff_mean": _row_mean(np.abs(diffs)),
        "canon_diff_std": np.sqrt(_moments(diffs)[2]),
        "canon_median_crossings": crossings,
        "canon_energy": _row_mean(X * X),
    }


def _rescaled_range(centered: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Rescaled range R/S per row (0.0 when too short or constant)."""
    n_rows, length = centered.shape
    if length < 4:
        return np.zeros(n_rows)
    dev = np.cumsum(centered, axis=1)
    spread = dev.max(axis=1) - dev.min(axis=1)
    scale = np.sqrt(var)
    return np.divide(spread, scale, out=np.zeros(n_rows), where=scale > 0)


def _rs_ratio(rows: _Rows) -> np.ndarray:
    X = rows.X
    n_rows, length = X.shape
    full = _rescaled_range(rows.centered, rows.var)
    left, right = (_moments(h)[1:] for h in (X[:, : length // 2], X[:, length // 2 :]))
    half = (_rescaled_range(*left) + _rescaled_range(*right)) / 2
    ok = (full > 0) & (half > 0)
    ratio = np.ones(n_rows)
    np.divide(full, half, out=ratio, where=ok)
    out = np.zeros(n_rows)
    np.log2(ratio, out=out, where=ok)
    return out


def _dependency(rows: _Rows) -> dict[str, np.ndarray]:
    X, x0, diffs = rows.X, rows.centered, rows.diffs
    n_rows, length = X.shape
    denom = np.einsum("ij,ij->i", x0, x0)
    fz_max_lag = min(length // 2, 128) if length > 4 else length - 1
    acf = _acf(x0, denom, max(20, fz_max_lag - 1))

    feats: dict[str, np.ndarray] = {}
    lags = [1, 2, 3, 5, 10, 20]
    for lag in lags:
        feats[f"dep_acf_lag{lag}"] = acf[:, lag]
    # First zero crossing: first lag where the ACF drops from >0 to <=0.
    first_zero = np.zeros(n_rows)
    if fz_max_lag > 1:
        cur = acf[:, 1:fz_max_lag]
        prev = np.concatenate([np.ones((n_rows, 1)), cur[:, :-1]], axis=1)
        cond = (prev > 0) & (cur <= 0)
        hit = cond.any(axis=1)
        first_zero = np.where(hit, (cond.argmax(axis=1) + 1) / fz_max_lag, 0.0)
    feats["dep_acf_first_zero"] = first_zero
    upper = min(11, length)
    head = acf[:, 1:upper]
    feats["dep_acf_energy10"] = (
        np.add.reduce(head * head, axis=1) if upper > 1 else np.zeros(n_rows)
    )
    r1, r2 = acf[:, 1], acf[:, 2]
    ok = np.abs(r1) < 1
    safe_denom = np.where(ok, 1 - r1**2, 1.0)
    feats["dep_pacf_lag2"] = np.where(ok, (r2 - r1**2) / safe_denom, 0.0)
    # Nonlinear dependence: lag-1 ACF of the squared centered values,
    # whose row mean is the variance.
    sq0 = rows.squares - rows.var[:, None]
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
        ra = ra - _row_mean(ra)[:, None]
        rb = rb - _row_mean(rb)[:, None]
        cov = np.einsum("ij,ij->i", ra, rb)
        norm = np.sqrt(
            np.einsum("ij,ij->i", ra, ra) * np.einsum("ij,ij->i", rb, rb)
        )
        rho = np.divide(cov, norm, out=np.full(n_rows, np.nan), where=norm != 0)
        feats["dep_rank_acf_lag1"] = np.where(rows.std > 0, rho, 0.0)
    else:
        feats["dep_rank_acf_lag1"] = np.zeros(n_rows)
    ti_denom = _row_mean(diffs * diffs) ** 1.5 + 1e-12
    feats["dep_time_irreversibility"] = _row_mean(diffs**3) / ti_denom
    feats["dep_rs_ratio"] = _rs_ratio(rows)
    feats["dep_acf_mean_abs"] = _row_mean(np.abs(acf[:, lags]))
    return feats


def _seasonality(rows: _Rows) -> np.ndarray:
    X, var = rows.X, rows.var
    length = X.shape[1]
    best = np.zeros(X.shape[0])
    for period in (4, 7, 12, 24, 50, 96):
        if period * 2 >= length:
            continue
        diff_var = _moments(X[:, period:] - X[:, :-period])[2]
        best = np.maximum(best, 1.0 - diff_var / (2 * var))
    return np.where(var > 0, np.clip(best, 0.0, 1.0), 0.0)


def _stationarity(rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
    """Drift of the means and variances of ``np.array_split``'s ``k``
    chunks: ``length % k`` one wider than the rest, reduced per width."""
    X = rows.X
    n_rows, length = X.shape
    k = max(2, min(8, length // 16))
    width, wide = divmod(length, k)
    split = wide * (width + 1)
    broad = _moments(X[:, :split].reshape(n_rows, wide, width + 1))
    narrow = _moments(X[:, split:].reshape(n_rows, k - wide, width))
    means = np.concatenate([broad[0], narrow[0]], axis=1)
    variances = np.concatenate([broad[2], narrow[2]], axis=1)
    scale = rows.std + 1e-12
    spreads = np.sqrt(_moments(means)[2]), np.sqrt(_moments(variances)[2])
    return spreads[0] / scale, spreads[1] / scale**2


def _level_shift(rows: _Rows) -> np.ndarray:
    """Largest jump between the means of consecutive width-``w`` windows
    (the windows start at ``0, w, ...`` below ``length - w``)."""
    X = rows.X
    n_rows, length = X.shape
    w = max(4, length // 12)
    n_windows = (length - 1) // w
    if length < 2 * w or n_windows < 2:
        return np.zeros(n_rows)
    windows = X[:, : n_windows * w].reshape(n_rows, n_windows, w)
    means = np.add.reduce(windows, axis=2) / w
    return np.abs(np.diff(means, axis=1)).max(axis=1) / (rows.std + 1e-12)


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


def _trend(rows: _Rows, cache=None) -> dict[str, np.ndarray]:
    X = rows.X
    n_rows, length = X.shape
    t = np.arange(length, dtype=float)
    slope = np.zeros(n_rows)
    quad = np.zeros(n_rows)
    resid = rows.centered.copy()
    fitted = np.flatnonzero(rows.std > 0) if length > 2 else np.empty(0, int)
    if fitted.size:
        # Fit per row with a single-RHS lstsq: a multi-RHS lstsq differs
        # from single-RHS at ~1e-16, which is chaotic on exact-polynomial
        # rows (argmax over a numerically-zero residual spectrum).
        lhs1, scale1, rcond1 = _polyfit_system(t, 1)
        lhs2, scale2, rcond2 = _polyfit_system(t, 2)
        for i in fitted:
            y = X[i] + 0.0
            sl, ic = np.linalg.lstsq(lhs1, y, rcond1)[0] / scale1
            resid[i] = X[i] - (sl * t + ic)
            slope[i] = sl
            if length > 3:
                quad[i] = np.linalg.lstsq(lhs2, y, rcond2)[0][0] / scale2[0]
    _, detrended, resid_var = _moments(resid)
    r2 = np.zeros(n_rows)
    r2[fitted] = 1.0 - resid_var[fitted] / rows.var[fitted]
    feats: dict[str, np.ndarray] = {
        "trend_slope": slope,
        "trend_r2": np.maximum(0.0, r2),
        "trend_resid_std": np.sqrt(resid_var),
    }

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
    feats["trend_seasonality_strength"] = _seasonality(rows)
    mean_drift, var_drift = _stationarity(rows)
    feats["trend_stat_mean_drift"] = mean_drift
    feats["trend_stat_var_drift"] = var_drift
    feats["trend_level_shift"] = _level_shift(rows)
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
        rows = _Rows.of(X)
        feats = _canonical(rows)
        feats.update(_dependency(rows))
        feats.update(_trend(rows, cache))
        # NaN/inf from degenerate rows -> 0.0, over all columns at once.
        columns = np.array(list(feats.values()))
        np.copyto(columns, 0.0, where=~np.isfinite(columns))
        return dict(zip(feats, columns))


#: Stable ordering of statistical feature names (probe a tiny block once).
STATISTICAL_FEATURE_NAMES: tuple[str, ...] = tuple(
    statistical_features_block(np.sin(np.linspace(0, 6.28, 64))[None, :]).keys()
)
