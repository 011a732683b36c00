"""Per-row feature oracles: the scalar reference implementations.

The production extractor computes every feature with the block kernels in
:mod:`repro.features.statistical` and :mod:`repro.features.topological`.
These are the original one-series-at-a-time implementations, kept verbatim
so the parity tests can hold every block column to them at 1e-9; the
union-find sublevel pairing and the one-diagram statistics are exact
oracles (the block kernels must match them bit for bit).  They are test
code only; nothing under ``src/`` imports them.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import stats as sps

from repro.exceptions import ValidationError
from repro.features.statistical import average_ranks
from repro.timeseries.series import TimeSeries


# ---------------------------------------------------------------------------
# Statistical features
# ---------------------------------------------------------------------------


def _prepare(series) -> np.ndarray:
    """Coerce to a clean 1-D array (interpolate NaNs, drop non-finite)."""
    if isinstance(series, TimeSeries):
        if series.has_missing:
            series = series.interpolated()
        arr = series.values.astype(float)
    else:
        arr = np.asarray(series, dtype=float)
        if np.isnan(arr).any():
            arr = TimeSeries(arr).interpolated().values
    return arr


def _finite(value: float) -> float:
    """Map NaN/inf from degenerate inputs to 0.0 so vectors stay usable."""
    value = float(value)
    return value if np.isfinite(value) else 0.0


def _autocorrelation(x: np.ndarray, lag: int) -> float:
    n = x.shape[0]
    if lag >= n or lag < 1:
        return 0.0
    x0 = x - x.mean()
    denom = float(x0 @ x0)
    if denom == 0.0:
        return 0.0
    return float(x0[:-lag] @ x0[lag:] / denom)


def canonical_features(series) -> dict[str, float]:
    """Basic distributional and change statistics (13 features)."""
    x = _prepare(series)
    diffs = np.diff(x) if x.shape[0] > 1 else np.zeros(1)
    std = x.std()
    q25, q50, q75 = np.percentile(x, [25, 50, 75])
    span = x.max() - x.min()
    above = (x > x.mean()).mean()
    crossings = 0.0
    if x.shape[0] > 1:
        centered = x - np.median(x)
        crossings = float(np.mean(np.sign(centered[:-1]) != np.sign(centered[1:])))
    return {
        "canon_mean": _finite(x.mean()),
        "canon_std": _finite(std),
        "canon_skew": _finite(sps.skew(x)) if std > 0 else 0.0,
        "canon_kurtosis": _finite(sps.kurtosis(x)) if std > 0 else 0.0,
        "canon_median": _finite(q50),
        "canon_iqr": _finite(q75 - q25),
        "canon_range": _finite(span),
        "canon_cv": _finite(std / (abs(x.mean()) + 1e-12)),
        "canon_above_mean_ratio": _finite(above),
        "canon_abs_diff_mean": _finite(np.abs(diffs).mean()),
        "canon_diff_std": _finite(diffs.std()),
        "canon_median_crossings": _finite(crossings),
        "canon_energy": _finite((x**2).mean()),
    }


def dependency_features(series) -> dict[str, float]:
    """Autocorrelation structure (14 features)."""
    x = _prepare(series)
    n = x.shape[0]
    feats: dict[str, float] = {}
    lags = (1, 2, 3, 5, 10, 20)
    acfs = []
    for lag in lags:
        value = _autocorrelation(x, lag)
        feats[f"dep_acf_lag{lag}"] = _finite(value)
        acfs.append(value)
    # First zero crossing of the ACF (a period proxy).
    first_zero = 0.0
    max_lag = min(n // 2, 128) if n > 4 else n - 1
    prev = 1.0
    for lag in range(1, max_lag):
        cur = _autocorrelation(x, lag)
        if prev > 0 >= cur:
            first_zero = lag / max_lag
            break
        prev = cur
    feats["dep_acf_first_zero"] = _finite(first_zero)
    # Sum of squared ACF over first 10 lags: overall linear memory.
    feats["dep_acf_energy10"] = _finite(
        sum(_autocorrelation(x, lag) ** 2 for lag in range(1, min(11, n)))
    )
    # Partial autocorrelation at lag 2 via Durbin-Levinson.
    r1, r2 = _autocorrelation(x, 1), _autocorrelation(x, 2)
    pacf2 = (r2 - r1**2) / (1 - r1**2) if abs(r1) < 1 else 0.0
    feats["dep_pacf_lag2"] = _finite(pacf2)
    # Nonlinear dependence: autocorrelation of squared (centered) values.
    xc = x - x.mean()
    feats["dep_acf_sq_lag1"] = _finite(_autocorrelation(xc**2, 1))
    # Mutual-information proxy: correlation between x_t and x_{t+1} ranks.
    if n > 2 and x.std() > 0:
        rho = sps.spearmanr(x[:-1], x[1:]).statistic
    else:
        rho = 0.0
    feats["dep_rank_acf_lag1"] = _finite(rho)
    # Time irreversibility (third-order moment of diffs).
    diffs = np.diff(x) if n > 1 else np.zeros(1)
    denom = (diffs**2).mean() ** 1.5 + 1e-12
    feats["dep_time_irreversibility"] = _finite((diffs**3).mean() / denom)
    # Hurst-style rescaled-range proxy on two scales.
    feats["dep_rs_ratio"] = _finite(_rescaled_range_ratio(x))
    feats["dep_acf_mean_abs"] = _finite(float(np.mean(np.abs(acfs))))
    return feats


def _rescaled_range_ratio(x: np.ndarray) -> float:
    """log2(R/S at full length / R/S at half length) — long-memory proxy."""
    def rs(seg: np.ndarray) -> float:
        if seg.shape[0] < 4:
            return 0.0
        dev = np.cumsum(seg - seg.mean())
        r = dev.max() - dev.min()
        s = seg.std()
        return r / s if s > 0 else 0.0

    full = rs(x)
    half = (rs(x[: x.shape[0] // 2]) + rs(x[x.shape[0] // 2 :])) / 2
    if half <= 0 or full <= 0:
        return 0.0
    return float(np.log2(full / half))


def trend_features(series) -> dict[str, float]:
    """Seasonality, spectrum, stationarity, and linear trend (13 features)."""
    x = _prepare(series)
    n = x.shape[0]
    feats: dict[str, float] = {}
    t = np.arange(n, dtype=float)
    # Linear trend fit.
    if n > 2 and x.std() > 0:
        slope, intercept = np.polyfit(t, x, 1)
        resid = x - (slope * t + intercept)
        r2 = 1.0 - resid.var() / x.var()
    else:
        slope, r2, resid = 0.0, 0.0, x - x.mean()
    feats["trend_slope"] = _finite(slope)
    feats["trend_r2"] = _finite(max(0.0, r2))
    feats["trend_resid_std"] = _finite(resid.std())
    # Spectral features from the periodogram of the detrended series.
    detrended = resid - resid.mean()
    spectrum = np.abs(np.fft.rfft(detrended)) ** 2
    spectrum = spectrum[1:]  # drop DC
    if spectrum.size and spectrum.sum() > 0:
        p = spectrum / spectrum.sum()
        spec_entropy = float(-(p * np.log(p + 1e-15)).sum() / np.log(p.size))
        peak_idx = int(np.argmax(spectrum))
        peak_freq = (peak_idx + 1) / n
        peak_power = float(p[peak_idx])
        centroid = float((np.arange(1, p.size + 1) * p).sum() / p.size)
        low = p[: max(1, p.size // 10)].sum()
    else:
        spec_entropy, peak_freq, peak_power, centroid, low = 1.0, 0.0, 0.0, 0.0, 0.0
    feats["trend_spectral_entropy"] = _finite(spec_entropy)
    feats["trend_peak_freq"] = _finite(peak_freq)
    feats["trend_peak_power"] = _finite(peak_power)
    feats["trend_spectral_centroid"] = _finite(centroid)
    feats["trend_lowfreq_power"] = _finite(low)
    # Seasonality strength via best seasonal-difference variance reduction.
    feats["trend_seasonality_strength"] = _finite(_seasonality_strength(x))
    # Stationarity: variance of windowed means / windowed variances.
    feats["trend_stat_mean_drift"], feats["trend_stat_var_drift"] = _stationarity(x)
    # Step-change detection: max jump of windowed means (perturbation proxy).
    feats["trend_level_shift"] = _finite(_level_shift(x))
    # Curvature (quadratic coefficient) of the global fit.
    if n > 3 and x.std() > 0:
        quad = np.polyfit(t, x, 2)[0]
    else:
        quad = 0.0
    feats["trend_curvature"] = _finite(quad)
    return feats


def _seasonality_strength(x: np.ndarray) -> float:
    n = x.shape[0]
    best = 0.0
    var = x.var()
    if var == 0:
        return 0.0
    for period in (4, 7, 12, 24, 50, 96):
        if period * 2 >= n:
            continue
        seasonal_diff = x[period:] - x[:-period]
        strength = 1.0 - seasonal_diff.var() / (2 * var)
        best = max(best, strength)
    return max(0.0, min(1.0, best))


def _stationarity(x: np.ndarray) -> tuple[float, float]:
    n = x.shape[0]
    k = max(2, min(8, n // 16))
    windows = np.array_split(x, k)
    means = np.array([w.mean() for w in windows])
    variances = np.array([w.var() for w in windows])
    scale = x.std() + 1e-12
    mean_drift = means.std() / scale
    var_drift = variances.std() / (scale**2)
    return _finite(mean_drift), _finite(var_drift)


def _level_shift(x: np.ndarray) -> float:
    n = x.shape[0]
    w = max(4, n // 12)
    if n < 2 * w:
        return 0.0
    means = np.array([x[i : i + w].mean() for i in range(0, n - w, w)])
    if means.size < 2:
        return 0.0
    scale = x.std() + 1e-12
    return float(np.abs(np.diff(means)).max() / scale)


def statistical_features(series) -> dict[str, float]:
    """All statistical features: canonical + dependencies + trends (40 total)."""
    feats = canonical_features(series)
    feats.update(dependency_features(series))
    feats.update(trend_features(series))
    return feats


# ---------------------------------------------------------------------------
# Topological features
# ---------------------------------------------------------------------------


class _UnionFind:
    """Union-find with elder rule: merging keeps the earlier-born root.

    ``parent``/``birth`` are plain Python lists: the filtration loop in
    :func:`_sublevel_pairs` touches single elements millions of times
    per corpus, and numpy scalar indexing (boxing each element into a
    0-d array) made that the sublevel-persistence hot spot.  List
    indexing returns native ints/floats with no boxing.
    """

    __slots__ = ("parent", "birth")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.birth = [float("inf")] * n

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    def union(self, i: int, j: int, death: float) -> tuple[float, float] | None:
        """Merge components of i and j; return (birth, death) of the dying one."""
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return None
        # Elder rule: the younger component (larger birth) dies.
        if self.birth[ri] > self.birth[rj]:
            ri, rj = rj, ri
        dying_birth = self.birth[rj]
        self.parent[rj] = ri
        return (dying_birth, death)


def _sublevel_pairs(values: list, order: list) -> list[tuple[float, float]]:
    """Finite (birth, death) pairs of the sublevel-set filtration.

    ``values``/``order`` are plain Python lists (see :class:`_UnionFind` on
    why).  The reference for the interval sweep in
    :func:`repro.features.topological._sublevel_pairs`, which must return
    exactly this list.
    """
    n = len(values)
    uf = _UnionFind(n)
    active = [False] * n
    birth = uf.birth
    pairs: list[tuple[float, float]] = []
    for idx in order:
        value = values[idx]
        birth[idx] = value
        active[idx] = True
        for nb in (idx - 1, idx + 1):
            if 0 <= nb < n and active[nb]:
                died = uf.union(idx, nb, value)
                if died is not None and died[1] > died[0]:
                    pairs.append(died)
    return pairs


def _diagram_stats(diagram: np.ndarray, prefix: str) -> dict[str, float]:
    """Summaries of one diagram: lifetime distribution + entropy.

    The reference for the grouped ``_diagram_stats_block`` calls in
    :func:`repro.features.topological.topological_features_block`, which
    must give the same bytes per row.
    """
    if diagram.shape[0] == 0:
        keys = (
            "count", "life_mean", "life_std", "life_max", "life_sum",
            "life_q75", "entropy", "top_ratio",
        )
        return {f"{prefix}_{k}": 0.0 for k in keys}
    lifetimes = diagram[:, 1] - diagram[:, 0]
    total = lifetimes.sum()
    if total > 0:
        p = lifetimes / total
        entropy = float(-(p * np.log(p + 1e-15)).sum() / np.log(max(2, p.size)))
        top_ratio = float(lifetimes.max() / total)
    else:
        entropy, top_ratio = 0.0, 0.0
    return {
        f"{prefix}_count": float(np.log1p(diagram.shape[0])),
        f"{prefix}_life_mean": float(lifetimes.mean()),
        f"{prefix}_life_std": float(lifetimes.std()),
        f"{prefix}_life_max": float(lifetimes.max()),
        f"{prefix}_life_sum": float(np.log1p(total)),
        f"{prefix}_life_q75": float(np.percentile(lifetimes, 75)),
        f"{prefix}_entropy": entropy,
        f"{prefix}_top_ratio": top_ratio,
    }


def delay_embedding(series, dimension: int = 3, delay: int = 2) -> np.ndarray:
    """Time-delay embedding of a series into ``dimension``-D space.

    Returns an array of shape (n_vectors, dimension) where
    ``n_vectors = n - (dimension - 1) * delay``.
    """
    x = _prepare(series)
    if dimension < 1:
        raise ValidationError(f"dimension must be >= 1, got {dimension}")
    if delay < 1:
        raise ValidationError(f"delay must be >= 1, got {delay}")
    n = x.shape[0]
    n_vectors = n - (dimension - 1) * delay
    if n_vectors < 2:
        raise ValidationError(
            f"series of length {n} too short for embedding "
            f"(dimension={dimension}, delay={delay})"
        )
    idx = np.arange(n_vectors)[:, None] + delay * np.arange(dimension)[None, :]
    return x[idx]


def _mst_edge_lengths(points: np.ndarray) -> np.ndarray:
    """Euclidean MST edge lengths via Prim's algorithm (dense, O(n^2))."""
    n = points.shape[0]
    if n < 2:
        return np.empty(0)
    sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = sq[0].copy()
    edges = np.empty(n - 1)
    for k in range(n - 1):
        best_masked = np.where(in_tree, np.inf, best)
        j = int(np.argmin(best_masked))
        edges[k] = np.sqrt(best_masked[j])
        in_tree[j] = True
        best = np.minimum(best, sq[j])
    return np.sort(edges)


def persistence_diagram(
    series,
    kind: str = "sublevel",
    dimension: int = 3,
    delay: int = 2,
    max_points: int = 128,
) -> np.ndarray:
    """Compute a 0-dimensional persistence diagram.

    Parameters
    ----------
    series:
        Input series (faulty input is interpolated first).
    kind:
        ``"sublevel"`` — components of ``{t : x_t <= threshold}`` as the
        threshold sweeps upward (births at local minima, deaths at merges);
        ``"rips"`` — 0-dim Rips diagram of the delay embedding (all births
        at 0, deaths at MST edge lengths).
    dimension, delay:
        Embedding parameters for ``kind="rips"``.
    max_points:
        Subsample cap on the embedded cloud (keeps MST O(max_points^2)).

    Returns
    -------
    Array of shape (n_pairs, 2) with columns (birth, death); the essential
    (never-dying) component is excluded.
    """
    x = _prepare(series)
    if kind == "rips":
        cloud = delay_embedding(x, dimension=dimension, delay=delay)
        if cloud.shape[0] > max_points:
            step = cloud.shape[0] / max_points
            idx = (step * np.arange(max_points)).astype(int)
            cloud = cloud[idx]
        deaths = _mst_edge_lengths(cloud)
        return np.column_stack([np.zeros_like(deaths), deaths])
    if kind != "sublevel":
        raise ValidationError(f"kind must be 'sublevel' or 'rips', got {kind!r}")
    # Pre-convert to native Python ints/floats once: the filtration loop
    # indexes per element, where numpy scalar boxing dominates.
    order = np.argsort(x, kind="stable").tolist()
    pairs = _sublevel_pairs(x.tolist(), order)
    if not pairs:
        return np.empty((0, 2))
    return np.asarray(pairs, dtype=float)


def topological_features(
    series, dimension: int = 3, delay: int = 2
) -> dict[str, float]:
    """Full topological feature vector (16 features).

    Series are z-normalized first so diagram scales are comparable across
    datasets; degenerate (constant or too-short) series yield all-zero
    vectors rather than raising.
    """
    x = _prepare(series)
    std = x.std()
    if std > 0:
        x = (x - x.mean()) / std
    feats: dict[str, float] = {}
    sub = persistence_diagram(x, kind="sublevel")
    feats.update(_diagram_stats(sub, "topo_sub"))
    try:
        rips = persistence_diagram(x, kind="rips", dimension=dimension, delay=delay)
    except ValidationError:
        rips = np.empty((0, 2))
    feats.update(_diagram_stats(rips, "topo_rips"))
    return feats


# ---------------------------------------------------------------------------
# Block-kernel oracles: the family kernels of an earlier release, verbatim.
# Each family recomputed its own row moments, differences and finite-value
# fixes; the fused kernels in ``repro.features`` must give their bytes.
# ---------------------------------------------------------------------------


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


def _mst_edge_lengths_block(sq: np.ndarray) -> np.ndarray:
    """Lockstep Prim over a stack of squared-distance matrices.

    ``sq`` has shape ``(batch, n, n)``; returns ``(batch, n - 1)`` sorted
    edge lengths: dense Prim per stack entry, first-index argmin
    tie-breaking.  ``best`` holds +inf for points already in the tree, so
    each step is one argmin and one row update per stack entry.
    """
    batch, n = sq.shape[0], sq.shape[1]
    if n < 2:
        return np.empty((batch, 0))
    rows_of = sq.reshape(batch * n, n)
    base = np.arange(batch) * n
    # +inf for tree members, 0.0 elsewhere: adding it to a distance row
    # keeps tree members out of the next argmin and leaves the rest exact.
    penalty = np.zeros((batch, n))
    penalty_flat = penalty.reshape(-1)
    penalty_flat[base] = np.inf
    best = sq[:, 0, :] + penalty
    best_flat = best.reshape(-1)
    edges = np.empty((batch, n - 1))
    for k in range(n - 1):
        flat = base + best.argmin(axis=1)
        np.sqrt(best_flat[flat], out=edges[:, k])
        penalty_flat[flat] = np.inf
        row = rows_of[flat]
        row += penalty
        np.minimum(best, row, out=best)
        best_flat[flat] = np.inf
    edges.sort(axis=1)
    return edges


def statistical_block_oracle(matrix) -> dict[str, np.ndarray]:
    """The family kernels above, assembled as the statistical block was."""
    X = np.asarray(matrix, dtype=np.float64)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        feats = _canonical_block(X)
        feats.update(_dependency_block(X))
        feats.update(_trend_block(X))
        return {name: _finite_rows(col) for name, col in feats.items()}


def topological_block_oracle(
    matrix, *, dimension: int = 3, delay: int = 2, max_points: int = 128
) -> dict[str, np.ndarray]:
    """The topological block built from the exact per-row oracles.

    Z-normalization as the block did it; sublevel pairs from the
    union-find; Rips edges from the lockstep Prim over one unchunked
    squared-distance stack; statistics from the one-diagram form.
    """
    X = np.asarray(matrix, dtype=np.float64)
    n_rows, length = X.shape
    stds = X.std(axis=1)
    znorm = np.where(
        (stds > 0)[:, None],
        (X - X.mean(axis=1, keepdims=True)) / np.where(stds > 0, stds, 1.0)[:, None],
        X,
    )
    rows: list[dict[str, float]] = []
    for row in znorm:
        order = np.argsort(row, kind="stable").tolist()
        pairs = _sublevel_pairs(row.tolist(), order)
        diagram = np.asarray(pairs, dtype=float) if pairs else np.empty((0, 2))
        rows.append(_diagram_stats(diagram, "topo_sub"))
    n_vectors = length - (dimension - 1) * delay
    if n_vectors < 2:
        edges = np.empty((n_rows, 0))
    else:
        idx = np.arange(n_vectors)[:, None] + delay * np.arange(dimension)[None, :]
        if n_vectors > max_points:
            idx = idx[(n_vectors / max_points * np.arange(max_points)).astype(int)]
        cloud = znorm[:, idx]
        sq = np.zeros((n_rows, cloud.shape[1], cloud.shape[1]))
        for k in range(dimension):
            diff = cloud[:, :, None, k] - cloud[:, None, :, k]
            sq += diff * diff
        edges = _mst_edge_lengths_block(sq)
    for feats, deaths in zip(rows, edges):
        diagram = np.column_stack([np.zeros_like(deaths), deaths])
        feats.update(_diagram_stats(diagram, "topo_rips"))
    return {name: np.array([feats[name] for feats in rows]) for name in rows[0]}
