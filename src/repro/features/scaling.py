"""Feature scaler zoo (the "scaler" leg of a pipeline).

A pipeline is <classifier, hyperparameters, feature scaler> (Section V-A);
the paper's search space includes "60 different feature scaling options".
This module provides nine scaler families with parameterized variants and a
:func:`scaler_search_space` enumerating >= 60 concrete configurations.

All scalers implement ``fit`` / ``transform`` / ``fit_transform`` on 2-D
feature matrices and handle degenerate columns (zero variance) gracefully.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
from scipy.special import ndtri

from repro.exceptions import NotFittedError, RegistryError, ValidationError
from repro.utils.validation import check_2d

_EPS = 1e-12


class BaseScaler(ABC):
    """Abstract scaler with the fit/transform contract."""

    #: Registry key; subclasses must override.
    name: str = "base"

    def __init__(self) -> None:
        self._fitted = False

    def fit(self, X) -> "BaseScaler":
        """Learn scaling statistics from ``X`` (n_samples, n_features)."""
        X = check_2d(X, name="X", allow_nan=False)
        self._fit(X)
        self._fitted = True
        return self

    def transform(self, X) -> np.ndarray:
        """Apply the learned scaling; raises if not fitted."""
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        X = check_2d(X, name="X", allow_nan=False)
        out = self._transform(X)
        return np.where(np.isfinite(out), out, 0.0)

    def fit_transform(self, X) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(X).transform(X)

    @abstractmethod
    def _fit(self, X: np.ndarray) -> None: ...

    @abstractmethod
    def _transform(self, X: np.ndarray) -> np.ndarray: ...

    def get_params(self) -> dict:
        """Public constructor parameters of this scaler instance."""
        return {
            k: v for k, v in vars(self).items() if not k.startswith("_")
        }

    def clone(self) -> "BaseScaler":
        """Fresh unfitted copy with the same parameters."""
        return type(self)(**self.get_params())

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"


class IdentityScaler(BaseScaler):
    """No-op scaler (the 'raw features' option)."""

    name = "identity"

    def _fit(self, X: np.ndarray) -> None:
        pass

    def _transform(self, X: np.ndarray) -> np.ndarray:
        return X.copy()


class StandardScaler(BaseScaler):
    """Zero-mean, unit-variance per feature.

    Parameters
    ----------
    with_mean, with_std:
        Toggle centering / variance scaling independently.
    """

    name = "standard"

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        super().__init__()
        self.with_mean = bool(with_mean)
        self.with_std = bool(with_std)

    def _fit(self, X: np.ndarray) -> None:
        self._mean = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            std = X.std(axis=0)
            std[std < _EPS] = 1.0
            self._std = std
        else:
            self._std = np.ones(X.shape[1])

    def _transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self._mean) / self._std


class MinMaxScaler(BaseScaler):
    """Rescale each feature into [lo, hi].

    Parameters
    ----------
    feature_range:
        Target (lo, hi) interval.
    """

    name = "minmax"

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)):
        super().__init__()
        lo, hi = feature_range
        if hi <= lo:
            raise ValidationError(f"invalid feature_range {feature_range}")
        self.feature_range = (float(lo), float(hi))

    def _fit(self, X: np.ndarray) -> None:
        self._min = X.min(axis=0)
        span = X.max(axis=0) - self._min
        span[span < _EPS] = 1.0
        self._span = span

    def _transform(self, X: np.ndarray) -> np.ndarray:
        lo, hi = self.feature_range
        return lo + (hi - lo) * (X - self._min) / self._span


class RobustScaler(BaseScaler):
    """Center by median, scale by an inter-quantile range.

    Parameters
    ----------
    quantile_range:
        (lower, upper) percentiles defining the scale.
    """

    name = "robust"

    def __init__(self, quantile_range: tuple[float, float] = (25.0, 75.0)):
        super().__init__()
        lo, hi = quantile_range
        if not 0 <= lo < hi <= 100:
            raise ValidationError(f"invalid quantile_range {quantile_range}")
        self.quantile_range = (float(lo), float(hi))

    def _fit(self, X: np.ndarray) -> None:
        lo, hi = self.quantile_range
        self._center = np.median(X, axis=0)
        q_lo, q_hi = np.percentile(X, [lo, hi], axis=0)
        scale = q_hi - q_lo
        scale[scale < _EPS] = 1.0
        self._scale = scale

    def _transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self._center) / self._scale


class MaxAbsScaler(BaseScaler):
    """Scale each feature by its maximum absolute value (preserves sign/zero)."""

    name = "maxabs"

    def _fit(self, X: np.ndarray) -> None:
        scale = np.abs(X).max(axis=0)
        scale[scale < _EPS] = 1.0
        self._scale = scale

    def _transform(self, X: np.ndarray) -> np.ndarray:
        return X / self._scale


class NormalizerScaler(BaseScaler):
    """Normalize each *sample* vector to unit norm (L1, L2, or max).

    Parameters
    ----------
    norm:
        One of ``"l1"``, ``"l2"``, ``"max"``.
    """

    name = "normalizer"

    def __init__(self, norm: str = "l2"):
        super().__init__()
        if norm not in ("l1", "l2", "max"):
            raise ValidationError(f"norm must be l1/l2/max, got {norm!r}")
        self.norm = norm

    def _fit(self, X: np.ndarray) -> None:
        pass  # sample-wise; nothing to learn

    def _transform(self, X: np.ndarray) -> np.ndarray:
        if self.norm == "l1":
            denom = np.abs(X).sum(axis=1, keepdims=True)
        elif self.norm == "l2":
            denom = np.sqrt((X**2).sum(axis=1, keepdims=True))
        else:
            denom = np.abs(X).max(axis=1, keepdims=True)
        denom[denom < _EPS] = 1.0
        return X / denom


class QuantileScaler(BaseScaler):
    """Map each feature through its empirical CDF (rank-gaussian optional).

    Parameters
    ----------
    n_quantiles:
        Resolution of the learned CDF.
    output:
        ``"uniform"`` maps to [0, 1]; ``"normal"`` applies a probit on top.
    """

    name = "quantile"

    def __init__(self, n_quantiles: int = 64, output: str = "uniform"):
        super().__init__()
        if n_quantiles < 2:
            raise ValidationError(f"n_quantiles must be >= 2, got {n_quantiles}")
        if output not in ("uniform", "normal"):
            raise ValidationError(f"output must be uniform/normal, got {output!r}")
        self.n_quantiles = int(n_quantiles)
        self.output = output

    def _fit(self, X: np.ndarray) -> None:
        q = np.linspace(0.0, 100.0, min(self.n_quantiles, X.shape[0]))
        self._refs = np.percentile(X, q, axis=0)
        self._levels = q / 100.0
        self._index_table()

    def _index_table(self) -> None:
        """Per-column search tables for :meth:`_interp`.

        Column ``c``'s refs sit at ``_table[c * width : c * width + m]``,
        padded with ``+inf`` to a power-of-two ``width``, so every column
        is searched at once by a branchless bisection.  Columns whose refs
        are not finite and non-decreasing (and every column when ``m < 2``)
        keep ``np.interp``, whose behaviour there is its own.
        """
        refs, levels = self._refs, self._levels
        m, d = refs.shape
        width = 1 << m.bit_length()
        table = np.full((d, width), np.inf)
        table[:, :m] = refs.T
        slopes = np.zeros((d, width))
        with np.errstate(all="ignore"):
            gaps = np.diff(refs, axis=0)
            # np.interp's slope: (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]).
            slopes[:, : m - 1] = (np.diff(levels)[:, None] / gaps).T
        regular = np.isfinite(refs).all(axis=0) & (gaps >= 0).all(axis=0)
        self._irregular = np.flatnonzero(~regular) if m >= 2 else np.arange(d)
        self._table = table.ravel()
        self._slopes = slopes.ravel()
        starts = np.arange(d) * width
        self._starts = starts
        # Bisection steps as (step, table offset of the probed ref).
        self._probes = [
            (1 << k, starts + ((1 << k) - 1))
            for k in reversed(range(m.bit_length()))
        ]

    def _transform(self, X: np.ndarray) -> np.ndarray:
        out = self._interp(X)
        if self.output == "normal":
            out = ndtri(np.clip(out, 1e-6, 1 - 1e-6))
        return out

    def _interp(self, X: np.ndarray) -> np.ndarray:
        """``np.interp(X[:, c], refs[:, c], levels)`` for every column ``c``
        at once, bit for bit: the same bracket (the last ref ``<= x``), the
        same slope and formula, ``levels[j]`` at an exact ref, the retry
        from the right end on NaN, and the end levels outside the refs."""
        levels, m = self._levels, self._levels.size
        out = np.empty_like(X)
        if m >= 2:
            count = np.zeros(X.shape, dtype=np.intp)  # refs <= x, per cell
            for step, offset in self._probes:
                hit = self._table.take(count + offset) <= X
                np.add(count, step, out=count, where=hit)
            j = count - 1
            inner = np.minimum(np.maximum(j, 0), m - 2)
            cell = inner + self._starts
            lo = self._table.take(cell)
            slope = self._slopes.take(cell)
            flo = levels.take(inner)
            with np.errstate(all="ignore"):
                np.add(slope * (X - lo), flo, out=out)
                retry = np.isnan(out)
                if retry.any():
                    fhi = levels.take(inner + 1)
                    right = slope * (X - self._table.take(cell + 1)) + fhi
                    right = np.where(np.isnan(right) & (flo == fhi), flo, right)
                    out = np.where(retry, right, out)
            out = np.where(X == lo, flo, out)
            out = np.where(j < 0, levels[0], np.where(j >= m - 1, levels[-1], out))
        for c in self._irregular:
            out[:, c] = np.interp(X[:, c], self._refs[:, c], levels)
        return out


class PowerScaler(BaseScaler):
    """Variance-stabilizing transform: signed log or signed sqrt, then standardize.

    Parameters
    ----------
    method:
        ``"log"`` applies sign(x)*log1p(|x|); ``"sqrt"`` applies sign(x)*sqrt(|x|).
    """

    name = "power"

    def __init__(self, method: str = "log"):
        super().__init__()
        if method not in ("log", "sqrt"):
            raise ValidationError(f"method must be log/sqrt, got {method!r}")
        self.method = method

    def _apply(self, X: np.ndarray) -> np.ndarray:
        if self.method == "log":
            return np.sign(X) * np.log1p(np.abs(X))
        return np.sign(X) * np.sqrt(np.abs(X))

    def _fit(self, X: np.ndarray) -> None:
        T = self._apply(X)
        self._mean = T.mean(axis=0)
        std = T.std(axis=0)
        std[std < _EPS] = 1.0
        self._std = std

    def _transform(self, X: np.ndarray) -> np.ndarray:
        return (self._apply(X) - self._mean) / self._std


class PCAScaler(BaseScaler):
    """Standardize then project onto the top principal components.

    Parameters
    ----------
    n_components:
        Either an int (component count) or a float in (0, 1] (fraction of
        the feature count).
    whiten:
        Divide projections by the component singular values.
    """

    name = "pca"

    def __init__(self, n_components: float = 0.5, whiten: bool = False):
        super().__init__()
        if isinstance(n_components, float) and not 0 < n_components <= 1:
            raise ValidationError(
                f"fractional n_components must be in (0, 1], got {n_components}"
            )
        if isinstance(n_components, int) and n_components < 1:
            raise ValidationError(f"n_components must be >= 1, got {n_components}")
        self.n_components = n_components
        self.whiten = bool(whiten)

    def _fit(self, X: np.ndarray) -> None:
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std < _EPS] = 1.0
        self._std = std
        Z = (X - self._mean) / self._std
        n_feats = X.shape[1]
        if isinstance(self.n_components, float):
            k = max(1, int(round(self.n_components * n_feats)))
        else:
            k = min(self.n_components, n_feats)
        k = min(k, min(Z.shape))
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
        self._components = Vt[:k]
        self._singular = np.maximum(s[:k], _EPS)

    def _transform(self, X: np.ndarray) -> np.ndarray:
        Z = (X - self._mean) / self._std
        proj = Z @ self._components.T
        if self.whiten:
            proj = proj / self._singular
        return proj


SCALER_REGISTRY: dict[str, type[BaseScaler]] = {
    cls.name: cls
    for cls in (
        IdentityScaler,
        StandardScaler,
        MinMaxScaler,
        RobustScaler,
        MaxAbsScaler,
        NormalizerScaler,
        QuantileScaler,
        PowerScaler,
        PCAScaler,
    )
}


def available_scalers() -> list[str]:
    """Sorted list of scaler family names."""
    return sorted(SCALER_REGISTRY)


def get_scaler(name: str, **params) -> BaseScaler:
    """Instantiate a scaler family by name."""
    try:
        cls = SCALER_REGISTRY[name]
    except KeyError:
        raise RegistryError(
            f"unknown scaler {name!r}; available: {available_scalers()}"
        ) from None
    return cls(**params)


def scaler_search_space() -> list[tuple[str, dict]]:
    """Enumerate the concrete scaler configurations ModelRace searches.

    Returns (family_name, params) pairs — 62 configurations, mirroring the
    paper's "60 different feature scaling options".
    """
    space: list[tuple[str, dict]] = [("identity", {})]
    space += [
        ("standard", {"with_mean": m, "with_std": s})
        for m in (True, False)
        for s in (True, False)
        if m or s
    ]
    space += [
        ("minmax", {"feature_range": r})
        for r in ((0.0, 1.0), (-1.0, 1.0), (0.0, 0.5), (-0.5, 0.5))
    ]
    space += [
        ("robust", {"quantile_range": q})
        for q in ((25.0, 75.0), (10.0, 90.0), (5.0, 95.0), (30.0, 70.0))
    ]
    space += [("maxabs", {})]
    space += [("normalizer", {"norm": n}) for n in ("l1", "l2", "max")]
    space += [
        ("quantile", {"n_quantiles": n, "output": o})
        for n in (16, 32, 64, 128)
        for o in ("uniform", "normal")
    ]
    space += [("power", {"method": m}) for m in ("log", "sqrt")]
    space += [
        ("pca", {"n_components": c, "whiten": w})
        for c in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.8, 0.9, 0.95, 1.0)
        for w in (True, False)
    ]
    # 1 + 3 + 4 + 4 + 1 + 3 + 8 + 2 + 20 = 46; widen quantile + minmax.
    space += [
        ("minmax", {"feature_range": r})
        for r in ((0.0, 2.0), (-2.0, 2.0), (0.25, 0.75), (-1.0, 0.0))
    ]
    space += [
        ("quantile", {"n_quantiles": n, "output": o})
        for n in (8, 24, 48, 96, 192, 256)
        for o in ("uniform", "normal")
    ]
    return space
