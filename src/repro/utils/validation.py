"""Input validation helpers shared across the library.

These functions normalize user input into float ``ndarray``s and raise
:class:`~repro.exceptions.ValidationError` with actionable messages.  NaN is
the library-wide missing-value marker, so "finite" checks explicitly state
whether NaN is permitted.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def check_1d(values, name: str = "values", allow_nan: bool = True) -> np.ndarray:
    """Coerce ``values`` to a 1-D float array.

    Parameters
    ----------
    values:
        Array-like input.
    name:
        Name used in error messages.
    allow_nan:
        When ``False``, reject arrays containing NaN.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if np.isinf(arr).any():
        raise ValidationError(f"{name} contains infinite values")
    if not allow_nan and np.isnan(arr).any():
        raise ValidationError(f"{name} contains NaN but NaN is not allowed here")
    return arr


def check_2d(values, name: str = "values", allow_nan: bool = True) -> np.ndarray:
    """Coerce ``values`` to a 2-D float array (rows = observations)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():  # one pass when the input is clean
        if np.isinf(arr).any():
            raise ValidationError(f"{name} contains infinite values")
        if not allow_nan:
            raise ValidationError(
                f"{name} contains NaN but NaN is not allowed here"
            )
    return arr


def check_finite(arr: np.ndarray, name: str = "values") -> np.ndarray:
    """Require a fully finite array (no NaN, no inf)."""
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be fully finite (no NaN/inf)")
    return arr


def check_positive(value: float, name: str = "value", strict: bool = True) -> float:
    """Require a positive (or non-negative when ``strict=False``) scalar."""
    value = float(value)
    if strict and value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: float, name: str = "value") -> float:
    """Require a scalar in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value
