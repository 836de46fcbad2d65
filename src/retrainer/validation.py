"""Input validation helpers.

All converters return C-contiguous float64/int64 arrays so downstream numpy
code never has to re-check dtype or layout.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import InvalidInputError, NotFittedError


def as_point_matrix(X, name: str = "X") -> np.ndarray:
    """Coerce to a finite 2-D float64 array of shape (n, d), n >= 1, d >= 1."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains NaN or infinite entries")
    return np.ascontiguousarray(arr)


def as_binary_labels(y, n: int | None = None, name: str = "y") -> np.ndarray:
    """Coerce to a 1-D int64 array of {0, 1} labels, optionally checking length."""
    arr = np.asarray(y)
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains NaN or infinite entries")
    arr = arr.astype(np.int64, copy=False).ravel()
    if n is not None and arr.size != n:
        raise InvalidInputError(f"{name} has length {arr.size}, expected {n}")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise InvalidInputError(f"{name} must contain only 0/1 labels")
    return np.ascontiguousarray(arr)


def as_count(value, name: str, low: int) -> np.ndarray:
    """Coerce an integer, or an array of integers, to int64 with every entry
    >= ``low``. Floats, bools and strings are refused even when integral, so
    a count of 2.5 is never truncated to 2."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iu":
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if np.any(arr < low):
        raise InvalidInputError(f"{name} must be >= {low}")
    return arr.astype(np.int64, copy=False)


def check_number(value, name: str) -> None:
    """Refuse a value that is not a real number; bools are refused too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")


def check_same_dim(d_expected: int, d_got: int, name: str = "input") -> None:
    if d_expected != d_got:
        raise InvalidInputError(
            f"{name} has dimensionality {d_got}, expected {d_expected}"
        )


def check_fitted(estimator, attribute: str = "n_features_in_") -> None:
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() first"
        )
