"""Location and scale estimators, classical and robust.

All estimators accept any one-dimensional sequence of finite reals and are
pure functions of their inputs.  The robust pair consists of the biweight
midvariance (BMID), which down-weights points far from the median in MAD
units, and the quantile conditional variance (QCV), the variance of the order
statistics inside a quantile window [a, b).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateScale,
    EmptySample,
    InsufficientLength,
    InvalidParameter,
    NonFiniteSample,
    WindowTooSmall,
)

__all__ = [
    "BmidConfig",
    "QcvBounds",
    "sample_mean",
    "sample_variance",
    "sample_median",
    "mad",
    "bmid_variance",
    "qcv_variance",
]

_add = np.add.reduce  # np.sum's pairwise sum, less its call overhead


@dataclass(frozen=True)
class BmidConfig:
    """Tuning constant for the biweight midvariance.

    ``c`` scales the MAD in the weight argument U_i = (x_i - med) / (c * MAD).
    The default 9.0 is the standard choice in the robust-statistics
    literature; the MAD here is raw (no consistency normalization).
    """

    c: float = 9.0

    def __post_init__(self):
        if not (self.c > 0):
            raise InvalidParameter(f"BMID constant c must be positive, got {self.c}")


@dataclass(frozen=True)
class QcvBounds:
    """Quantile window (a, b) for the quantile conditional variance.

    The estimator uses order statistics with 1-based ranks floor(N*a)+1
    through floor(N*b).  Defaults trim 10% from each tail.
    """

    a: float = 0.1
    b: float = 0.9

    def __post_init__(self):
        if not (0.0 < self.a < self.b < 1.0):
            raise InvalidParameter(
                f"QCV bounds must satisfy 0 < a < b < 1, got a={self.a}, b={self.b}"
            )

    def window(self, n: int) -> tuple[int, int]:
        """0-based half-open slice [lo, hi) of the sorted sample of size n."""
        return math.floor(n * self.a), math.floor(n * self.b)


def _as_sample(values, min_len: int = 1, what: str = "sample") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise EmptySample(f"{what} is empty")
    if arr.size < min_len:
        raise InsufficientLength(
            f"{what} needs at least {min_len} points, got {arr.size}"
        )
    if not np.all(np.isfinite(arr)):
        raise NonFiniteSample(f"{what} contains NaN or infinite values")
    return arr


def _median_sorted(sorted_values) -> float:
    """Median of an already-sorted list or array."""
    n = len(sorted_values)
    h = n >> 1
    if n & 1:
        return float(sorted_values[h])
    return float((sorted_values[h - 1] + sorted_values[h]) / 2.0)


def _mad_value(values: np.ndarray, med: float) -> float:
    """Raw median absolute deviation about ``med``."""
    return _median_sorted(np.sort(np.abs(values - med)))


def _bmid_core(values: np.ndarray, med: float, mad_val: float, c: float) -> float:
    """Biweight midvariance given precomputed median and MAD (> 0).

    Sums over ``values`` in the order given, the original sample order.  It
    runs once per prefix of a trace scan, so it enters no ``np.errstate``:
    a MAD near the underflow limit sends |u| to inf, outside the weights
    |u| < 1 as it should, and the caller quiets that overflow.
    """
    dev = values - med
    u2 = dev / (c * mad_val)
    u2 *= u2  # fl(u * u) < 1 exactly when |u| < 1
    inside = u2 < 1.0
    d = dev[inside]
    u2 = u2[inside]
    w = 1.0 - u2
    w2 = w * w  # two squarings: w ** 4 would call pow
    num = values.size * _add(d * d * (w2 * w2))
    den = _add(w * (1.0 - 5.0 * u2)) ** 2
    return float(num / den)


def _window_variance(w: np.ndarray) -> float:
    """Mean squared deviation over the QCV window ``w``, a run of sorted
    order statistics (QCV inner kernel)."""
    m = w.size
    d = w - _add(w) / m
    return float(_add(d * d) / m)


def sample_mean(values) -> float:
    """Arithmetic mean."""
    arr = _as_sample(values)
    return float(np.sum(arr) / arr.size)


def sample_variance(values) -> float:
    """Unbiased sample variance (divisor N - 1)."""
    arr = _as_sample(values, min_len=2, what="variance sample")
    mu = np.sum(arr) / arr.size
    d = arr - mu
    return float(np.sum(d * d) / (arr.size - 1))


def sample_median(values) -> float:
    """Middle order statistic; mean of the two central ones for even length."""
    arr = _as_sample(values)
    return _median_sorted(np.sort(arr))


def mad(values) -> float:
    """Raw median absolute deviation from the sample median."""
    arr = _as_sample(values)
    med = _median_sorted(np.sort(arr))
    return _mad_value(arr, med)


def bmid_variance(values, config: BmidConfig | None = None) -> float:
    """Biweight midvariance with weight cutoff |U_i| < 1.

    Raises :class:`DegenerateScale` when the MAD is zero, since every weight
    argument is then undefined; a constant sample carries no scale
    information and callers that scan prefixes must decide how to proceed.
    """
    cfg = config if config is not None else BmidConfig()
    arr = _as_sample(values, min_len=2, what="BMID sample")
    med = _median_sorted(np.sort(arr))
    mad_val = _mad_value(arr, med)
    if mad_val == 0.0:
        raise DegenerateScale("MAD is zero; biweight weights are undefined")
    with np.errstate(over="ignore"):
        return _bmid_core(arr, med, mad_val, cfg.c)


def qcv_variance(values, bounds: QcvBounds | None = None) -> float:
    """Quantile conditional variance over the order-statistic window.

    With window ranks floor(N*a)+1 .. floor(N*b) (1-based), returns the mean
    squared deviation of those order statistics around their own mean.
    """
    b = bounds if bounds is not None else QcvBounds()
    arr = _as_sample(values, what="QCV sample")
    lo, hi = b.window(arr.size)
    if hi - lo < 2:
        raise WindowTooSmall(
            f"QCV window [{b.a}, {b.b}] keeps {hi - lo} of {arr.size} points; "
            "need at least 2"
        )
    return _window_variance(np.sort(arr)[lo:hi])
