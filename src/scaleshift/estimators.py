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
        if self.c == math.inf:
            raise InvalidParameter("BMID constant c must be finite, got inf")


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

    def window(self, n):
        """0-based half-open slice [lo, hi) of the sorted sample of size n;
        elementwise, as two lists, for an integer array of sizes."""
        lo, hi = (np.floor(n * q).astype(int).tolist() for q in (self.a, self.b))
        return lo, hi


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
    """Median of an already-sorted list or array.  The mean of the two
    middle values is taken as Python floats, so it never warns, and as
    a / 2 + b / 2 where a + b is past the float range, so it stays
    finite; that sum's halves are normal, so both forms round alike."""
    n = len(sorted_values)
    h = n >> 1
    if n & 1:
        return float(sorted_values[h])
    a, b = float(sorted_values[h - 1]), float(sorted_values[h])
    total = a + b
    if not math.isfinite(total) and math.isfinite(a) and math.isfinite(b):
        return a / 2 + b / 2
    return total / 2


def _mad_value(values: np.ndarray, med: float) -> float:
    """Raw median absolute deviation about ``med``."""
    return _median_sorted(np.sort(np.abs(values - med)))


# A BMID evaluation runs its rows a block at a time: a block's rows
# times its largest prefix length stay within this many cells, though a
# single row may pass it alone.
BMID_BLOCK_CELLS = 1 << 14


def _bmid_block(values: np.ndarray, ns, meds, k, big, sums) -> None:
    """The two biweight sums of the prefixes ``values[:n]``, one row per
    n in the increasing ``ns``, given each prefix's median, its k and
    whether :func:`_bmid_rows` rescaled it: row b's sum(w (5w - 4)) and
    sum(min(u^2, 1) w^4) go to ``sums[b]``.

    With u = (x - med) / k, every point is weighted by w = 1 - min(u^2, 1),
    in the order given, the original sample order; a point with
    fl(u^2) >= 1 adds exact zeros, so the sums are the textbook ones over
    |u| < 1.  d^2 w^4 is written k^2 min(u^2, 1) w^4 and w (1 - 5u^2) as
    w (5w - 4), so no term is inf * 0 even where x - med overflows.

    The elementwise chain runs once over a (2, rows, max n) block, each
    row's median and k broadcast; the cells past a row's n are never
    summed.  Each row's two sums are one ``np.add.reduce`` over its first
    n cells, numpy's pairwise sum for length n, so a row is bit for bit
    the 1-D evaluation of its prefix alone.  It runs under the
    ``np.errstate`` of :func:`_bmid_rows`, where a MAD near the underflow
    limit sends |u| to inf, outside the weights as it should, and a zero
    MAD's row computes NaN that is flagged there.
    """
    x = values[: ns[-1]]
    if big.any():  # the rows past the float range, in units of 2^64
        s = np.where(big, 2.0**-64, 1.0)
        x, meds = x * s[:, None], meds * s
    terms = np.empty((2, len(ns), x.shape[-1]))
    t, m = terms
    np.subtract(x, meds[:, None], out=m)
    m /= k[:, None]
    m *= m
    np.minimum(m, 1.0, out=m)  # fl(u * u) < 1 exactly when |u| < 1
    w = 1.0 - m
    np.multiply(w, 5.0, out=t)
    t -= 4.0
    t *= w
    w *= w
    w *= w  # two squarings: w ** 4 would call pow
    m *= w
    for b, n in enumerate(ns):
        _add(terms[:, b, :n], 1, out=sums[b])


def _bmid_rows(values: np.ndarray, ns, meds: np.ndarray, mads: np.ndarray, c: float):
    """Biweight midvariances of the prefixes ``values[:n]``, one row per
    n in the increasing list ``ns``, given each prefix's median and MAD;
    and whether each row is degenerate (zero MAD or zero weight sum,
    variance 0 in its place).  :func:`bmid_variance` passes one row and
    the trace scan all of its prefixes, so both give the same bits.

    k = c * MAD.  A row whose k is past the float range takes k from its
    MAD scaled by 2^-64, exactly, and :func:`_bmid_block` scales its
    sample and median likewise, so u is unchanged and the variance comes
    back by 2^128.  The rows go to :func:`_bmid_block` a block at a time,
    as many as keep rows times the block's largest n within
    ``BMID_BLOCK_CELLS``.  The dimensionless ratio
    n sum(u^2 w^4) / sum(w (5w - 4))^2 is formed before it is scaled by k
    twice, so the result overflows only where the variance does.  It
    underflows where it should not only when u^2 does for every weighted
    point, k some 1e154 times their deviations."""
    count = len(ns)
    sums = np.empty((count, 2))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k = c * mads
        big = k == math.inf
        back = 1.0
        if big.any():
            k[big] = c * (mads[big] * 2.0**-64)
            back = np.where(big, 2.0**128, 1.0)
        start = 0
        for stop in range(1, count + 1):
            if stop == count or (stop + 1 - start) * ns[stop] > BMID_BLOCK_CELLS:
                rows = slice(start, stop)
                _bmid_block(
                    values, ns[rows], meds[rows], k[rows], big[rows], sums[rows]
                )
                start = stop
        den, num = sums.T
        var = np.asarray(ns) * num / (den * den) * k * k * back
    flat = (mads == 0.0) | (den == 0.0)
    return np.where(flat, 0.0, var), flat


def _window_variance(w: np.ndarray, d: np.ndarray, ddof: int = 0) -> float:
    """Mean squared deviation of ``w`` about its mean, with divisor
    ``w.size - ddof``: QCV's inner kernel over a window of sorted order
    statistics, and the sample variance with ``ddof=1``.  ``d``, at
    least as long as ``w``, holds the deviations, so a trace scan reuses
    one buffer.

    A finite result of the two-pass formula is returned as it is.  That
    formula also overflows where only the sum or one squared deviation
    does (``np.full(10, 1e308)`` sums to inf); there the deviations about
    the middle element are halved, scaled into [-1, 1] by the power of
    two above the largest of them, squared and scaled back, so the
    result is inf only where the variance itself overflows.  It runs
    once per prefix of a trace scan, so it enters no ``np.errstate``:
    the caller quiets the two-pass formula's overflow, and the rescue
    raises none."""
    m = w.size
    d = np.subtract(w, _add(w) / m, out=d[:m])
    d *= d
    var = float(_add(d) / (m - ddof))
    if var < math.inf:
        return var
    # halved, no difference of two values overflows
    h = w * 0.5
    d = h - h[m >> 1]
    p = math.frexp(np.abs(d).max())[1]  # |d| < 2^p, or d is all zero
    d *= math.ldexp(1.0, -p)
    d -= _add(d) / m
    try:
        return math.ldexp(float(_add(d * d) / (m - ddof)), 2 * p + 2)
    except OverflowError:  # the variance is past the float range
        return math.inf


def sample_mean(values) -> float:
    """Arithmetic mean.  Where the sum overflows, the values are summed
    scaled by the power of two above the largest of them, so the mean is
    finite and quiet; elsewhere it is the plain sum over N."""
    arr = _as_sample(values)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(_add(arr) / arr.size)
        if math.isfinite(mean):
            return mean
        p = math.frexp(np.abs(arr).max())[1]
        return float(np.ldexp(_add(arr * math.ldexp(1.0, -p)) / arr.size, p))


def sample_variance(values) -> float:
    """Unbiased sample variance (divisor N - 1), inf only where the
    variance itself is past the float range."""
    arr = _as_sample(values, min_len=2, what="variance sample")
    with np.errstate(over="ignore", invalid="ignore"):
        return _window_variance(arr, np.empty(arr.size), ddof=1)


def sample_median(values) -> float:
    """Middle order statistic; mean of the two central ones for even length."""
    arr = _as_sample(values)
    return _median_sorted(np.sort(arr))


def mad(values) -> float:
    """Raw median absolute deviation from the sample median."""
    arr = _as_sample(values)
    med = _median_sorted(np.sort(arr))
    with np.errstate(over="ignore"):  # a deviation past the float range is inf
        return _mad_value(arr, med)


def bmid_variance(values, config: BmidConfig | None = None) -> float:
    """Biweight midvariance with weight cutoff |U_i| < 1.

    Raises :class:`DegenerateScale` when the MAD is zero, since every weight
    argument is then undefined, or when the denominator's weight sum is
    zero; a constant sample carries no scale information and callers that
    scan prefixes must decide how to proceed.
    """
    cfg = config if config is not None else BmidConfig()
    arr = _as_sample(values, min_len=2, what="BMID sample")
    med = _median_sorted(np.sort(arr))
    with np.errstate(over="ignore"):
        mad_val = _mad_value(arr, med)
    if mad_val == 0.0:
        raise DegenerateScale("MAD is zero; biweight weights are undefined")
    var, flat = _bmid_rows(
        arr, [arr.size], np.array([med]), np.array([mad_val]), cfg.c
    )
    if flat[0]:
        raise DegenerateScale("biweight weights sum to zero; no point has |u| < 1")
    return float(var[0])


def qcv_variance(values, bounds: QcvBounds | None = None) -> float:
    """Quantile conditional variance over the order-statistic window.

    With window ranks floor(N*a)+1 .. floor(N*b) (1-based), returns the mean
    squared deviation of those order statistics around their own mean, or
    inf, quietly, where that overflows.
    """
    b = bounds if bounds is not None else QcvBounds()
    arr = _as_sample(values, what="QCV sample")
    lo, hi = b.window(arr.size)
    if hi - lo < 2:
        raise WindowTooSmall(
            f"QCV window [{b.a}, {b.b}] keeps {hi - lo} of {arr.size} points; "
            "need at least 2"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return _window_variance(np.sort(arr)[lo:hi], np.empty(hi - lo))
