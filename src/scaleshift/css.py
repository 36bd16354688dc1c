"""Cumulative-sum-of-squares traces, classical and robust, plus the
orientation transformations (chord test, constant-prefix check, reversal).

The classical trace is C_n = sum of the first n squares.  The robust trace
replaces mean and variance in the identity C_n = n*(var + mean^2) - var with
the sample median and a robust scale estimate computed on each prefix.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_left, insort_left
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateScale,
    InsufficientLength,
    InvalidParameter,
    WindowTooSmall,
)
from .estimators import (
    BmidConfig,
    QcvBounds,
    _as_sample,
    bmid_variance,
    qcv_variance,
    sample_median,
)

__all__ = [
    "Orientation",
    "ScaleEstimatorSpec",
    "CssTrace",
    "classical_css",
    "robust_css",
    "detect_orientation",
    "constant_prefix_check",
    "reverse_sample",
]

KIND_CLASSICAL = "classical"
KIND_BMID = "bmid"
KIND_QCV = "qcv"


class Orientation(enum.Enum):
    """Shape of a robust CSS trace relative to its end-point chord."""

    CONCAVE = "concave"
    CONVEX = "convex"


@dataclass(frozen=True)
class ScaleEstimatorSpec:
    """Selects the scale/location pair used inside the CSS statistic.

    Robust kinds always pair with the median location; the classical kind
    pairs with the mean.  Use the constructors :meth:`classical`,
    :meth:`bmid`, and :meth:`qcv`.
    """

    kind: str
    bmid_config: BmidConfig | None = None
    qcv_bounds: QcvBounds | None = None

    def __post_init__(self):
        if self.kind not in (KIND_CLASSICAL, KIND_BMID, KIND_QCV):
            raise InvalidParameter(f"unknown estimator kind {self.kind!r}")
        if self.kind == KIND_BMID and self.bmid_config is None:
            object.__setattr__(self, "bmid_config", BmidConfig())
        if self.kind == KIND_QCV and self.qcv_bounds is None:
            object.__setattr__(self, "qcv_bounds", QcvBounds())
        if self.kind != KIND_BMID and self.bmid_config is not None:
            raise InvalidParameter("bmid_config only applies to kind 'bmid'")
        if self.kind != KIND_QCV and self.qcv_bounds is not None:
            raise InvalidParameter("qcv_bounds only applies to kind 'qcv'")

    @property
    def location(self) -> str:
        """'mean' for the classical estimator, 'median' for robust kinds."""
        return "mean" if self.kind == KIND_CLASSICAL else "median"

    @property
    def is_robust(self) -> bool:
        return self.kind != KIND_CLASSICAL

    @classmethod
    def classical(cls) -> "ScaleEstimatorSpec":
        return cls(KIND_CLASSICAL)

    @classmethod
    def bmid(cls, c: float = 9.0) -> "ScaleEstimatorSpec":
        return cls(KIND_BMID, bmid_config=BmidConfig(c))

    @classmethod
    def qcv(cls, a: float = 0.1, b: float = 0.9) -> "ScaleEstimatorSpec":
        return cls(KIND_QCV, qcv_bounds=QcvBounds(a, b))

    def describe(self) -> dict:
        out = {"kind": self.kind, "location": self.location}
        if self.bmid_config is not None:
            out["c"] = self.bmid_config.c
        if self.qcv_bounds is not None:
            out["a"] = self.qcv_bounds.a
            out["b"] = self.qcv_bounds.b
        return out


@dataclass(frozen=True, eq=False)
class CssTrace:
    """Sequence C_n (or its robust counterpart) for n = 1..N.

    ``degenerate_prefixes`` lists prefix lengths where the robust variance was
    undefined (zero MAD, or a QCV window with fewer than two points) and a
    zero variance was substituted.
    """

    values: np.ndarray
    estimator: ScaleEstimatorSpec
    source_length: int
    degenerate_prefixes: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.values.shape != (self.source_length,):
            raise InvalidParameter(
                "trace length does not match source_length "
                f"({self.values.shape[0]} vs {self.source_length})"
            )


def classical_css(values) -> CssTrace:
    """Running prefix sum of squares, C_n = x_1^2 + ... + x_n^2."""
    arr = _as_sample(values, what="series")
    return CssTrace(
        values=np.cumsum(arr * arr),
        estimator=ScaleEstimatorSpec.classical(),
        source_length=arr.size,
    )


def reverse_sample(values) -> np.ndarray:
    """A reversed copy of the sample."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    return arr[::-1].copy()


def _mad_sorted(keys: list, med: float) -> float:
    """Raw MAD about ``med`` of the sorted list ``keys``, by selection.

    fl(x - med) is monotone in x, so |x - med| falls over the keys below
    ``med`` and rises over the rest: two sorted runs.  A binary search for
    how many of the k smallest deviations lie below ``med`` gives the
    middle order statistics in O(log n), with the values and the
    ``(v_h + v_{h+1}) / 2.0`` that sorting |x - med| would give.
    """
    n = len(keys)
    k = (n + 1) >> 1                  # 1-based rank of the lower middle
    p = bisect_left(keys, med)        # keys[:p] < med <= keys[p:]
    # i of the k smallest come from below med and k - i from above: find
    # the least i whose next deviation below is no smaller than the
    # (k - i)-th one above
    lo, hi = max(0, k - (n - p)), min(k, p)
    while lo < hi:
        i = (lo + hi) >> 1
        if med - keys[p - 1 - i] < keys[p + k - 1 - i] - med:
            lo = i + 1
        else:
            hi = i
    below = med - keys[p - lo] if lo else 0.0
    above = keys[p + k - 1 - lo] - med if lo < k else 0.0
    kth = abs(max(below, above))
    if n & 1:
        return kth
    below = med - keys[p - 1 - lo] if lo < p else math.inf
    above = keys[p + k - lo] - med if p + k - lo < n else math.inf
    return (kth + abs(min(below, above))) / 2.0


def _scan_robust(
    arr: np.ndarray, spec: ScaleEstimatorSpec
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Incremental robust scan using a sorted insertion buffer.

    A list keeps the prefix in sorted order (binary-search insert), so the
    median is one or two list reads and the MAD a selection from the
    V-shaped |x - med| (:func:`_mad_sorted`).  BMID weight sums run over
    the prefix in original sample order; QCV windows are contiguous slices
    of a numpy copy of the sorted prefix.  Every value comes from the same
    floating-point operations as the one-shot estimators, so the trace
    matches the ``exact_naive`` oracle bit for bit.
    """
    out = np.empty(arr.size)
    out[0] = arr[0] * arr[0]
    if spec.kind == KIND_BMID:
        # a MAD near the underflow limit sends |u| to inf, which lies
        # outside the weights |u| < 1 as it should
        with np.errstate(over="ignore"):
            degenerate = _bmid_prefixes(arr, spec.bmid_config.c, out)
    else:
        degenerate = _qcv_prefixes(arr, spec.qcv_bounds, out)
    return out, tuple(degenerate)


def _bmid_prefixes(arr: np.ndarray, c: float, out: np.ndarray) -> list[int]:
    """Fill out[1:] with the BMID trace; return the degenerate prefixes."""
    degenerate = []
    values = arr.tolist()
    keys = values[:1]
    add = np.add.reduce  # np.sum's pairwise sum, less its call overhead
    for n in range(2, arr.size + 1):
        insort_left(keys, values[n - 1])
        h = n >> 1
        med = keys[h] if n & 1 else (keys[h - 1] + keys[h]) / 2.0
        mad_val = _mad_sorted(keys, med)
        if mad_val == 0.0:
            var = 0.0
            degenerate.append(n)
        else:
            dev = arr[:n] - med
            u2 = dev / (c * mad_val)
            u2 *= u2  # fl(u * u) < 1 exactly when |u| < 1
            inside = u2 < 1.0
            d = dev[inside]
            u2 = u2[inside]
            w = 1.0 - u2
            num = n * add(d * d * w ** 4)
            den = add(w * (1.0 - 5.0 * u2)) ** 2
            var = float(num / den)
        out[n - 1] = n * (var + med * med) - var
    return degenerate


def _qcv_prefixes(arr: np.ndarray, bounds: QcvBounds, out: np.ndarray) -> list[int]:
    """Fill out[1:] with the QCV trace; return the degenerate prefixes."""
    degenerate = []
    # QcvBounds.window(n) for every n: the same IEEE products n * a, n * b
    sizes = np.arange(arr.size + 1)
    los = np.floor(sizes * bounds.a).astype(int).tolist()
    his = np.floor(sizes * bounds.b).astype(int).tolist()
    values = arr.tolist()
    keys = values[:1]
    buf = np.empty(arr.size)  # the sorted prefix, for contiguous windows
    buf[0] = values[0]
    add = np.add.reduce  # np.sum's pairwise sum, less its call overhead
    for n in range(2, arr.size + 1):
        x = values[n - 1]
        pos = bisect_left(keys, x)
        keys.insert(pos, x)
        buf[pos + 1 : n] = buf[pos : n - 1]
        buf[pos] = x
        h = n >> 1
        med = keys[h] if n & 1 else (keys[h - 1] + keys[h]) / 2.0
        lo, hi = los[n], his[n]
        m = hi - lo
        if m < 2:
            var = 0.0
            degenerate.append(n)
        else:
            w = buf[lo:hi]
            d = w - add(w) / m
            var = float(add(d * d) / m)
        out[n - 1] = n * (var + med * med) - var
    return degenerate


def _scan_naive(
    arr: np.ndarray, spec: ScaleEstimatorSpec
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Oracle scan for a robust spec: recompute median and scale from
    scratch per prefix by calling the public estimators."""
    n_total = arr.size
    out = np.empty(n_total)
    out[0] = arr[0] * arr[0]
    degenerate: list[int] = []
    for n in range(2, n_total + 1):
        prefix = arr[:n]
        med = sample_median(prefix)
        try:
            if spec.kind == KIND_BMID:
                var = bmid_variance(prefix, spec.bmid_config)
            else:
                var = qcv_variance(prefix, spec.qcv_bounds)
        except (DegenerateScale, WindowTooSmall):
            var = 0.0
            degenerate.append(n)
        out[n - 1] = n * (var + med * med) - var
    return out, tuple(degenerate)


def robust_css(
    values,
    spec: ScaleEstimatorSpec,
    *,
    exact_naive: bool = False,
) -> CssTrace:
    """Robust CSS trace: per prefix n >= 2, n*(var_r + med^2) - var_r.

    The n = 1 entry is x_1^2 (single-point variance taken as zero), keeping
    the trace length N and matching the classical trace at n = 1.  Prefixes
    with an undefined robust variance get variance 0 substituted and are
    recorded in ``degenerate_prefixes``.

    A classical spec gives :func:`classical_css`, the running sum of
    squares that the identity reduces to with the mean and the sample
    variance, whatever ``exact_naive`` says.  For a robust spec,
    ``exact_naive=True``
    recomputes every prefix from scratch through the public estimators; it
    is the equivalence oracle for the default incremental scan.
    """
    arr = _as_sample(values, min_len=3, what="series")
    if spec.kind == KIND_CLASSICAL:
        return classical_css(arr)
    if exact_naive:
        out, degenerate = _scan_naive(arr, spec)
    else:
        out, degenerate = _scan_robust(arr, spec)
    return CssTrace(
        values=out,
        estimator=spec,
        source_length=arr.size,
        degenerate_prefixes=degenerate,
    )


def detect_orientation(trace: CssTrace) -> Orientation:
    """Classify the trace against the chord through (2, C_2), (N-1, C_{N-1}).

    Counts interior points strictly above and strictly below the chord
    (strictly meaning beyond a tolerance of 1e-12 max|C_n|, so exactly
    collinear traces count to neither side and the decision does not
    depend on the units of the data).  Concave when above-count
    exceeds below-count; ties resolve to Convex.
    """
    n_total = trace.source_length
    if n_total < 4:
        raise InsufficientLength("orientation needs at least 4 points")
    window = trace.values[1 : n_total - 1]          # n = 2 .. N-1
    y_first, y_last = window[0], window[-1]
    t = np.linspace(0.0, 1.0, window.size)
    chord = y_first * (1.0 - t) + y_last * t
    tol = 1e-12 * float(np.max(np.abs(window)))
    above = int(np.sum(window > chord + tol))
    below = int(np.sum(window < chord - tol))
    return Orientation.CONCAVE if above > below else Orientation.CONVEX


def constant_prefix_check(
    trace: CssTrace, head_len: int = 6, threshold: float = 0.05
) -> bool:
    """True when the trace head dominates: taking omega as the mean of
    C_n over n = 2..head_len+1, the fraction of n in {2..N-1} with
    C_n > omega stays below ``threshold``."""
    if head_len < 1:
        raise InvalidParameter("head_len must be >= 1")
    n_total = trace.source_length
    if n_total < head_len + 2:
        raise InsufficientLength(
            f"constant-prefix check needs N >= head_len + 2 = {head_len + 2}"
        )
    head = trace.values[1 : head_len + 1]
    omega = float(np.mean(head))
    interior = trace.values[1 : n_total - 1]
    eps = float(np.sum(interior > omega)) / (n_total - 2)
    return eps < threshold
