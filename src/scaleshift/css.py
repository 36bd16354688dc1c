"""Cumulative-sum-of-squares traces, classical and robust.

The classical trace is C_n = sum of the first n squares.  The robust trace
replaces mean and variance in the identity C_n = n*(var + mean^2) - var with
the sample median and a robust scale estimate computed on each prefix.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .estimators import (
    BmidConfig,
    QcvBounds,
    _as_sample,
    _bmid_rows,
    _median_sorted,
    _window_variance,
)

__all__ = [
    "KIND_CLASSICAL",
    "KIND_BMID",
    "KIND_QCV",
    "ScaleEstimatorSpec",
    "CssTrace",
    "classical_css",
    "robust_css",
]

KIND_CLASSICAL = "classical"
KIND_BMID = "bmid"
KIND_QCV = "qcv"

# A BMID scan evaluates its prefixes a block at a time: a block's rows
# times its largest prefix length stay within this many cells, though a
# single row may pass it alone.
BMID_BLOCK_CELLS = 1 << 14


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
    def bmid(cls, c: float = BmidConfig.c) -> "ScaleEstimatorSpec":
        return cls(KIND_BMID, bmid_config=BmidConfig(c))

    @classmethod
    def qcv(
        cls, a: float = QcvBounds.a, b: float = QcvBounds.b
    ) -> "ScaleEstimatorSpec":
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
    undefined (zero MAD or zero BMID weight sum, or a QCV window with fewer
    than two points) and a zero variance was substituted.
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
    # squares past the float range become inf, which NonFiniteTrace reports
    with np.errstate(over="ignore"):
        css = np.cumsum(arr * arr)
    return CssTrace(
        values=css,
        estimator=ScaleEstimatorSpec.classical(),
        source_length=arr.size,
    )


def _mad_sorted(keys, med: float) -> float:
    """Raw MAD about ``med`` of the sorted sequence ``keys``, by selection.

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


def _qcv_point(window: np.ndarray) -> tuple[float, bool]:
    """QCV variance of a prefix from ``window``, its QCV window in the
    sorted prefix; and whether the prefix is degenerate (fewer than two
    points in the window, variance 0 substituted)."""
    if window.size < 2:
        return 0.0, True
    return _window_variance(window), False


def _robust_scan(
    arr: np.ndarray, spec: ScaleEstimatorSpec, ns
) -> tuple[np.ndarray, list[int]]:
    """C_n of the robust trace of ``arr`` at the increasing prefix lengths
    ``ns`` (each >= 2), and those n whose prefix is degenerate.

    Every point enters the sorted prefix, but the scale is estimated only
    at the n in ``ns``.  When ``ns`` is every n from 2 on, each point is
    bisected into a sorted list, and QCV, whose windows are slices of an
    array, also shifts it into ``buf``; when the lengths are spaced,
    ``buf[:n]`` of a copy of the series is sorted in place, and the stable
    sort merges the new points into the sorted run before them.  Both give
    the same C_n bit for bit.  QCV takes each prefix's variance from its
    window by :func:`_qcv_point`.  BMID collects each prefix's n, median
    and MAD, and hands them a block at a time to the kernel that
    :func:`bmid_variance` uses, each block's rows times its largest n at
    most ``BMID_BLOCK_CELLS``; the kernel sums each row as the 1-D prefix
    would be summed.
    """
    count = len(ns)
    dense = count == ns[-1] - 1
    values = arr.tolist()
    keys = values[:1]
    buf = arr.copy()
    meds = []
    var = np.empty(count)
    flat = np.empty(count, dtype=bool)
    bmid = spec.kind == KIND_BMID
    if bmid:
        c, mads, start = spec.bmid_config.c, [], 0
    else:
        los, his = spec.qcv_bounds.window(np.asarray(ns))
    # Squares past the float range become inf, and sums of such values
    # NaN, which NonFiniteTrace reports.  One errstate per scan, not per
    # prefix.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, n in enumerate(ns):
            if dense:
                x = values[n - 1]
                pos = bisect_left(keys, x)
                keys.insert(pos, x)
                if not bmid:
                    buf[pos + 1 : n] = buf[pos : n - 1]
                    buf[pos] = x
                prefix = keys
            else:
                prefix = buf[:n]
                prefix.sort(kind="stable")
            med = _median_sorted(prefix)
            meds.append(med)
            if bmid:
                if i > start and (i + 1 - start) * n > BMID_BLOCK_CELLS:
                    var[start:i], flat[start:i] = _bmid_rows(
                        arr, ns[start:i], meds[start:i], mads, c
                    )
                    start, mads = i, []
                mads.append(_mad_sorted(prefix, med))
            else:
                var[i], flat[i] = _qcv_point(buf[los[i] : his[i]])
        if bmid:
            var[start:], flat[start:] = _bmid_rows(
                arr, ns[start:], meds[start:], mads, c
            )
        ns = np.asarray(ns)
        meds = np.array(meds)
        out = ns * (var + meds * meds) - var
    return out, ns[flat].tolist()


def robust_css(values, spec: ScaleEstimatorSpec) -> CssTrace:
    """Robust CSS trace: per prefix n >= 2, n*(var_r + med^2) - var_r.

    The n = 1 entry is x_1^2 (single-point variance taken as zero), keeping
    the trace length N and matching the classical trace at n = 1.  Prefixes
    with an undefined robust variance (zero MAD or zero BMID weight sum, or
    a QCV window with fewer than two points) get variance 0 substituted and
    are recorded in ``degenerate_prefixes``.

    A classical spec gives :func:`classical_css`, the running sum of
    squares that the identity reduces to with the mean and the sample
    variance.

    For a robust spec the scan keeps the prefix sorted (binary-search
    insert) and calls the estimators' own median, BMID and QCV kernels on
    it; only the selections are incremental.  BMID prefixes go to the
    kernel of :func:`bmid_variance` a block at a time, each row summed as
    the 1-D prefix would be.  The MAD is picked from the
    V-shaped |x - med| (:func:`_mad_sorted`), and QCV windows are
    contiguous slices of a numpy copy of the sorted prefix.  It matches a
    from-scratch recomputation of every prefix through the public
    estimators bit for bit.
    """
    arr = _as_sample(values, min_len=3, what="series")
    if spec.kind == KIND_CLASSICAL:
        return classical_css(arr)
    out = np.empty(arr.size)
    x1 = float(arr[0])
    out[0] = x1 * x1  # a Python float product overflows to inf quietly
    out[1:], degenerate = _robust_scan(arr, spec, range(2, arr.size + 1))
    return CssTrace(
        values=out,
        estimator=spec,
        source_length=arr.size,
        degenerate_prefixes=tuple(degenerate),
    )
