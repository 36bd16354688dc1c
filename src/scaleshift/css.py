"""Cumulative-sum-of-squares traces, classical and robust.

The classical trace is C_n = sum of the first n squares.  The robust trace
replaces mean and variance in the identity C_n = n*(var + mean^2) - var with
the sample median and a robust scale estimate computed on each prefix.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort_left
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


def _mad_sorted(keys, med: float, split: int) -> tuple[float, int]:
    """Raw MAD about ``med`` of the sorted sequence ``keys``, by selection;
    and its split, how many of the smallest deviations lie below ``med``.

    fl(x - med) is monotone in x, so |x - med| falls over the keys below
    ``med`` and rises over the rest: two sorted runs.  The split is the
    least i whose next deviation below is no smaller than the (k - i)-th
    one above, with k the rank of the lower middle; it gives the middle
    order statistics, and their mean, as sorting |x - med| and taking
    :func:`_median_sorted` would give them.  Whether a candidate i lies
    below the split is monotone in i, so the search starts from
    ``split``, the previous prefix's, tries a step and then gallops
    outward, doubling its step, before it bisects the bracket it found:
    O(log d) comparisons for a split that moved by d, never more than
    O(log n).
    """
    n = len(keys)
    k = (n + 1) >> 1                  # 1-based rank of the lower middle
    p = bisect_left(keys, med)        # keys[:p] < med <= keys[p:]
    # i of the k smallest come from below med and k - i from above
    lo = k - n + p if k > n - p else 0
    hi = k if k < p else p
    i = lo if split < lo else hi if split > hi else split
    step = 1
    if i < hi and med - keys[p - 1 - i] < keys[p + k - 1 - i] - med:
        lo = i + 1                    # the split lies above i: gallop up
        while lo < hi:
            i = lo + step - 1
            if i >= hi:
                i = hi - 1
            if med - keys[p - 1 - i] < keys[p + k - 1 - i] - med:
                lo, step = i + 1, step << 1
            else:
                hi = i
                break
    else:
        hi = i                        # the split is at most i: gallop down
        while lo < hi:
            i = hi - step
            if i < lo:
                i = lo
            if med - keys[p - 1 - i] < keys[p + k - 1 - i] - med:
                lo = i + 1
                break
            hi, step = i, step << 1
    while lo < hi:
        i = (lo + hi) >> 1
        if med - keys[p - 1 - i] < keys[p + k - 1 - i] - med:
            lo = i + 1
        else:
            hi = i
    # the k-th smallest deviation, and for even n the next; each is >= 0
    below = med - keys[p - lo] if lo else 0.0
    above = keys[p + k - 1 - lo] - med if lo < k else 0.0
    kth = above if above > below else below
    if n & 1:
        return kth, lo
    below = med - keys[p - 1 - lo] if lo < p else math.inf
    above = keys[p + k - lo] - med if p + k - lo < n else math.inf
    nxt = above if above < below else below
    return _median_sorted((kth, nxt)), lo


def _bmid_scan(arr: np.ndarray, ns, meds: np.ndarray, c: float):
    """Biweight midvariances and degenerate flags of the prefixes of
    ``arr`` at the lengths ``ns``, a list; their medians are written to
    ``meds``.

    Every point is bisected into one sorted list, and each prefix in
    ``ns`` takes its median and MAD from it, the MAD search starting from
    the previous prefix's split.  The kernel of :func:`bmid_variance`,
    :func:`_bmid_rows`, then evaluates every prefix in one call."""
    values = arr.tolist()
    keys = []
    mads = np.empty(len(ns))
    m = split = 0
    for i, n in enumerate(ns):
        for x in values[m:n]:
            insort_left(keys, x)
        m = n
        meds[i] = med = _median_sorted(keys)
        mads[i], split = _mad_sorted(keys, med, split)
    return _bmid_rows(arr, ns, meds, mads, c)


def _qcv_scan(arr: np.ndarray, ns, lengths, meds: np.ndarray, bounds: QcvBounds):
    """QCV variances and degenerate flags of the prefixes of ``arr`` at
    the lengths ``ns``, a list, and ``lengths``, the same as an array;
    their medians are written to ``meds``.

    The windows are slices of ``buf``, a numpy copy of the sorted prefix.
    When ``ns`` is every n from 2 on, each point is bisected into a sorted
    list and shifted into ``buf``; when the lengths are spaced, ``buf[:n]``
    is sorted in place, and the stable sort merges the new points into
    the sorted run before them.  A prefix whose window holds fewer than
    two points is degenerate, with variance 0; every other prefix's
    variance is :func:`_window_variance` of its window, with one
    deviation buffer for the scan.
    """
    count = len(ns)
    dense = count == ns[-1] - 1
    values = arr.tolist()
    keys = values[:1]
    buf, d = arr.copy(), np.empty(arr.size)
    los, his = bounds.window(lengths)
    flat = np.subtract(his, los) < 2
    var = np.zeros(count)
    for i, (n, skip) in enumerate(zip(ns, flat.tolist())):
        if dense:
            x = values[n - 1]
            pos = bisect_left(keys, x)
            keys.insert(pos, x)
            buf[pos + 1 : n] = buf[pos : n - 1]
            buf[pos] = x
            prefix = keys
        else:
            prefix = buf[:n]
            prefix.sort(kind="stable")
        meds[i] = _median_sorted(prefix)
        if not skip:
            var[i] = _window_variance(buf[los[i] : his[i]], d)
    return var, flat


def _robust_scan(
    arr: np.ndarray, spec: ScaleEstimatorSpec, ns
) -> tuple[np.ndarray, list[int]]:
    """C_n of the robust trace of ``arr`` at the increasing prefix lengths
    ``ns`` (each >= 2), and those n whose prefix is degenerate.

    Every point enters the sorted prefix, but the scale is estimated only
    at the n in ``ns``: by :func:`_bmid_scan`, whose one call of
    :func:`_bmid_rows` is the call :func:`bmid_variance` makes on one row,
    or by :func:`_qcv_scan`.  The dense and the spaced lengths give the
    same C_n bit for bit.
    """
    lengths = np.asarray(ns)
    ns = lengths.tolist()
    meds = np.empty(len(ns))
    # Squares past the float range become inf, and sums of such values
    # NaN, which NonFiniteTrace reports.  One errstate per scan, not per
    # prefix; the BMID rows quiet their own arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == KIND_BMID:
            var, flat = _bmid_scan(arr, ns, meds, spec.bmid_config.c)
        else:
            var, flat = _qcv_scan(arr, ns, lengths, meds, spec.qcv_bounds)
        out = lengths * (var + meds * meds) - var
    return out, lengths[flat].tolist()


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
    it; only the selections are incremental.  The MAD is picked from the
    V-shaped |x - med|, its search starting from the previous prefix's
    split (:func:`_mad_sorted`).  Once the medians and MADs are known,
    BMID evaluates every prefix in one call of the kernel that
    :func:`bmid_variance` calls on one row.  QCV windows are contiguous
    slices of a numpy copy of the sorted prefix.  It matches a
    from-scratch recomputation of every prefix through the public
    estimators bit for bit.
    """
    arr = _as_sample(values, min_len=3, what="series")
    if spec.kind == KIND_CLASSICAL:
        return classical_css(arr)
    out = np.empty(arr.size)
    x1 = float(arr[0])
    out[0] = x1 * x1  # a Python float product overflows to inf quietly
    out[1:], degenerate = _robust_scan(arr, spec, np.arange(2, arr.size + 1))
    return CssTrace(
        values=out,
        estimator=spec,
        source_length=arr.size,
        degenerate_prefixes=tuple(degenerate),
    )
