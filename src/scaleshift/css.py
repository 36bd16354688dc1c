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

from .errors import InsufficientLength, InvalidParameter
from .estimators import (
    BmidConfig,
    QcvBounds,
    _as_sample,
    _bmid_core,
    _median_sorted,
    _window_variance,
)

__all__ = [
    "KIND_CLASSICAL",
    "KIND_BMID",
    "KIND_QCV",
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
    # squares past the float range become inf, which NonFiniteTrace reports
    with np.errstate(over="ignore"):
        css = np.cumsum(arr * arr)
    return CssTrace(
        values=css,
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


def _bmid_point(keys: list, arr: np.ndarray, c: float) -> tuple[float, bool]:
    """C_n of the BMID trace at n = len(keys), from ``keys``, the sorted
    ``arr[:n]``, and whether the prefix is degenerate (zero MAD, variance 0
    substituted)."""
    n = len(keys)
    med = _median_sorted(keys)
    mad_val = _mad_sorted(keys, med)
    degenerate = mad_val == 0.0
    var = 0.0 if degenerate else _bmid_core(arr[:n], med, mad_val, c)
    return n * (var + med * med) - var, degenerate


def _qcv_point(keys, window: np.ndarray) -> tuple[float, bool]:
    """C_n of the QCV trace at n = len(keys), from ``keys``, the sorted
    prefix as a list or an array, and ``window``, its QCV window as an
    array; and whether the prefix is degenerate (fewer than two points in
    the window, variance 0 substituted)."""
    n = len(keys)
    med = _median_sorted(keys)
    degenerate = window.size < 2
    var = 0.0 if degenerate else _window_variance(window)
    return n * (var + med * med) - var, degenerate


def _robust_scan(
    arr: np.ndarray, spec: ScaleEstimatorSpec, ns
) -> tuple[np.ndarray, list[int]]:
    """C_n of the robust trace of ``arr`` at the increasing prefix lengths
    ``ns`` (each >= 2), and those n whose prefix is degenerate.

    Every point enters the sorted prefix, but the scale is estimated only
    at the n in ``ns``, by :func:`_bmid_point` or :func:`_qcv_point`.  BMID
    inserts into a sorted list.  QCV also keeps the sorted prefix in an
    array, whose windows are contiguous slices: when ``ns`` is every n from
    2 on, each point is bisected into the list and shifted into the array;
    when the lengths are spaced, ``buf[:n]`` of a copy of the series is
    sorted in place, and the stable sort merges the new points into the
    sorted run before them.  Both give the same C_n bit for bit.
    """
    out = np.empty(len(ns))
    degenerate = []
    values = arr.tolist()
    keys = values[:1]
    if spec.kind == KIND_QCV:
        # QcvBounds.window(n) at every n: the same IEEE products n * a, n * b
        sizes = np.asarray(ns)
        los = np.floor(sizes * spec.qcv_bounds.a).astype(int).tolist()
        his = np.floor(sizes * spec.qcv_bounds.b).astype(int).tolist()
        buf = arr.copy()
        dense = len(ns) == ns[-1] - 1
    # Squares past the float range become inf, and sums of such values
    # NaN, which NonFiniteTrace reports; a MAD near the underflow limit
    # sends |u| to inf, which lies outside the BMID weights |u| < 1 as it
    # should.  One errstate per scan, not per prefix.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, n in enumerate(ns):
            if spec.kind == KIND_BMID:
                for x in values[len(keys) : n]:
                    insort_left(keys, x)
                out[i], flat = _bmid_point(keys, arr, spec.bmid_config.c)
            elif dense:
                x = values[n - 1]
                pos = bisect_left(keys, x)
                keys.insert(pos, x)
                buf[pos + 1 : n] = buf[pos : n - 1]
                buf[pos] = x
                out[i], flat = _qcv_point(keys, buf[los[i] : his[i]])
            else:
                buf[:n].sort(kind="stable")
                out[i], flat = _qcv_point(buf[:n], buf[los[i] : his[i]])
            if flat:
                degenerate.append(n)
    return out, degenerate


def robust_css(values, spec: ScaleEstimatorSpec) -> CssTrace:
    """Robust CSS trace: per prefix n >= 2, n*(var_r + med^2) - var_r.

    The n = 1 entry is x_1^2 (single-point variance taken as zero), keeping
    the trace length N and matching the classical trace at n = 1.  Prefixes
    with an undefined robust variance (zero MAD, or a QCV window with fewer
    than two points) get variance 0 substituted and are recorded in
    ``degenerate_prefixes``.

    A classical spec gives :func:`classical_css`, the running sum of
    squares that the identity reduces to with the mean and the sample
    variance.

    For a robust spec the scan keeps the prefix sorted (binary-search
    insert) and calls the estimators' own median, BMID and QCV kernels on
    it; only the selections are incremental.  The MAD is picked from the
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


def _chord_counts(ns: np.ndarray, values: np.ndarray) -> tuple[int, int]:
    """Counts of the points (n, C_n) strictly above and strictly below the
    chord through the first and the last of them.

    Strictly means beyond a tolerance of 1e-12 max|C_n|, so exactly
    collinear points count to neither side and the counts do not depend on
    the units of the data.  Over every n from 2 on, the chord positions t
    are those of ``np.linspace(0, 1, ns.size)``, bit for bit.
    """
    t = (ns - ns[0]) * (1.0 / (ns[-1] - ns[0]))
    t[-1] = 1.0
    # An overflowed trace gives inf/NaN chord points, which count to
    # neither side; a detector refuses a non-finite trace (NonFiniteTrace).
    with np.errstate(over="ignore", invalid="ignore"):
        chord = values[0] * (1.0 - t) + values[-1] * t
        tol = 1e-12 * float(np.max(np.abs(values)))
        above = int(np.sum(values > chord + tol))
        below = int(np.sum(values < chord - tol))
    return above, below


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
    above, below = _chord_counts(
        np.arange(2, n_total), trace.values[1 : n_total - 1]
    )
    return Orientation.CONCAVE if above > below else Orientation.CONVEX


def _check_head_params(head_len: int, threshold: float) -> None:
    """The constant-prefix check's parameters: ``head_len`` >= 1 and
    ``threshold`` in [0, 1] (NaN is not)."""
    if head_len < 1:
        raise InvalidParameter("head_len must be >= 1")
    if not 0.0 <= threshold <= 1.0:
        raise InvalidParameter(f"threshold must be in [0, 1], got {threshold}")


def constant_prefix_check(
    trace: CssTrace, head_len: int = 6, threshold: float = 0.05
) -> bool:
    """True when the trace head dominates: taking omega as the mean of
    C_n over n = 2..head_len+1, the fraction of n in {2..N-1} with
    C_n > omega stays below ``threshold``.  A ``head_len`` below 1 or a
    ``threshold`` outside [0, 1] raises :class:`InvalidParameter`."""
    _check_head_params(head_len, threshold)
    n_total = trace.source_length
    if n_total < head_len + 2:
        raise InsufficientLength(
            f"constant-prefix check needs N >= head_len + 2 = {head_len + 2}"
        )
    head = trace.values[1 : head_len + 1]
    with np.errstate(over="ignore"):  # a head near the float limit sums to inf
        omega = float(np.mean(head))
    interior = trace.values[1 : n_total - 1]
    eps = float(np.sum(interior > omega)) / (n_total - 2)
    return eps < threshold
