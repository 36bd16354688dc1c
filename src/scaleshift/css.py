"""Cumulative-sum-of-squares traces, classical and robust, plus the
orientation transformations (chord test, constant-prefix check, reversal).

The classical trace is C_n = sum of the first n squares.  The robust trace
replaces mean and variance in the identity C_n = n*(var + mean^2) - var with
the sample median and a robust scale estimate computed on each prefix.
"""
from __future__ import annotations

import enum
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
    _bmid_core,
    _mad_value,
    _median_sorted,
    _window_variance,
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


def _scan_robust(
    arr: np.ndarray, spec: ScaleEstimatorSpec
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Incremental robust scan using a sorted insertion buffer.

    The buffer keeps the prefix in sorted order (binary-search insert plus a
    memmove-style shift), so median, MAD, and QCV windows come straight off
    contiguous slices.  BMID weight sums run over the prefix in original
    sample order, matching the one-shot estimator bit-for-bit.
    """
    n_total = arr.size
    out = np.empty(n_total)
    out[0] = arr[0] * arr[0]
    degenerate: list[int] = []
    buf = np.empty(n_total)
    buf[0] = arr[0]
    size = 1
    is_bmid = spec.kind == KIND_BMID
    c = spec.bmid_config.c if is_bmid else 0.0
    bounds = spec.qcv_bounds
    for n in range(2, n_total + 1):
        x = arr[n - 1]
        pos = int(np.searchsorted(buf[:size], x))
        buf[pos + 1 : size + 1] = buf[pos:size]
        buf[pos] = x
        size += 1
        sorted_prefix = buf[:size]
        med = _median_sorted(sorted_prefix)
        if is_bmid:
            mad_val = _mad_value(sorted_prefix, med)
            if mad_val == 0.0:
                var = 0.0
                degenerate.append(n)
            else:
                var = _bmid_core(arr[:n], med, mad_val, c)
        else:
            lo, hi = bounds.window(n)
            if hi - lo < 2:
                var = 0.0
                degenerate.append(n)
            else:
                var = _window_variance(sorted_prefix, lo, hi)
        out[n - 1] = n * (var + med * med) - var
    return out, tuple(degenerate)


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
