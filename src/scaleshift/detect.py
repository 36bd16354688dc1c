"""Change-point detectors on CSS traces and the orientation-corrected
pipeline.

Two detectors are provided.  ICSS locates the argmax of the centered,
normalized statistic |C_n/C_N - n/N|.  The OLS quantile method fits straight
lines to (j, C_j) on both sides of each candidate split and minimizes the
combined sum of squared residuals.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .css import (
    CssTrace,
    Orientation,
    ScaleEstimatorSpec,
    classical_css,
    constant_prefix_check,
    detect_orientation,
    reverse_sample,
    robust_css,
)
from .errors import (
    InsufficientLength,
    InvalidParameter,
    NonFiniteTrace,
    ZeroTotalSumOfSquares,
)
from .estimators import _as_sample

__all__ = [
    "METHOD_ICSS",
    "METHOD_OLS",
    "DetectionResult",
    "OrientedTrace",
    "icss_detect",
    "ols_detect",
    "orient",
    "detect_oriented",
]

METHOD_ICSS = "icss"
METHOD_OLS = "ols"
ORIENTATIONS = ("auto", "on", "off")


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Outcome of one detection run.

    ``change_point`` is the raw argmax/argmin index of the detector (1-based;
    for a series with a regime switch at n* it typically lands on n* - 1, the
    last index of the first regime).  When ``reversed_applied`` is set the
    index has already been mapped back to original-order indexing, while
    ``statistic_trace`` and ``trace`` (the CSS trace the detector scanned)
    remain in the order the detector actually scanned: reversed when
    ``reversed_applied`` is set.
    """

    change_point: int
    method: str
    estimator: ScaleEstimatorSpec
    statistic_trace: np.ndarray
    reversed_applied: bool
    constant_prefix_fallback: bool
    statistic_at_cp: float
    trace: CssTrace | None = None  # None only for results built by hand

    def __post_init__(self):
        n = self.statistic_trace.shape[0]
        if not (2 <= self.change_point <= n - 1):
            raise InvalidParameter(
                f"change point {self.change_point} outside 2..{n - 1}"
            )


def _require_finite(trace: CssTrace) -> None:
    """Refuse a trace whose sums overflowed: its statistic would be NaN and
    the argmax/argmin would silently report index 2."""
    if not np.all(np.isfinite(trace.values)):
        raise NonFiniteTrace(
            "CSS trace is not finite (squares overflow float64); "
            "rescale the series"
        )


def icss_detect(trace: CssTrace) -> DetectionResult:
    """Argmax of |S_n| with S_n = C_n/C_N - n/N over n in {2..N-1}.

    Ties break to the smallest index.  A constant nonzero series yields an
    exactly linear trace, S_n = 0 everywhere, and therefore index 2 with
    statistic 0 — the "no change detected" signal.
    """
    n_total = trace.source_length
    if n_total < 4:
        raise InsufficientLength("ICSS needs at least 4 points")
    _require_finite(trace)
    c_total = float(trace.values[-1])
    if c_total == 0.0:
        raise ZeroTotalSumOfSquares("C_N = 0; ICSS statistic undefined")
    s = trace.values / c_total - np.arange(1, n_total + 1) / n_total
    interior = np.abs(s[1 : n_total - 1])
    cp = 2 + int(np.argmax(interior))
    return DetectionResult(
        change_point=cp,
        method=METHOD_ICSS,
        estimator=trace.estimator,
        statistic_trace=s,
        reversed_applied=False,
        constant_prefix_fallback=False,
        statistic_at_cp=float(s[cp - 1]),
        trace=trace,
    )


def _exact_ints(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of j and j^2 for j = 1..n, exact in float64."""
    j = np.arange(1, n + 1, dtype=np.int64)
    return (j * (j + 1) // 2).astype(float), (j * (j + 1) * (2 * j + 1) // 6).astype(
        float
    )


def _ssr_from_stats(m, sx, sy, sxx, sxy, syy):
    """Residual sum of squares of a least-squares line through m points."""
    dxx = sxx - sx * sx / m
    dxy = sxy - sx * sy / m
    dyy = syy - sy * sy / m
    ssr = dyy - dxy * dxy / dxx
    return np.maximum(ssr, 0.0)


def ols_detect(trace: CssTrace, *, exact_refit: bool = False) -> DetectionResult:
    """Argmin over candidates n in {2..N-2} of the combined SSR of two line
    fits to (j, C_j), j = 1..n and j = n+1..N.

    The scan is O(N) via prefix sufficient statistics after subtracting the
    end-point chord from the trace (residuals are invariant under subtracting
    any fixed line, and the conditioning improves enormously).  With
    ``exact_refit=True`` every candidate is refit from scratch — the oracle
    for the fast path.  Entries of ``statistic_trace`` outside the candidate
    range are NaN.  When the fast path overflows (a finite trace near the
    float limit whose detrended squares do not fit) it raises
    :class:`NonFiniteTrace`.
    """
    n_total = trace.source_length
    if n_total < 6:
        raise InsufficientLength("OLS split fitting needs at least 6 points")
    _require_finite(trace)
    c = trace.values
    j = np.arange(1, n_total + 1, dtype=float)
    s = np.full(n_total, np.nan)
    if exact_refit:
        for n in range(2, n_total - 1):
            s[n - 1] = _refit_ssr(j[:n], c[:n]) + _refit_ssr(j[n:], c[n:])
    else:
        k = slice(1, n_total - 2)  # candidates n = 2..N-2, at index n - 1
        sj, sjj = _exact_ints(n_total)
        # A finite trace near the float limit can still overflow d * d or
        # dxy * dxy; an inf clipped to an SSR of 0 would win the argmin.
        try:
            with np.errstate(over="raise", invalid="raise"):
                chord = c[0] + (c[-1] - c[0]) * (j - 1.0) / (n_total - 1.0)
                d = c - chord
                p1 = np.cumsum(d)
                pj = np.cumsum(j * d)
                p2 = np.cumsum(d * d)
                left = _ssr_from_stats(j[k], sj[k], p1[k], sjj[k], pj[k], p2[k])
                right = _ssr_from_stats(
                    n_total - j[k],
                    sj[-1] - sj[k],
                    p1[-1] - p1[k],
                    sjj[-1] - sjj[k],
                    pj[-1] - pj[k],
                    p2[-1] - p2[k],
                )
        except FloatingPointError:
            raise NonFiniteTrace(
                "OLS statistic overflows float64 on this trace; "
                "rescale the series"
            ) from None
        s[k] = left + right
    valid = s[1 : n_total - 2]
    cp = 2 + int(np.argmin(valid))
    return DetectionResult(
        change_point=cp,
        method=METHOD_OLS,
        estimator=trace.estimator,
        statistic_trace=s,
        reversed_applied=False,
        constant_prefix_fallback=False,
        statistic_at_cp=float(s[cp - 1]),
        trace=trace,
    )


def _refit_ssr(x: np.ndarray, y: np.ndarray) -> float:
    """SSR of a straight-line fit computed independently of the fast path."""
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    return float(np.sum(resid * resid))


@dataclass(frozen=True, eq=False)
class OrientedTrace:
    """The CSS trace a detector should scan, as chosen by :func:`orient`.

    ``trace`` is the trace of the reversed sample when ``reversed_applied``
    is set, the forward trace otherwise.  ``constant_prefix_fallback``
    records that the forward trace was convex but the reversed trace had the
    constant-head signature, so the forward trace was kept.
    """

    trace: CssTrace
    reversed_applied: bool = False
    constant_prefix_fallback: bool = False


def orient(
    values,
    spec: ScaleEstimatorSpec | None = None,
    *,
    orientation: str = "auto",
    head_len: int = 6,
    threshold: float = 0.05,
) -> OrientedTrace:
    """Build the trace for ``spec`` (BMID by default) and choose its order.

    ``orientation`` is ``"auto"`` (on for robust specs, off for the
    classical one), ``"on"`` or ``"off"``; any other value raises
    :class:`InvalidParameter`.  With orientation on, the sample is reversed
    when its trace is convex (scale increases make the robust trace bend
    below its chord), unless the reversed trace has the constant-head
    signature; the classical spec then runs the same test on
    :func:`classical_css`, and the series needs at least 8 points.  With
    orientation off, the classical spec gives :func:`classical_css` and a
    robust spec its forward trace.

    Builds one trace, or two when the forward trace is convex.  Any number
    of detectors can then run on the result with :func:`detect_oriented`.
    """
    spec = spec if spec is not None else ScaleEstimatorSpec.bmid()
    if orientation not in ORIENTATIONS:
        raise InvalidParameter(
            f"orientation must be one of {ORIENTATIONS}, got {orientation!r}"
        )
    if orientation == "off" or (orientation == "auto" and not spec.is_robust):
        if not spec.is_robust:
            return OrientedTrace(classical_css(values))
        return OrientedTrace(robust_css(values, spec))
    arr = _as_sample(values, min_len=8, what="series")
    trace = robust_css(arr, spec)
    if detect_orientation(trace) is Orientation.CONVEX:
        rev = robust_css(reverse_sample(arr), spec)
        if constant_prefix_check(rev, head_len=head_len, threshold=threshold):
            return OrientedTrace(trace, constant_prefix_fallback=True)
        return OrientedTrace(rev, reversed_applied=True)
    return OrientedTrace(trace)


def _detector(method: str):
    # Resolved by name at call time, so a patched module attribute is used.
    if method == METHOD_ICSS:
        return icss_detect
    if method == METHOD_OLS:
        return ols_detect
    raise InvalidParameter(f"unknown method {method!r}")


def detect_oriented(oriented: OrientedTrace, method: str) -> DetectionResult:
    """Run ICSS or OLS on an oriented trace and map the index back to the
    original order.

    The reversal mapping is n -> N - n + 1; it is applied only when the
    detection actually ran on the reversed trace.
    """
    raw = _detector(method)(oriented.trace)
    cp = raw.change_point
    if oriented.reversed_applied:
        cp = oriented.trace.source_length - cp + 1
    return dataclasses.replace(
        raw,
        change_point=cp,
        reversed_applied=oriented.reversed_applied,
        constant_prefix_fallback=oriented.constant_prefix_fallback,
    )
