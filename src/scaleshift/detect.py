"""Change-point detectors on CSS traces, and the orientation step that
chooses which trace they scan.

Two detectors are provided.  ICSS locates the argmax of the centered,
normalized statistic |C_n/C_N - n/N|.  The OLS quantile method fits straight
lines to (j, C_j) on both sides of each candidate split and minimizes the
combined sum of squared residuals.
"""
from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

import numpy as np

from .css import CssTrace, ScaleEstimatorSpec, _robust_scan, classical_css, robust_css
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
    "Orientation",
    "DetectionResult",
    "OrientedTrace",
    "icss_detect",
    "ols_detect",
    "detect_orientation",
    "constant_prefix_check",
    "reverse_sample",
    "orient",
    "detect_oriented",
]

METHOD_ICSS = "icss"
METHOD_OLS = "ols"
ORIENTATIONS = ("auto", "on", "off")


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


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Outcome of one detection run on ``oriented``, the trace it scanned.

    ``change_point`` is the raw argmax/argmin index of the detector (1-based;
    for a series with a regime switch at n* it typically lands on n* - 1, the
    last index of the first regime).  When ``reversed_applied`` is set the
    index has already been mapped back to original-order indexing, while
    ``statistic_trace`` and ``trace`` remain in the order the detector
    actually scanned: reversed when ``reversed_applied`` is set.
    """

    change_point: int
    method: str
    statistic_trace: np.ndarray
    statistic_at_cp: float
    oriented: OrientedTrace

    def __post_init__(self):
        n = self.statistic_trace.shape[0]
        if not (2 <= self.change_point <= n - 1):
            raise InvalidParameter(
                f"change point {self.change_point} outside 2..{n - 1}"
            )

    @property
    def trace(self) -> CssTrace:
        return self.oriented.trace

    @property
    def reversed_applied(self) -> bool:
        return self.oriented.reversed_applied

    @property
    def constant_prefix_fallback(self) -> bool:
        return self.oriented.constant_prefix_fallback


def _require_finite(trace: CssTrace) -> None:
    """Refuse a trace whose sums overflowed: its statistic would be NaN and
    the argmax/argmin would silently report index 2."""
    if not np.all(np.isfinite(trace.values)):
        raise NonFiniteTrace(
            "CSS trace is not finite (squares overflow float64); "
            "rescale the series"
        )


def _result(trace: CssTrace, method: str, s: np.ndarray, cp: int) -> DetectionResult:
    """The detection of ``method`` at ``cp`` on ``trace``, whose statistic
    is ``s``."""
    return DetectionResult(
        change_point=cp,
        method=method,
        statistic_trace=s,
        statistic_at_cp=float(s[cp - 1]),
        oriented=OrientedTrace(trace),
    )


def icss_detect(trace: CssTrace) -> DetectionResult:
    """Argmax of |S_n| with S_n = C_n/C_N - n/N over n in {2..N-1}.

    Ties break to the smallest index.  A constant nonzero series yields an
    exactly linear trace, S_n = 0 everywhere, and therefore index 2 with
    statistic 0 — the "no change detected" signal.  A robust trace need not
    rise to C_N; where C_n / C_N overflows it raises :class:`NonFiniteTrace`.
    """
    n_total = trace.source_length
    if n_total < 4:
        raise InsufficientLength("ICSS needs at least 4 points")
    _require_finite(trace)
    c_total = float(trace.values[-1])
    if c_total == 0.0:
        raise ZeroTotalSumOfSquares("C_N = 0; ICSS statistic undefined")
    try:
        with np.errstate(over="raise"):
            s = trace.values / c_total - np.arange(1, n_total + 1) / n_total
    except FloatingPointError:
        raise NonFiniteTrace(
            "ICSS statistic overflows float64 on this trace; rescale the series"
        ) from None
    interior = np.abs(s[1 : n_total - 1])
    return _result(trace, METHOD_ICSS, s, 2 + int(np.argmax(interior)))


def _ssr_from_stats(m, sy, sxy, syy):
    """Residual sum of squares of a least-squares line through the points
    (j, y_j) at m consecutive j, from the sums of y and y^2 and the centred
    cross sum sxy = sum((j - mean j) * y)."""
    ssr = syy - sy * sy / m - sxy * sxy / _centred_sxx(m)
    return np.maximum(ssr, 0.0)


def _centred_sxx(m):
    """Sum of (j - mean j)^2 over m consecutive j, m(m^2 - 1)/12: in
    float64 it stays within an ulp of the exact value up to m ~ 1e8."""
    return m * (m * m - 1.0) / 12.0


# Rows of the trace per block of the OLS fast scan; its temporaries are
# O(block), so only the N-long statistic grows with the series.
OLS_BLOCK_ROWS = 8192


def _prefix_blocks(c: np.ndarray):
    """Yield ``(lo, j, p1, pj, p2)`` for each block of ``OLS_BLOCK_ROWS``
    rows of the trace ``c`` from row ``lo`` on: the 1-based indices ``j`` and
    the running sums of d, j*d and d*d, where d is ``c`` minus its end-point
    chord.

    ``np.cumsum`` adds left to right, so a block summed after the previous
    block's last value repeats the additions of one cumsum over the whole
    trace bit for bit.  The first block starts from -0.0, since
    -0.0 + x == x for every x, a leading -0.0 included.
    """
    n_total = c.shape[0]
    last = (-0.0, -0.0, -0.0)
    for lo in range(0, n_total, OLS_BLOCK_ROWS):
        hi = min(lo + OLS_BLOCK_ROWS, n_total)
        j = np.arange(lo + 1, hi + 1, dtype=float)
        chord = c[0] + (c[-1] - c[0]) * (j - 1.0) / (n_total - 1.0)
        d = c[lo:hi] - chord
        terms = (d, j * d, d * d)
        sums = [np.cumsum(np.concatenate(([x], t)))[1:] for x, t in zip(last, terms)]
        last = [p[-1] for p in sums]
        yield lo, j, *sums


def _fast_scan(c: np.ndarray, s: np.ndarray) -> None:
    """Write the combined SSR of every candidate n = 2..N-2 into
    ``s[n - 1]`` from prefix sums, in two passes over blocks of the trace:
    the first finds the totals, the second the statistic.  A trace of one
    block is summed once, and both passes read that block."""
    n_total = c.shape[0]
    one_block = list(_prefix_blocks(c)) if n_total <= OLS_BLOCK_ROWS else None
    for *_, p1, pj, p2 in one_block or _prefix_blocks(c):
        pass
    t1, tj, t2 = p1[-1], pj[-1], p2[-1]
    for lo, j, p1, pj, p2 in one_block or _prefix_blocks(c):
        # candidates n = 2..N-2 sit at rows 1..N-3; the left line fits
        # j = 1..n about its mean (n + 1)/2, the right one j = n+1..N about
        # (n + 1 + N)/2
        k = slice(max(lo, 1) - lo, min(lo + j.size, n_total - 2) - lo)
        if k.start >= k.stop:
            continue
        n, p1k = j[k], p1[k]
        left = _ssr_from_stats(n, p1k, pj[k] - (n + 1) / 2 * p1k, p2[k])
        r1 = t1 - p1k
        right = _ssr_from_stats(
            n_total - n,
            r1,
            tj - pj[k] - (n + 1 + n_total) / 2 * r1,
            t2 - p2[k],
        )
        s[lo + k.start : lo + k.stop] = left + right


def ols_detect(trace: CssTrace) -> DetectionResult:
    """Argmin over candidates n in {2..N-2} of the combined SSR of two line
    fits to (j, C_j), j = 1..n and j = n+1..N.

    The scan is O(N) via prefix sufficient statistics after subtracting the
    end-point chord from the trace (residuals are invariant under subtracting
    any fixed line, and the conditioning improves enormously).  It runs over
    blocks of ``OLS_BLOCK_ROWS`` rows, so besides the N-long statistic it
    holds only block-sized arrays.  Entries of ``statistic_trace`` outside
    the candidate range are NaN.  When the scan overflows (a finite trace
    near the float limit whose detrended squares do not fit) it raises
    :class:`NonFiniteTrace`.
    """
    n_total = trace.source_length
    if n_total < 6:
        raise InsufficientLength("OLS split fitting needs at least 6 points")
    _require_finite(trace)
    c = trace.values
    s = np.full(n_total, np.nan)
    valid = s[1 : n_total - 2]
    # A finite trace near the float limit can still overflow d * d or
    # dxy * dxy; an inf clipped to an SSR of 0 would win the argmin.
    try:
        with np.errstate(over="raise", invalid="raise"):
            _fast_scan(c, s)
        # a NaN or inf that raised no flag would still decide the argmin
        if not np.all(np.isfinite(valid)):
            raise FloatingPointError
    except FloatingPointError:
        raise NonFiniteTrace(
            "OLS statistic overflows float64 on this trace; rescale the series"
        ) from None
    return _result(trace, METHOD_OLS, s, 2 + int(np.argmin(valid)))


class Orientation(enum.Enum):
    """Shape of a robust CSS trace relative to its end-point chord."""

    CONCAVE = "concave"
    CONVEX = "convex"


def reverse_sample(values) -> np.ndarray:
    """A reversed copy of the sample."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    return arr[::-1].copy()


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


def _vote(ns: np.ndarray, values: np.ndarray) -> tuple[bool, float]:
    """The chord vote of the points (n, C_n): whether they are convex, that
    is no more of them lie above the chord than below it (a tie is
    convex), unless they are finite and all on the chord, a line such as
    a constant series gives, which keeps its order; and the margin
    |above - below| over the interior points (0 when there is none)."""
    above, below = _chord_counts(ns, values)
    line = above == below == 0 and bool(np.all(np.isfinite(values)))
    votes = ns.size - 2
    return above <= below and not line, abs(above - below) / votes if votes else 0.0


def detect_orientation(trace: CssTrace) -> Orientation:
    """Classify the trace by the chord vote of its interior points, n = 2
    .. N-1, against the chord through (2, C_2) and (N-1, C_{N-1}): concave
    when more of them lie above the chord than below it, or when the trace
    is finite and exactly linear; convex otherwise.
    """
    n_total = trace.source_length
    if n_total < 4:
        raise InsufficientLength("orientation needs at least 4 points")
    convex, _ = _vote(np.arange(2, n_total), trace.values[1 : n_total - 1])
    return Orientation.CONVEX if convex else Orientation.CONCAVE


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


# A robust spec takes its chord vote on the forward trace at every
# ORIENT_STRIDE-th prefix, n = 2, 2 + k, ... and N - 1; each C_n depends
# only on its own prefix.
ORIENT_STRIDE = 16
# When that vote's margin falls below this, orient builds the full forward
# trace and votes on all of it.
ORIENT_MIN_MARGIN = 0.5


def _orientation_runs(is_robust: bool, orientation: str) -> bool:
    """Whether :func:`orient` tests the orientation: ``"on"``, or
    ``"auto"`` with a robust spec.  Only that test reads ``head_len`` and
    ``threshold``."""
    return orientation == "on" or (orientation == "auto" and is_robust)


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
    when its forward trace is convex (scale increases make the robust trace
    bend below its chord), unless the reversed trace has the constant-head
    signature (:func:`constant_prefix_check` with ``head_len`` and
    ``threshold``).  The test needs at least max(8, head_len + 2) points,
    checked before any trace is built.  With orientation off, the
    classical spec gives :func:`classical_css` and a robust spec its
    forward trace.  A ``head_len`` below 1 or a ``threshold`` that is NaN
    or outside [0, 1] raises :class:`InvalidParameter` on every call.

    A robust spec first votes on its forward trace at every
    ``ORIENT_STRIDE``-th prefix (16) plus N - 1, which costs about N / 16
    scale estimates.  When that vote's margin is below
    ``ORIENT_MIN_MARGIN`` (0.5), and always for the classical spec, the
    full forward trace is built and :func:`detect_orientation` decides.  A
    convex decision builds the reversed trace, and a concave one, or a
    constant-prefix fallback, the forward trace if it is not built yet.  So
    a robust ``orient`` builds about one trace, and two only after a close
    vote that reverses or a constant-prefix fallback.  Any number of
    detectors can then run on the result with :func:`detect_oriented`.
    """
    spec = spec if spec is not None else ScaleEstimatorSpec.bmid()
    if orientation not in ORIENTATIONS:
        raise InvalidParameter(
            f"orientation must be one of {ORIENTATIONS}, got {orientation!r}"
        )
    _check_head_params(head_len, threshold)
    if not _orientation_runs(spec.is_robust, orientation):
        if not spec.is_robust:
            return OrientedTrace(classical_css(values))
        return OrientedTrace(robust_css(values, spec))
    arr = _as_sample(values, min_len=max(8, head_len + 2), what="series")
    # the classical trace is one cumsum, so it always takes the full vote
    convex, margin = True, 0.0
    if spec.is_robust:
        ns = np.append(np.arange(2, arr.size - 1, ORIENT_STRIDE), arr.size - 1)
        convex, margin = _vote(ns, _robust_scan(arr, spec, ns)[0])
    forward = None
    if margin < ORIENT_MIN_MARGIN:
        forward = robust_css(arr, spec)
        convex = detect_orientation(forward) is Orientation.CONVEX
    if convex:
        rev = robust_css(reverse_sample(arr), spec)
        if not constant_prefix_check(rev, head_len=head_len, threshold=threshold):
            return OrientedTrace(rev, reversed_applied=True)
    if forward is None:
        forward = robust_css(arr, spec)
    # here a convex trace is one whose reversal failed the prefix check
    return OrientedTrace(forward, constant_prefix_fallback=convex)


def detect_oriented(oriented: OrientedTrace, method: str) -> DetectionResult:
    """Run ICSS or OLS on an oriented trace and map the index back to the
    original order.

    The reversal mapping is n -> N - n + 1; it is applied only when the
    detection actually ran on the reversed trace.
    """
    # each detector is looked up on the module when it runs, so a patched
    # module attribute is the one called
    if method == METHOD_ICSS:
        raw = icss_detect(oriented.trace)
    elif method == METHOD_OLS:
        raw = ols_detect(oriented.trace)
    else:
        raise InvalidParameter(f"unknown method {method!r}")
    cp = raw.change_point
    if oriented.reversed_applied:
        cp = oriented.trace.source_length - cp + 1
    return dataclasses.replace(raw, change_point=cp, oriented=oriented)
