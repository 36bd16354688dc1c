"""From-scratch oracles for the incremental robust scan and the OLS fast
scan, used only by tests.

``naive_css`` recomputes the median and the robust scale of every prefix
through the public estimators; the scan must match it bit for bit,
degenerate prefixes included.  ``bmid_1d`` computes one biweight
midvariance in a plain 1-D pass, the reference for the block kernel's
rows.  ``refit_ols`` refits both lines of every
OLS candidate split with ``np.polyfit``, independently of the prefix-sum
scan.
"""
import math

import numpy as np

from scaleshift import (
    CssTrace,
    DegenerateScale,
    DetectionResult,
    KIND_BMID,
    METHOD_OLS,
    InsufficientLength,
    NonFiniteTrace,
    OrientedTrace,
    ScaleEstimatorSpec,
    WindowTooSmall,
    bmid_variance,
    classical_css,
    mad,
    qcv_variance,
    sample_median,
)


def naive_css(values, spec: ScaleEstimatorSpec) -> CssTrace:
    """The CSS trace of ``values`` for ``spec``, each robust prefix n >= 2
    recomputed from scratch: n*(var + med^2) - var, with variance 0 and
    the prefix recorded as degenerate where the estimator refuses it."""
    arr = np.asarray(values, dtype=float)
    if not spec.is_robust:
        return classical_css(arr)
    out = np.empty(arr.size)
    degenerate = []
    # squares past the float range overflow as they do in the scan
    with np.errstate(over="ignore", invalid="ignore"):
        out[0] = arr[0] * arr[0]
        for n in range(2, arr.size + 1):
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
    return CssTrace(
        values=out,
        estimator=spec,
        source_length=arr.size,
        degenerate_prefixes=tuple(degenerate),
    )


def bmid_1d(values, c: float):
    """The biweight midvariance of ``values`` with constant ``c``, or None
    where it is degenerate, by one 1-D pass in sample order: the
    arithmetic of the estimator's kernel, each sum one ``np.add.reduce``
    over the whole sample, with no block and no row."""
    arr = np.asarray(values, dtype=float)
    med = sample_median(arr)
    mad_val = mad(arr)
    if mad_val == 0.0:
        return None
    k, back = c * mad_val, 1.0
    if k == math.inf:  # the kernel's exact 2^-64 rescale
        s = 2.0**-64
        arr, med, k, back = arr * s, med * s, c * (mad_val * s), 2.0**128
    with np.errstate(over="ignore", invalid="ignore"):
        u = (arr - med) / k
        m = np.minimum(u * u, 1.0)
        w = 1.0 - m
        den = float(np.add.reduce((w * 5.0 - 4.0) * w))
        if den == 0.0:
            return None
        w2 = w * w
        num = float(np.add.reduce(m * (w2 * w2)))
    return arr.size * num / (den * den) * k * k * back


def _refit_ssr(x: np.ndarray, y: np.ndarray) -> float:
    """SSR of a least-squares line through (x, y), fitted from scratch."""
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    return float(np.sum(resid * resid))


def refit_ols(trace: CssTrace) -> DetectionResult:
    """``ols_detect`` with every candidate n in 2..N-2 refit on its own:
    the combined SSR of the lines through (j, C_j) for j = 1..n and
    j = n+1..N.  It raises :class:`NonFiniteTrace` where a refit overflows
    or an SSR is not finite, as the fast scan does."""
    n_total = trace.source_length
    if n_total < 6:
        raise InsufficientLength("OLS split fitting needs at least 6 points")
    c = trace.values
    if not np.all(np.isfinite(c)):
        raise NonFiniteTrace("CSS trace is not finite")
    s = np.full(n_total, np.nan)
    j = np.arange(1, n_total + 1, dtype=float)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for n in range(2, n_total - 1):
                s[n - 1] = _refit_ssr(j[:n], c[:n]) + _refit_ssr(j[n:], c[n:])
        # lstsq inside np.polyfit runs under its own errstate, so a refit
        # can come out NaN without raising
        if not np.all(np.isfinite(s[1 : n_total - 2])):
            raise FloatingPointError
    except FloatingPointError:
        raise NonFiniteTrace("OLS refit overflows float64 on this trace") from None
    cp = 2 + int(np.argmin(s[1 : n_total - 2]))
    return DetectionResult(
        change_point=cp,
        method=METHOD_OLS,
        statistic_trace=s,
        statistic_at_cp=float(s[cp - 1]),
        oriented=OrientedTrace(trace),
    )
