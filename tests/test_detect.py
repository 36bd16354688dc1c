"""Unit tests for the ICSS and OLS detectors and the orientation pipeline."""
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scaleshift.detect as detect_module

from scaleshift import (
    METHOD_ICSS,
    METHOD_OLS,
    DetectionResult,
    InsufficientLength,
    InvalidParameter,
    NonFiniteTrace,
    Orientation,
    OrientedTrace,
    ScaleEstimatorSpec,
    ZeroTotalSumOfSquares,
    classical_css,
    detect_oriented,
    detect_orientation,
    icss_detect,
    ols_detect,
    orient,
    reverse_sample,
    robust_css,
)
from scaleshift.simulate import StableSpec, _stable_draws, gen_stable_series, make_rng

from oracles import refit_ols

# Hand-computed ICSS statistic for [1,1,1,10,10,10]:
# C = [1,2,3,103,203,303], S_n = C_n/303 - n/6
ICSS_HAND_S = [-0.1634, -0.3267, -0.4901, -0.3267, -0.1634, 0.0]


def _two_regime_gaussian(seed=123, n=1000, cp=500, sigma2=3.0):
    rng = make_rng(seed)
    x = rng.standard_normal(n)
    x[cp - 1 :] *= sigma2
    return x


def _wrap(values):
    from scaleshift import CssTrace

    arr = np.asarray(values, dtype=float)
    return CssTrace(
        values=arr, estimator=ScaleEstimatorSpec.classical(), source_length=arr.size
    )


class TestIcssDetect:
    def test_hand_oracle(self):
        res = icss_detect(classical_css([1, 1, 1, 10, 10, 10]))
        assert res.change_point == 3
        assert np.allclose(np.round(res.statistic_trace, 4), ICSS_HAND_S)

    def test_two_regime_gaussian(self):
        res = icss_detect(classical_css(_two_regime_gaussian()))
        assert abs(res.change_point - 499) <= 30

    def test_telescoping(self):
        x = make_rng(6).standard_normal(200)
        res = icss_detect(classical_css(x))
        assert abs(res.statistic_trace[-1]) < 1e-12

    def test_scale_invariance_of_argmax(self):
        x = make_rng(7).standard_normal(300)
        x[150:] *= 2.0
        base = icss_detect(classical_css(x))
        scaled = icss_detect(classical_css(4.2 * x))
        assert scaled.change_point == base.change_point
        assert np.allclose(scaled.statistic_trace, base.statistic_trace, atol=1e-9)

    def test_all_zero_series(self):
        with pytest.raises(ZeroTotalSumOfSquares):
            icss_detect(classical_css([0.0, 0.0, 0.0, 0.0]))

    def test_constant_nonzero_series(self):
        res = icss_detect(classical_css([3.0] * 50))
        assert res.change_point == 2
        assert res.statistic_at_cp == 0.0

    def test_min_length(self):
        with pytest.raises(InsufficientLength):
            icss_detect(classical_css([1.0, 2.0, 3.0]))

    def test_result_fields(self):
        res = icss_detect(classical_css([1, 1, 1, 10, 10, 10]))
        assert res.method == METHOD_ICSS
        assert not res.reversed_applied
        assert not res.constant_prefix_fallback
        assert res.statistic_at_cp == res.statistic_trace[res.change_point - 1]


class TestOlsDetect:
    def test_exact_breakpoint_on_piecewise_linear(self):
        # two exactly linear segments; the jump at the split (one large
        # squared observation) keeps the zero of the statistic unique
        n, k = 40, 17
        j = np.arange(1, n + 1, dtype=float)
        c = np.where(j <= k, j, 30.0 + 4.0 * (j - k))
        res = ols_detect(_wrap(c))
        assert res.change_point == k
        assert res.statistic_at_cp <= 1e-9
        # ICSS lands on the same index for this trace
        assert icss_detect(_wrap(c)).change_point == k

    def test_continuous_kink_ties_to_smaller_index(self):
        # when the two segments share the kink point, splits at k-1 and k
        # are both perfect and the tie breaks to the smaller index
        n, k = 40, 17
        j = np.arange(1, n + 1, dtype=float)
        c = np.where(j <= k, j, float(k) + 4.0 * (j - k))
        res = ols_detect(_wrap(c))
        assert res.change_point == k - 1
        assert res.statistic_at_cp <= 1e-9

    @pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40],
                             ids=["2^-40", "1", "2^40"])
    @pytest.mark.parametrize("n", [6, 7, 50, 400])
    @pytest.mark.parametrize("spec", ["classical", "bmid", "qcv"])
    def test_exact_refit_oracle_agrees(self, spec, n, scale):
        x = make_rng(8).standard_normal(n) * scale
        x[n // 2 :] *= 3.0
        spec = getattr(ScaleEstimatorSpec, spec)()
        tr = orient(x, spec, orientation="off" if n < 8 else "auto").trace
        fast = ols_detect(tr)
        slow = refit_ols(tr)
        assert fast.change_point == slow.change_point
        valid = ~np.isnan(fast.statistic_trace)
        assert np.allclose(
            fast.statistic_trace[valid], slow.statistic_trace[valid], rtol=1e-8
        )

    def test_two_regime_gaussian(self):
        res = ols_detect(classical_css(_two_regime_gaussian()))
        assert abs(res.change_point - 499) <= 40

    def test_nonnegative_statistic(self):
        x = make_rng(9).standard_normal(100)
        res = ols_detect(classical_css(x))
        valid = res.statistic_trace[~np.isnan(res.statistic_trace)]
        assert np.all(valid >= 0.0)

    def test_candidate_range(self):
        x = make_rng(10).standard_normal(50)
        res = ols_detect(classical_css(x))
        s = res.statistic_trace
        # candidates are n in {2..N-2}; everything else is NaN
        assert np.isnan(s[0]) and np.isnan(s[-1]) and np.isnan(s[-2])
        assert not np.any(np.isnan(s[1:-2]))
        assert 2 <= res.change_point <= 48

    def test_min_length(self):
        with pytest.raises(InsufficientLength):
            ols_detect(classical_css([1.0, 2.0, 3.0, 4.0, 5.0]))


def _one_shot_ols_statistic(c):
    """The OLS fast scan as one pass over the whole trace, with N-long
    temporaries: the reference the blocked scan must match bit for bit.
    Returns the statistic and the prefix sums of d, j*d and d*d."""
    n_total = c.size
    j = np.arange(1, n_total + 1, dtype=float)
    k = slice(1, n_total - 2)
    s = np.full(n_total, np.nan)
    with np.errstate(over="raise", invalid="raise"):
        chord = c[0] + (c[-1] - c[0]) * (j - 1.0) / (n_total - 1.0)
        d = c - chord
        p1 = np.cumsum(d)
        pj = np.cumsum(j * d)
        p2 = np.cumsum(d * d)
        ssr = detect_module._ssr_from_stats
        n, r1 = j[k], p1[-1] - p1[k]
        left = ssr(n, p1[k], pj[k] - (n + 1) / 2 * p1[k], p2[k])
        right = ssr(n_total - n, r1,
                    pj[-1] - pj[k] - (n + 1 + n_total) / 2 * r1, p2[-1] - p2[k])
    s[k] = left + right
    return s, (p1, pj, p2)


def _blocked_ols_statistic(trace, block):
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(detect_module, "OLS_BLOCK_ROWS", block)
        return ols_detect(trace).statistic_trace


def _signed_zero_head(n):
    # a trace that starts at -0.0 gives a chord-detrended head of -0.0,
    # whose sign a cumsum continued from +0.0 would lose
    c = np.cumsum(make_rng(n).standard_normal(n) ** 2)
    c[:5] = -0.0
    return _wrap(c)


def _blocked_prefix_sums(trace, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detect_module, "OLS_BLOCK_ROWS", block)
        blocks = list(detect_module._prefix_blocks(trace.values))
    return tuple(np.concatenate([b[i] for b in blocks]) for i in (2, 3, 4))


def _robust_trace(n):
    x = make_rng(n).standard_normal(n)
    x[n // 2 :] *= 2.0
    return robust_css(x, ScaleEstimatorSpec.qcv())


TRACE_KINDS = {
    "classical": lambda n: classical_css(_two_regime_gaussian(seed=n, n=n, cp=n // 2)),
    "robust": _robust_trace,
    "signed_zero_head": _signed_zero_head,
}


class TestOlsBlockedScan:
    """The fast scan runs over blocks of OLS_BLOCK_ROWS rows and must give
    the bytes of one pass over the whole trace, whatever the block size."""

    @pytest.mark.parametrize("kind", sorted(TRACE_KINDS))
    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize("n", [6, 7, 8, 9, 13, 14, 15, 16, 60])
    def test_small_blocks_match_one_pass(self, kind, block, n):
        trace = TRACE_KINDS[kind](n)
        expected, sums = _one_shot_ols_statistic(trace.values)
        assert _blocked_ols_statistic(trace, block).tobytes() == expected.tobytes()
        # the sums themselves, down to the sign of a leading zero
        for got, want in zip(_blocked_prefix_sums(trace, block), sums):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "kind,n",
        [(kind, n) for kind in ("classical", "signed_zero_head")
         for n in (8191, 8192, 8193, 8194, 8195, 16384, 16387)]
        + [("robust", 8195)],
    )
    def test_default_block_edges_match_one_pass(self, kind, n):
        trace = TRACE_KINDS[kind](n)
        expected, _ = _one_shot_ols_statistic(trace.values)
        assert _blocked_ols_statistic(trace, None).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=30
        ),
        block=st.sampled_from([1, 2, 7, 8192]),
    )
    def test_any_finite_trace_matches_one_pass_or_both_overflow(self, values, block):
        trace = _wrap(values)
        try:
            expected, _ = _one_shot_ols_statistic(trace.values)
        except FloatingPointError:
            with pytest.raises(NonFiniteTrace):
                _blocked_ols_statistic(trace, block)
            return
        assert _blocked_ols_statistic(trace, block).tobytes() == expected.tobytes()

    def test_memory_is_the_statistic_plus_blocks(self):
        n = 200_000
        trace = classical_css(_two_regime_gaussian(seed=11, n=n, cp=n // 2))
        tracemalloc.start()
        try:
            ols_detect(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * 8

    @pytest.mark.parametrize("j", [1, 2, 3, 300_000, 1_700_000, 3_000_000, 10**7])
    def test_centred_sxx_within_an_ulp_of_python_integers(self, j):
        # sum of (i - mean)^2 over m consecutive i is m(m^2 - 1)/12 exactly
        got = detect_module._centred_sxx(np.array([j - 1, j, j + 1], dtype=float))
        for value, m in zip(got, (j - 1, j, j + 1)):
            exact = Fraction(m * (m * m - 1), 12)
            assert abs(Fraction(float(value)) - exact) <= Fraction(math.ulp(value))

    def test_long_series_past_the_int64_wrap(self):
        # j(j+1)(2j+1) no longer fits in int64 from N ~ 1.66 M on; the
        # wrapped sums of squares once put this change point at 1 167 799
        x = np.random.default_rng(7).standard_normal(1_800_000)
        x[900_000:] *= 1.3
        trace = classical_css(x)
        ols = ols_detect(trace).change_point
        assert abs(ols - icss_detect(trace).change_point) < 1000
        assert abs(ols - 900_000) < 1000


class TestDetectionResult:
    def test_change_point_bounds_validated(self):
        with pytest.raises(InvalidParameter):
            DetectionResult(
                change_point=1,
                method=METHOD_ICSS,
                statistic_trace=np.zeros(10),
                statistic_at_cp=0.0,
                oriented=OrientedTrace(_wrap(np.arange(1.0, 11.0))),
            )


class TestDetectWithOrientation:
    """The whole pipeline: ``orient``, then ``detect_oriented``."""

    def test_scale_increase_reverses(self):
        series, _ = gen_stable_series(
            StableSpec(alpha=1.8, gamma2=2.0, N=400, cp=200, seed=14)
        )
        tr = robust_css(series, ScaleEstimatorSpec.bmid())
        assert detect_orientation(tr) is Orientation.CONVEX
        res = detect_oriented(orient(series), METHOD_ICSS)
        assert res.reversed_applied
        assert abs(res.change_point - 199) <= 40

    def test_scale_decrease_keeps_order(self):
        series, _ = gen_stable_series(
            StableSpec(alpha=1.8, gamma2=0.25, N=400, cp=200, seed=14)
        )
        tr = robust_css(series, ScaleEstimatorSpec.bmid())
        assert detect_orientation(tr) is Orientation.CONCAVE
        res = detect_oriented(orient(series), METHOD_ICSS)
        assert not res.reversed_applied
        assert abs(res.change_point - 199) <= 40

    def test_reversal_mapping_is_consistent(self):
        # detect on the reversed series directly and check the pipeline's
        # mapped index equals N - cp_rev + 1
        from scaleshift import reverse_sample

        series, _ = gen_stable_series(
            StableSpec(alpha=1.8, gamma2=2.0, N=400, cp=200, seed=14)
        )
        res = detect_oriented(orient(series), METHOD_ICSS)
        assert res.reversed_applied
        spec = ScaleEstimatorSpec.bmid()
        rev_trace = robust_css(reverse_sample(series), spec)
        raw = icss_detect(rev_trace)
        assert res.change_point == 400 - raw.change_point + 1

    def test_no_change_contract(self):
        x = make_rng(5).standard_normal(200)
        res = detect_oriented(orient(x), METHOD_ICSS)
        assert 2 <= res.change_point <= 199

    def test_ols_route(self):
        series, _ = gen_stable_series(
            StableSpec(alpha=1.8, gamma2=2.0, N=400, cp=200, seed=14)
        )
        res = detect_oriented(orient(series, ScaleEstimatorSpec.qcv()), METHOD_OLS)
        assert res.method == METHOD_OLS
        assert 2 <= res.change_point <= 399

    def test_min_length(self):
        with pytest.raises(InsufficientLength):
            orient(np.ones(7))

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameter):
            detect_oriented(orient(make_rng(0).standard_normal(50)), "cusum")


def _spiky_tail(k=5, n=300):
    """A few huge points at the end: the forward robust trace is convex, but
    the reversed one has the constant-head signature."""
    x = make_rng(0).standard_normal(n)
    x[-k:] *= 1000.0
    return x


class TestOrient:
    def test_reversed_trace_is_the_reversed_scan(self):
        series, _ = gen_stable_series(
            StableSpec(alpha=1.8, gamma2=2.0, N=400, cp=200, seed=14)
        )
        spec = ScaleEstimatorSpec.qcv()
        o = orient(series, spec)
        assert o.reversed_applied and not o.constant_prefix_fallback
        assert detect_oriented(o, METHOD_ICSS).reversed_applied
        assert np.array_equal(
            o.trace.values, robust_css(reverse_sample(series), spec).values
        )

    def test_forward_trace_kept(self):
        series, _ = gen_stable_series(
            StableSpec(alpha=1.8, gamma2=0.25, N=400, cp=200, seed=14)
        )
        o = orient(series)
        assert not o.reversed_applied and not o.constant_prefix_fallback
        assert np.array_equal(
            o.trace.values, robust_css(series, ScaleEstimatorSpec.bmid()).values
        )

    def test_constant_prefix_fallback_keeps_forward_trace(self):
        x = _spiky_tail()
        spec = ScaleEstimatorSpec.bmid()
        assert detect_orientation(robust_css(x, spec)) is Orientation.CONVEX
        o = orient(x, spec)
        assert o.constant_prefix_fallback and not o.reversed_applied
        assert not detect_oriented(o, METHOD_ICSS).reversed_applied
        assert np.array_equal(o.trace.values, robust_css(x, spec).values)

    @pytest.mark.parametrize("gamma2", [2.0, 0.25])
    def test_one_trace_serves_both_detectors(self, gamma2):
        series, _ = gen_stable_series(
            StableSpec(alpha=1.8, gamma2=gamma2, N=400, cp=200, seed=14)
        )
        spec = ScaleEstimatorSpec.bmid()
        o = orient(series, spec)
        for method in (METHOD_ICSS, METHOD_OLS):
            shared = detect_oriented(o, method)
            alone = detect_oriented(orient(series, spec), method)
            assert shared.change_point == alone.change_point
            assert shared.reversed_applied == alone.reversed_applied
            assert shared.statistic_at_cp == alone.statistic_at_cp
            assert np.array_equal(
                shared.statistic_trace, alone.statistic_trace, equal_nan=True
            )
            assert shared.trace is o.trace
            assert np.array_equal(alone.trace.values, o.trace.values)

    @pytest.mark.parametrize("case", ["forward", "reversed", "fallback"])
    @pytest.mark.parametrize("method", [METHOD_ICSS, METHOD_OLS])
    def test_result_keeps_the_oriented_trace(self, case, method):
        series = {
            "forward": lambda: _two_regime_gaussian(n=300, cp=150, sigma2=1 / 3),
            "reversed": lambda: _two_regime_gaussian(n=300, cp=150),
            "fallback": _spiky_tail,
        }[case]()
        o = orient(series)
        assert (o.reversed_applied, o.constant_prefix_fallback) == (
            case == "reversed", case == "fallback")
        res = detect_oriented(o, method)
        assert res.oriented is o
        assert res.trace is o.trace
        assert res.reversed_applied == o.reversed_applied
        assert res.constant_prefix_fallback == o.constant_prefix_fallback

    def test_fallback_result_flags(self):
        res = detect_oriented(orient(_spiky_tail()), METHOD_OLS)
        assert res.constant_prefix_fallback and not res.reversed_applied

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameter):
            detect_oriented(orient(_spiky_tail()), "cusum")


class TestOrientationChoice:
    """``orient`` decides trace and order for every spec: orientation runs
    for robust specs under ``auto`` and for any spec under ``on``."""

    def test_classical_auto_is_the_classical_trace(self):
        x = _two_regime_gaussian(n=300, cp=150)
        for orientation in ("auto", "off"):
            o = orient(x, ScaleEstimatorSpec.classical(), orientation=orientation)
            assert not o.reversed_applied and not o.constant_prefix_fallback
            assert np.array_equal(o.trace.values, classical_css(x).values)

    def test_classical_on_reverses_a_scale_increase(self):
        x = _two_regime_gaussian(n=300, cp=150)
        spec = ScaleEstimatorSpec.classical()
        o = orient(x, spec, orientation="on")
        assert o.reversed_applied
        assert np.array_equal(
            o.trace.values, robust_css(reverse_sample(x), spec).values
        )
        assert detect_oriented(o, METHOD_ICSS).reversed_applied

    @pytest.mark.parametrize("sigma2", [3.0, 1 / 3])
    def test_classical_on_scans_classical_css(self, sigma2):
        x = _two_regime_gaussian(n=300, cp=150, sigma2=sigma2)
        o = orient(x, ScaleEstimatorSpec.classical(), orientation="on")
        assert o.reversed_applied == (sigma2 > 1.0)
        sample = reverse_sample(x) if o.reversed_applied else x
        assert np.array_equal(o.trace.values, classical_css(sample).values)

    def test_robust_off_keeps_the_forward_trace(self):
        x = _two_regime_gaussian(n=300, cp=150)
        spec = ScaleEstimatorSpec.qcv()
        assert orient(x, spec).reversed_applied
        o = orient(x, spec, orientation="off")
        assert not o.reversed_applied
        assert np.array_equal(o.trace.values, robust_css(x, spec).values)

    def test_min_length_only_when_orientation_runs(self):
        x = make_rng(1).standard_normal(7)
        assert orient(x, ScaleEstimatorSpec.classical()).trace.source_length == 7
        assert orient(x, orientation="off").trace.source_length == 7
        with pytest.raises(InsufficientLength):
            orient(x)
        with pytest.raises(InsufficientLength):
            orient(x, ScaleEstimatorSpec.classical(), orientation="on")

    def test_head_len_checked_before_any_scan(self, prefix_estimates):
        x = _two_regime_gaussian(n=300, cp=150)
        for orientation in ("auto", "on", "off"):
            with pytest.raises(InvalidParameter):
                orient(x, orientation=orientation, head_len=0)
        # a convex and a concave forward trace alike
        for sigma2 in (3.0, 1 / 3):
            x = _two_regime_gaussian(n=300, cp=150, sigma2=sigma2)
            with pytest.raises(InsufficientLength):
                orient(x, head_len=x.size - 1)
            with pytest.raises(InsufficientLength):
                orient(x, ScaleEstimatorSpec.classical(), orientation="on",
                       head_len=x.size - 1)
        assert not prefix_estimates
        assert orient(x, head_len=x.size - 2).trace.source_length == x.size

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, -1e-300, 1.5])
    def test_threshold_checked_before_any_scan(self, threshold, prefix_estimates):
        # a NaN or negative threshold would turn the constant-prefix
        # fallback off: eps < threshold is then always false
        for sigma2 in (3.0, 1 / 3):
            x = _two_regime_gaussian(n=300, cp=150, sigma2=sigma2)
            for spec in (ScaleEstimatorSpec.bmid(), ScaleEstimatorSpec.classical()):
                for orientation in ("auto", "on", "off"):
                    with pytest.raises(InvalidParameter, match="threshold"):
                        orient(x, spec, orientation=orientation, threshold=threshold)
        assert not prefix_estimates

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_bounds_are_accepted(self, threshold):
        x = _spiky_tail()
        o = orient(x, threshold=threshold)
        # eps < 0 never holds; eps < 1 holds on this spiky tail
        assert o.constant_prefix_fallback is (threshold == 1.0)

    def test_unknown_orientation_rejected(self):
        x = _two_regime_gaussian(n=100, cp=50)
        with pytest.raises(InvalidParameter):
            orient(x, orientation="sideways")


def _strided_estimates(n):
    """Prefix estimates of the strided vote on an N-point series."""
    return math.ceil((n - 3) / detect_module.ORIENT_STRIDE) + 1


class TestStridedVote:
    """A robust spec votes on every ORIENT_STRIDE-th prefix of its forward
    trace and builds only the trace it keeps, unless the vote is close."""

    def test_reversal_builds_no_forward_trace(self, prefix_estimates):
        series, _ = gen_stable_series(
            StableSpec(alpha=1.8, gamma2=2.0, N=400, cp=200, seed=14)
        )
        o = orient(series, ScaleEstimatorSpec.qcv())
        assert o.reversed_applied
        assert prefix_estimates == {"qcv": _strided_estimates(400) + 399}

    def test_fallback_builds_both_traces(self, prefix_estimates):
        o = orient(_spiky_tail())
        assert o.constant_prefix_fallback
        assert prefix_estimates == {"bmid": _strided_estimates(300) + 2 * 299}

    @pytest.mark.parametrize("n", [8, 12, 18])
    def test_no_interior_vote_takes_the_full_vote(self, n, prefix_estimates):
        # n <= ORIENT_STRIDE + 3: only the chord's end points are strided
        spec = ScaleEstimatorSpec.bmid()
        for seed in range(6):
            x = _two_regime_gaussian(seed=seed, n=n, cp=n // 2)
            convex = detect_orientation(robust_css(x, spec)) is Orientation.CONVEX
            prefix_estimates.clear()
            o = orient(x, spec)
            assert (o.reversed_applied or o.constant_prefix_fallback) == convex
            assert prefix_estimates["bmid"] == 2 + (n - 1) * (1 + convex)

    @pytest.mark.parametrize("spec", [ScaleEstimatorSpec.bmid(), ScaleEstimatorSpec.qcv()],
                             ids=["bmid", "qcv"])
    def test_margin_bound_sends_every_vote_to_the_full_trace(
        self, spec, prefix_estimates, monkeypatch
    ):
        # no margin reaches 1.01, so each call votes as the full trace does
        monkeypatch.setattr(detect_module, "ORIENT_MIN_MARGIN", 1.01)
        for sigma2 in (3.0, 1 / 3):
            prefix_estimates.clear()
            x = _two_regime_gaussian(n=300, cp=150, sigma2=sigma2)
            o = orient(x, spec)
            assert o.reversed_applied == (sigma2 > 1.0)
            assert prefix_estimates[spec.kind] == (
                _strided_estimates(300) + 299 * (1 + o.reversed_applied)
            )

    @pytest.mark.parametrize("n", [100, 200, 1000])
    def test_decision_matches_the_full_vote(self, n):
        """orient decides as the full forward vote does on 200 changed
        series (stable, scale x3 or /3 at N/2), with BMID and with QCV.  On
        200 null series (iid stable) the strided vote is a sample of a vote
        that has no change to find; at most 1 % of those decisions differ.
        """
        differ = {"changed": 0, "null": 0}
        for i in range(400):
            alpha = (1.1, 1.5, 2.0)[i % 3]
            if i < 200:
                x, _ = gen_stable_series(StableSpec(
                    alpha=alpha, gamma2=(3.0, 1 / 3)[i % 2], N=n, seed=i))
            else:
                x = _stable_draws(alpha, 1.0, n, make_rng((n, i)))
            for spec in (ScaleEstimatorSpec.bmid(), ScaleEstimatorSpec.qcv()):
                o = orient(x, spec)
                convex = o.reversed_applied or o.constant_prefix_fallback
                full = robust_css(x, spec) if convex else o.trace
                if convex != (detect_orientation(full) is Orientation.CONVEX):
                    differ["changed" if i < 200 else "null"] += 1
        print(f"N={n}: decisions that differ from the full vote: {differ}")
        assert differ["changed"] == 0
        assert differ["null"] <= 4


class TestScaleEquivariance:
    """Scaling a series by a power of two scales every trace by an exact
    power of four, so neither the change point nor a flag may move."""

    @pytest.mark.parametrize(
        "scale", [2.0**-30, 2.0**-25, 2.0**20], ids=["2^-30", "2^-25", "2^20"]
    )
    @pytest.mark.parametrize(
        "spec",
        [ScaleEstimatorSpec.bmid(), ScaleEstimatorSpec.qcv(),
         ScaleEstimatorSpec.classical()],
        ids=["bmid", "qcv", "classical"],
    )
    def test_power_of_two_scaling(self, spec, scale):
        for sigma2 in (3.0, 1 / 3):
            x = _two_regime_gaussian(n=300, cp=150, sigma2=sigma2)
            base = orient(x, spec, orientation="on")
            scaled = orient(scale * x, spec, orientation="on")
            assert np.array_equal(scaled.trace.values, scale**2 * base.trace.values)
            for method in (METHOD_ICSS, METHOD_OLS):
                a = detect_oriented(base, method)
                b = detect_oriented(scaled, method)
                assert (b.change_point, b.reversed_applied,
                        b.constant_prefix_fallback) == (
                    a.change_point, a.reversed_applied,
                    a.constant_prefix_fallback)


class TestNonFiniteTrace:
    """Squares of |x| ~ 1e160 overflow float64; the detectors must refuse
    the trace instead of reporting index 2 with a NaN statistic, and the
    overflow raises no numpy warning on the way."""

    SPECS = [
        ScaleEstimatorSpec.classical(),
        ScaleEstimatorSpec.bmid(),
        ScaleEstimatorSpec.qcv(),
    ]

    @pytest.fixture()
    def huge(self):
        return 1e160 * _two_regime_gaussian(n=200, cp=100)

    def test_classical_detectors(self, huge):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = classical_css(huge)
            for detector in (icss_detect, ols_detect):
                with pytest.raises(NonFiniteTrace):
                    detector(trace)
            for orientation in ("auto", "on", "off"):
                oriented = orient(huge, ScaleEstimatorSpec.classical(),
                                  orientation=orientation)
                with pytest.raises(NonFiniteTrace):
                    detect_oriented(oriented, METHOD_ICSS)

    @pytest.mark.parametrize("method", [METHOD_ICSS, METHOD_OLS])
    @pytest.mark.parametrize("spec", SPECS[1:])
    def test_robust_pipeline(self, huge, method, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for orientation in ("auto", "on", "off"):
                oriented = orient(huge, spec, orientation=orientation)
                with pytest.raises(NonFiniteTrace):
                    detect_oriented(oriented, method)

    @pytest.mark.parametrize("scale", [1e76, 1e150])
    @pytest.mark.parametrize("spec", SPECS)
    def test_ols_refuses_overflow_on_a_finite_trace(self, scale, spec):
        # the trace fits in float64, but OLS squares the chord-detrended
        # trace (1e150) or its cross sums (1e76), and an SSR clipped or
        # NaN after the overflow once put the change point at 2
        x = np.random.default_rng(5).standard_normal(50) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oriented = orient(x, spec)
            assert np.all(np.isfinite(oriented.trace.values))
            with pytest.raises(NonFiniteTrace):
                detect_oriented(oriented, METHOD_OLS)

    @pytest.mark.parametrize("spec", SPECS[1:])
    def test_icss_refuses_an_overflowing_ratio(self, spec):
        # the median of the 1e-160 tail and a MAD of 0 make C_N about
        # 1e-318, so C_2 = 2e20 over C_N overflows; an inf statistic would
        # win the argmax
        x = np.array([1e10, 1e10] + [1e-160] * 98)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oriented = orient(x, spec, orientation="off")
            assert np.all(np.isfinite(oriented.trace.values))
            assert 0.0 < oriented.trace.values[-1] < 1e-300
            with pytest.raises(NonFiniteTrace):
                detect_oriented(oriented, METHOD_ICSS)
            # the classical trace rises to C_N, so its ratio stays finite
            assert np.isfinite(icss_detect(classical_css(x)).statistic_at_cp)

    @pytest.mark.parametrize("spec", SPECS)
    def test_ols_oracle_refuses_overflow(self, spec):
        # the refit of every candidate squares residuals of order 1e302
        x = np.random.default_rng(5).standard_normal(50) * 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = orient(x, spec).trace
            with pytest.raises(NonFiniteTrace):
                refit_ols(trace)

    @pytest.mark.parametrize("scale", [1e154, 1.7976931348623157e308])
    @pytest.mark.parametrize("spec", SPECS)
    def test_orient_is_quiet_at_the_float_limit(self, scale, spec):
        # 1e154: finite squares whose sums overflow; the largest double:
        # differences overflow too
        x = _two_regime_gaussian(n=200, cp=100)
        x = x / np.max(np.abs(x)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            orient(x, spec, orientation="on")

    @pytest.mark.parametrize(
        "spec", [ScaleEstimatorSpec.bmid(), ScaleEstimatorSpec.qcv()]
    )
    def test_lone_overflowing_first_value_still_detects(self, spec):
        # Only x_1 is huge: the forward trace starts with inf, yet the
        # chord test still sees the scale increase, and the reversed trace
        # it selects, which ends at x_1, is finite
        x = _two_regime_gaussian(n=600, cp=300)
        x[0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(robust_css(x, spec).values[0])
            res = detect_oriented(orient(x, spec), METHOD_ICSS)
        assert res.reversed_applied
        assert abs(res.change_point - 300) <= 15
