"""Unit tests for the location and scale estimators."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaleshift import (
    BmidConfig,
    DegenerateScale,
    EmptySample,
    InsufficientLength,
    InvalidParameter,
    NonFiniteSample,
    QcvBounds,
    ScaleEstimatorSpec,
    WindowTooSmall,
    bmid_variance,
    mad,
    qcv_variance,
    robust_css,
    sample_mean,
    sample_median,
    sample_variance,
)
from scaleshift.simulate import make_rng

# value computed by an independent direct transcription of the biweight
# midvariance formula in a standalone script, frozen here
BMID_1_TO_5_C9 = 2.2970639913576165


def _plain_mean(arr):
    """The mean as ``sample_mean`` gave it before its overflow rescue."""
    return np.sum(arr) / arr.size


def _plain_variance(arr):
    """The two-pass variance as ``sample_variance`` gave it before it
    shared QCV's kernel and its overflow rescue."""
    mu = np.sum(arr) / arr.size
    d = arr - mu
    return np.sum(d * d) / (arr.size - 1)


def _exact_mean_and_variance(x):
    w = [Fraction(v) for v in x.tolist()]
    mean = sum(w) / len(w)
    return mean, sum((v - mean) ** 2 for v in w) / (len(w) - 1)


def _assert_variance_near(got, exact):
    """``got`` is ``exact`` to 1e-10, or inf where that is past the float
    range."""
    if exact > Fraction(np.finfo(float).max):
        assert got == math.inf
    elif exact:
        assert abs(Fraction(got) / exact - 1) < 1e-10
    else:
        assert got == 0.0


class TestSampleMean:
    def test_symmetric(self):
        assert sample_mean([1, 2, 3]) == 2.0

    def test_singleton(self):
        assert sample_mean([5]) == 5.0

    def test_antisymmetric_pair(self):
        assert sample_mean([-1, 1]) == 0.0

    def test_empty(self):
        with pytest.raises(EmptySample):
            sample_mean([])


class TestSampleVariance:
    def test_consecutive(self):
        assert sample_variance([1, 2, 3]) == 1.0

    def test_constant(self):
        assert sample_variance([7.5] * 4) == 0.0

    def test_unbiased_divisor(self):
        # mean 1, squared deviations {1,1,1,9}, divisor 3
        assert sample_variance([0, 0, 0, 4]) == 4.0

    def test_too_short(self):
        with pytest.raises(InsufficientLength):
            sample_variance([1.0])


class TestClassicalFloatLimits:
    """``sample_mean`` and ``sample_variance`` keep the plain formulas'
    bits wherever those are finite; where the sum or a squared deviation
    overflows they rescale by a power of two, quietly, and the variance
    is inf only where the variance itself is past the float range."""

    @pytest.mark.parametrize(
        "x, mean, var",
        [
            (np.full(8, 2.0**1023), 2.0**1023, 0.0),
            (np.full(10, 1e308), 1e308, 0.0),
            # the sum is inf - inf; the variance, about 1e614, overflows
            (np.repeat([-1e307, 1e307], 160), 0.0, math.inf),
        ],
        ids=["2^1023", "1e308", "both-ways"],
    )
    def test_sum_past_the_float_range(self, x, mean, var):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_mean(x) == mean
            assert sample_variance(x) == var

    @pytest.mark.parametrize("at", [0, 1, 500, 998, 999])
    def test_one_squared_deviation_past_the_float_range(self, at):
        # 1000 zeros and one 1e155, anywhere: its squared deviation
        # overflows, the variance, 1e310 / 1000, does not; the rescue
        # takes its power of two from the largest deviation, not from the
        # sample's ends
        x = np.zeros(1000)
        x[at] = 1e155
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sample_variance(x)
        assert abs(Fraction(got) / (Fraction(1e155) ** 2 / 1000) - 1) < 1e-12
        assert sample_mean(x) == 1e152

    def test_near_limit_samples_match_exact_values(self):
        # unsorted samples whose sum or squared deviations overflow,
        # though the mean and variance may not
        rng = make_rng(30)
        for i in range(200):
            n = int(rng.integers(2, 41))
            kind = i % 4
            if kind == 0:  # one huge level and one extreme value
                x = np.full(n, rng.uniform(0.1, 1.0) * 1.79e308)
                x[rng.integers(n)] = -1.79e308
            elif kind == 1:  # a spread across the whole float range
                x = rng.uniform(-1.0, 1.0, n) * 1.79e308
            elif kind == 2:  # two levels some 1e154 apart
                x = (rng.random(n) < 0.3) * 10.0 ** rng.uniform(153, 155)
            else:  # every value near the limit
                x = rng.uniform(0.5, 1.0, n) * 1.79e308
            mean, var = _exact_mean_and_variance(x)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got_mean, got_var = sample_mean(x), sample_variance(x)
            assert abs(Fraction(got_mean) - mean) <= n * 2.0**-52 * np.abs(x).max()
            _assert_variance_near(got_var, var)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False)
                | st.floats(-1e6, 1e6),
                min_size=2,
                max_size=300,
            ),
            # near the float limit, where the sum overflows
            st.lists(
                st.floats(1e306, 1.79e308) | st.floats(-1.79e308, -1e306),
                min_size=2,
                max_size=300,
            ),
            st.lists(st.floats(1e306, 1.79e308), min_size=2, max_size=300),
        )
    )
    def test_plain_formula_bits_where_finite(self, values):
        x = np.asarray(values)
        with np.errstate(all="ignore"):
            plain_mean, plain_var = _plain_mean(x), _plain_variance(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_mean, got_var = sample_mean(x), sample_variance(x)
        if np.isfinite(plain_mean):
            assert np.float64(got_mean).tobytes() == plain_mean.tobytes()
        else:
            assert math.isfinite(got_mean)
        if np.isfinite(plain_var):
            assert np.float64(got_var).tobytes() == plain_var.tobytes()
        else:
            _assert_variance_near(got_var, _exact_mean_and_variance(x)[1])


class TestSampleMedian:
    def test_odd(self):
        assert sample_median([3, 1, 2]) == 2.0

    def test_even_midpoint(self):
        assert sample_median([1, 2, 3, 4]) == 2.5

    def test_singleton(self):
        assert sample_median([7]) == 7.0

    def test_empty(self):
        with pytest.raises(EmptySample):
            sample_median([])

    @pytest.mark.parametrize("values, want", [
        ([1.7976931348623157e308] * 2, 1.7976931348623157e308),
        ([-1.7976931348623157e308] * 2, -1.7976931348623157e308),
        ([1e308, 1.5e308, 1e308, 1.5e308], 1.25e308),
    ])
    def test_even_midpoint_past_half_the_float_range(self, values, want):
        # the two middle values sum past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_median(values) == want

    @pytest.mark.parametrize("pair", [
        (1.0, 2.0), (-3.5, 7.25), (0.1, 0.2), (5e-324, 1e-323), (-0.0, 0.0),
        (1e308, 7.9e307), (-1e308, 1.7976931348623157e308),
    ])
    def test_even_midpoint_within_range_is_the_halved_sum(self, pair):
        a, b = pair
        got = sample_median([a, b])
        assert np.float64(got).tobytes() == np.float64((a + b) / 2).tobytes()


class TestMad:
    def test_constant(self):
        assert mad([4.2, 4.2, 4.2]) == 0.0

    def test_consecutive(self):
        assert mad([1, 2, 3]) == 1.0

    def test_majority_constant(self):
        # deviations from median 1 are {0,0,0,99}; their median is 0
        assert mad([1, 1, 1, 100]) == 0.0

    def test_no_normalization(self):
        # raw median of absolute deviations, no consistency factor
        assert mad([0.0, 1.0, 2.0, 3.0, 4.0]) == 1.0

    @pytest.mark.parametrize("values, want", [
        ([1.7976931348623157e308] * 2, 0.0),
        ([1e308, 1.5e308, 1e308, 1.5e308], 2.5e307),
    ])
    def test_median_past_half_the_float_range(self, values, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mad(values) == want

    def test_overflowing_deviation_is_quiet(self):
        # the last deviation from the median is past the float range: it is
        # inf and sorts last, as a large finite one does
        x = np.append(-1e308 + np.arange(10) * 1e306, 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mad(x) == mad(np.append(x[:-1], 1e307))


def _textbook_bmid(values, c) -> Fraction:
    """n sum d^2 (1 - u^2)^4 / (sum (1 - u^2)(1 - 5u^2))^2 over |u| < 1, with
    d = x - med and u = d / (c MAD), exact about the float median and MAD."""
    med = Fraction(sample_median(values))
    k = Fraction(c) * Fraction(mad(values))
    num = den = Fraction(0)
    for x in values.tolist():
        d = Fraction(x) - med
        u2 = (d / k) ** 2
        if u2 < 1:
            w = 1 - u2
            num += d * d * w**4
            den += w * (1 - 5 * u2)
    return len(values) * num / (den * den)


class TestBmidVariance:
    def test_frozen_oracle_value(self):
        assert bmid_variance([1, 2, 3, 4, 5], BmidConfig(c=9.0)) == pytest.approx(
            BMID_1_TO_5_C9, rel=1e-15
        )

    def test_default_config_is_c9(self):
        assert bmid_variance([1, 2, 3, 4, 5]) == pytest.approx(
            BMID_1_TO_5_C9, rel=1e-15
        )

    def test_gaussian_consistency(self):
        rng = make_rng(4)
        v = bmid_variance(rng.standard_normal(10000))
        assert abs(v - 1.0) < 0.1

    def test_contamination_resistance(self):
        rng = make_rng(99)
        s = rng.standard_normal(200)
        s2 = s.copy()
        s2[17] = 1e6
        b0, b1 = bmid_variance(s), bmid_variance(s2)
        assert abs(b1 - b0) / b0 < 0.5
        assert sample_variance(s2) / sample_variance(s) > 1e6

    def test_degenerate_mad(self):
        with pytest.raises(DegenerateScale):
            bmid_variance([2.0, 2.0, 2.0, 2.0])
        with pytest.raises(DegenerateScale):
            bmid_variance([1, 1, 1, 100])  # MAD 0 despite unequal values

    def test_too_short(self):
        with pytest.raises(InsufficientLength):
            bmid_variance([3.0])

    @pytest.mark.parametrize(
        "values, c",
        [([0, 0, 2, 2], 1.0), ([0, 0, 2, 2], 0.5), ([-3, -1, 1, 3], 0.5)],
    )
    def test_empty_weights_are_degenerate(self, values, c):
        # the MAD is positive, but no point has |u| < 1, so both sums are
        # empty and the variance is 0 / 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mad(values) > 0.0
            with pytest.raises(DegenerateScale):
                bmid_variance(values, BmidConfig(c))

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_exact_textbook_sums(self, seed):
        # Gaussian, Cauchy and tie-heavy integer samples of 5..200 points
        # at scales 2^-40..2^40, against the textbook sums over |u| < 1 in
        # exact rational arithmetic about the same median and MAD
        rng = make_rng(1000 + seed)
        n = int(rng.integers(5, 201))
        draw = (rng.standard_normal, rng.standard_cauchy,
                lambda m: rng.integers(-20, 21, m).astype(float))[seed % 3]
        x = draw(n) * 2.0 ** int(rng.integers(-40, 41))
        for c in (9.0, 4.5, 2.0):
            exact = _textbook_bmid(x, c)
            assert abs(Fraction(bmid_variance(x, BmidConfig(c))) / exact - 1) < 1e-13

    @pytest.mark.parametrize(
        "x",
        [
            # the last point lies past the float range above the median, so
            # it must add zeros to both sums, not inf * 0
            np.append(-1e308 + np.arange(10) * 1e306, 1.7e308),
            # c * MAD itself is past the float range
            np.arange(-4.0, 5.0) * 3e307,
        ],
        ids=["deviation", "c-times-mad"],
    )
    def test_overflow_gives_inf(self, x):
        # the variance itself, of order 1e612, overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bmid_variance(x) == math.inf

    @pytest.mark.parametrize("n", [4, 5])
    def test_subnormal_mad_is_quiet(self, n):
        # a MAD of 5e-324 sends |u| of the values of order 1 to inf, outside
        # the weights; the kernel that bmid_variance shares with the trace
        # scan quiets that overflow itself
        cells = [5e-324, 1e-323, 5e-324, 1.0, 2.0, -1.0, 3.0, 0.5, 1e-323]
        prefix = cells[:n]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mad(prefix) == 5e-324
            v = bmid_variance(prefix)
            m = sample_median(prefix)
        trace = robust_css(cells, ScaleEstimatorSpec.bmid()).values
        assert np.float64(n * (v + m * m) - v).tobytes() == trace[n - 1].tobytes()

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            BmidConfig(c=0.0)
        with pytest.raises(InvalidParameter):
            BmidConfig(c=-1.0)
        with pytest.raises(InvalidParameter, match="finite"):
            BmidConfig(c=math.inf)


_BMID_LIMIT_CASES = pytest.mark.parametrize(
    "x, c, exact",
    [
        # the two points at +-1 weigh in, but their u^2 underflows to 0
        ([1e300, -1e300, 1.0, -1.0], 2.0, 2.0),
        # u^2 underflows for every point
        (np.arange(-4.0, 5.0), 1e300, 6.666666666666667),
        # c * MAD is past the float range even after the 2^-64 rescale,
        # so k is inf, every u is 0 and the result 0 * inf, though the
        # variance is finite
        (np.arange(-4.0, 5.0) * 1e30, 1e300, 6.666666666666667e60),
    ],
    ids=["some-u2-underflow", "every-u2-underflow", "k-overflow"],
)


class TestBmidFloatLimits:
    """Open defects of the BMID kernel, ``_bmid_rows``, at the float
    limits: the value it gives against the exact one, the textbook sums
    in rational arithmetic about the float median and MAD."""

    @_BMID_LIMIT_CASES
    def test_exact_value(self, x, c, exact):
        assert float(_textbook_bmid(np.asarray(x), c)) == exact

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="u^2 underflows to 0, or k overflows past the 2^-64 rescale",
    )
    @_BMID_LIMIT_CASES
    def test_gives_the_exact_value(self, x, c, exact):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bmid_variance(x, BmidConfig(c))
        assert abs(got / exact - 1) < 1e-13


class TestQcvVariance:
    def test_hand_value(self):
        # order statistics 2..9 of 1..10, conditional mean 5.5, SS 42 over 8
        assert qcv_variance(np.arange(1.0, 11.0), QcvBounds(0.1, 0.9)) == 5.25

    def test_defaults(self):
        assert qcv_variance(np.arange(1.0, 11.0)) == 5.25

    def test_constant(self):
        assert qcv_variance([3.0] * 10) == 0.0

    def test_extremes_ignored(self):
        base = np.arange(1.0, 11.0)
        wild = base.copy()
        wild[0], wild[-1] = -1e9, 1e9
        assert qcv_variance(wild) == qcv_variance(base)

    @pytest.mark.parametrize(
        "x",
        [
            # the window's sum overflows both ways, to inf - inf
            np.repeat([-1e307, 1e307], 160),
            # the squared deviations overflow
            np.arange(1.0, 11.0) * 1e160,
        ],
        ids=["sum", "squares"],
    )
    def test_overflow_gives_inf(self, x):
        # the variance itself overflows; the result is inf, never NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qcv_variance(x) == math.inf

    @pytest.mark.parametrize("n, x", [(10, 1e308), (300, 1.7e308)])
    def test_only_the_sum_overflows(self, n, x):
        # the window's sum is past the float range, its variance is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qcv_variance(np.full(n, x)) == 0.0

    def test_near_limit_windows_match_exact_value(self):
        # samples whose window sum or squared deviations overflow, though
        # the variance may not: the result is the exact variance, rounded,
        # or inf where that is past the float range
        rng = make_rng(24)
        top = Fraction(np.finfo(float).max)
        for i in range(400):
            n = int(rng.integers(5, 41))
            kind = i % 4
            if kind == 0:  # one huge level and, below it, one extreme value
                x = np.full(n, rng.uniform(0.1, 1.0) * 1.79e308)
                x[0] = -1.79e308
            elif kind == 1:  # a spread across the whole float range
                x = rng.uniform(-1.0, 1.0, n) * 1.79e308
            elif kind == 2:  # two levels some 1e154 apart
                high = rng.random(n) < rng.uniform(0.2, 0.5)
                x = high * 10.0 ** rng.uniform(153, 155)
            else:  # every value near the limit
                x = rng.uniform(0.5, 1.0, n) * 1.79e308
            lo, hi = QcvBounds().window(n)
            w = [Fraction(v) for v in np.sort(x)[lo:hi]]
            mean = sum(w) / len(w)
            exact = sum((v - mean) ** 2 for v in w) / len(w)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = qcv_variance(x)
            if exact > top:
                assert got == math.inf
            elif exact:
                assert abs(Fraction(got) / exact - 1) < 1e-10
            else:
                assert got == 0.0

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall) as exc:
            qcv_variance([1.0, 2.0], QcvBounds(0.4, 0.6))
        assert str(exc.value) == (
            "QCV window [0.4, 0.6] keeps 1 of 2 points; need at least 2"
        )

    @pytest.mark.parametrize(
        "bounds", [QcvBounds(), QcvBounds(0.05, 0.95), QcvBounds(1 / 3, 2 / 3)]
    )
    def test_window_elementwise(self, bounds):
        # an array of sizes gives, as two lists, each size's own window,
        # the floor of the same products n * a and n * b
        scalar = [bounds.window(n) for n in range(1, 20001)]
        assert scalar == [
            (math.floor(n * bounds.a), math.floor(n * bounds.b))
            for n in range(1, 20001)
        ]
        assert all(type(lo) is int and type(hi) is int for lo, hi in scalar)
        lo, hi = bounds.window(np.arange(1, 20001))
        assert list(zip(lo, hi)) == scalar

    def test_bounds_validation(self):
        with pytest.raises(InvalidParameter):
            QcvBounds(0.9, 0.1)
        with pytest.raises(InvalidParameter):
            QcvBounds(0.1, 0.1)
        with pytest.raises(InvalidParameter):
            QcvBounds(0.0, 0.9)
        with pytest.raises(InvalidParameter):
            QcvBounds(0.1, 1.0)


class TestCommonValidation:
    def test_non_finite_rejected(self):
        for bad in ([1.0, float("nan"), 2.0], [1.0, float("inf")]):
            with pytest.raises(NonFiniteSample):
                sample_mean(bad)


class TestEstimatorProperties:
    @pytest.fixture()
    def sample(self):
        return make_rng(17).standard_normal(101) * 2.5 + 0.7

    def test_translation_invariance(self, sample):
        for est in (sample_variance, bmid_variance, qcv_variance):
            v0 = est(sample)
            v1 = est(sample + 42.0)
            assert v1 == pytest.approx(v0, rel=1e-9)

    def test_scale_equivariance(self, sample):
        k = 3.7
        for est in (sample_variance, bmid_variance, qcv_variance):
            assert est(k * sample) == pytest.approx(k * k * est(sample), rel=1e-9)

    def test_permutation_invariance(self, sample):
        perm = make_rng(18).permutation(sample.size)
        shuffled = sample[perm]
        # order-statistic estimators: exact
        assert sample_median(shuffled) == sample_median(sample)
        assert mad(shuffled) == mad(sample)
        assert qcv_variance(shuffled) == qcv_variance(sample)
        # summation-order estimators: tiny tolerance
        assert sample_mean(shuffled) == pytest.approx(sample_mean(sample), rel=1e-12)
        assert sample_variance(shuffled) == pytest.approx(
            sample_variance(sample), rel=1e-12
        )
        assert bmid_variance(shuffled) == pytest.approx(
            bmid_variance(sample), rel=1e-12
        )

    def test_large_sample_stability(self):
        # robust estimators concentrate: relative spread < 5% across seeds
        bmids, qcvs = [], []
        for seed in range(20):
            x = make_rng(seed).standard_normal(100_000)
            bmids.append(bmid_variance(x))
            qcvs.append(qcv_variance(x))
        for vals in (bmids, qcvs):
            spread = (max(vals) - min(vals)) / np.mean(vals)
            assert spread < 0.05
