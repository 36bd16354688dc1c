"""Unit tests for the location and scale estimators."""
import warnings

import numpy as np
import pytest

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

    @pytest.mark.parametrize("n", [4, 5])
    def test_subnormal_mad_is_quiet(self, n):
        # a MAD of 5e-324 sends |u| of the values of order 1 to inf, outside
        # the weights; bmid_variance quiets that overflow itself, since the
        # kernel it shares with the trace scan enters no errstate
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

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            qcv_variance([1.0, 2.0], QcvBounds(0.4, 0.6))

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
