"""Unit tests for the stable and mixture series generators."""
import math

import numpy as np
import pytest

from scaleshift import (
    InvalidAlpha,
    InvalidGamma,
    InvalidParameter,
    MixtureSpec,
    StableSpec,
    gen_mixture_series,
    gen_stable_series,
    make_rng,
    qcv_variance,
    sample_symmetric_stable,
)
from scaleshift.simulate import _draw_mixture_parts, _stable_draws


class TestSpecValidation:
    def test_alpha_range(self):
        for bad in (0.0, -0.5, 2.0001):
            with pytest.raises(InvalidAlpha):
                StableSpec(alpha=bad, gamma2=2.0)

    def test_gamma_positive(self):
        with pytest.raises(InvalidGamma):
            StableSpec(alpha=1.5, gamma2=0.0)
        with pytest.raises(InvalidGamma):
            StableSpec(alpha=1.5, gamma2=2.0, gamma1=-1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_gamma_finite(self, bad):
        # an infinite scale would draw inf and -inf from the change point on
        with pytest.raises(InvalidGamma):
            StableSpec(alpha=1.5, gamma2=bad)
        with pytest.raises(InvalidGamma):
            StableSpec(alpha=1.5, gamma2=2.0, gamma1=bad)
        with pytest.raises(InvalidGamma):
            sample_symmetric_stable(1.5, bad, make_rng(0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_mixture_parameters_finite(self, bad):
        with pytest.raises(InvalidParameter, match="omega2 must be"):
            MixtureSpec(omega2=bad, nu=5.0, p=0.05)
        with pytest.raises(InvalidParameter, match="nu must be"):
            MixtureSpec(omega2=2.0, nu=bad, p=0.05)

    def test_genuine_change_required(self):
        with pytest.raises(InvalidParameter):
            StableSpec(alpha=1.5, gamma2=1.0)  # equals gamma1 default
        with pytest.raises(InvalidParameter):
            MixtureSpec(omega2=1.0, nu=5.0, p=0.05)

    def test_cp_bounds(self):
        with pytest.raises(InvalidParameter):
            StableSpec(alpha=1.5, gamma2=2.0, N=100, cp=1)
        with pytest.raises(InvalidParameter):
            StableSpec(alpha=1.5, gamma2=2.0, N=100, cp=100)

    def test_cp_default_is_middle(self):
        _, cp = gen_stable_series(StableSpec(alpha=1.5, gamma2=2.0, N=100, seed=0))
        assert cp == 50

    def test_mixture_p_range(self):
        with pytest.raises(InvalidParameter):
            MixtureSpec(omega2=2.0, nu=5.0, p=0.5)
        with pytest.raises(InvalidParameter):
            MixtureSpec(omega2=2.0, nu=5.0, p=-0.01)
        # p = 0 permitted for testing (pure Gaussian limit)
        MixtureSpec(omega2=2.0, nu=5.0, p=0.0)

    def test_seed_non_negative(self):
        # numpy's SeedSequence refuses a negative seed; the spec says so first
        with pytest.raises(InvalidParameter, match="seed must be >= 0"):
            StableSpec(alpha=1.5, gamma2=2.0, seed=-1)
        with pytest.raises(InvalidParameter, match="seed must be >= 0"):
            MixtureSpec(omega2=2.0, nu=5.0, p=0.05, seed=-3)
        StableSpec(alpha=1.5, gamma2=2.0, seed=0)


class TestStableSampler:
    def test_alpha2_variance_convention(self):
        # characteristic function exp(-gamma^2 t^2) means variance 2*gamma^2;
        # at gamma = 1/sqrt(2) the draws are standard normal
        rng = make_rng(1001)
        d = _stable_draws(2.0, 1.0 / math.sqrt(2.0), 1_000_000, rng)
        assert abs(float(np.var(d)) - 1.0) < 0.01

    def test_cauchy_quartile(self):
        # alpha = 1 is Cauchy; |draws| has median tan(pi/4) = 1
        rng = make_rng(1002)
        d = _stable_draws(1.0, 1.0, 1_000_000, rng)
        assert abs(float(np.median(np.abs(d))) - 1.0) < 0.02

    def test_heavy_tails(self):
        # at alpha = 1.1 the 0.99 quantile dwarfs a Gaussian with matched IQR
        rng = make_rng(1003)
        d = _stable_draws(1.1, 1.0, 100_000, rng)
        iqr = float(np.quantile(d, 0.75) - np.quantile(d, 0.25))
        gauss_q99 = 2.326 * iqr / 1.349
        assert float(np.quantile(d, 0.99)) > gauss_q99

    def test_scalar_api_and_validation(self):
        rng = make_rng(0)
        v = sample_symmetric_stable(1.5, 2.0, rng)
        assert isinstance(v, float)
        with pytest.raises(InvalidAlpha):
            sample_symmetric_stable(2.5, 1.0, rng)
        with pytest.raises(InvalidGamma):
            sample_symmetric_stable(1.5, 0.0, rng)


class TestGenStableSeries:
    def test_determinism(self):
        spec = StableSpec(alpha=1.9, gamma2=3.0, N=1000, cp=500, seed=21)
        a, cp_a = gen_stable_series(spec)
        b, cp_b = gen_stable_series(spec)
        assert np.array_equal(a, b)
        assert cp_a == cp_b == 500

    def test_scale_ordering_of_halves(self):
        series, cp = gen_stable_series(
            StableSpec(alpha=1.9, gamma2=3.0, N=1000, cp=500, seed=21)
        )
        assert qcv_variance(series[cp - 1 :]) > qcv_variance(series[: cp - 1])

    def test_regime_boundary_indexing(self):
        # index cp (1-based) is the first draw at the new scale: with a huge
        # gamma2 every |X_i| for i >= cp dwarfs the first regime
        series, cp = gen_stable_series(
            StableSpec(alpha=2.0, gamma2=1e6, N=50, cp=20, seed=5)
        )
        assert np.max(np.abs(series[: cp - 1])) < np.min(np.abs(series[cp - 1 :]))

    def test_scale_decrease_concentrates(self):
        series, cp = gen_stable_series(
            StableSpec(alpha=1.2, gamma2=0.66, N=4000, cp=2000, seed=8)
        )
        iqr1 = float(np.subtract(*np.quantile(series[: cp - 1], [0.75, 0.25])))
        iqr2 = float(np.subtract(*np.quantile(series[cp - 1 :], [0.75, 0.25])))
        assert abs(iqr2) < abs(iqr1)

    def test_symmetry(self):
        series, _ = gen_stable_series(
            StableSpec(alpha=1.5, gamma2=3.0, N=10000, seed=3)
        )
        iqr = float(np.quantile(series, 0.75) - np.quantile(series, 0.25))
        assert abs(float(np.median(series))) < 3.0 * iqr / math.sqrt(series.size)


class TestGenMixtureSeries:
    def test_determinism(self):
        spec = MixtureSpec(omega2=3.0, nu=15.0, p=0.05, N=1000, seed=11)
        a, _ = gen_mixture_series(spec)
        b, _ = gen_mixture_series(spec)
        assert np.array_equal(a, b)

    def test_pure_gaussian_limit(self):
        spec = MixtureSpec(omega2=3.0, nu=15.0, p=0.0, N=1000, cp=500, seed=11)
        x, cp = gen_mixture_series(spec)
        g, u, k = _draw_mixture_parts(spec)
        assert np.all(k == 0)
        assert np.array_equal(x, g)

    def test_outlier_count_binomial_band(self):
        spec = MixtureSpec(omega2=3.0, nu=15.0, p=0.05, N=1000, seed=11)
        _, _, k = _draw_mixture_parts(spec)
        count = int(np.sum(k != 0))
        sigma = math.sqrt(1000 * 0.1 * 0.9)
        assert abs(count - 100) <= 3 * sigma

    def test_spike_amplitude_bound(self):
        spec = MixtureSpec(omega2=2.0, nu=7.0, p=0.2, N=5000, seed=13)
        x, _ = gen_mixture_series(spec)
        g, u, k = _draw_mixture_parts(spec)
        assert np.max(np.abs(x)) <= np.max(np.abs(g)) + 7.0

    def test_second_regime_variance(self):
        # Var = omega2^2 + 2 p nu^2 / 3 from independence of G, U, K
        spec = MixtureSpec(
            omega2=2.0, nu=6.0, p=0.2, N=2_000_001, cp=1_000_001, seed=77
        )
        x, cp = gen_mixture_series(spec)
        expected = 4.0 + 2 * 0.2 * 36.0 / 3.0
        assert float(np.var(x[cp - 1 :])) == pytest.approx(expected, rel=0.02)

    def test_symmetry(self):
        x, _ = gen_mixture_series(MixtureSpec(omega2=3.0, nu=9.0, p=0.1, N=10000, seed=3))
        iqr = float(np.quantile(x, 0.75) - np.quantile(x, 0.25))
        assert abs(float(np.median(x))) < 3.0 * iqr / math.sqrt(x.size)


class TestRngPlumbing:
    def test_make_rng_deterministic(self):
        assert make_rng(42).standard_normal(5).tolist() == make_rng(
            42
        ).standard_normal(5).tolist()

    def test_tuple_seeds_give_distinct_streams(self):
        a = make_rng((1, 2, 3)).standard_normal(4)
        b = make_rng((1, 2, 4)).standard_normal(4)
        assert not np.array_equal(a, b)
