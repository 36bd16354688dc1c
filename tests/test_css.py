"""Unit tests for CSS traces, orientation, and the constant-prefix check."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaleshift import (
    CssTrace,
    InsufficientLength,
    InvalidParameter,
    Orientation,
    ScaleEstimatorSpec,
    classical_css,
    constant_prefix_check,
    detect_orientation,
    reverse_sample,
    robust_css,
)
from scaleshift.css import _chord_counts, _robust_scan
from scaleshift.detect import ORIENT_STRIDE
from scaleshift.estimators import QcvBounds
from scaleshift.simulate import StableSpec, gen_stable_series, make_rng

from oracles import naive_css


def _trace(values, spec=None):
    arr = np.asarray(values, dtype=float)
    return CssTrace(
        values=arr,
        estimator=spec or ScaleEstimatorSpec.bmid(),
        source_length=arr.size,
    )


class TestClassicalCss:
    def test_prefix_squares(self):
        assert classical_css([1, 2, 3]).values.tolist() == [1.0, 5.0, 14.0]

    def test_zeros(self):
        assert classical_css([0, 0, 0]).values.tolist() == [0.0, 0.0, 0.0]

    def test_sign_invariance(self):
        assert classical_css([-2, 2]).values.tolist() == [4.0, 8.0]

    def test_nondecreasing_and_total(self):
        x = make_rng(1).standard_normal(300)
        tr = classical_css(x)
        assert np.all(np.diff(tr.values) >= 0)
        assert tr.values[-1] == pytest.approx(float(np.sum(x * x)), rel=1e-12)


class TestScaleEstimatorSpec:
    def test_locations(self):
        assert ScaleEstimatorSpec.classical().location == "mean"
        assert ScaleEstimatorSpec.bmid().location == "median"
        assert ScaleEstimatorSpec.qcv().location == "median"

    def test_robust_flag(self):
        assert not ScaleEstimatorSpec.classical().is_robust
        assert ScaleEstimatorSpec.bmid().is_robust
        assert ScaleEstimatorSpec.qcv().is_robust

    def test_defaults_filled(self):
        assert ScaleEstimatorSpec.bmid().bmid_config.c == 9.0
        b = ScaleEstimatorSpec.qcv().qcv_bounds
        assert (b.a, b.b) == (0.1, 0.9)

    def test_mismatched_config_rejected(self):
        from scaleshift import BmidConfig, QcvBounds

        with pytest.raises(InvalidParameter):
            ScaleEstimatorSpec("classical", bmid_config=BmidConfig())
        with pytest.raises(InvalidParameter):
            ScaleEstimatorSpec("bmid", qcv_bounds=QcvBounds())
        with pytest.raises(InvalidParameter):
            ScaleEstimatorSpec("nonsense")


class TestRobustCss:
    def test_classical_spec_matches_classical_css(self):
        x = make_rng(2).standard_normal(150) * 4.0 + 1.0
        via_spec = robust_css(x, ScaleEstimatorSpec.classical()).values
        assert np.array_equal(via_spec, classical_css(x).values)

    def test_constant_sample_qcv(self):
        # variance 0 on every prefix leaves n * median^2
        tr = robust_css([1.0, 1.0, 1.0, 1.0], ScaleEstimatorSpec.qcv(0.25, 0.75))
        assert tr.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert 2 in tr.degenerate_prefixes

    def test_first_entry_is_square(self):
        x = np.array([3.0, 1.0, -2.0, 0.5])
        for spec in (ScaleEstimatorSpec.bmid(), ScaleEstimatorSpec.qcv()):
            assert robust_css(x, spec).values[0] == 9.0

    def test_incremental_matches_naive_oracle(self):
        series, _ = gen_stable_series(
            StableSpec(alpha=1.5, gamma2=3.0, N=250, cp=125, seed=31)
        )
        for spec in (ScaleEstimatorSpec.bmid(), ScaleEstimatorSpec.qcv()):
            fast = robust_css(series, spec)
            slow = naive_css(series, spec)
            assert np.array_equal(fast.values, slow.values)
            assert fast.degenerate_prefixes == slow.degenerate_prefixes

    def test_min_length(self):
        with pytest.raises(InsufficientLength):
            robust_css([1.0, 2.0], ScaleEstimatorSpec.bmid())

    def test_bmid_trace_even_under_sign_flip(self):
        # deviations from the median negate elementwise, so the BMID trace
        # is exactly even for any sample
        x = make_rng(3).standard_normal(80) + 0.4
        spec = ScaleEstimatorSpec.bmid()
        assert np.array_equal(robust_css(x, spec).values, robust_css(-x, spec).values)

    def test_qcv_trace_even_at_symmetric_windows(self):
        # QCV's quantile window is reflection-symmetric only when
        # floor(n*a) + floor(n*b) == n; build a sample whose prefixes at
        # such n are symmetric multisets and compare there
        rng = make_rng(4)
        blocks = []
        for _ in range(3):
            half = rng.standard_normal(5)
            block = np.concatenate([half, -half])
            blocks.append(rng.permutation(block))
        x = np.concatenate(blocks)  # prefixes of length 10, 20, 30 symmetric
        spec = ScaleEstimatorSpec.qcv()
        plus = robust_css(x, spec).values
        minus = robust_css(-x, spec).values
        for n in (10, 20, 30):
            assert minus[n - 1] == pytest.approx(plus[n - 1], rel=1e-12)

    def test_trace_shape_validated(self):
        with pytest.raises(InvalidParameter):
            CssTrace(
                values=np.zeros(3),
                estimator=ScaleEstimatorSpec.bmid(),
                source_length=4,
            )


@st.composite
def _scan_cases(draw):
    """A series of 3..300 values and a robust spec, aimed at the scan's
    edge cases: ties, signed zeros and scales far from 1."""
    n = draw(st.integers(3, 300))
    cells = draw(
        st.sampled_from([
            st.integers(-4, 4).map(float),                 # tie-heavy
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),  # signed zeros
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        ])
    )
    scale = draw(st.sampled_from([1.0, 2.0**600, 2.0**-600]))
    spec = draw(
        st.one_of(
            st.sampled_from([ScaleEstimatorSpec.bmid(9.0), ScaleEstimatorSpec.bmid(1.5)]),
            st.tuples(st.floats(0.01, 0.45), st.floats(0.55, 0.99)).map(
                lambda ab: ScaleEstimatorSpec.qcv(*ab)
            ),
        )
    )
    values = draw(st.lists(cells, min_size=n, max_size=n))
    return np.asarray(values) * scale, spec


class TestScanMatchesOracle:
    """The incremental scan equals the from-scratch oracle bit for bit,
    degenerate prefixes included, where criterion 8's smooth series do
    not reach: ties (zero MADs, repeated order statistics), mixed signed
    zeros, and MADs near the float limits."""

    @settings(max_examples=120, deadline=None)
    @given(_scan_cases())
    def test_scan_equals_exact_naive(self, case):
        x, spec = case
        # squares of 2^600-scaled data overflow the same way in both paths
        with np.errstate(over="ignore", invalid="ignore"):
            fast = robust_css(x, spec)
            slow = naive_css(x, spec)
        assert fast.values.tobytes() == slow.values.tobytes()
        assert fast.degenerate_prefixes == slow.degenerate_prefixes


class TestStridedTrace:
    """The scan at spaced prefix lengths, as the orientation vote runs it,
    gives the full trace's own C_n and degenerate prefixes, bit for bit,
    on the scan's edge cases too."""

    @staticmethod
    def _check(x, spec, ns):
        with np.errstate(over="ignore", invalid="ignore"):
            full = robust_css(x, spec)
        values, degenerate = _robust_scan(x, spec, ns.tolist())
        assert values.tobytes() == full.values[ns - 1].tobytes()
        wanted = set(ns.tolist())
        assert degenerate == [n for n in full.degenerate_prefixes if n in wanted]

    @settings(max_examples=120, deadline=None)
    @given(_scan_cases(), st.sampled_from([1, 2, 7, ORIENT_STRIDE, 64]))
    def test_values_equal_the_scan(self, case, stride):
        x, spec = case
        n = x.size
        # the orientation vote's prefixes: 2, 2 + k, ... and N - 1
        self._check(x, spec, np.append(np.arange(2, n - 1, stride), n - 1))

    @settings(max_examples=120, deadline=None)
    @given(_scan_cases(), st.data())
    def test_spaced_path_equals_dense_path(self, case, data):
        # every n from 2 to N but one: the lengths are spaced, so QCV sorts
        # in place, yet it is compared with the dense scan at almost every n
        x, spec = case
        n = x.size
        gap = data.draw(st.integers(3, n - 1)) if n > 3 else None
        self._check(x, spec, np.array([m for m in range(2, n + 1) if m != gap]))

    def test_every_prefix_counts_as_linspace_chord(self):
        # over every n from 2 to N - 1 the helper's chord is the one through
        # np.linspace positions: each interior point sits exactly on that
        # chord's tolerance band, where one ulp of a position moves a count
        for n in range(4, 300):
            t = np.linspace(0.0, 1.0, n - 2)
            w = 1.0 * (1.0 - t) + 1000.0 * t
            tol = 1e-12 * 1000.0
            w[1:-1] += np.where(np.arange(1, n - 3) % 2, tol, -tol)
            assert _chord_counts(np.arange(2, n), w) == (0, 0), n


class TestDetectOrientation:
    def test_sqrt_trace_concave(self):
        tr = _trace(np.sqrt(np.arange(1.0, 51.0)))
        assert detect_orientation(tr) is Orientation.CONCAVE

    def test_square_trace_convex(self):
        tr = _trace(np.arange(1.0, 51.0) ** 2)
        assert detect_orientation(tr) is Orientation.CONVEX

    def test_linear_trace_ties_to_convex(self):
        tr = _trace(np.arange(1.0, 51.0) * 2.0)
        assert detect_orientation(tr) is Orientation.CONVEX

    def test_min_length(self):
        with pytest.raises(InsufficientLength):
            detect_orientation(_trace([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("scale", [2.0**-60, 2.0**-30, 1.0, 2.0**40])
    def test_tolerance_is_relative(self, scale):
        # the same shapes in any units: a tiny trace is not "collinear"
        n = np.arange(1.0, 51.0)
        assert detect_orientation(_trace(scale * np.sqrt(n))) is Orientation.CONCAVE
        assert detect_orientation(_trace(scale * n**2)) is Orientation.CONVEX

    def test_reversal_flips_orientation_on_scale_change(self):
        # orientation of the robust trace flips when a one-change sample is
        # reversed; checked over seeded generator output
        spec = ScaleEstimatorSpec.bmid()
        flipped = 0
        seeds = range(30)
        for seed in seeds:
            series, _ = gen_stable_series(
                StableSpec(alpha=1.8, gamma2=2.0, N=300, cp=150, seed=seed)
            )
            fwd = detect_orientation(robust_css(series, spec))
            rev = detect_orientation(robust_css(reverse_sample(series), spec))
            if fwd is not rev:
                flipped += 1
        assert flipped >= 0.95 * len(seeds)


class TestSignSymmetry:
    """x -> -x leaves the BMID and classical traces bit-identical; QCV's
    order-statistic window trims asymmetrically, so it is not symmetric."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=3,
            max_size=60,
        )
    )
    def test_bmid_and_classical_traces_are_sign_symmetric(self, values):
        x = np.asarray(values)
        for spec in (ScaleEstimatorSpec.bmid(), ScaleEstimatorSpec.classical()):
            fwd, neg = robust_css(x, spec), robust_css(-x, spec)
            assert np.array_equal(fwd.values, neg.values)
            assert fwd.degenerate_prefixes == neg.degenerate_prefixes

    def test_qcv_window_trims_asymmetrically(self):
        # ranks 2..17 of 19: one point dropped at the bottom, two at the top
        assert QcvBounds().window(19) == (1, 17)


class TestConstantPrefixCheck:
    def test_flat_head_then_decay(self):
        values = np.concatenate([[0.0], np.full(6, 5.0), np.linspace(4.9, 0.0, 13)])
        assert constant_prefix_check(_trace(values)) is True

    def test_strictly_increasing(self):
        assert constant_prefix_check(_trace(np.arange(1.0, 21.0))) is False

    def test_defaults(self):
        import inspect

        sig = inspect.signature(constant_prefix_check)
        assert sig.parameters["head_len"].default == 6
        assert sig.parameters["threshold"].default == 0.05

    def test_min_length(self):
        with pytest.raises(InsufficientLength):
            constant_prefix_check(_trace(np.arange(1.0, 8.0)), head_len=6)

    def test_head_len_below_one(self):
        with pytest.raises(InvalidParameter, match="head_len must be >= 1"):
            constant_prefix_check(_trace(np.arange(1.0, 21.0)), head_len=0)


class TestReverseSample:
    def test_basic(self):
        assert reverse_sample([1, 2, 3]).tolist() == [3.0, 2.0, 1.0]

    def test_palindrome(self):
        assert reverse_sample([1, 2, 1]).tolist() == [1.0, 2.0, 1.0]

    def test_involution(self):
        x = make_rng(5).standard_normal(17)
        assert np.array_equal(reverse_sample(reverse_sample(x)), x)

    def test_returns_copy(self):
        x = np.array([1.0, 2.0, 3.0])
        r = reverse_sample(x)
        r[0] = 99.0
        assert x[2] == 3.0
