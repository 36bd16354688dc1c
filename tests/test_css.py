"""Unit tests for CSS traces, orientation, and the constant-prefix check."""
import warnings
from bisect import insort_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaleshift import (
    CssTrace,
    DegenerateScale,
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
import scaleshift.css as css_module
import scaleshift.estimators as estimators_module
from scaleshift.css import _mad_sorted, _robust_scan
from scaleshift.detect import ORIENT_STRIDE, _chord_counts
from scaleshift.estimators import QcvBounds, bmid_variance, mad, sample_median
from scaleshift.simulate import StableSpec, gen_stable_series, make_rng

from oracles import bmid_1d, naive_css


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
            # c <= 1 leaves some tie-heavy prefixes with no weight at all
            st.sampled_from([9.0, 1.5, 1.0, 0.5]).map(ScaleEstimatorSpec.bmid),
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

    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_empty_weights_substitute_zero(self, c):
        # prefixes 4, 6 and 8 have a positive MAD but no point with |u| < 1;
        # both paths substitute variance 0 and record them, as they do for
        # the zero MADs of prefixes 2, 3 and 5
        x = np.array([0, 0, 2, 2, 2, 0, 4, 0, 2, 6, 2, 0, 0, 2, 2, 4, 2, 0, 0, 2.0])
        spec = ScaleEstimatorSpec.bmid(c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = robust_css(x, spec)
            slow = naive_css(x, spec)
        assert np.isfinite(fast.values).all()
        assert fast.values.tobytes() == slow.values.tobytes()
        assert fast.degenerate_prefixes == slow.degenerate_prefixes
        assert fast.degenerate_prefixes == (2, 3, 4, 5, 6, 8)


@st.composite
def _bmid_cases(draw):
    """A series of 3..120 values and a BMID spec whose scan meets zero
    MADs (a repeated head, ties), zero weight sums (c <= 1) and a c * MAD
    past the float range (c = 1e300 on data around 1e10)."""
    n = draw(st.integers(3, 120))
    head = draw(st.integers(0, n))
    cells = draw(st.sampled_from([
        st.integers(-4, 4).map(float),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ]))
    values = [3.0] * head + draw(st.lists(cells, min_size=n - head, max_size=n - head))
    scale = draw(st.sampled_from([1.0, 1e10, 2.0**-600]))
    c = draw(st.sampled_from([9.0, 1.0, 0.5, 1e300]))
    return np.asarray(values) * scale, ScaleEstimatorSpec.bmid(c)


class TestBmidBlocks:
    """The BMID scan hands all its prefixes to one ``_bmid_rows`` call,
    which runs the kernel's chain a block at a time and finishes every
    row in one step; whatever the blocks' bounds, dense or strided, each
    row and ``bmid_variance`` of its prefix equal a plain 1-D pass over
    that prefix, and the scan equals the oracle, byte for byte and with
    no numpy warning."""

    @staticmethod
    def _scan(x, spec, ns, cells):
        """The scan of ``x`` at ``ns`` under a ``cells`` budget, and its
        blocks: (lengths, variances, degenerate flags), the lengths as the
        block kernel saw them and each row's variance and flag as the
        scan's one ``_bmid_rows`` call gave them."""
        block_ns, finished = [], []
        block, rows = estimators_module._bmid_block, css_module._bmid_rows

        def recording_block(values, ns, *args):
            block_ns.append(list(ns))
            return block(values, ns, *args)

        def recording_rows(*args):
            finished.append(rows(*args))
            return finished[-1]

        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("error")
            mp.setattr(estimators_module, "BMID_BLOCK_CELLS", cells)
            mp.setattr(estimators_module, "_bmid_block", recording_block)
            mp.setattr(css_module, "_bmid_rows", recording_rows)
            values, degenerate = _robust_scan(x, spec, ns.tolist())
        [(var, flat)] = finished
        blocks, start = [], 0
        for rows in block_ns:
            stop = start + len(rows)
            blocks.append((rows, var[start:stop], flat[start:stop]))
            start = stop
        assert stop == var.size
        return values, degenerate, blocks

    @staticmethod
    def _check(x, spec, ns, values, degenerate, blocks):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slow = naive_css(x, spec)
            assert values.tobytes() == slow.values[ns - 1].tobytes()
            wanted = set(ns.tolist())
            assert degenerate == [n for n in slow.degenerate_prefixes if n in wanted]
            c = spec.bmid_config.c
            for block_ns, var, flat in blocks:
                for n, v, f in zip(block_ns, var, flat):
                    want = bmid_1d(x[:n], c)
                    try:
                        public = bmid_variance(x[:n], spec.bmid_config)
                    except DegenerateScale:
                        assert want is None and f and v == 0.0
                    else:
                        assert want is not None and not f
                        want = np.float64(want).tobytes()
                        assert np.float64(v).tobytes() == want
                        assert np.float64(public).tobytes() == want

    @settings(max_examples=150, deadline=None)
    @given(_bmid_cases(), st.sampled_from([1, 2, ORIENT_STRIDE]), st.data())
    def test_rows_equal_the_oracle(self, case, stride, data):
        x, spec = case
        n = x.size
        if stride == 1:
            ns = np.arange(2, n + 1)
        else:
            ns = np.append(np.arange(2, n - 1, stride), n - 1)
        # one row a block, blocks of two rows at the longest prefixes, a
        # budget drawn anywhere up to one block, and the default
        cells = data.draw(st.sampled_from([
            1, 2 * n, data.draw(st.integers(1, n * n)),
            estimators_module.BMID_BLOCK_CELLS,
        ]))
        values, degenerate, blocks = self._scan(x, spec, ns, cells)
        self._check(x, spec, ns, values, degenerate, blocks)
        # the blocks cover ns in order, each within the budget (or one
        # row), and each as long as the budget lets it be
        assert [m for block_ns, _, _ in blocks for m in block_ns] == ns.tolist()
        for i, (block_ns, _, _) in enumerate(blocks):
            assert len(block_ns) == 1 or len(block_ns) * block_ns[-1] <= cells
            if i + 1 < len(blocks):
                following = blocks[i + 1][0][0]
                assert (len(block_ns) + 1) * following > cells

    def test_one_block_mixes_every_kind_of_row(self):
        # with c = 2: a repeated head (zero MAD at n = 2..5); then +-1 (at
        # n = 19..37 the median's three points weigh +1 each and sixteen at
        # u = +-1/2 weigh -3/16 each, an exact zero sum); then +-1.5e308,
        # whose MAD puts c * MAD past the float range from n = 39 on
        x = np.concatenate([np.zeros(3), np.tile([1.0, -1.0], 8),
                            np.tile([1.5e308, -1.5e308], 15)])
        spec = ScaleEstimatorSpec.bmid(2.0)
        ns = np.arange(2, x.size + 1)
        values, degenerate, blocks = self._scan(
            x, spec, ns, estimators_module.BMID_BLOCK_CELLS
        )
        assert len(blocks) == 1
        mads = [mad(x[:n]) for n in ns]
        assert [n for n, m in zip(ns, mads) if m == 0.0] == [2, 3, 4, 5]
        assert degenerate == [2, 3, 4, 5] + list(range(19, 38))
        assert [n for n, m in zip(ns, mads) if 2.0 * m == np.inf] == list(range(39, 50))
        self._check(x, spec, ns, values, degenerate, blocks)


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
        # every n from 2 to N but one: the lengths are spaced, so both
        # kinds sort in place, yet meet the dense scan at almost every n
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


@st.composite
def _mad_series(draw):
    """A series of 2..300 values on which the MAD's split jumps about:
    small or wide integer ties, a repeated head, two far clusters, values
    at the float limit or subnormal."""
    n = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(
        ["0..3", "0..100", "head", "clusters", "limit", "subnormal"]
    ))
    if kind == "0..3":
        cells = st.integers(0, 3).map(float)
    elif kind == "0..100":
        cells = st.integers(0, 100).map(float)
    elif kind == "head":
        cells = st.floats(-10.0, 10.0)
    elif kind == "clusters":
        cells = st.tuples(st.floats(-1.0, 1.0), st.sampled_from([0.0, 1e12])).map(sum)
    elif kind == "limit":
        cells = st.sampled_from([1.7976931348623157e308, -1e308, 1e308, 1.0, -1.0, 0.0])
    else:
        cells = st.sampled_from([5e-324, -5e-324, 1e-323, 2.2e-308, 0.0, -0.0, 1.0])
    head = draw(st.integers(0, n)) if kind == "head" else 0
    values = [2.5] * head + draw(st.lists(cells, min_size=n - head, max_size=n - head))
    return np.asarray(values)


class TestMadSearch:
    """The MAD search that starts from the previous prefix's split gives
    ``mad`` of the prefix byte for byte, and the same split from any
    start, whether the prefix grew by one point or by sixteen."""

    @staticmethod
    def _splits(x, stride):
        """Carry the split over the prefixes of ``x`` taken every
        ``stride`` points, checking each MAD; return the splits."""
        keys, splits, split = [], [], 0
        for n, value in enumerate(x.tolist(), 1):
            insort_left(keys, value)
            if n < 2 or (n % stride and n < x.size):
                continue
            med, want = sample_median(x[:n]), mad(x[:n])
            found, split = _mad_sorted(keys, med, split)
            assert np.float64(found).tobytes() == np.float64(want).tobytes()
            assert _mad_sorted(keys, med, 0) == (found, split)
            assert _mad_sorted(keys, med, n) == (found, split)
            splits.append(split)
        return splits

    @settings(max_examples=200, deadline=None)
    @given(_mad_series(), st.sampled_from([1, ORIENT_STRIDE]))
    # the two middle deviations, and the two middle values, sum past the
    # float range
    @example(np.array([1.7976931348623157e308, -1e308]), 1)
    @example(np.array([1e308, 1.5e308, 1e308, 1.5e308]), 1)
    def test_carried_split_equals_mad(self, x, stride):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._splits(x, stride)

    def test_split_jumps_a_quarter_of_the_prefix(self):
        # prefix 200 holds 100 zeros and 100 twos about the median 1: every
        # deviation is 1 and the split takes all from above; at 0.9 the
        # median is the new point, and the 100 zeros at 0.9 come first
        x = np.append(np.tile([0.0, 2.0], 100), 0.9)
        splits = self._splits(x, 1)
        assert splits[-2] == 0 and splits[-1] == 100
        assert splits[-1] - splits[-2] >= x.size / 4


class TestDetectOrientation:
    def test_sqrt_trace_concave(self):
        tr = _trace(np.sqrt(np.arange(1.0, 51.0)))
        assert detect_orientation(tr) is Orientation.CONCAVE

    def test_square_trace_convex(self):
        tr = _trace(np.arange(1.0, 51.0) ** 2)
        assert detect_orientation(tr) is Orientation.CONVEX

    def test_linear_trace_is_concave(self):
        # no point off the chord: the trace keeps its order
        tr = _trace(np.arange(1.0, 51.0) * 2.0)
        assert detect_orientation(tr) is Orientation.CONCAVE

    def test_tie_off_the_chord_is_convex(self):
        values = np.arange(1.0, 51.0) * 2.0
        values[[10, 30]] += [1.0, -1.0]  # one point above, one below
        assert detect_orientation(_trace(values)) is Orientation.CONVEX

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
