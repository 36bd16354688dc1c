"""The numpy row writer behind ``--trace-csv`` and ``simulate``, against
``format(v, ".17g")`` and ``"%d"``: every float and integer it writes, and
every value it leaves to the ``%`` fallback, byte for byte."""
import csv
import io
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scaleshift import _csvrows

MAX = 1.7976931348623157e308


def _texts(cells) -> list[str]:
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in cells]


def _want(values, empty_nan=False) -> list[str]:
    return [
        "" if empty_nan and math.isnan(v) else format(v, ".17g")
        for v in np.asarray(values, dtype=np.float64).tolist()
    ]


def _check_floats(values):
    x = np.asarray(values, dtype=np.float64)
    assert _texts(_csvrows.float_cells(x, False)) == _want(x)
    assert _texts(_csvrows.float_cells(x, True)) == _want(x, empty_nan=True)


def _proved(values) -> np.ndarray:
    return _csvrows.round17(np.asarray(values, dtype=np.float64))[2]


def _neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


class TestFloatCells:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 60),
                      elements=st.floats(allow_nan=True, allow_infinity=True,
                                         allow_subnormal=True)))
    def test_any_double(self, x):
        _check_floats(x)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_powers_of_ten_and_their_neighbours(self, sign):
        values = [v for k in range(-323, 309) for v in _neighbours(float(f"1e{k}"))]
        _check_floats(sign * np.array(values))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_integers_times_powers_of_ten(self, sign):
        # many trailing zeros, and every exponent of the fixed and the
        # exponent form
        ints = [1, 2, 5, 7, 10, 12, 99, 100, 101, 123, 4096, 9999, 10001,
                123456789, 10**15 + 1, 2**53 - 1, 2**53]
        values = [float(f"{i}e{k}") for i in ints for k in range(-330, 300)]
        _check_floats(sign * np.array(values))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(28)
        _check_floats(rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64))

    def test_signed_zeros_take_the_fast_path(self):
        x = np.array([0.0, -0.0, 1.0, -1.0])
        assert _texts(_csvrows.float_cells(x, True)) == ["0", "-0", "1", "-1"]

    def test_nan_is_an_empty_cell_only_when_asked(self):
        x = np.array([math.nan, -math.nan, 1.5])
        assert _texts(_csvrows.float_cells(x, True)) == ["", "", "1.5"]
        assert _texts(_csvrows.float_cells(x, False)) == ["nan", "nan", "1.5"]

    FALLBACK = [
        # exact ties at the 18th digit: round half to even
        1 + 2**-17, 227797280769.609375, 78000344756.9765625,
        # outside the safe range
        5e-324, 2.2250738585072014e-308, 1e-295, 1.5e300, MAX, -MAX,
        math.inf, -math.inf, math.nan,
    ]

    @pytest.mark.parametrize("value", FALLBACK)
    def test_fallback_values(self, value):
        assert not _proved([value])[0]
        _check_floats([value, -value, 0.25])

    def test_an_off_by_one_exponent_falls_back(self):
        # log10 of the double just below 10^k can round up to k; those
        # that do fall back instead of printing 16 digits
        below = [np.nextafter(float(f"1e{k}"), 0.0) for k in range(-280, 290)]
        e_hi = np.floor(np.log10(below)) == np.arange(-280, 290)
        assert e_hi.any()
        assert not _proved(np.array(below)[e_hi]).any()
        _check_floats(below)

    @pytest.mark.parametrize("step", [-math.inf, math.inf])
    def test_a_log10_one_unit_off_only_falls_back(self, step, monkeypatch):
        # a log10 one unit off moves floor(log10 |x|) by one at powers of
        # ten; 1e-14, 1e98 and 1e220 are the doubles nearest 10^k from
        # below by less than half a unit of the 17th digit, so one low
        # their y rounds up to 10^17
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), step))
        powers = [-243, -14, -1, 0, 1, 22, 23, 98, 220]
        _check_floats([v for k in powers for v in _neighbours(float(f"1e{k}"))])

    @pytest.mark.parametrize("scale", [1e-250, 1e-5, 1.0, 1e4, 1e250])
    def test_ordinary_values_are_proved(self, scale):
        # the fast path is taken: only ties and the range edges fall back
        rng = np.random.default_rng(int(-math.log10(scale) + 300))
        x = rng.standard_normal(20000) * scale
        assert _proved(x).all()
        assert _proved(np.cumsum(x)).all()


class TestIntCells:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.int64, st.integers(1, 60),
                      elements=st.integers(-(2**63), 2**63 - 1)))
    def test_any_int64(self, v):
        assert _texts(_csvrows.int_cells(v)) == ["%d" % i for i in v.tolist()]

    def test_index_values_up_to_1e12(self):
        v = np.concatenate([
            np.arange(0, 10**4 + 2),
            [10**k + d for k in range(4, 13) for d in (-1, 0, 1)],
            np.random.default_rng(12).integers(0, 10**12, 5000),
        ]).astype(np.int64)
        assert _texts(_csvrows.int_cells(v)) == ["%d" % i for i in v.tolist()]


def _csv_reference(columns) -> str:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    last = len(columns) - 1
    for row in zip(*(c.tolist() for c in columns)):
        w.writerow([
            "" if isinstance(v, float) and j == last and math.isnan(v)
            else format(v, ".17g") if isinstance(v, float) else "%d" % v
            for j, v in enumerate(row)
        ])
    return buf.getvalue()


class TestRowsText:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        hnp.arrays(np.int64, n, elements=st.integers(0, 10**12)),
        hnp.arrays(np.float64, n, elements=st.floats(allow_subnormal=True)),
        hnp.arrays(np.float64, n, elements=st.floats(allow_subnormal=True)),
    )))
    def test_trace_rows(self, columns):
        assert _csvrows.rows_text(list(columns)) == _csv_reference(columns)

    def test_simulate_rows(self):
        rng = np.random.default_rng(3)
        columns = [np.arange(1, 501), rng.standard_cauchy(500), rng.integers(1, 3, 500)]
        assert _csvrows.rows_text(columns) == _csv_reference(columns)


def test_import_builds_no_table():
    # the tables are built on first use, never when the CLI is imported
    code = (
        "import scaleshift.cli, scaleshift._csvrows as r; "
        "assert r._tables.cache_info().currsize == 0"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
