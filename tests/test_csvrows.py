"""The numpy row writer behind ``--trace-csv`` and ``simulate``, against
``format(v, ".17g")`` and ``"%d"``: every float and integer it writes, and
every value it leaves to the ``%`` fallback, byte for byte."""
import csv
import io
import decimal
import math
from decimal import Decimal
from fractions import Fraction
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


def _want(values) -> list[str]:
    return [
        "" if math.isnan(v) else format(v, ".17g")
        for v in np.asarray(values, dtype=np.float64).tolist()
    ]


def _check_floats(values):
    x = np.asarray(values, dtype=np.float64)
    assert _texts(_csvrows.float_cells(x)) == _want(x)


def _proved(values) -> np.ndarray:
    return _csvrows.round17(np.asarray(values, dtype=np.float64))[2]


def _is_tie(v: float) -> bool:
    """Whether |v| lies exactly halfway between two 17-digit decimals."""
    digits = "".join(map(str, Decimal(abs(v)).as_tuple().digits))
    return digits[17:].rstrip("0") == "5"


def _y_at_an_edge(v: float) -> bool:
    """Whether y = |v|·10^(16 - e), with e numpy's floor(log10 |v|), lies
    outside [10^16, 10^17 - 1/2) or within 2^-40 of either end.  y lies
    outside where e is one off, and is 10^16 for an exact power of ten."""
    y = Fraction(abs(v)) * Fraction(10) ** (16 - math.floor(np.log10(abs(v))))
    margin = Fraction(1, 2**40)
    return not 10**16 + margin <= y < 10**17 - Fraction(1, 2) - margin


def _check_fallbacks(values):
    """Every value of ``values`` that ``round17`` leaves to ``%`` is a
    tie, outside the safe range, or has its y at an edge."""
    x = np.asarray(values, dtype=np.float64)
    for v in x[~_proved(x)].tolist():
        assert (_is_tie(v) or not _csvrows.SAFE_LO <= abs(v) < _csvrows.SAFE_HI
                or _y_at_an_edge(v)), v


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
        assert _texts(_csvrows.float_cells(x)) == ["0", "-0", "1", "-1"]

    def test_nan_is_an_empty_cell(self):
        x = np.array([math.nan, -math.nan, 1.5])
        assert _texts(_csvrows.float_cells(x)) == ["", "", "1.5"]

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
        # that do fall back, as ties do
        below = np.array([np.nextafter(float(f"1e{k}"), 0.0) for k in range(-280, 290)])
        e_hi = below[np.floor(np.log10(below)) == np.arange(-280, 290)]
        assert e_hi.size > 100
        assert not _proved(e_hi).any()
        _check_fallbacks(below)
        _check_floats(below)

    def test_which_near_powers_of_ten_fall_back(self):
        # the doubles within 4 units in the last place of 10^k: those
        # left to % are outside the safe range, ties, or have a y at an
        # edge, nearly all by an exponent estimate one off
        values = []
        for k in range(-290, 300):
            lo = hi = float(f"1e{k}")
            values.append(lo)
            for _ in range(4):
                lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, math.inf)
                values += [lo, hi]
        assert len(values) == 5310
        _check_fallbacks(values)
        _check_floats(values)

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
                      elements=st.integers(0, 2**63 - 1)))
    def test_any_int64(self, v):
        assert _texts(_csvrows.int_cells(v)) == ["%d" % i for i in v.tolist()]

    def test_index_values_up_to_1e12(self):
        v = np.concatenate([
            np.arange(0, 10**4 + 2),
            [10**k + d for k in range(4, 13) for d in (-1, 0, 1)],
            np.random.default_rng(12).integers(0, 10**12, 5000),
        ]).astype(np.int64)
        assert _texts(_csvrows.int_cells(v)) == ["%d" % i for i in v.tolist()]


def _words(rows: list[dict[int, int]]) -> np.ndarray:
    """Words 0..2 of a cell for each row of ``rows`` (byte place -> byte),
    as a (3, len(rows)) array: the writer's masks built place by place."""
    out = []
    for row in rows:
        cell = bytearray(24)
        for i, char in row.items():
            cell[i] = char
        out.append([int.from_bytes(cell[j : j + 8], "little") for j in (0, 8, 16)])
    return np.array(out, dtype="<u8").view("<i8").T.copy()


def test_masks_equal_their_place_by_place_construction():
    t = _csvrows._tables()
    ff, dot = 0xFF, ord(".")
    writer = {
        "keep": _words([{7 + i: ff for i in range(1, n)} for n in range(18)])[1:],
        "move": _words([{7 + i: ff for i in range(s + 1)} for s in range(17)] + [{}]),
        "point": _words([{7 + s: dot} for s in range(17)] + [{}]),
    }
    # the reader's: column t keeps the window's last t bytes, and fills
    # the others with "0"
    last = np.arange(24) >= 24 - np.arange(25)[:, None]
    reader = (
        (last * np.uint8(0xFF)).view("<u8").T.copy(),
        (~last * np.uint8(ord("0"))).view("<u8").T.copy(),
    )
    for got, want in [(getattr(t, k), v) for k, v in writer.items()] + list(
        zip(_csvrows._suffix_masks(), reader)
    ):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert not got.flags.writeable


def _csv_reference(columns) -> str:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    for row in zip(*(c.tolist() for c in columns)):
        w.writerow([
            "" if isinstance(v, float) and math.isnan(v)
            else format(v, ".17g") if isinstance(v, float) else "%d" % v
            for v in row
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
    # the tables are built on first use, never when the CLI is imported,
    # and reading builds only the powers of ten and the masks
    code = (
        "import numpy as np, scaleshift.cli, scaleshift._csvrows as r; "
        "built = lambda: [f.cache_info().currsize for f in "
        "(r._powers, r._suffix_masks, r._tables)]; "
        "assert built() == [0, 0, 0]; "
        "r.read_decimals(b'1.5', np.array([0]), np.array([3])); "
        "assert built() == [1, 1, 0]"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def _read(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``read_decimals`` of ``cells``, one per line of one text."""
    raw = [c.encode() for c in cells]
    ends = np.cumsum([len(c) + 1 for c in raw]) - 1
    text = b"\n".join(raw)
    return _csvrows.read_decimals(text, ends - [len(c) for c in raw], ends)


def _float_or_none(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _check_cells(cells: list[str]) -> np.ndarray:
    """Every cell the kernel proves is ``float()``'s double, bit for bit;
    returns the proved mask."""
    values, proved = _read(cells)
    for cell, v, ok in zip(cells, values.tolist(), proved.tolist()):
        if ok:
            want = _float_or_none(cell)
            assert want is not None and math.isfinite(want), cell
            assert np.float64(v).tobytes() == np.float64(want).tobytes(), cell
    return proved


_DIGITS = st.text("0123456789", max_size=25)


@st.composite
def _decimal_texts(draw) -> str:
    """Decimal text of up to 25 digits: a sign, leading zeros, a point,
    an exponent of 0..400 either way, and spaces or tabs around it."""
    whole, frac = draw(_DIGITS), draw(_DIGITS)
    text = draw(st.sampled_from(["", "+", "-"])) + "0" * draw(st.integers(0, 3))
    text += whole[: 25 - len(frac)]
    if draw(st.booleans()) or not whole:
        text += "." + frac
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
        text += draw(st.sampled_from(["", "0", "00"])) + str(draw(st.integers(0, 400)))
    pad = st.sampled_from(["", "", " ", "\t", " \t"])
    return draw(pad) + text + draw(pad)


def _near_midpoints(x: float) -> list[str]:
    """Decimal text of 17 to 19 digits on both sides of the midpoint of
    ``x`` and the next double up, and the midpoint itself where it has no
    more than 19 digits."""
    mid = (Decimal(x) + Decimal(np.nextafter(x, math.inf))) / 2
    texts = [str(+mid)] if len(mid.as_tuple().digits) <= 19 else []
    for digits in (17, 18, 19):
        for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
            ctx = decimal.Context(prec=digits, rounding=rounding)
            texts.append(str(ctx.plus(mid)))
    return texts


class TestReadDecimals:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              allow_subnormal=True), min_size=1, max_size=40))
    def test_double_texts(self, xs):
        _check_cells([t for x in xs for t in (repr(x), format(x, ".17g"),
                                              format(x, ".6e"))])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_decimal_texts(), min_size=1, max_size=40))
    def test_digit_strings(self, cells):
        _check_cells(cells)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1e-280, max_value=1e290), min_size=1,
                    max_size=20))
    def test_near_midpoints(self, xs):
        _check_cells([t for x in xs for t in _near_midpoints(x)])

    SPECIAL = {
        # 2^53 + 1 and 2^53 + 3 lie halfway between two doubles, and so
        # does 2^52 + 1/2: float() rounds them to even
        "9007199254740993": False, "9007199254740995": False,
        "4503599627370496.5": False, ".5": True, "5.": True, "-0": True,
        "+1E+5": True, "1e-320": False, "1.7976931348623157e308": False,
        "inf": False, "nan": False, "1_0": False, "0e999": True, "-.5e-3": True,
        "": False, "-": False, ".": False, "1e": False, "1e+": False,
        "1.2.3": False, "12345678901234567890": False, " 1": True,
        "\t-2.5e-1  ": True, "   ": False, "1 2": False, "\x0c1": False,
    }

    def test_special_cells(self):
        cells = list(self.SPECIAL)
        proved = _check_cells(cells)
        assert dict(zip(cells, proved.tolist())) == self.SPECIAL
        values = _read(cells)[0]
        assert np.signbit(values[cells.index("-0")])

    def test_cells_among_other_text(self):
        # the kernel reads only [start, end): bytes around a cell are any text
        text = "2024-01-01T00:00:00,1.5e3,x.5,-2.25,température,7".encode()
        cells = [(20, 25), (28, 29), (30, 35), (len(text) - 1, len(text))]
        start, end = np.array(cells).T
        values, proved = _csvrows.read_decimals(text, start, end)
        assert proved.all() and values.tolist() == [1500.0, 5.0, -2.25, 7.0]

    def test_texts_of_ordinary_doubles_are_proved(self):
        # a kernel that always falls back would pass the tests above
        rng = np.random.default_rng(29)
        x = 10.0 ** rng.uniform(-250, 250, 20000) * rng.choice([-1.0, 1.0], 20000)
        cells = [t for v in x.tolist() for t in (repr(v), format(v, ".17g"))]
        assert len(cells) > _csvrows.READ_CELLS
        assert _check_cells(cells).mean() >= 0.99
