"""CSV rows of integer and float columns, formatted by numpy a block at a
time, byte for byte as ``%d`` and ``%.17g`` format them, and CSV cells of
decimal text read by numpy, bit for bit as ``float()`` reads them.

A float's 17 significant digits are the integer nearest y = |x|·10^q,
q = 16 − floor(log10 |x|).  :func:`round17` takes the product in
double-double arithmetic: 10^q is held as a pair hi + lo, hi split into
halves of 26 and 27 bits so that Dekker's product of |x| and hi is exact,
and y is known to better than 2^-47.  A value whose nearest integer this
cannot prove, or whose y lies outside [10^16, 10^17) because the
exponent estimate is one off, goes to the ``%`` formatting instead, so
the kernel prints no digit it has not proved (Loitsch's fast path with
an exact fallback).  A NaN is an empty cell.

Each cell is laid out in fixed places with pad bytes among the text, and
a row drops its pad bytes at the end.  A float cell is four
little-endian words:

- word 0: the sign at byte 0, the "0.000" prefix of the fixed form of
  exponents -4..-1 at bytes 1..5, the first digit at byte 7;
- words 1 and 2: digits 2..17 at bytes 8..23, the trailing zeros after
  the point turned into pad bytes;
- word 3: "e" and the exponent of the exponent form at bytes 24..28.

A point after digit s + 1 moves digits 1..s+1 down one byte and takes
the place of digit s + 1.  Word masks indexed by the count of digits
shown and by s do all of this, so no per-byte gather is needed.  Every
mask, the reader's too, is a span of one byte value over a cell's 24
places (:func:`_masks`).

:func:`read_decimals` runs the other way (Clinger's fast path, widened
as in Lemire's "Number parsing at a gigabyte per second").  The last 24
bytes of a cell are gathered as three words.  The exponent, at most four
bytes, is read from the last word and shifted out; the point is taken
out by moving the bytes below it up one place; and each word is checked
and converted eight digits at a time by multiply-shift steps.  The
integer w of at most 19 digits times 10^q is then taken in the same
double-double arithmetic, and the double nearest to it is kept where the
residual is proved to lie within half the gap to the next double on its
own side.  Any other cell is left to ``float()``.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

PAD = 0  # the byte that fills a cell's unused places; rows drop it
# |x| outside [SAFE_LO, SAFE_HI) goes to the fallback: below it Dekker's
# split of x loses bits to the subnormals, above it the split overflows
SAFE_LO = 1e-290
SAFE_HI = 1e300
# y = |x|·10^q is known to better than 2^-47; a fraction of y this close
# to 1/2 is not decided here
TIE = 2.0**-30
# q = 16 - e for every exponent estimate e of a value in the safe range,
# one more either side for log10's rounding
_Q_LO = 16 - 300
_Q_HI = 16 + 291
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of x into two 26-bit halves
_LO17 = 10**16
_HI17 = 10**17
_MINUS = ord("-")
_NO_POINT = 17  # the point place of a cell without a point
_EXP_OFFSET = 310  # decimal exponents -310..309 index the word tables


class _Tables(NamedTuple):
    four: np.ndarray  # the word of "dddd", 0..9999
    lead: np.ndarray  # the same without leading zeros; "0" for 0
    last: np.ndarray  # the place of the last non-zero digit; -100 for 0
    prefix: np.ndarray  # word 0's prefix by exponent
    suffix: np.ndarray  # word 3 by exponent
    keep: np.ndarray  # (2, 18): words 1, 2 of the digits shown, by count
    move: np.ndarray  # (3, 18): words 0..2 of the digits moved, by s
    point: np.ndarray  # (3, 18): words 0..2 of the point, by s


def _frozen(tables):
    for table in tables:  # every caller shares them
        table.flags.writeable = False
    return tables


def _word(text: bytes, at: int = 0) -> int:
    """The little-endian word holding ``text`` from byte ``at`` on."""
    return int.from_bytes(b"\0" * at + text, "little")


def _masks(byte: int, lo, hi) -> np.ndarray:
    """Words 0..2 of 24-byte rows, row i holding ``byte`` at places
    ``lo[i]``..``hi[i] - 1`` and 0 elsewhere, as a (3, rows) array;
    ``lo`` and ``hi`` broadcast, and a span with ``hi <= lo`` is empty."""
    places = np.arange(24)
    span = (places >= np.asarray(lo)[..., None]) & (places < np.asarray(hi)[..., None])
    return (span * np.uint8(byte)).view("<u8").T.copy()


def _power(q: int) -> tuple[float, float]:
    """10^q as hi + lo: hi the nearest double, lo the nearest double to
    the rest (Python's int-to-float and int/int are correctly rounded)."""
    p = 10 ** abs(q)
    if q >= 0:
        hi = float(p)
        return hi, float(p - int(hi))
    hi = 1 / p
    num, den = hi.as_integer_ratio()
    return hi, (den - num * p) / (den * p)


@functools.cache
def _powers() -> np.ndarray:
    """10^q, q = _Q_LO.._Q_HI, as rows hi, hh, hl, lo: 10^q = hi + lo,
    and hi = hh + hl with hh the top 26 bits of hi.  Built on first use,
    in about a millisecond."""
    hi, lo = np.array([_power(q) for q in range(_Q_LO, _Q_HI + 1)]).T
    # products of hh and hl with a 26-bit half of x are exact
    hh = (hi.view(np.uint64) & np.uint64(2**64 - 2**27)).view(np.float64)
    table = np.array([hi, hh, hi - hh, lo])
    table.flags.writeable = False  # every caller shares it
    return table


@functools.cache
def _tables() -> _Tables:
    """Built on first use, in a few milliseconds."""
    text = [b"%04d" % i for i in range(10000)]
    digits = np.frombuffer(b"".join(text), np.uint8).reshape(-1, 4)
    nonzero = digits[:, ::-1] != ord("0")
    exps = range(-_EXP_OFFSET, _EXP_OFFSET)
    i = np.arange(18)  # by the count of digits shown, or by s
    return _frozen(_Tables(
        four=digits.view("<u4")[:, 0].astype("<i8"),
        lead=np.frombuffer(
            b"".join((t.lstrip(b"0") or b"0").rjust(4, b"\0") for t in text), "<u4"
        ).astype("<i8"),
        last=np.where(nonzero.any(1), 4 - nonzero.argmax(1), -100),
        prefix=np.array(
            [_word(b"0." + b"0" * (-k - 1), 1) if -4 <= k < 0 else 0 for k in exps],
            dtype="<i8",
        ),
        suffix=np.array(
            [0 if -4 <= k <= 16 else _word(b"e%+03d" % k) for k in exps], dtype="<i8"
        ),
        keep=_masks(0xFF, 8, 7 + i)[1:].view("<i8"),
        move=_masks(0xFF, 7, np.where(i < _NO_POINT, 8 + i, 0)).view("<i8"),
        point=_masks(ord("."), 7 + i, 8 + i).view("<i8"),  # none at _NO_POINT
    ))


def _product(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a·10^q, q = k + _Q_LO, as p + r: p the double nearest a·hi, and r
    Dekker's exact error of that product plus a·lo."""
    hi, hh, hl, lo = np.take(_powers(), k, 1)
    p = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    return p, r


def round17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits d (an integer in [10^16, 10^17)) and the
    decimal exponent e of each value of ``x``, and whether they are
    proved: |x| rounds to d·10^(e-16) at 17 significant digits.

    Not proved, and meant for the ``%`` fallback, are values outside
    ``[SAFE_LO, SAFE_HI)`` (zeros, subnormals, the largest values, inf
    and NaN among them), values whose fraction of y lies within ``TIE``
    of 1/2, and values whose y has an integer part under 10^16 or rounds
    to 10^17 or more.  Those last are where floor(log10 |x|) is one off,
    where y is at or just under 10^17, and exact powers of ten whose y,
    10^16, is taken a hair low (1e20).  The error of the unrounded y is
    far below ``TIE``.  Where not proved, d is 10^16 and e is 0.
    """
    a = np.abs(x)
    ok = (a >= SAFE_LO) & (a < SAFE_HI)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r = _product(a, 16 - _Q_LO - e)
    whole = np.floor(r)
    d = p.astype(np.int64) + whole.astype(np.int64)
    frac = r - whole
    ok &= (d >= _LO17) & (np.abs(frac - 0.5) > TIE)
    d += frac > 0.5
    ok &= d < _HI17
    d[~ok] = _LO17
    e[~ok] = 0
    return d, e, ok


def float_cells(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for every v in ``x``, as an (n, 24) or (n, 32)
    byte array with ``PAD`` bytes among the text, but a NaN is an empty
    cell.  Zeros take the fast path as the digits 0 at exponent 0;
    :func:`round17` names what goes to ``%``."""
    t = _tables()
    d, e, ok = round17(x)
    zero = x == 0
    d[zero] = 0
    first = d // _LO17
    rest = d - first * _LO17
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g1 = upper // 10**4
    g3 = lower // 10**4
    groups = (g1, upper - g1 * 10**4, g3, lower - g3 * 10**4)
    nsig = t.last[groups[0]] + 1
    for j in (1, 2, 3):
        np.maximum(nsig, t.last[groups[j]] + (4 * j + 1), out=nsig)
    np.maximum(nsig, 1, out=nsig)
    # the point follows digit s + 1: s = e in the fixed form, 0 in the
    # exponent form; digits 1..s+1 are shown whatever their value
    s = np.where((e >= -4) & (e <= 16), e, 0)
    shown = np.maximum(nsig, s + 1)
    s = np.where((nsig > s + 1) & (s >= 0), s, _NO_POINT)

    ei = e + _EXP_OFFSET
    w0 = t.prefix[ei] | (first + ord("0")) << 56
    w0 |= np.signbit(x) * _MINUS
    w1 = t.four[groups[0]] | t.four[groups[1]] << 32
    w1 &= t.keep[0][shown]
    w2 = t.four[groups[2]] | t.four[groups[3]] << 32
    w2 &= t.keep[1][shown]
    m0 = w0 & t.move[0][s]
    m1 = w1 & t.move[1][s]
    m2 = w2 & t.move[2][s]
    suffix = t.suffix[ei]
    # the exponent word only where some value has the exponent form
    words = np.empty((x.size, 4 if suffix.any() else 3), dtype="<i8")
    words[:, 0] = (w0 ^ m0) | t.point[0][s] | m0 >> 8 | m1 << 56
    words[:, 1] = (w1 ^ m1) | t.point[1][s] | m1 >> 8 | m2 << 56
    words[:, 2] = (w2 ^ m2) | t.point[2][s] | m2 >> 8
    if words.shape[1] == 4:
        words[:, 3] = suffix

    cells = words.view(np.uint8)
    nan = np.isnan(x)
    cells[nan] = PAD
    # every % text fits in 24 bytes: "-1.2345678901234567e-308"
    for i in np.flatnonzero(~(ok | zero | nan)):
        text = ("%.17g" % x[i]).encode()
        cells[i] = np.frombuffer(text.ljust(cells.shape[1], b"\0"), np.uint8)
    return cells


def int_cells(v: np.ndarray) -> np.ndarray:
    """``'%d' % i`` for every non-negative i in ``v``, as an (n, width)
    byte array with ``PAD`` bytes among the text."""
    t = _tables()
    mag = v.astype(np.uint64)
    groups = (len(str(int(mag.max(initial=0)))) + 3) // 4
    words = np.empty((v.size, groups), dtype="<i4")
    for j in range(groups - 1, -1, -1):
        higher = mag // np.uint64(10**4)
        g = (mag - higher * np.uint64(10**4)).astype(np.intp)
        # a group with no digits above it has no leading zeros, and a
        # group above all of a value's digits is pad
        word = np.where(higher > 0, t.four[g], t.lead[g])
        words[:, j] = word if j == groups - 1 else np.where(mag > 0, word, PAD)
        mag = higher
    return words.view(np.uint8)


def rows_text(columns: list[np.ndarray]) -> str:
    """One CSV line per row of ``columns``: integer columns by ``%d``,
    float columns by ``%.17g`` with a NaN as an empty cell,
    comma-separated, each line ending in CRLF."""
    cells = [
        int_cells(col) if np.issubdtype(col.dtype, np.integer)
        else float_cells(col.astype(np.float64, copy=False))
        for col in columns
    ]
    out = np.empty((columns[0].size, sum(c.shape[1] + 1 for c in cells) + 1), np.uint8)
    at = 0
    for c in cells:
        out[:, at : at + c.shape[1]] = c
        at += c.shape[1]
        out[:, at] = ord(",")
        at += 1
    out[:, at - 1 :] = np.frombuffer(b"\r\n", np.uint8)
    return out.tobytes().translate(None, b"\0").decode("ascii")



# the reader's constants: ASCII "0" and the SWAR masks, all per byte
_ZEROS = np.uint64(0x3030303030303030)
_OVER_NINE = np.uint64(0x7676767676767676)  # a digit 0..9 plus this stays < 0x80
_HIGH_BITS = np.uint64(0x8080808080808080)
_LOW_BITS = np.uint64(0x7F7F7F7F7F7F7F7F)
_CASE = np.uint64(0x2020202020202020)  # "E" | this is "e"
_WINDOW = 24  # a cell's last bytes gathered: three words
READ_CELLS = 8192  # cells read at a time: their temporaries stay in cache
_PLACES = np.arange(0, _WINDOW, 8)[:, None]  # the first place of each word
_PLUS = ord("+")
_POINT = ord(".")
_SPACE, _TAB = ord(" "), ord("\t")
_E_LOWER = ord("e")
_EXP_BITS = np.uint64(0x7FF0000000000000)
_FRACTION_BITS = np.uint64(0x000FFFFFFFFFFFFF)


@functools.cache
def _suffix_masks() -> tuple[np.ndarray, np.ndarray]:
    """(3, 25) arrays of words 0..2 of a 24-byte window: column t of
    ``keep`` has 0xFF in the window's last t bytes, and the same column of
    ``fill`` has "0" in its other bytes."""
    first = _WINDOW - np.arange(_WINDOW + 1)
    return _frozen((_masks(0xFF, first, _WINDOW), _masks(ord("0"), 0, first)))


def _bytes_equal(words: np.ndarray, byte: int) -> np.ndarray:
    """0x80 in each byte of ``words`` that equals ``byte``, 0 elsewhere."""
    x = words ^ np.uint64(byte * 0x0101010101010101)
    return ~(((x & _LOW_BITS) + _LOW_BITS) | x | _LOW_BITS)


def _first_marked(marks: np.ndarray) -> np.ndarray:
    """The place 0..7 of the lowest byte of each word of ``marks`` whose
    top bit is set, 8 where none is."""
    x = (marks >> np.uint64(7)) | np.uint64(1 << 63)  # a byte's bit at 8·place
    low = x & (~x + np.uint64(1))
    # a power of two converts exactly; its exponent is the bit's place
    bit = (low.astype(np.float64).view(np.uint64) >> np.uint64(52)).astype(np.int64)
    return (bit - 1022) >> 3


def _eight_digits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integers that little-endian words of eight ASCII digits spell,
    the first digit the lowest byte, and whether each word is digits."""
    v = words - _ZEROS
    # a byte under "0" borrows and one over "9" passes 0x80 when 0x76 is
    # added, either way setting its top bit
    ok = (v | (v + _OVER_NINE)) & _HIGH_BITS == 0
    # pairs, then fours, then eights: 2561 = 10·2^8 + 1, and so on
    v = (v * np.uint64(2561)) >> np.uint64(8) & np.uint64(0x00FF00FF00FF00FF)
    v = (v * np.uint64(6553601)) >> np.uint64(16) & np.uint64(0x0000FFFF0000FFFF)
    v = (v * np.uint64(42949672960001)) >> np.uint64(32)
    return v, ok


def read_decimals(text: bytes, start: np.ndarray, end: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``float(text[s:e])`` for each cell [s, e) of ``start``, ``end``,
    and whether it is proved.

    Proved are the cells, less the spaces and tabs around them, of at
    most 24 bytes of the form ``[+-]?(d+(.d*)?|.d+)([eE][+-]?d{1,3})?``
    (ASCII digits d) whose digits spell an integer w < 10^19 and whose
    value w·10^q is zero or has a nearest double in ``[SAFE_LO,
    SAFE_HI)`` that the residual proves.  Any other cell, and its value,
    is left to the caller."""
    data = np.frombuffer(b"".join((b"\0" * _WINDOW, text, b"\0")), np.uint8)
    start, end = _unpadded(data, start, end)
    values = np.empty(start.size)
    proved = np.empty(start.size, bool)
    for lo in range(0, start.size, READ_CELLS):
        part = slice(lo, lo + READ_CELLS)
        values[part], proved[part] = _read_run(data, start[part], end[part])
    return values, proved


def _unpadded(data: np.ndarray, start: np.ndarray, end: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """``start`` and ``end`` moved past the spaces and tabs at either end
    of each cell of ``data``, the text after 24 pad bytes, as ``float()``
    strips them."""
    start, end = start + _WINDOW, end + _WINDOW
    for at, step, look in ((start, 1, 0), (end, -1, -1)):
        i = np.flatnonzero(start < end)
        while i.size:
            edge = data[at[i] + look]
            i = i[(edge == _SPACE) | (edge == _TAB)]
            at[i] += step
            i = i[start[i] < end[i]]
    return start - _WINDOW, end - _WINDOW


def _read_run(data: np.ndarray, start: np.ndarray, end: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`read_decimals` of some cells of ``data``, the text after 24
    pad bytes."""
    keep, fill = _suffix_masks()
    length = end - start
    first = data[start + _WINDOW]
    neg = first == _MINUS
    signed = (neg | (first == _PLUS)) & (length > 0)
    ok = length <= _WINDOW
    # the 24 bytes before a cell's end, those before its digits made 0
    windows = np.ndarray((data.size - _WINDOW + 1,), f"V{_WINDOW}", data, strides=(1,))
    mantissa = np.minimum(length, _WINDOW) - signed  # with the exponent yet
    words = windows[end].view("<u8").reshape(-1, 3).T & np.take(keep, mantissa, 1)

    # an exponent has at most 4 bytes, so its "e" is in the last word
    marks = _bytes_equal(words[2] | _CASE, _E_LOWER)
    if marks.any():
        at = _first_marked(marks).astype(np.uint64)  # the "e", 8 if none
        sign = (words[2] >> (at + np.uint64(1)) * np.uint64(8)) & np.uint64(0xFF)
        exp_neg = sign == _MINUS
        digits = (7 - at.astype(np.int64)) - (exp_neg | (sign == _PLUS))
        ok &= (marks == 0) | ((digits >= 1) & (digits <= 3))
        digits = np.clip(digits, 0, 8)
        exp, exp_ok = _eight_digits((words[2] & keep[2][digits]) | fill[2][digits])
        ok &= exp_ok
        q = np.where(exp_neg, -exp.astype(np.int64), exp.astype(np.int64))
        # shift the exponent out, the mantissa up to the window's end
        shift = (np.uint64(8) - at) * np.uint64(8)
        carry = np.uint64(64) - shift  # 64, for no shift, carries nothing
        words = np.stack([
            words[0] << shift,
            (words[1] << shift) | (words[0] >> carry),
            (words[2] << shift) | (words[1] >> carry),
        ])
        mantissa -= (8 - at).astype(np.int64)
    else:
        q = np.zeros(start.size, np.int64)

    # the first point, at place 24 if none; a second one is no digit
    points = _bytes_equal(words, _POINT)
    at = _PLACES + _first_marked(points)
    place = np.where(points[0] != 0, at[0], np.where(points[1] != 0, at[1], at[2]))
    point = place < _WINDOW
    after = (_WINDOW - 1) - place.astype(np.int64)  # digits after the point
    q -= np.maximum(after, 0)
    # take the point out: the bytes below it move up one place
    up = words << np.uint64(8)
    up[1:] |= words[:-1] >> np.uint64(56)
    above = np.take(keep, np.where(point, after, _WINDOW), 1)
    count = mantissa - point
    digits = (words & above) | (up & ~above) | np.take(fill, np.maximum(count, 0), 1)
    groups, digits_ok = _eight_digits(digits)
    ok &= digits_ok.all(0) & (count >= 1) & (groups[0] < 1000)
    w = (groups[0] * np.uint64(10**16) + groups[1] * np.uint64(10**8) + groups[2]) * ok

    # w·10^q = wh·10^q + wl·10^q, wh the double nearest w, wl exact
    wh = w.astype(np.float64)
    wl = (w - wh.astype(np.uint64)).view(np.int64).astype(np.float64)
    zero = w == 0
    tabled = (q >= _Q_LO) & (q <= _Q_HI)
    ok &= zero | tabled
    k = np.where(tabled, q - _Q_LO, -_Q_LO)
    with np.errstate(over="ignore", invalid="ignore"):  # past SAFE_HI
        p, r = _product(wh, k)
        r += wl * _powers()[0][k]
        z = p + r
        residual = r - (z - p)  # exact, as z - p is
        bits = z.view(np.uint64)
        ulp = (bits & _EXP_BITS).view(np.float64) * 2.0**-52
        # below a power of two the gap to the next double is half as wide
        ulp *= 1.0 - 0.5 * ((residual < 0) & ((bits & _FRACTION_BITS) == 0))
        ok &= zero | (
            (np.abs(residual) < (0.5 - TIE) * ulp) & (z >= SAFE_LO) & (z < SAFE_HI)
        )
    return np.where(neg, -z, z), ok
