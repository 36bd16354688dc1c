"""CSV rows of integer and float columns, formatted by numpy a block at a
time, byte for byte as ``%d`` and ``%.17g`` format them.

A float's 17 significant digits are the integer nearest y = |x|·10^q,
q = 16 − floor(log10 |x|).  :func:`round17` takes the product in
double-double arithmetic: 10^q is held as a pair hi + lo, hi split into
halves of 26 and 27 bits so that Dekker's product of |x| and hi is exact,
and y is known to better than 2^-47.  A value whose nearest integer this
cannot prove goes to the ``%`` formatting instead, so the kernel prints
no digit it has not proved (Loitsch's fast path with an exact fallback).

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
shown and by s do all of this, so no per-byte gather is needed.
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
    hi: np.ndarray  # 10^q = hi + lo, q = _Q_LO.._Q_HI
    hh: np.ndarray  # hi = hh + hl, hh its top 26 bits
    hl: np.ndarray
    lo: np.ndarray
    four: np.ndarray  # the word of "dddd", 0..9999
    lead: np.ndarray  # the same without leading zeros; "0" for 0
    last: np.ndarray  # the place of the last non-zero digit; -100 for 0
    prefix: np.ndarray  # word 0's prefix by exponent
    suffix: np.ndarray  # word 3 by exponent
    keep: np.ndarray  # (2, 18): words 1, 2 of the digits shown, by count
    move: np.ndarray  # (3, 18): words 0..2 of the digits moved, by s
    point: np.ndarray  # (3, 18): words 0..2 of the point, by s


def _word(text: bytes, at: int = 0) -> int:
    """The little-endian word holding ``text`` from byte ``at`` on."""
    return int.from_bytes(b"\0" * at + text, "little")


def _words(rows: list[dict[int, int]]) -> np.ndarray:
    """Words 0..2 of a cell for each row of ``rows`` (byte place -> byte),
    as a (3, len(rows)) array."""
    out = []
    for row in rows:
        cell = bytearray(24)
        for i, char in row.items():
            cell[i] = char
        out.append([_word(bytes(cell[j : j + 8])) for j in (0, 8, 16)])
    return np.array(out, dtype="<u8").view("<i8").T.copy()


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
def _tables() -> _Tables:
    """Built on first use, in a few milliseconds."""
    hi, lo = np.array([_power(q) for q in range(_Q_LO, _Q_HI + 1)]).T.copy()
    # products of hh and hl with a 26-bit half of x are exact
    hh = (hi.view(np.uint64) & np.uint64(2**64 - 2**27)).view(np.float64)
    text = [b"%04d" % i for i in range(10000)]
    digits = np.frombuffer(b"".join(text), np.uint8).reshape(-1, 4)
    nonzero = digits[:, ::-1] != ord("0")
    exps = range(-_EXP_OFFSET, _EXP_OFFSET)
    ff, dot = 0xFF, ord(".")
    tables = _Tables(
        hi=hi,
        hh=hh,
        hl=hi - hh,
        lo=lo,
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
        keep=_words([{7 + i: ff for i in range(1, n)} for n in range(18)])[1:],
        move=_words([{7 + i: ff for i in range(s + 1)} for s in range(17)] + [{}]),
        point=_words([{7 + s: dot} for s in range(17)] + [{}]),
    )
    for table in tables:  # every caller shares them
        table.flags.writeable = False
    return tables


def round17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits d (an integer in [10^16, 10^17)) and the
    decimal exponent e of each value of ``x``, and whether they are
    proved: |x| rounds to d·10^(e-16) at 17 significant digits.

    Not proved, and meant for the ``%`` fallback, are values outside
    ``[SAFE_LO, SAFE_HI)`` (zeros, subnormals, the largest values, inf
    and NaN among them), values whose y has an integer part outside
    [10^16, 10^17) or rounds to 10^17 (log10 was one off), and values
    whose fraction of y lies within ``TIE`` of 1/2.  Each rule is decided
    on the unrounded y, whose error is far below ``TIE``.  Where not
    proved, d is 10^16 and e is 0.
    """
    t = _tables()
    a = np.abs(x)
    ok = (a >= SAFE_LO) & (a < SAFE_HI)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - _Q_LO - e
    p = a * t.hi[k]
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    # y = p + r: r is Dekker's exact error of a·hi, plus a·lo
    r = (((ah * t.hh[k] - p) + ah * t.hl[k] + al * t.hh[k]) + al * t.hl[k]) + a * t.lo[k]
    whole = np.floor(r)
    frac = r - whole
    d = p.astype(np.int64) + whole.astype(np.int64)
    ok &= (d >= _LO17) & (d < _HI17) & (np.abs(frac - 0.5) > TIE)
    d += frac > 0.5
    ok &= d < _HI17  # rounds to 10^17: log10 was one low
    d[~ok] = _LO17
    e[~ok] = 0
    return d, e, ok


def float_cells(x: np.ndarray, empty_nan: bool) -> np.ndarray:
    """``'%.17g' % v`` for every v in ``x``, as an (n, 24) or (n, 32)
    byte array with ``PAD`` bytes among the text; with ``empty_nan`` a
    NaN is an empty cell.  Zeros take the fast path as the digits 0 at
    exponent 0; :func:`round17` names what goes to ``%``."""
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
    if empty_nan:
        nan = np.isnan(x)
        cells[nan] = PAD
        zero |= nan
    # every % text fits in 24 bytes: "-1.2345678901234567e-308"
    for i in np.flatnonzero(~(ok | zero)):
        text = ("%.17g" % x[i]).encode()
        cells[i] = np.frombuffer(text.ljust(cells.shape[1], b"\0"), np.uint8)
    return cells


def int_cells(v: np.ndarray) -> np.ndarray:
    """``'%d' % i`` for every i in ``v``, as an (n, width) byte array
    with ``PAD`` bytes among the text."""
    t = _tables()
    mag = np.abs(v).astype(np.uint64)  # exact for every int64
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
    cells = np.empty((v.size, 4 * groups + 1), dtype=np.uint8)
    cells[:, 0] = np.where(v < 0, _MINUS, PAD)
    cells[:, 1:] = words.view(np.uint8)
    return cells


def rows_text(columns: list[np.ndarray]) -> str:
    """One CSV line per row of ``columns``: integer columns by ``%d``,
    float columns by ``%.17g``, comma-separated, each line ending in
    CRLF; a NaN in the last column is an empty cell."""
    last = len(columns) - 1
    cells = [
        int_cells(col) if np.issubdtype(col.dtype, np.integer)
        else float_cells(col.astype(np.float64, copy=False), j == last)
        for j, col in enumerate(columns)
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
