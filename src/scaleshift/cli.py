"""Command-line front-end: CSV ingestion and preprocessing, detection runs,
fixture simulation, and benchmark execution.

Usage sketches::

    scaleshift detect --input series.csv --method ols --estimator qcv
    scaleshift simulate stable --alpha 1.9 --gamma2 3 --n 1000 --cp 500 --seed 7
    scaleshift bench mae --preset stable-desk --output-csv mae.csv

A flat key-value config file (``key = value`` per line, ``#`` comments) can
seed any subcommand's options via ``--config FILE`` or ``--config=FILE``:
each key names an option exactly and its value is passed verbatim as that
option's argument; explicit flags win.  The environment variable
``SCALESHIFT_SEED`` provides the default seed/base-seed.
"""
from __future__ import annotations

import argparse
import contextlib
import csv as csv_mod
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bench as bench_mod
from .bench import _fmt
from .css import KIND_BMID, KIND_CLASSICAL, KIND_QCV, ScaleEstimatorSpec
from .detect import (
    METHOD_ICSS,
    METHOD_OLS,
    ORIENTATIONS,
    DetectionResult,
    _check_head_params,
    _orientation_runs,
    detect_oriented,
    orient,
)
from .errors import (
    ConfigError,
    EmptyColumn,
    NonFiniteSample,
    NonPositiveForLog,
    ParseError,
    ScaleShiftError,
    TooShortAfterPreprocess,
)
from .simulate import MixtureSpec, StableSpec, _generate

__all__ = [
    "TimeSeries",
    "ingest_csv",
    "preprocess",
    "parse_preprocess_spec",
    "main",
]

SEED_ENV_VAR = "SCALESHIFT_SEED"
MIN_SERIES_LEN = 8
TRACE_BLOCK_ROWS = 8192
CSV_BLOCK_CHARS = 1 << 20
_LF, _CR, _COMMA = b"\n\r,"


@dataclass(frozen=True)
class TimeSeries:
    """A real-valued series with provenance metadata."""

    values: np.ndarray
    source: str
    preprocessing: tuple[str, ...] = ()


def parse_preprocess_spec(text: str) -> tuple[tuple, ...]:
    """Parse a comma-separated step list, e.g. ``log-returns,diff:2,agg:60:mean``,
    into the steps in order: ``("log-returns",)``, ``("difference", k)`` or
    ``("aggregate", b, reducer)``.

    Accepted step forms: ``log-returns``; ``difference:K`` (alias ``diff``);
    ``aggregate:B[:mean|median]`` (alias ``agg``, default reducer mean).
    """
    steps = []
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            continue
        parts = token.split(":")
        name = parts[0].lower()
        if name == "log-returns":
            if len(parts) != 1:
                raise ConfigError(f"log-returns takes no arguments: {token!r}")
            steps.append(("log-returns",))
        elif name in ("difference", "diff"):
            if len(parts) != 2:
                raise ConfigError(f"difference needs an order: {token!r}")
            steps.append(("difference", _step_int(parts[1], "difference order")))
        elif name in ("aggregate", "agg"):
            if len(parts) not in (2, 3):
                raise ConfigError(f"aggregate needs a block size: {token!r}")
            b = _step_int(parts[1], "aggregate block")
            reducer = parts[2].lower() if len(parts) == 3 else "mean"
            if reducer not in ("mean", "median"):
                raise ConfigError(f"unknown reducer {reducer!r}")
            steps.append(("aggregate", b, reducer))
        else:
            raise ConfigError(f"unknown preprocessing step {token!r}")
    return tuple(steps)


def _step_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from None
    if value < 1:
        raise ConfigError(f"{what} must be >= 1, got {value}")
    return value


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def ingest_csv(path, column=1) -> TimeSeries:
    """Read one column of a CSV file as a series of finite reals.

    ``column`` is a 1-based index or a header name; an index below 1 is a
    :class:`ConfigError` before the file is opened.  One leading
    byte-order mark and blank rows are skipped.  The first non-blank row
    is a header when its cell in the column is not a number or, for a row
    too narrow to have that cell, when one of its cells is neither blank
    nor a number.  Any other unparseable, non-finite or missing cell is a
    hard :class:`ParseError` carrying its physical line number, and so is
    a row the CSV reader rejects (e.g. a cell over the field size limit);
    bytes that do not decode give a :class:`ParseError` without one.

    The row loop in :func:`_read_column` defines what a file means.  Past
    the first value, the file is read in bulk by :func:`_read_plain_rest`;
    a file it refuses is read again by the row loop alone, so the values
    and errors are the same either way.
    """
    values = _read_column(path, column, bulk=True)
    if values is None:
        values = _read_column(path, column, bulk=False)
    if not values.size:
        raise EmptyColumn(f"no data rows found in {path!r} (column {column!r})")
    return TimeSeries(values=values, source=str(path))


def _read_column(path, column, *, bulk: bool) -> np.ndarray | None:
    """The row loop of :func:`ingest_csv`: ``column``'s values as an array.

    With ``bulk``, the loop stops at the first value, once blank rows and
    the header are settled, and hands the rest of the file to
    :func:`_read_plain_rest`; None means that it refused the rest."""
    col_idx = None if isinstance(column, str) else int(column) - 1
    if col_idx is not None and col_idx < 0:
        raise ConfigError(f"column index must be >= 1, got {column}")
    values = []
    # utf-8-sig skips one byte-order mark, whatever the locale
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv_mod.reader(fh)
        first = True  # no non-blank row seen yet
        try:
            for row in reader:
                # Fast path for the common row: a finite number in the
                # column.  IndexError is a short row, TypeError a header
                # name not yet found; these, and every cell float() rejects
                # or parses to inf/NaN, take the checks below.
                try:
                    v = float(row[col_idx])
                except (IndexError, TypeError, ValueError):
                    v = math.nan
                if v - v != 0.0:  # true for inf and NaN
                    if not row or all(not cell.strip() for cell in row):
                        continue
                    may_be_header = first and not values
                    first = False
                    if isinstance(column, str) and col_idx is None:
                        try:
                            col_idx = [c.strip() for c in row].index(column)
                        except ValueError:
                            raise ParseError(
                                f"no column named {column!r} in header",
                                line=reader.line_num,
                            ) from None
                        continue
                    if col_idx >= len(row):
                        if may_be_header and not all(
                            _is_number(cell) for cell in row if cell.strip()
                        ):
                            continue  # header narrower than the requested column
                        raise ParseError(
                            f"row has {len(row)} columns, need column {col_idx + 1}",
                            line=reader.line_num,
                        )
                    cell = row[col_idx].strip()
                    try:
                        v = float(cell)
                    except ValueError:
                        if may_be_header:
                            continue  # header row
                        raise ParseError(
                            f"cannot parse {cell!r} as a real", line=reader.line_num
                        ) from None
                    if not math.isfinite(v):
                        raise ParseError(
                            f"non-finite value {cell!r}", line=reader.line_num
                        )
                values.append(v)
                if bulk:
                    rest = _read_plain_rest(fh, col_idx)
                    return None if rest is None else np.concatenate([values, *rest])
        except UnicodeDecodeError as exc:
            raise ParseError(f"file is not valid text: {exc}") from None
        except csv_mod.Error as exc:
            raise ParseError(
                f"unreadable CSV row: {exc}", line=reader.line_num
            ) from None
    return np.asarray(values)


def _read_plain_rest(fh, col_idx: int) -> list[np.ndarray] | None:
    """Column ``col_idx`` of the rest of the open CSV file ``fh`` as one
    array per block of about ``CSV_BLOCK_CHARS`` characters cut at a
    newline, or None as soon as :func:`_read_plain_block` refuses a block."""
    limit = csv_mod.field_size_limit()
    parts = []
    carry = ""  # the unfinished last line of what was read
    while True:
        try:
            chunk = fh.read(CSV_BLOCK_CHARS)
        except UnicodeDecodeError:
            return None
        text = carry + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        block, carry = text[:cut], text[cut:]
        if len(carry) > limit:  # a line longer than any cell may be
            return None
        if block:
            values = _read_plain_block(block, col_idx, limit)
            if values is None:
                return None
            parts.append(values)
        if not chunk:
            return parts


def _read_plain_block(block: str, col_idx: int, limit: int) -> np.ndarray | None:
    """Column ``col_idx`` of the CSV lines ``block``, or None if the row
    loop might read the block differently.

    The row loop reads a cell with csv and ``float()``.  Where the block
    holds no quote, no NUL and no CR but those of CRLFs, csv's records are
    its lines and its cells the text between commas, whatever other
    columns hold; a line of no more bytes than the field size limit holds
    no cell that csv rejects.  Each cell is read by
    :func:`scaleshift._csvrows.read_decimals`, or by ``float()`` where that
    proves no value, so the values are ``float()``'s.  A line whose cell
    ``float()`` does not read as a finite number is skipped where the row
    loop skips it as blank; any other such line is the row loop's error to
    report.
    """
    # imported on first use, as _write_rows does
    from . import _csvrows

    text = block.encode()
    if b'"' in text or b"\0" in text:
        return None
    buf = np.frombuffer(text, np.uint8)
    found = np.empty(buf.size, bool)  # one mask, reused for each byte sought
    newlines = np.flatnonzero(np.equal(buf, _LF, out=found))
    crlf = (newlines > 0) & (buf[newlines - 1] == _CR)
    if b"\r" in text:
        if np.count_nonzero(np.equal(buf, _CR, out=found)) != np.count_nonzero(crlf):
            return None  # a lone CR
    starts = np.concatenate(([0], newlines + 1))
    ends = np.append(newlines - crlf, len(text))
    if text.endswith(b"\n"):
        starts, ends = starts[:-1], ends[:-1]
    if (ends - starts).max(initial=0) > limit:
        return None
    commas = np.flatnonzero(np.equal(buf, _COMMA, out=found))
    cell_starts, cell_ends = _cells(commas, starts, ends, col_idx, buf.size)
    values, proved = _csvrows.read_decimals(text, cell_starts, cell_ends)
    blank = []
    for i in np.flatnonzero(~proved).tolist():
        try:
            v = float(text[cell_starts[i] : cell_ends[i]].decode())
        except ValueError:
            v = math.nan
        if math.isfinite(v):
            values[i] = v
        elif text[starts[i] : ends[i]].decode().replace(",", "").strip():
            return None
        else:
            blank.append(i)
    return np.delete(values, blank) if blank else values


def _cells(commas: np.ndarray, starts: np.ndarray, ends: np.ndarray,
           col_idx: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The start and end of cell ``col_idx`` of each line [start, end) of
    a text of ``size`` bytes with ``commas`` at these places; a line short
    of the cell gives an empty one at its end."""
    width, extra = divmod(commas.size, max(starts.size, 1))
    if width and not extra and col_idx <= width:
        # the same number of commas on every line: a row of the grid each
        grid = commas.reshape(-1, width)
        if (grid[:, 0] >= starts).all() and (grid[:, -1] < ends).all():
            return (
                grid[:, col_idx - 1] + 1 if col_idx else starts,
                grid[:, col_idx] if col_idx < width else ends,
            )
    # the comma after cell col_idx of a line is the line's comma col_idx
    commas = np.concatenate((commas, np.full(col_idx + 1, size + 1)))
    k = np.searchsorted(commas, starts) + col_idx
    cell_ends = np.minimum(commas[k], ends)
    return np.minimum(commas[k - 1] + 1, ends) if col_idx else starts, cell_ends


def preprocess(ts: TimeSeries, steps: tuple[tuple, ...]) -> TimeSeries:
    """Apply ``steps``, as :func:`parse_preprocess_spec` returns them, in
    order: log-returns (requires positive input), k-fold differencing, or
    non-overlapping block aggregation with the tail remainder dropped.  The
    result must keep at least 8 points, even with no steps.  A step that
    overflows gives inf or NaN without a numpy warning."""
    x = ts.values
    applied = (*ts.preprocessing, *(":".join(map(str, step)) for step in steps))
    # A step may overflow to inf or NaN; orient() refuses such a series
    # with NonFiniteSample, so numpy's warnings would only repeat that.
    with np.errstate(all="ignore"):
        for step in steps:
            name = step[0]
            if name == "log-returns":
                if x.size < 2:
                    raise TooShortAfterPreprocess("log-returns needs >= 2 points")
                if np.any(x <= 0.0):
                    raise NonPositiveForLog(
                        "log-returns require strictly positive values"
                    )
                x = np.log(x[1:] / x[:-1])
            elif name == "difference":
                k = step[1]
                if x.size <= k:
                    raise TooShortAfterPreprocess(
                        f"difference order {k} leaves no data from {x.size} points"
                    )
                x = np.diff(x, n=k)
            else:
                b, reducer = step[1], step[2]
                nblocks = x.size // b
                if nblocks == 0:
                    raise TooShortAfterPreprocess(
                        f"aggregate block {b} leaves no data from {x.size} points"
                    )
                blocks = x[: nblocks * b].reshape(nblocks, b)
                x = (
                    np.mean(blocks, axis=1)
                    if reducer == "mean"
                    else np.median(blocks, axis=1)
                )
    if x.size < MIN_SERIES_LEN:
        raise TooShortAfterPreprocess(
            f"{x.size} points remain after preprocessing; need >= {MIN_SERIES_LEN}"
        )
    return TimeSeries(values=x, source=ts.source, preprocessing=applied)


# --------------------------------------------------------------------------
# presets

def _stable_grid(alphas, gamma2s):
    return tuple(
        StableSpec(alpha=a, gamma2=g, N=1000) for a in alphas for g in gamma2s
    )


def _mixture_grid(ratios_omega2s):
    """Mixture grid points from (nu / omega2, omega2) pairs."""
    return tuple(
        MixtureSpec(omega2=w, nu=r * w, p=0.05, N=1000) for r, w in ratios_omega2s
    )


_FULL_SCALES = (0.2, 0.25, 0.33, 0.5, 2.0, 3.0, 4.0, 5.0)
_TIMING_GRID = (MixtureSpec(omega2=5.0, nu=15.0, p=0.05, N=1000),)
_METHODS = bench_mod.default_methods()
_ROBUST_METHODS = tuple(m for m in _METHODS if m.estimator.is_robust)
# at base seed 0; '-desk' presets are CI-scale reductions of the '-full' ones
_PRESETS = {
    "stable-desk": bench_mod.BenchConfig(
        _stable_grid((1.1, 2.0), (0.2, 3.0, 5.0)), _METHODS, trials=50
    ),
    "stable-full": bench_mod.BenchConfig(
        _stable_grid((1.1, 1.9, 2.0), _FULL_SCALES), _METHODS, trials=100
    ),
    "mixture-desk": bench_mod.BenchConfig(
        _mixture_grid(((5.0, 2.0), (5.0, 5.0), (1.5, 0.5))), _METHODS, trials=50
    ),
    "mixture-full": bench_mod.BenchConfig(
        _mixture_grid([(r, w) for r in (1.5, 5.0) for w in _FULL_SCALES]),
        _METHODS, trials=100,
    ),
    "timing-desk": bench_mod.BenchConfig(
        _TIMING_GRID, _ROBUST_METHODS, trials=6,
        n_list=(100, 200, 400, 800, 1600, 3200, 5000),
    ),
    "timing-full": bench_mod.BenchConfig(
        _TIMING_GRID, _ROBUST_METHODS, trials=20,
        n_list=(
            40, 50, 60, 70, 100, 200, 250, 300, 350, 400, 450, 500, 550,
            600, 650, 700, 750, 800, 850, 900, 950, 1000, 1500, 2000, 5000,
        ),
    ),
}


def build_preset(name: str, base_seed: int) -> bench_mod.BenchConfig:
    """The named benchmark configuration of ``_PRESETS`` at ``base_seed``."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    return dataclasses.replace(_PRESETS[name], base_seed=base_seed)


# --------------------------------------------------------------------------
# argument plumbing

def _load_config_args(path, options) -> list[str]:
    """Flat key = value file -> argv fragment (prepended, so real flags win).

    Each key must be one of ``options`` without its leading dashes; the
    value is passed verbatim as that option's argument."""
    args: list[str] = []
    try:
        fh = open(path, encoding="utf-8-sig")  # one byte-order mark skipped
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    with fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"config file {path} is not UTF-8 text: {exc.reason}"
            ) from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip().lstrip("-")
            value = value.strip()
            if f"--{key}" not in options:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            args.append(f"--{key}={value}")
    return args


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


# model -> (spec class, its parameter flags, simulate's values for the
# parameters the spec requires); --n and --cp give either spec's N and cp
_MODELS = {
    "stable": (StableSpec, ("alpha", "gamma1", "gamma2"),
               {"alpha": 1.5, "gamma2": 3.0}),
    "mixture": (MixtureSpec, ("omega2", "nu", "p"),
                {"omega2": 3.0, "nu": 15.0, "p": 0.05}),
}


def _model_spec(args, **fields):
    """The ``StableSpec`` or ``MixtureSpec`` of ``args.model``: the model
    flags that are set, over ``fields`` (e.g. ``seed``); the spec's
    dataclass supplies every other field."""
    cls, flags, _ = _MODELS[args.model]
    values = {flag: getattr(args, flag) for flag in flags}
    values.update(N=args.n, cp=args.cp)
    fields.update((k, v) for k, v in values.items() if v is not None)
    return cls(**fields)


# the estimator constants each kind reads: flag dest -> spec argument
_ESTIMATOR_FLAGS = {
    KIND_CLASSICAL: {},
    KIND_BMID: {"bmid_c": "c"},
    KIND_QCV: {"qcv_a": "a", "qcv_b": "b"},
}
# the options only the orientation test reads: flag dest -> orient argument
_HEAD_FLAGS = {"head_len": "head_len", "prefix_threshold": "threshold"}


def _given(args, flags) -> dict:
    """``flags`` (dest -> argument) that are set, by argument name."""
    return {
        arg: getattr(args, dest)
        for dest, arg in flags.items()
        if getattr(args, dest) is not None
    }


def _estimator_from_args(args) -> ScaleEstimatorSpec:
    """The spec of ``args.estimator`` from the constants that are set; its
    constructor supplies the others."""
    given = _given(args, _ESTIMATOR_FLAGS[args.estimator])
    return getattr(ScaleEstimatorSpec, args.estimator)(**given)


# --------------------------------------------------------------------------
# subcommands

def _cmd_detect(args) -> int:
    # every option is checked before the input is opened
    steps = parse_preprocess_spec(args.preprocess) if args.preprocess else None
    _refuse_unread_flags(args)
    spec = _estimator_from_args(args)
    # orient supplies the options that are not set
    orient_kw = {
        **orient.__kwdefaults__,
        "orientation": args.orientation,
        **_given(args, _HEAD_FLAGS),
    }
    _check_head_params(orient_kw["head_len"], orient_kw["threshold"])
    ts = ingest_csv(args.input, _parse_column(args.column))
    if steps is not None:
        ts = preprocess(ts, steps)
    oriented = orient(ts.values, spec, **orient_kw)
    result = detect_oriented(oriented, args.method)
    payload = {
        "change_point": result.change_point,
        "method": result.method,
        "estimator": spec.describe(),
        "reversed_applied": result.reversed_applied,
        "constant_prefix_fallback": result.constant_prefix_fallback,
        "statistic_at_cp": result.statistic_at_cp,
        "n": int(ts.values.size),
        "source": ts.source,
        "preprocessing": list(ts.preprocessing),
    }
    # the trace file first, so a failed write leaves no result behind
    if args.trace_csv:
        _write_trace_csv(args.trace_csv, result)
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _write_trace_csv(path, result: DetectionResult) -> None:
    """The scanned trace and statistic, in scan order, one row per index,
    as :func:`_write_rows` writes them: the statistic cell is empty where
    it is NaN."""
    with open(path, "w", newline="") as fh:
        _write_rows(
            fh, "n,css,statistic\r\n", result.trace.values, result.statistic_trace
        )


def _write_rows(fh, header: str, *columns: np.ndarray) -> None:
    """Write ``header``, then one line per i = 1..N: i, then the i-th entry
    of each column, as ``%d`` writes a non-negative integer column and
    ``%.17g`` a float one.  Lines end in CRLF, as ``csv.writer`` ends its
    rows, and a NaN is written as an empty cell: of the columns written
    here, only a trace's statistic holds one.

    Each block of ``TRACE_BLOCK_ROWS`` rows is formatted by numpy
    (:mod:`scaleshift._csvrows`), so the text of no more than one block
    exists at a time.
    """
    # imported on first use: a run that writes no rows never pays for
    # compiling the kernel, some 3 ms where no bytecode is cached
    from . import _csvrows

    fh.write(header)
    size = columns[0].size
    for lo in range(0, size, TRACE_BLOCK_ROWS):
        hi = min(lo + TRACE_BLOCK_ROWS, size)
        block = [np.arange(lo + 1, hi + 1)] + [column[lo:hi] for column in columns]
        fh.write(_csvrows.rows_text(block))


def _parse_column(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    # argv undecodable in the locale arrives with surrogate escapes; the
    # file is read as UTF-8, so the name is too
    try:
        return raw.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError:
        raise ConfigError(f"--column name {raw!r} is not UTF-8 text") from None


def _cmd_simulate(args) -> int:
    _refuse_unread_flags(args)
    seed = args.seed if args.seed is not None else _default_seed()
    series, cp = _generate(_model_spec(args, **_MODELS[args.model][2], seed=seed))
    if not np.isfinite(series).all():
        raise NonFiniteSample("simulated series holds NaN or infinite values")
    out = (
        open(args.output, "w", newline="")
        if args.output
        else contextlib.nullcontext(sys.stdout)
    )
    regime = np.where(np.arange(1, series.size + 1) < cp, 1, 2)
    with out as fh:
        _write_rows(fh, "index,value,regime\r\n", series, regime)
    return 0


def _refuse_unread_flags(args) -> None:
    """Raise :class:`ConfigError` naming each flag given to a ``detect``,
    ``simulate`` or ``bench`` run that does not read it, instead of
    ignoring it: another estimator's constants, and the orientation options
    where no orientation test runs; the other model's flags; or with
    ``--preset`` every grid flag."""
    if args.command == "detect":
        run = f"detect --estimator {args.estimator}"
        reads = _ESTIMATOR_FLAGS[args.estimator]
        unread = [d for flags in _ESTIMATOR_FLAGS.values() for d in flags if d not in reads]
        if not _orientation_runs(args.estimator != KIND_CLASSICAL, args.orientation):
            unread += _HEAD_FLAGS
            if args.orientation == "off" and _given(args, _HEAD_FLAGS):
                run += " --orientation off"  # what leaves them unread
    else:
        other = [f for m, (_, flags, _) in _MODELS.items() if m != args.model for f in flags]
        if args.command == "simulate":
            unread, run = other, f"simulate {args.model}"
        else:
            if args.preset:  # a preset brings its own grid
                every = [f for _, flags, _ in _MODELS.values() for f in flags]
                unread = ["model", *every, "n", "cp", "n_list"]
                run = f"--preset {args.preset}"
            else:
                unread, run = other, f"--model {args.model}"
            # the timing study takes N from --n-list and cp = N // 2
            unread += ["n_list"] if args.kind == "mae" else ["n", "cp", "detections_csv"]
            run = f"bench {args.kind} with {run}"
    given = [
        f"--{dest.replace('_', '-')}"
        for dest in dict.fromkeys(unread)
        if getattr(args, dest) is not None
    ]
    if given:
        raise ConfigError(f"{run} does not read {', '.join(given)}")


def _cmd_bench(args) -> int:
    if not (args.preset or args.model):
        raise ConfigError("either --preset or --model is required")
    _refuse_unread_flags(args)
    base_seed = args.base_seed if args.base_seed is not None else _default_seed()
    if args.preset:
        cfg = build_preset(args.preset, base_seed)
    else:
        cfg = _explicit_bench_config(args, base_seed)
    if args.trials is not None:
        cfg = dataclasses.replace(cfg, trials=args.trials)
    if args.kind == "mae":
        report = bench_mod.run_mae_study(cfg)
        outputs = ((args.output_csv, bench_mod.write_mae_csv),
                   (args.output_json, bench_mod.write_mae_json),
                   (args.detections_csv, bench_mod.write_detections_csv))
        summary = (
            f"{r.grid_label} {r.method}: mae={_fmt(r.mae)} failures={len(r.failures)}"
            for r in report.rows
        )
    else:
        report = bench_mod.run_timing_study(cfg)
        outputs = ((args.output_csv, bench_mod.write_timing_csv),
                   (args.output_json, bench_mod.write_timing_json))
        summary = (f"{label}: beta={_fmt(beta)}" for label, beta in report.exponents)
    for path, write in outputs:
        if path:
            write(report, path)
    if not (args.output_csv or args.output_json):
        print(*summary, sep="\n")
    return 0


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(
            f"--n-list must be comma-separated integers, got {text!r}"
        ) from None


def _explicit_bench_config(args, base_seed) -> bench_mod.BenchConfig:
    fields = dataclasses.fields(_MODELS[args.model][0])
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    if any(getattr(args, name) is None for name in required):
        *head, last = (f"--{name}" for name in required)
        raise ConfigError(f"{args.model} bench needs {', '.join(head)} and {last}")
    return bench_mod.BenchConfig(
        grid=(_model_spec(args),),
        methods=bench_mod.default_methods(),
        base_seed=base_seed,
        n_list=_parse_n_list(args.n_list) if args.n_list else (),
    )


# --------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Raises :class:`ConfigError` on a usage error, so it follows the same
    exit-2, one-JSON-line contract as every other failure; subparsers
    inherit the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_model_flags(parser) -> None:
    """The flags that ``_model_spec`` reads, each without a default: an
    unset one leaves the spec's own."""
    for _, flags, _ in _MODELS.values():
        for flag in flags:
            parser.add_argument(f"--{flag}", type=float)
    parser.add_argument("--n", type=int)
    parser.add_argument("--cp", type=int)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="scaleshift",
        description="Offline scale change-point detection for heavy-tailed series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_det = sub.add_parser("detect", help="detect a scale change in a CSV series")
    p_det.add_argument("--config", help="flat key=value config file")
    p_det.add_argument("--input", required=True, help="input CSV path")
    p_det.add_argument("--column", default="1", help="1-based index or header name")
    p_det.add_argument("--preprocess", default="", help="e.g. log-returns,diff:1,agg:10:mean")
    p_det.add_argument("--method", choices=(METHOD_ICSS, METHOD_OLS), default=METHOD_ICSS)
    p_det.add_argument(
        "--estimator",
        choices=(KIND_CLASSICAL, KIND_BMID, KIND_QCV),
        default=KIND_BMID,
    )
    # no defaults: a constant is given when it is not None, and the spec
    # supplies the rest
    p_det.add_argument("--bmid-c", type=float)
    p_det.add_argument("--qcv-a", type=float)
    p_det.add_argument("--qcv-b", type=float)
    p_det.add_argument(
        "--orientation",
        choices=ORIENTATIONS,
        default=orient.__kwdefaults__["orientation"],
        help="orientation correction; auto = on for robust estimators",
    )
    # read only by the orientation test, so unset as the constants are
    p_det.add_argument("--head-len", type=int)
    p_det.add_argument("--prefix-threshold", type=float)
    p_det.add_argument("--output", help="write result JSON here (default stdout)")
    p_det.add_argument("--trace-csv", help="write n,css,statistic rows here")
    p_det.set_defaults(func=_cmd_detect)

    p_sim = sub.add_parser("simulate", help="write a synthetic fixture CSV")
    p_sim.add_argument("model", choices=_MODELS)
    p_sim.add_argument("--config", help="flat key=value config file")
    p_sim.add_argument("--seed", type=int, default=None,
                       help=f"defaults to ${SEED_ENV_VAR} or 0")
    _add_model_flags(p_sim)
    p_sim.add_argument("--output", help="fixture CSV path (default stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    # every bench option defaults to None: a flag is given when it is not
    p_bench = sub.add_parser("bench", help="run a Monte Carlo study")
    p_bench.add_argument("kind", choices=("mae", "timing"))
    p_bench.add_argument("--config", help="flat key=value config file")
    p_bench.add_argument("--preset", choices=_PRESETS)
    p_bench.add_argument("--model", choices=_MODELS)
    _add_model_flags(p_bench)
    p_bench.add_argument("--trials", type=int, default=None)
    p_bench.add_argument("--base-seed", type=int, default=None,
                         help=f"defaults to ${SEED_ENV_VAR} or 0")
    p_bench.add_argument("--n-list", help="comma list of lengths (timing)")
    p_bench.add_argument("--output-csv")
    p_bench.add_argument("--output-json")
    p_bench.add_argument("--detections-csv")
    p_bench.set_defaults(func=_cmd_bench)
    return parser, sub.choices


def _inject_config(argv: list[str], commands: dict) -> list[str]:
    """Expand ``--config FILE`` or ``--config=FILE`` into the file's flags,
    placed right after the subcommand word, before the explicit flags."""
    for i, token in enumerate(argv):
        if token == "--config" or token.startswith("--config="):
            break
    else:
        return argv
    if token == "--config":
        if i + 1 >= len(argv):
            raise ConfigError("--config needs a file path")
        path, rest = argv[i + 1], argv[:i] + argv[i + 2 :]
    else:
        path, rest = token.partition("=")[2], argv[:i] + argv[i + 1 :]
    if any(t == "--config" or t.startswith("--config=") for t in rest):
        raise ConfigError("--config given more than once")
    sub = commands.get(rest[0]) if rest else None
    if sub is None:
        return argv  # no subcommand to read the file for; argparse says so
    options = {
        s
        for action in sub._actions
        if action.dest not in ("help", "config")
        for s in action.option_strings
    }
    # argparse reads a subcommand's options before its positional too
    return rest[:1] + _load_config_args(path, options) + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, commands = _build_parser()
        args = parser.parse_args(_inject_config(argv, commands))
        if args.config is not None:  # an abbreviation argparse expanded
            raise ConfigError(
                f"config file {args.config!r} not read: "
                "spell the option --config FILE or --config=FILE"
            )
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except ScaleShiftError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError) and exc.line is not None:
            payload["line"] = exc.line
        print(json.dumps(payload), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early, which ends the run but is no
        # failure of it.  fd 1 now leads nowhere, so the flush at exit
        # cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 0
    except OSError as exc:
        name = (
            "FileNotFound"
            if isinstance(exc, FileNotFoundError)
            else type(exc).__name__
        )
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
