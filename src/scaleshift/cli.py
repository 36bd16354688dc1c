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
from .css import ScaleEstimatorSpec
from .detect import (
    METHOD_ICSS,
    METHOD_OLS,
    ORIENTATIONS,
    DetectionResult,
    detect_oriented,
    orient,
)
from .errors import (
    ConfigError,
    EmptyColumn,
    NonPositiveForLog,
    ParseError,
    ScaleShiftError,
    TooShortAfterPreprocess,
)
from .simulate import MixtureSpec, StableSpec

__all__ = [
    "TimeSeries",
    "PreprocessSpec",
    "ingest_csv",
    "preprocess",
    "parse_preprocess_spec",
    "main",
]

SEED_ENV_VAR = "SCALESHIFT_SEED"
MIN_SERIES_LEN = 8
TRACE_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class TimeSeries:
    """A real-valued series with provenance metadata."""

    values: np.ndarray
    source: str
    preprocessing: tuple[str, ...] = ()


@dataclass(frozen=True)
class PreprocessSpec:
    """Ordered preprocessing steps.

    Each step is one of ``("log-returns",)``, ``("difference", k)``, or
    ``("aggregate", b, reducer)`` with reducer ``mean`` or ``median``.
    """

    steps: tuple[tuple, ...] = ()


def parse_preprocess_spec(text: str) -> PreprocessSpec:
    """Parse a comma-separated step list, e.g. ``log-returns,diff:2,agg:60:mean``.

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
    return PreprocessSpec(steps=tuple(steps))


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

    ``column`` is a 1-based index or a header name.  Blank rows are
    skipped.  The first non-blank row is a header when its cell in the
    column is not a number or, for a row too narrow to have that cell,
    when one of its cells is neither blank nor a number.  Any other
    unparseable, non-finite or missing cell is a hard :class:`ParseError`
    carrying its line number, and so is a row the CSV reader rejects (e.g.
    a cell over the field size limit); bytes that do not decode give a
    :class:`ParseError` without one.
    """
    values = []
    with open(path, newline="") as fh:
        reader = csv_mod.reader(fh)
        col_idx = None if isinstance(column, str) else int(column) - 1
        if col_idx is not None and col_idx < 0:
            raise ConfigError(f"column index must be >= 1, got {column}")
        first = True  # no non-blank row seen yet
        try:
            for lineno, row in enumerate(reader, start=1):
                # Fast path for the common row: a finite number in the
                # column.  IndexError is a short row, TypeError a header
                # name not yet found; these, and every cell float() rejects
                # or parses to inf/NaN, take the checks below.
                try:
                    v = float(row[col_idx])
                except (IndexError, TypeError, ValueError):
                    pass
                else:
                    if v - v == 0.0:  # false for inf and NaN
                        values.append(v)
                        continue
                if not row or all(not cell.strip() for cell in row):
                    continue
                may_be_header = first and not values
                first = False
                if isinstance(column, str) and col_idx is None:
                    try:
                        col_idx = [c.strip() for c in row].index(column)
                    except ValueError:
                        raise ParseError(
                            f"no column named {column!r} in header", line=lineno
                        ) from None
                    continue
                if col_idx >= len(row):
                    if may_be_header and not all(
                        _is_number(cell) for cell in row if cell.strip()
                    ):
                        continue  # header narrower than the requested column
                    raise ParseError(
                        f"row has {len(row)} columns, need column {col_idx + 1}",
                        line=lineno,
                    )
                cell = row[col_idx].strip()
                try:
                    v = float(cell)
                except ValueError:
                    if may_be_header:
                        continue  # header row
                    raise ParseError(
                        f"cannot parse {cell!r} as a real", line=lineno
                    ) from None
                if not math.isfinite(v):
                    raise ParseError(f"non-finite value {cell!r}", line=lineno)
                values.append(v)
        except UnicodeDecodeError as exc:
            raise ParseError(f"file is not valid text: {exc}") from None
        except csv_mod.Error as exc:
            raise ParseError(
                f"unreadable CSV row: {exc}", line=reader.line_num
            ) from None
    if not values:
        raise EmptyColumn(f"no data rows found in {path!r} (column {column!r})")
    return TimeSeries(values=np.asarray(values), source=str(path))


def preprocess(ts: TimeSeries, spec: PreprocessSpec) -> TimeSeries:
    """Apply the steps in order: log-returns (requires positive input),
    k-fold differencing, or non-overlapping block aggregation with the tail
    remainder dropped.  The result must keep at least 8 points."""
    x = ts.values
    applied = list(ts.preprocessing)
    for step in spec.steps:
        name = step[0]
        if name == "log-returns":
            if x.size < 2:
                raise TooShortAfterPreprocess("log-returns needs >= 2 points")
            if np.any(x <= 0.0):
                raise NonPositiveForLog(
                    "log-returns require strictly positive values"
                )
            x = np.log(x[1:] / x[:-1])
            applied.append("log-returns")
        elif name == "difference":
            k = step[1]
            if x.size <= k:
                raise TooShortAfterPreprocess(
                    f"difference order {k} leaves no data from {x.size} points"
                )
            x = np.diff(x, n=k)
            applied.append(f"difference:{k}")
        else:
            b, reducer = step[1], step[2]
            nblocks = x.size // b
            if nblocks == 0:
                raise TooShortAfterPreprocess(
                    f"aggregate block {b} leaves no data from {x.size} points"
                )
            blocks = x[: nblocks * b].reshape(nblocks, b)
            x = np.mean(blocks, axis=1) if reducer == "mean" else np.median(blocks, axis=1)
            applied.append(f"aggregate:{b}:{reducer}")
    if x.size < MIN_SERIES_LEN:
        raise TooShortAfterPreprocess(
            f"{x.size} points remain after preprocessing; need >= {MIN_SERIES_LEN}"
        )
    return TimeSeries(values=x, source=ts.source, preprocessing=tuple(applied))


# --------------------------------------------------------------------------
# presets

def _stable_grid(alphas, gamma2s, trials):
    grid = tuple(
        StableSpec(alpha=a, gamma2=g, N=1000) for a in alphas for g in gamma2s
    )
    return grid, trials


def build_preset(name: str, base_seed: int) -> bench_mod.BenchConfig:
    """Named benchmark configurations ('-desk' are CI-scale reductions)."""
    methods = bench_mod.default_methods()
    if name == "stable-desk":
        grid, trials = _stable_grid((1.1, 2.0), (0.2, 3.0, 5.0), 50)
    elif name == "stable-full":
        grid, trials = _stable_grid(
            (1.1, 1.9, 2.0), (0.2, 0.25, 0.33, 0.5, 2.0, 3.0, 4.0, 5.0), 100
        )
    elif name == "mixture-desk":
        grid = tuple(
            MixtureSpec(omega2=w, nu=r * w, p=0.05, N=1000)
            for r, w in ((5.0, 2.0), (5.0, 5.0), (1.5, 0.5))
        )
        trials = 50
    elif name == "mixture-full":
        grid = tuple(
            MixtureSpec(omega2=w, nu=r * w, p=0.05, N=1000)
            for r in (1.5, 5.0)
            for w in (0.2, 0.25, 0.33, 0.5, 2.0, 3.0, 4.0, 5.0)
        )
        trials = 100
    elif name == "timing-desk":
        return bench_mod.BenchConfig(
            grid=(MixtureSpec(omega2=5.0, nu=15.0, p=0.05, N=1000),),
            methods=tuple(m for m in methods if m.estimator.is_robust),
            trials=6,
            base_seed=base_seed,
            n_list=(100, 200, 400, 800, 1600, 3200, 5000),
        )
    elif name == "timing-full":
        return bench_mod.BenchConfig(
            grid=(MixtureSpec(omega2=5.0, nu=15.0, p=0.05, N=1000),),
            methods=tuple(m for m in methods if m.estimator.is_robust),
            trials=20,
            base_seed=base_seed,
            n_list=(
                40, 50, 60, 70, 100, 200, 250, 300, 350, 400, 450, 500, 550,
                600, 650, 700, 750, 800, 850, 900, 950, 1000, 1500, 2000, 5000,
            ),
        )
    else:
        raise ConfigError(f"unknown preset {name!r}")
    return bench_mod.BenchConfig(
        grid=grid, methods=methods, trials=trials, base_seed=base_seed
    )


# --------------------------------------------------------------------------
# argument plumbing

def _load_config_args(path, options) -> list[str]:
    """Flat key = value file -> argv fragment (prepended, so real flags win).

    Each key must be one of ``options`` without its leading dashes; the
    value is passed verbatim as that option's argument."""
    args: list[str] = []
    try:
        fh = open(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
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


def _model_spec(args, **extra):
    """The ``StableSpec`` or ``MixtureSpec`` that the ``model`` flags
    describe; ``extra`` (e.g. ``seed``) is passed through."""
    if args.model == "stable":
        return StableSpec(
            alpha=args.alpha,
            gamma1=args.gamma1,
            gamma2=args.gamma2,
            N=args.n,
            cp=args.cp,
            **extra,
        )
    return MixtureSpec(
        omega2=args.omega2, nu=args.nu, p=args.p, N=args.n, cp=args.cp, **extra
    )


def _estimator_from_args(args) -> ScaleEstimatorSpec:
    if args.estimator == "classical":
        return ScaleEstimatorSpec.classical()
    if args.estimator == "bmid":
        return ScaleEstimatorSpec.bmid(args.bmid_c)
    return ScaleEstimatorSpec.qcv(args.qcv_a, args.qcv_b)


# --------------------------------------------------------------------------
# subcommands

def _cmd_detect(args) -> int:
    ts = ingest_csv(args.input, _parse_column(args.column))
    if args.preprocess:
        ts = preprocess(ts, parse_preprocess_spec(args.preprocess))
    spec = _estimator_from_args(args)
    oriented = orient(
        ts.values,
        spec,
        orientation=args.orientation,
        head_len=args.head_len,
        threshold=args.prefix_threshold,
    )
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
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.trace_csv:
        _write_trace_csv(args.trace_csv, result)
    return 0


def _write_trace_csv(path, result: DetectionResult) -> None:
    """The scanned trace and statistic, in scan order, one row per index:
    ``.17g`` values, CRLF line ends (as ``csv.writer`` writes them), and an
    empty statistic cell where it is NaN."""
    css, stat = result.trace.values, result.statistic_trace
    with open(path, "w", newline="") as fh:
        fh.write("n,css,statistic\r\n")
        # Python floats format fastest; converting a block at a time keeps
        # the whole trace from existing as Python floats at once.
        for lo in range(0, css.size, TRACE_BLOCK_ROWS):
            block = slice(lo, lo + TRACE_BLOCK_ROWS)
            rows = zip(css[block].tolist(), stat[block].tolist())
            fh.writelines(
                f"{i},{cv:.17g},{'' if sv != sv else format(sv, '.17g')}\r\n"
                for i, (cv, sv) in enumerate(rows, lo + 1)
            )


def _parse_column(raw: str):
    try:
        return int(raw)
    except ValueError:
        return raw


def _cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    series, cp = bench_mod._generate(_model_spec(args, seed=seed))
    out = (
        open(args.output, "w", newline="")
        if args.output
        else contextlib.nullcontext(sys.stdout)
    )
    with out as fh:
        fh.write("index,value,regime\r\n")
        fh.writelines(
            f"{i},{v:.17g},{1 if i < cp else 2}\r\n"
            for i, v in enumerate(series.tolist(), start=1)
        )
    return 0


def _cmd_bench(args) -> int:
    base_seed = args.base_seed if args.base_seed is not None else _default_seed()
    if args.preset:
        cfg = build_preset(args.preset, base_seed)
        if args.trials is not None:
            cfg = dataclasses.replace(cfg, trials=args.trials)
    else:
        cfg = _explicit_bench_config(args, base_seed)
    if args.kind == "mae":
        report = bench_mod.run_mae_study(cfg)
        if args.output_csv:
            bench_mod.write_mae_csv(report, args.output_csv)
        if args.output_json:
            bench_mod.write_mae_json(report, args.output_json)
        if args.detections_csv:
            bench_mod.write_detections_csv(report, args.detections_csv)
        if not (args.output_csv or args.output_json):
            for row in report.rows:
                print(
                    f"{row.grid_label} {row.method}: mae={_fmt(row.mae)} "
                    f"failures={len(row.failures)}"
                )
    else:
        if args.n_list:
            cfg = dataclasses.replace(cfg, n_list=_parse_n_list(args.n_list))
        report = bench_mod.run_timing_study(cfg)
        if args.output_csv:
            bench_mod.write_timing_csv(report, args.output_csv)
        if args.output_json:
            bench_mod.write_timing_json(report, args.output_json)
        if not (args.output_csv or args.output_json):
            for label, beta in report.exponents:
                print(f"{label}: beta={_fmt(beta)}")
    return 0


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(
            f"--n-list must be comma-separated integers, got {text!r}"
        ) from None


def _explicit_bench_config(args, base_seed) -> bench_mod.BenchConfig:
    if not args.model:
        raise ConfigError("either --preset or --model is required")
    if args.model == "stable":
        if args.alpha is None or args.gamma2 is None:
            raise ConfigError("stable bench needs --alpha and --gamma2")
    elif args.omega2 is None or args.nu is None or args.p is None:
        raise ConfigError("mixture bench needs --omega2, --nu and --p")
    return bench_mod.BenchConfig(
        grid=(_model_spec(args),),
        methods=bench_mod.default_methods(),
        trials=args.trials if args.trials is not None else 50,
        base_seed=base_seed,
    )


# --------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Raises :class:`ConfigError` on a usage error, so it follows the same
    exit-2, one-JSON-line contract as every other failure; subparsers
    inherit the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


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
        "--estimator", choices=("classical", "bmid", "qcv"), default="bmid"
    )
    p_det.add_argument("--bmid-c", type=float, default=9.0)
    p_det.add_argument("--qcv-a", type=float, default=0.1)
    p_det.add_argument("--qcv-b", type=float, default=0.9)
    p_det.add_argument(
        "--orientation",
        choices=ORIENTATIONS,
        default="auto",
        help="orientation correction; auto = on for robust estimators",
    )
    p_det.add_argument("--head-len", type=int, default=6)
    p_det.add_argument("--prefix-threshold", type=float, default=0.05)
    p_det.add_argument("--output", help="write result JSON here (default stdout)")
    p_det.add_argument("--trace-csv", help="write n,css,statistic rows here")
    p_det.set_defaults(func=_cmd_detect)

    p_sim = sub.add_parser("simulate", help="write a synthetic fixture CSV")
    p_sim.add_argument("model", choices=("stable", "mixture"))
    p_sim.add_argument("--config", help="flat key=value config file")
    p_sim.add_argument("--n", type=int, default=1000)
    p_sim.add_argument("--cp", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None,
                       help=f"defaults to ${SEED_ENV_VAR} or 0")
    p_sim.add_argument("--alpha", type=float, default=1.5)
    p_sim.add_argument("--gamma1", type=float, default=1.0)
    p_sim.add_argument("--gamma2", type=float, default=3.0)
    p_sim.add_argument("--omega2", type=float, default=3.0)
    p_sim.add_argument("--nu", type=float, default=15.0)
    p_sim.add_argument("--p", type=float, default=0.05)
    p_sim.add_argument("--output", help="fixture CSV path (default stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("bench", help="run a Monte Carlo study")
    p_bench.add_argument("kind", choices=("mae", "timing"))
    p_bench.add_argument("--config", help="flat key=value config file")
    p_bench.add_argument("--preset", help="stable-desk|stable-full|mixture-desk|"
                                          "mixture-full|timing-desk|timing-full")
    p_bench.add_argument("--model", choices=("stable", "mixture"))
    p_bench.add_argument("--alpha", type=float)
    p_bench.add_argument("--gamma1", type=float, default=1.0)
    p_bench.add_argument("--gamma2", type=float)
    p_bench.add_argument("--omega2", type=float)
    p_bench.add_argument("--nu", type=float)
    p_bench.add_argument("--p", type=float)
    p_bench.add_argument("--n", type=int, default=1000)
    p_bench.add_argument("--cp", type=int, default=None)
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
    placed before the explicit flags."""
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
    # keep the subcommand words in front, then config args, then user flags
    j = 0
    while j < len(rest) and not rest[j].startswith("-"):
        j += 1
    sub = commands.get(rest[0]) if j else None
    if sub is None:
        return argv  # no subcommand to read the file for; argparse says so
    options = {
        s
        for action in sub._actions
        if action.dest not in ("help", "config")
        for s in action.option_strings
    }
    return rest[:j] + _load_config_args(path, options) + rest[j:]


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
        return args.func(args)
    except ScaleShiftError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError) and exc.line is not None:
            payload["line"] = exc.line
        print(json.dumps(payload), file=sys.stderr)
        return 2
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
