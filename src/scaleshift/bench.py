"""Monte Carlo benchmark harness: MAE studies over parameter grids, boxplot
summaries, normalized errors, and timing studies with a fitted complexity
exponent.

Per-trial seeds derive from (base_seed, grid-point-id, trial), where the
grid-point id hashes the generator parameters (seed excluded).  Reordering
the grid therefore never changes any individual trial's data.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .css import ScaleEstimatorSpec
from .detect import METHOD_ICSS, METHOD_OLS, detect_oriented, orient
from .errors import ConfigError, EmptyInput, IndexOutOfRange, ScaleShiftError
from .simulate import StableSpec, _generate

__all__ = [
    "Method",
    "BenchConfig",
    "BoxplotSummary",
    "MaeRow",
    "MaeReport",
    "TimingRow",
    "TimingReport",
    "default_methods",
    "run_mae_study",
    "run_timing_study",
    "normalized_error",
    "grid_point_id",
    "trial_seed",
    "median_ci_ranks",
    "summarize_boxplot",
    "write_mae_csv",
    "write_mae_json",
    "write_detections_csv",
    "write_timing_csv",
    "write_timing_json",
]


@dataclass(frozen=True)
class Method:
    """A (detector, estimator) pairing, e.g. ICSS with the BMID scale."""

    detector: str
    estimator: ScaleEstimatorSpec

    def __post_init__(self):
        if self.detector not in (METHOD_ICSS, METHOD_OLS):
            raise ConfigError(f"unknown detector {self.detector!r}")

    @property
    def label(self) -> str:
        base = self.detector.upper()
        if self.estimator.is_robust:
            return f"{base}[{self.estimator.kind.upper()}]"
        return base

    @property
    def column(self) -> str:
        if self.estimator.is_robust:
            return f"{self.detector}_{self.estimator.kind}"
        return self.detector


def default_methods() -> tuple[Method, ...]:
    """The six standard methods: each detector with the classical, BMID, and
    QCV scale estimators at their default tuning."""
    out = []
    for det in (METHOD_ICSS, METHOD_OLS):
        out.append(Method(det, ScaleEstimatorSpec.classical()))
        out.append(Method(det, ScaleEstimatorSpec.bmid()))
        out.append(Method(det, ScaleEstimatorSpec.qcv()))
    return tuple(out)


@dataclass(frozen=True)
class BenchConfig:
    grid: tuple
    methods: tuple[Method, ...]
    trials: int = 50
    base_seed: int = 0
    n_list: tuple[int, ...] = ()

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.base_seed < 0:
            raise ConfigError(f"base seed must be >= 0, got {self.base_seed}")
        if not self.grid:
            raise ConfigError("benchmark grid is empty")
        if not self.methods:
            raise ConfigError("no methods selected")


@dataclass(frozen=True)
class BoxplotSummary:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    outliers: tuple[float, ...] = ()


def summarize_boxplot(detections) -> BoxplotSummary:
    """Five-number summary with linear-interpolation quantiles and the
    1.5*IQR outlier rule."""
    arr = np.asarray(list(detections), dtype=float)
    if arr.size == 0:
        raise EmptyInput("no detections to summarize")
    q1, med, q3 = (float(q) for q in np.quantile(arr, [0.25, 0.5, 0.75]))
    iqr = q3 - q1
    out_mask = (arr < q1 - 1.5 * iqr) | (arr > q3 + 1.5 * iqr)
    return BoxplotSummary(
        minimum=float(arr.min()),
        q1=q1,
        median=med,
        q3=q3,
        maximum=float(arr.max()),
        outliers=tuple(float(v) for v in arr[out_mask]),
    )


def normalized_error(detected: int, truth: int, n: int) -> float:
    """|truth - detected| / N, the length-normalized index error."""
    if not (1 <= detected <= n) or not (1 <= truth <= n):
        raise IndexOutOfRange(
            f"indices must lie in 1..{n}, got detected={detected}, truth={truth}"
        )
    return abs(truth - detected) / n


def grid_point_id(spec) -> int:
    """Stable 64-bit id of a generator spec, independent of its seed field."""
    fields = dataclasses.asdict(spec)
    fields.pop("seed", None)
    kind = type(spec).__name__
    canon = kind + "|" + "|".join(f"{k}={fields[k]!r}" for k in sorted(fields))
    return int.from_bytes(hashlib.sha256(canon.encode()).digest()[:8], "big")


def trial_seed(base_seed: int, gp_id: int, trial: int) -> int:
    """Per-trial 64-bit seed derived via SeedSequence spawning keys."""
    ss = np.random.SeedSequence((base_seed, gp_id, trial))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class MaeRow:
    grid_label: str
    grid_params: tuple[tuple[str, object], ...]
    method: str
    truth: int
    mae: float
    summary: BoxplotSummary
    detections: tuple[int, ...]
    failures: tuple[tuple[int, str], ...]
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class MaeReport:
    trials: int
    base_seed: int
    rows: tuple[MaeRow, ...]


def _grid_fields(spec) -> tuple[tuple[str, object], ...]:
    d = dataclasses.asdict(spec)
    d.pop("seed", None)
    d["model"] = "stable" if isinstance(spec, StableSpec) else "mixture"
    order = ["model"] + [k for k in d if k != "model"]
    return tuple((k, d[k]) for k in order)


def _grid_label(spec) -> str:
    return " ".join(f"{k}={v}" for k, v in _grid_fields(spec))


def _trial_series(spec, base_seed: int, count: int):
    """The seeds of trials 0..count-1 at grid point ``spec``, and a
    generator that draws their series one at a time."""
    gp = grid_point_id(spec)
    seeds = tuple(trial_seed(base_seed, gp, t) for t in range(count))
    return seeds, (_generate(dataclasses.replace(spec, seed=s))[0] for s in seeds)


def run_mae_study(cfg: BenchConfig) -> MaeReport:
    """MAE per (grid point, method) over seeded trials.

    Ground truth is cp - 1 (the detectors' raw index lands on the last point
    of the first regime).  Trials whose detection raises are recorded as
    failures and excluded from the mean, never imputed.

    Each trial calls :func:`orient` once per estimator and runs every
    detector of that estimator on the result with :func:`detect_oriented`.
    An error from :func:`orient` is recorded for each of those methods, one
    from a detector for its own method only.
    """
    groups: dict[ScaleEstimatorSpec, list[int]] = {}
    for i, method in enumerate(cfg.methods):
        groups.setdefault(method.estimator, []).append(i)
    rows = []
    for spec in cfg.grid:
        truth = spec.cp - 1
        seeds, series = _trial_series(spec, cfg.base_seed, cfg.trials)
        detections = [[] for _ in cfg.methods]
        failures = [[] for _ in cfg.methods]
        for t, x in enumerate(series):
            for estimator, group in groups.items():
                try:
                    oriented = orient(x, estimator)
                except ScaleShiftError as exc:
                    for i in group:
                        failures[i].append((t, type(exc).__name__))
                    continue
                for i in group:
                    try:
                        result = detect_oriented(oriented, cfg.methods[i].detector)
                    except ScaleShiftError as exc:
                        failures[i].append((t, type(exc).__name__))
                    else:
                        detections[i].append(result.change_point)
        for method, found, failed in zip(cfg.methods, detections, failures):
            errors = [abs(d - truth) for d in found]
            mae = float(np.mean(errors)) if errors else math.nan
            rows.append(
                MaeRow(
                    grid_label=_grid_label(spec),
                    grid_params=_grid_fields(spec),
                    method=method.label,
                    truth=truth,
                    mae=mae,
                    summary=summarize_boxplot(found)
                    if found
                    else BoxplotSummary(*(math.nan,) * 5),
                    detections=tuple(found),
                    failures=tuple(failed),
                    seeds=seeds,
                )
            )
    return MaeReport(trials=cfg.trials, base_seed=cfg.base_seed, rows=tuple(rows))


@dataclass(frozen=True)
class TimingRow:
    n: int
    method: str
    median_seconds: float
    ci_low: float
    ci_high: float
    times: tuple[float, ...]


@dataclass(frozen=True)
class TimingReport:
    trials: int
    base_seed: int
    rows: tuple[TimingRow, ...]
    exponents: tuple[tuple[str, float], ...]


def median_ci_ranks(n: int) -> tuple[int, int] | None:
    """1-based order-statistic ranks bracketing the median at >= 95%
    coverage (binomial argument); None when unattainable at this n."""
    # exact integers: 2**n times the binomial CDF is compared with the
    # float tail p / q, so no term overflows or underflows at large n.
    # The tail is the float (1 - 0.95) / 2, 0.025000000000000022, not 0.025.
    p, q = ((1.0 - 0.95) / 2.0).as_integer_ratio()
    bound = p << n
    term = 1  # C(n, k)
    cdf = 0
    best = 0
    for k in range(n + 1):
        cdf += term
        if cdf * q <= bound:
            best = k + 1
        else:
            break
        term = term * (n - k) // (k + 1)
    if best == 0:
        return None
    return best, n + 1 - best


def run_timing_study(cfg: BenchConfig) -> TimingReport:
    """Median detection-only wall time per (N, method) plus a log-log fitted
    exponent per method.

    The grid's first spec is the template; N (and a midpoint change point)
    is substituted from ``cfg.n_list``.  The trials run round-robin: trial
    0, a warm-up that is discarded, for every N and then every method,
    then trial 1 likewise, and so on, so a drift of the machine's speed
    during the study spreads over all N instead of tilting the fitted
    exponents.  Confidence bounds are nonparametric order-statistic ranks
    at 95%; when the trial count cannot support that level the full
    observed range is reported.
    """
    ns = sorted(set(int(n) for n in cfg.n_list))
    if len(ns) < 5:
        raise ConfigError("timing study needs >= 5 distinct lengths")
    if max(ns) < 10 * min(ns):
        raise ConfigError("timing lengths must span at least one decade")
    template = cfg.grid[0]
    draws = [
        _trial_series(
            dataclasses.replace(template, N=n, cp=n // 2), cfg.base_seed, cfg.trials + 1
        )[1]
        for n in ns
    ]
    times = {(n, i): [] for n in ns for i in range(len(cfg.methods))}
    for t in range(cfg.trials + 1):
        for n, draw in zip(ns, draws):
            x = next(draw)
            for i, method in enumerate(cfg.methods):
                t0 = time.perf_counter()
                detect_oriented(orient(x, method.estimator), method.detector)
                elapsed = time.perf_counter() - t0
                if t > 0:
                    times[n, i].append(elapsed)
    rows = []
    for n in ns:
        for i, method in enumerate(cfg.methods):
            times_sorted = sorted(times[n, i])
            ranks = median_ci_ranks(len(times_sorted))
            lo, hi = ranks if ranks else (1, len(times_sorted))
            rows.append(
                TimingRow(
                    n=n,
                    method=method.label,
                    median_seconds=float(np.median(times_sorted)),
                    ci_low=times_sorted[lo - 1],
                    ci_high=times_sorted[hi - 1],
                    times=tuple(times[n, i]),
                )
            )
    exponents = []
    for label in dict.fromkeys(m.label for m in cfg.methods):
        own = [r for r in rows if r.method == label]
        logn = np.log([r.n for r in own])
        logt = np.log([r.median_seconds for r in own])
        exponents.append((label, float(np.polyfit(logn, logt, 1)[0])))
    return TimingReport(
        trials=cfg.trials,
        base_seed=cfg.base_seed,
        rows=tuple(rows),
        exponents=tuple(exponents),
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        # float() first: formatting an np.float64 directly is about 10% slower
        return format(float(value), ".17g")
    return str(value)


def write_mae_csv(report: MaeReport, path) -> None:
    """Wide MAE table: one row per grid point, one column per method."""
    # grid points and methods in the order they first appear
    grid_params: dict[str, tuple] = {}
    cells: dict[tuple[str, str], MaeRow] = {}
    for row in report.rows:
        grid_params.setdefault(row.grid_label, row.grid_params)
        cells[row.grid_label, row.method] = row
    methods = list(dict.fromkeys(m for _, m in cells))
    param_names = [k for k, _ in report.rows[0].grid_params]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(param_names + [f"mae_{m}" for m in methods] + [f"failures_{m}" for m in methods])
        for label, params in grid_params.items():
            params = dict(params)
            line = [_fmt(params[k]) for k in param_names]
            line += [_fmt(cells[(label, m)].mae) for m in methods]
            line += [str(len(cells[(label, m)].failures)) for m in methods]
            w.writerow(line)


def write_mae_json(report: MaeReport, path) -> None:
    payload = {
        "trials": report.trials,
        "base_seed": report.base_seed,
        "rows": [
            {
                "grid": dict(r.grid_params),
                "method": r.method,
                "truth": r.truth,
                "mae": r.mae,
                "summary": dataclasses.asdict(r.summary),
                "detections": list(r.detections),
                "failures": [{"trial": t, "error": e} for t, e in r.failures],
                "seeds": list(r.seeds),
            }
            for r in report.rows
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def write_detections_csv(report: MaeReport, path) -> None:
    """Tidy per-trial detections for boxplot tooling: a trial that failed
    has no row, and the others keep their own trial number."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["grid", "method", "trial", "detection"])
        for row in report.rows:
            failed = {t for t, _ in row.failures}
            trials = (t for t in range(len(row.seeds)) if t not in failed)
            for t, d in zip(trials, row.detections):
                w.writerow([row.grid_label, row.method, t, d])


def write_timing_csv(report: TimingReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "method", "median_seconds", "ci_low", "ci_high"])
        for row in report.rows:
            w.writerow(
                [
                    row.n,
                    row.method,
                    _fmt(row.median_seconds),
                    _fmt(row.ci_low),
                    _fmt(row.ci_high),
                ]
            )


def write_timing_json(report: TimingReport, path) -> None:
    payload = {
        "trials": report.trials,
        "base_seed": report.base_seed,
        "exponents": {label: beta for label, beta in report.exponents},
        "rows": [dataclasses.asdict(r) for r in report.rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
