"""The benchmark's workloads: inputs made from the workload seed, the jobs one
pass runs, and the checks on each job's output.

The program under test is the ``scaleshift`` package in this checkout's
``src/``; it receives only the generated series or CSV files.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIR = ROOT / "src" / "scaleshift"

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402

import scaleshift  # noqa: E402
from scaleshift import bench, cli, simulate  # noqa: E402

if Path(scaleshift.__file__).resolve().parent != PROGRAM_DIR.resolve():
    raise ImportError(f"scaleshift was imported from outside {PROGRAM_DIR}")


@dataclass(frozen=True)
class Detection:
    """The checked outcome of one (series, method, estimator) result."""

    abs_err: int | None
    problem: str = ""


@dataclass(frozen=True)
class Job:
    """One timed call into the program and the check of what it returned.

    ``run`` is timed; ``check`` is not, and returns one :class:`Detection`
    per detection the call made (``detections`` of them).
    """

    label: str
    detections: int
    run: Callable[[], object]
    check: Callable[[object], list[Detection]]


def derive_seed(seed: int, stream: int) -> int:
    """Independent 64-bit seed for input ``stream`` of workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


def _generate(spec):
    # Looked up on the module at call time, so the traced run sees set-up
    # generation as simulate spans.
    if isinstance(spec, simulate.StableSpec):
        return simulate.gen_stable_series(spec)
    return simulate.gen_mixture_series(spec)


def _write_csv(path: Path, header: str, values) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", header])
        w.writerows((i, format(float(v), ".17g")) for i, v in enumerate(values, 1))


# --------------------------------------------------------------------------
# checks

def count_data_rows(path: Path) -> int:
    """Lines after the header of a trace CSV."""
    with open(path, newline="") as fh:
        return sum(1 for _ in fh) - 1


def check_cli_output(rc, stdout: str, n: int, truth: int, trace_path: Path | None) -> Detection:
    """One ``scaleshift detect`` call: exit status 0, one JSON object on
    stdout, ``change_point`` in 2..n-1, and a trace CSV of exactly n rows."""
    if rc != 0:
        return Detection(None, f"exit status {rc}")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return Detection(None, "stdout is not one JSON object")
    if not isinstance(payload, dict):
        return Detection(None, "stdout is not one JSON object")
    if payload.get("n") != n:
        return Detection(None, f"n is {payload.get('n')!r}, expected {n}")
    cp = payload.get("change_point")
    if not isinstance(cp, int) or not 2 <= cp <= n - 1:
        return Detection(None, f"change_point {cp!r} outside 2..{n - 1}")
    if trace_path is not None:
        if not trace_path.is_file():
            return Detection(None, "no trace CSV written")
        rows = count_data_rows(trace_path)
        if rows != n:
            return Detection(None, f"trace CSV has {rows} data rows, expected {n}")
    return Detection(abs(cp - truth))


def check_study(report, grid, methods, trials: int) -> list[Detection]:
    """Every (grid point, method, trial) of a MAE study: a detection in
    2..N-1 and no failed trial.  Truth is the simulator's ``cp - 1``."""
    expected = [(spec, m) for spec in grid for m in methods]
    if len(report.rows) != len(expected):
        problem = f"{len(report.rows)} rows, expected {len(expected)}"
        return [Detection(None, problem)] * (len(expected) * trials)
    out = []
    for (spec, method), row in zip(expected, report.rows):
        truth = spec.cp - 1
        if row.method != method.label:
            out += [Detection(None, f"row {row.method} where {method.label} was due")] * trials
            continue
        out += [Detection(None, f"trial {t} failed: {err}") for t, err in row.failures]
        for d in row.detections:
            if 2 <= d <= spec.N - 1:
                out.append(Detection(abs(d - truth)))
            else:
                out.append(Detection(None, f"detection {d} outside 2..{spec.N - 1}"))
        missing = trials - len(row.failures) - len(row.detections)
        out += [Detection(None, "missing trial")] * max(missing, 0)
    return out


def run_pass(jobs: list[Job]) -> tuple[list[float], list[float], list[Detection]]:
    """Run every job once.  Returns (seconds inside the program per job,
    seconds of the reference work before each job and after the last,
    detections).

    A job that raises counts all its detections as failed.  Checks run
    outside the timed region.
    """
    times: list[float] = []
    refs: list[float] = []
    detections: list[Detection] = []
    for job in jobs:
        refs.append(reference.reference_s())
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception:
            times.append(time.perf_counter() - t0)
            problem = traceback.format_exc().strip().splitlines()[-1]
            detections += [Detection(None, f"{job.label}: {problem}")] * job.detections
            continue
        times.append(time.perf_counter() - t0)
        detections += job.check(result)
    refs.append(reference.reference_s())
    return times, refs, detections


# --------------------------------------------------------------------------
# jobs

def _detect_job(argv: list[str], n: int, truth: int, trace_path: Path | None) -> Job:
    argv = argv + (["--trace-csv", str(trace_path)] if trace_path else [])

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def check(result):
        rc, stdout, stderr = result
        det = check_cli_output(rc, stdout, n, truth, trace_path)
        if trace_path is not None:
            trace_path.unlink(missing_ok=True)  # a later call must write its own
        if det.problem and stderr:
            det = Detection(None, f"{det.problem}: {stderr.strip()}")
        return [det]

    return Job(" ".join(argv[1:]), 1, run, check)


# (BMID method, QCV method) per detect-long series.  ICSS and OLS with one
# estimator run the same scans, so each series runs each estimator once and
# the methods alternate; every estimator x method pair still meets both
# orientations.  Eight jobs instead of sixteen give each job twice the
# repeats in a run, so its median time is steadier.
DETECT_LONG_METHODS = (("icss", "ols"), ("ols", "icss"), ("ols", "icss"), ("icss", "ols"))


def detect_long(seed: int, work_dir: Path, n: int = 4000) -> list[Job]:
    """Robust ``scaleshift detect`` on long stable and spiky-mixture series,
    each with scale up and down and with BMID and QCV, with a trace CSV."""
    specs = (
        simulate.StableSpec(alpha=1.5, gamma2=3.0, N=n, seed=derive_seed(seed, 1)),
        simulate.StableSpec(alpha=1.5, gamma2=1 / 3, N=n, seed=derive_seed(seed, 2)),
        simulate.MixtureSpec(omega2=3.0, nu=15.0, p=0.05, N=n, seed=derive_seed(seed, 3)),
        simulate.MixtureSpec(omega2=1 / 3, nu=5 / 3, p=0.05, N=n, seed=derive_seed(seed, 4)),
    )
    trace_path = work_dir / "trace.csv"
    jobs = []
    for i, (spec, methods) in enumerate(zip(specs, DETECT_LONG_METHODS)):
        values, cp = _generate(spec)
        path = work_dir / f"series{i}.csv"
        _write_csv(path, "value", values)
        for estimator, method in zip(("bmid", "qcv"), methods):
            argv = ["detect", "--input", str(path), "--column", "2",
                    "--estimator", estimator, "--method", method]
            jobs.append(_detect_job(argv, n, cp - 1, trace_path))
    return jobs


def _study_job(spec, methods, trials: int, seed: int) -> Job:
    grid = (spec,)
    cfg = bench.BenchConfig(grid=grid, methods=methods, trials=trials, base_seed=seed)
    return Job(
        f"run_mae_study {type(spec).__name__} {methods[0].estimator.kind}",
        len(methods) * trials,
        lambda: bench.run_mae_study(cfg),
        lambda report: check_study(report, grid, methods, trials),
    )


def mc_study(seed: int, work_dir: Path, n: int = 1000) -> list[Job]:
    """``run_mae_study`` with all six default methods on two grid points:
    a spiky mixture with scale up and a stable series with scale down.

    One study per grid point and scale estimator, with both detectors, so
    each job is short next to the reference timed around it.  ICSS and OLS
    on one estimator, which build the same trace, stay in one study.  Trial
    seeds derive from the grid point, so every study sees the series one
    study over the whole grid would."""
    grid = (
        simulate.MixtureSpec(omega2=5.0, nu=25.0, p=0.05, N=n),
        simulate.StableSpec(alpha=1.1, gamma2=0.2, N=n),
    )
    methods = bench.default_methods()
    kinds = dict.fromkeys(m.estimator.kind for m in methods)
    return [
        _study_job(spec, tuple(m for m in methods if m.estimator.kind == kind), 8, seed)
        for spec in grid
        for kind in kinds
    ]


def cli_classical(seed: int, work_dir: Path, n: int = 200_000) -> list[Job]:
    """Classical ``scaleshift detect`` on a long price CSV through log-returns,
    ICSS and OLS, each with and without a trace CSV."""
    # Returns r_1..r_n switch scale at index cp; the n + 1 prices they
    # compound to give back exactly these n returns after log-returns, so
    # the truth in the detector's index is cp - 1.
    spec = simulate.StableSpec(
        alpha=2.0, gamma1=0.005, gamma2=0.01, N=n, seed=derive_seed(seed, 1)
    )
    returns, cp = _generate(spec)
    prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(returns))))
    path = work_dir / "prices.csv"
    _write_csv(path, "price", prices)
    trace_path = work_dir / "trace.csv"
    jobs = []
    for method in ("icss", "ols"):
        for trace in (None, trace_path):
            argv = ["detect", "--input", str(path), "--column", "2",
                    "--preprocess", "log-returns", "--estimator", "classical",
                    "--method", method]
            jobs.append(_detect_job(argv, n, cp - 1, trace))
    return jobs


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "detect-long": detect_long,
    "mc-study": mc_study,
    "cli-classical": cli_classical,
}
