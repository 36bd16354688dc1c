"""scaleshift benchmark: one workload in one process.

    python3 perfbench/run.py --workload detect-long --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Passes over the workload's jobs repeat
while another pass fits in ``--seconds`` (at least three untraced passes, or
two with ``--trace 1``).  A fixed reference timed between the jobs scales
their times to one machine speed (see reference.py).  Every job's output is
checked.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a JSON record of where the result came from.  See
README.md for what each metric means and which one it should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_PASSES = 3
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _load_workloads():
    """Import the workloads module, and with it scaleshift from ``src/``."""
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return None
    return workloads


def _setup_probe(args) -> int:
    """Child process: import, build the inputs, say "ready", clean up."""
    wl = _load_workloads()
    if wl is None:
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR))
    try:
        wl.WORKLOADS[args.workload](args.seed, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    scaleshift and built the workload's inputs, once per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit status {rc})")
        times.append(elapsed)
    return times


def _git_sha() -> str:
    """HEAD's commit read from .git without running git; "unknown" when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def _peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def calibrated_pass_s(passes: list[list[float]], refs: list[list[float]]) -> float:
    """Seconds of one pass at the machine speed of ``reference.NOMINAL_S``.

    A job's reference times are those just before and just after it, in
    every pass.  Per job, its median time over the passes is divided by the
    median of its reference times, which removes how busy the shared
    machine was while that job ran.
    """
    total = 0.0
    for j, col in enumerate(zip(*passes)):
        ref = [r[k] for r in refs for k in (j, j + 1)]
        total += statistics.median(col) / statistics.median(ref)
    return reference.NOMINAL_S * total


def run_passes(wl, jobs, seconds: float, tracer=None, setup_spans=()):
    """Repeat passes while the median pass so far still fits in ``seconds``,
    and at least MIN_PASSES untraced ones (two with a tracer, when untraced
    and traced passes alternate).

    Returns per-job seconds of the untraced and the traced passes, the
    reference times around their jobs, every checked detection, and the
    per-layer metrics of each traced pass.
    """
    plain, traced, refs, traced_refs, detections, layer = [], [], [], [], [], []
    pass_wall = []
    t_start = time.perf_counter()
    while (len(plain) < MIN_PASSES - (tracer is not None)
           or time.perf_counter() - t_start + statistics.median(pass_wall) <= seconds):
        t_pass = time.perf_counter()
        if tracer is not None and len(plain) > len(traced):
            first = len(tracer.spans)
            with tracing.instrument(tracer, wl.scaleshift), tracer.span("pass"):
                times, ref, dets = wl.run_pass(jobs)
            traced.append(times)
            traced_refs.append(ref)
            layer.append(tracing.layer_metrics([*setup_spans, *tracer.spans[first:]]))
        else:
            times, ref, dets = wl.run_pass(jobs)
            plain.append(times)
            refs.append(ref)
        detections += dets
        pass_wall.append(time.perf_counter() - t_pass)
    return plain, traced, refs, traced_refs, detections, layer


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)
    wl = _load_workloads()
    if wl is None:
        return 1
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    build = wl.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            with tracing.instrument(tracer, wl.scaleshift), tracer.span("setup"):
                jobs = build(args.seed, work)
            plain, traced, refs, traced_refs, detections, layer = run_passes(
                wl, jobs, args.seconds, tracer, list(tracer.spans))
        else:
            jobs = build(args.seed, work)
            plain, traced, refs, traced_refs, detections, layer = run_passes(wl, jobs, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_pass = sum(job.detections for job in jobs)
    plain_s = [sum(t) for t in plain]
    traced_s = [sum(t) for t in traced]
    failed = [d for d in detections if d.problem]
    for problem in sorted({d.problem for d in failed}):
        print(f"FAILED: {problem}", file=sys.stderr)
    errors = [d.abs_err for d in detections if not d.problem]
    # With no successful detection `correct` is false; 0 keeps the JSON valid.
    abs_err_mean = statistics.fmean(errors) if errors else 0.0
    failed_frac = len(failed) / len(detections)

    if tracer:
        metrics = tracing.median_metrics(layer)
        metrics["abs_err_mean"] = abs_err_mean
        metrics["failed_frac"] = failed_frac
        metrics["trace.overhead_frac"] = (
            calibrated_pass_s(traced, traced_refs) / calibrated_pass_s(plain, refs) - 1
        )
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"provenance": provenance(args.workload, args.seed),
                       "spans": tracer.to_json()}, fh)
    else:
        metrics = {
            "detections_per_s": per_pass / calibrated_pass_s(plain, refs),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}

    record = {
        "provenance": provenance(args.workload, args.seed),
        "detections_per_pass": per_pass,
        "pass_s": plain_s,
        "traced_pass_s": traced_s,
        "job_s": plain,
        "reference_s": refs,
        "uncalibrated_detections_per_s": per_pass / statistics.median(plain_s),
        "setup_s": setup_times,
        "abs_err_mean": abs_err_mean,
        "failed_frac": failed_frac,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(detections),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
