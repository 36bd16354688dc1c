"""Tests of the benchmark itself: span arithmetic, calibrated pass times,
output checks, and a tiny-N smoke run of every workload, untraced and traced.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from tracing import Span

HERE = Path(__file__).resolve().parent
SMALL_N = {"detect-long": 200, "mc-study": 100, "cli-classical": 2000}
# Computed by run.py from the passes rather than from spans.
RUN_LEVEL = {"abs_err_mean", "failed_frac", "trace.overhead_frac"}


def _span(id, start, end, parent=None):
    return Span(id=id, name=f"s{id}", start=start, end=end, parent=parent, detection=None)


class TestSelfTimes:
    def test_hand_built_tree(self):
        spans = [
            _span(0, 0.0, 10.0),
            _span(1, 1.0, 3.0, parent=0),
            _span(2, 2.0, 4.0, parent=0),  # overlaps span 1: counted once
            _span(3, 6.0, 7.0, parent=0),
            _span(4, 6.2, 6.5, parent=3),  # grandchild: only its parent loses it
            _span(5, 9.5, 12.0, parent=0),  # runs past its parent's end
        ]
        own = tracing.self_times(spans)
        assert own[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
        assert own[1] == pytest.approx(2.0)
        assert own[3] == pytest.approx(0.7)
        assert own[4] == pytest.approx(0.3)
        assert own[5] == pytest.approx(2.5)

    def test_tracer_nesting_and_detection_ids(self):
        tracer = tracing.Tracer()
        with tracer.span("pass"):
            for _ in range(2):
                with tracer.span("cli.main"):
                    with tracer.span("css.robust_css"):
                        pass
        names = [(s.name, s.parent, s.detection) for s in tracer.spans]
        assert names == [
            ("pass", None, None),
            ("cli.main", 0, 1),
            ("css.robust_css", 1, 1),
            ("cli.main", 0, 2),
            ("css.robust_css", 3, 2),
        ]
        own = tracing.self_times(tracer.spans)
        assert all(v >= 0.0 for v in own.values())


def test_calibrated_pass_divides_by_the_reference_around_each_job():
    # The second pass ran on a machine twice as slow: its reference times
    # doubled, and so did its job times.
    passes = [[1.0, 3.0], [2.0, 6.0], [1.5, 4.0]]
    refs = [[0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]]
    # Per job: median time over median reference, 1.5 / 0.5 and 4.0 / 0.5.
    assert run.calibrated_pass_s(passes, refs) == pytest.approx(
        run.reference.NOMINAL_S * (3.0 + 8.0)
    )
    # A job counts against the median of the reference times on both sides
    # of it, over all passes: here 1.0 (of 1.0, 1.0, 1.0 and 4.0).
    assert run.calibrated_pass_s([[3.0], [3.0]], [[1.0, 1.0], [1.0, 4.0]]) == pytest.approx(
        run.reference.NOMINAL_S * 3.0
    )


class TestChecks:
    def _stdout(self, cp, n=100):
        return json.dumps({"change_point": cp, "n": n})

    def _trace(self, tmp_path, rows):
        path = tmp_path / "trace.csv"
        path.write_text("n,css,statistic\n" + "".join(f"{i},1,0\n" for i in range(1, rows + 1)))
        return path

    def test_accepts_valid_output(self, tmp_path):
        det = workloads.check_cli_output(0, self._stdout(60), 100, 49, self._trace(tmp_path, 100))
        assert det == workloads.Detection(11)

    @pytest.mark.parametrize("cp", [1, 100, 0, "50"])
    def test_rejects_out_of_range_index(self, cp):
        det = workloads.check_cli_output(0, self._stdout(cp), 100, 49, None)
        assert det.abs_err is None and "change_point" in det.problem

    def test_rejects_short_trace_csv(self, tmp_path):
        det = workloads.check_cli_output(0, self._stdout(50), 100, 49, self._trace(tmp_path, 99))
        assert det.abs_err is None and "99 data rows" in det.problem

    def test_rejects_missing_trace_csv(self, tmp_path):
        det = workloads.check_cli_output(0, self._stdout(50), 100, 49, tmp_path / "none.csv")
        assert det.problem == "no trace CSV written"

    @pytest.mark.parametrize("rc, stdout", [(2, ""), (0, "not json"), (0, "{} {}"), (0, "[1]")])
    def test_rejects_bad_exit_or_stdout(self, rc, stdout):
        assert workloads.check_cli_output(rc, stdout, 100, 49, None).problem

    def test_study_failures_count_as_failed(self):
        grid = (workloads.simulate.StableSpec(alpha=1.5, gamma2=3.0, N=50),)
        methods = workloads.bench.default_methods()[:1]
        row = workloads.bench.MaeRow(
            grid_label="g", grid_params=(), method=methods[0].label, truth=24, mae=0.0,
            summary=None, detections=(24, 50), failures=((2, "DegenerateScale"),), seeds=(),
        )
        report = workloads.bench.MaeReport(trials=3, base_seed=0, rows=(row,))
        dets = workloads.check_study(report, grid, methods, trials=3)
        assert [d.abs_err for d in dets] == [None, 0, None]


def _build(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tmp_path, n=SMALL_N[name])


def _per_layer_names():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return {m["name"] for m in json.load(fh)["per_layer"]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    jobs = _build(name, tmp_path)
    times, refs, dets = workloads.run_pass(jobs)
    assert len(times) == len(jobs) and min(times) > 0.0
    assert len(refs) == len(jobs) + 1 and min(refs) > 0.0
    assert len(dets) == sum(j.detections for j in jobs)
    assert [d.problem for d in dets if d.problem] == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_counts_repeat(name, tmp_path):
    originals = {attr: getattr(workloads.cli, attr) for attr in ("main", "robust_css")}
    per_pass = []
    for run in range(2):
        work = tmp_path / str(run)
        work.mkdir()
        tracer = tracing.Tracer()
        with tracing.instrument(tracer, workloads.scaleshift), tracer.span("setup"):
            jobs = _build(name, work)
        with tracing.instrument(tracer, workloads.scaleshift), tracer.span("pass"):
            _, _, dets = workloads.run_pass(jobs)
        assert not any(d.problem for d in dets)
        per_pass.append(tracing.layer_metrics(tracer.spans))
    assert {k: getattr(workloads.cli, k) for k in originals} == originals
    first, second = per_pass
    assert set(first) == _per_layer_names() - RUN_LEVEL
    counts = [k for k, v in first.items() if isinstance(v, int)]
    assert "css.prefix_estimates" in counts and "simulate.samples" in counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["detect.detections"] == sum(j.detections for j in jobs)
    if name == "cli-classical":
        assert first["css.robust_scans"] == 0
    else:
        assert first["css.robust_scans"] > 0


def test_fails_without_the_program(tmp_path):
    """Without src/ the benchmark exits non-zero and prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_workloads():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
