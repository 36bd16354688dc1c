"""Unit tests for the Monte Carlo benchmark harness."""
import csv
import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import scaleshift.bench
from scaleshift import (
    BenchConfig,
    ConfigError,
    DegenerateScale,
    EmptyInput,
    IndexOutOfRange,
    Method,
    MixtureSpec,
    ScaleEstimatorSpec,
    ScaleShiftError,
    StableSpec,
    ZeroTotalSumOfSquares,
    default_methods,
    detect_oriented,
    gen_stable_series,
    grid_point_id,
    median_ci_ranks,
    normalized_error,
    orient,
    run_mae_study,
    run_timing_study,
    summarize_boxplot,
    trial_seed,
    write_detections_csv,
    write_mae_csv,
    write_mae_json,
    write_timing_csv,
    write_timing_json,
)
from scaleshift.detect import ORIENT_STRIDE


def _small_cfg(methods=None, trials=4):
    grid = (
        StableSpec(alpha=2.0, gamma2=4.0, N=60, cp=30),
        StableSpec(alpha=2.0, gamma2=0.25, N=60, cp=30),
    )
    return BenchConfig(
        grid=grid,
        methods=methods or (Method("icss", ScaleEstimatorSpec.classical()),),
        trials=trials,
        base_seed=7,
    )


def _fake_pipeline(monkeypatch, detect):
    """Stand in for the study's pipeline: ``orient`` passes the series
    through and ``detect_oriented`` reports ``detect(series)``."""
    monkeypatch.setattr(scaleshift.bench, "orient", lambda values, estimator: values)
    monkeypatch.setattr(
        scaleshift.bench,
        "detect_oriented",
        lambda values, detector: SimpleNamespace(change_point=detect(values)),
    )


class TestMethod:
    def test_labels_and_columns(self):
        labels = [m.label for m in default_methods()]
        assert labels == ["ICSS", "ICSS[BMID]", "ICSS[QCV]", "OLS", "OLS[BMID]", "OLS[QCV]"]
        cols = [m.column for m in default_methods()]
        assert cols == ["icss", "icss_bmid", "icss_qcv", "ols", "ols_bmid", "ols_qcv"]

    def test_unknown_detector(self):
        with pytest.raises(ConfigError):
            Method("cusum", ScaleEstimatorSpec.classical())


class TestBenchConfigValidation:
    def test_trials_positive(self):
        with pytest.raises(ConfigError):
            BenchConfig(grid=(StableSpec(alpha=2.0, gamma2=4.0, N=60),),
                        methods=default_methods(), trials=0)

    def test_nonempty(self):
        with pytest.raises(ConfigError):
            BenchConfig(grid=(), methods=default_methods())
        with pytest.raises(ConfigError):
            BenchConfig(grid=(StableSpec(alpha=2.0, gamma2=4.0, N=60),), methods=())

    def test_base_seed_non_negative(self):
        with pytest.raises(ConfigError, match="base seed must be >= 0"):
            BenchConfig(grid=(StableSpec(alpha=2.0, gamma2=4.0, N=60),),
                        methods=default_methods(), base_seed=-2)


class TestSummarizeBoxplot:
    def test_degenerate(self):
        s = summarize_boxplot([500] * 100)
        assert (s.minimum, s.q1, s.median, s.q3, s.maximum) == (500,) * 5
        assert s.outliers == ()

    def test_linear_interpolation_quantiles(self):
        s = summarize_boxplot(range(1, 101))
        assert (s.q1, s.median, s.q3) == (25.75, 50.5, 75.25)

    def test_outlier_rule(self):
        s = summarize_boxplot(list(range(1, 21)) + [1000])
        assert 1000.0 in s.outliers

    def test_empty(self):
        with pytest.raises(EmptyInput):
            summarize_boxplot([])

    def test_ordering_invariant(self):
        s = summarize_boxplot([3, 1, 4, 1, 5, 9, 2, 6])
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum


class TestNormalizedError:
    def test_exact_detection(self):
        assert normalized_error(500, 500, 1000) == 0.0

    def test_formatting_example(self):
        assert "%.5f" % normalized_error(376, 380, 760) == "0.00526"

    def test_maximal(self):
        assert normalized_error(1, 97, 97) == 96 / 97

    def test_bounds(self):
        with pytest.raises(IndexOutOfRange):
            normalized_error(0, 50, 100)
        with pytest.raises(IndexOutOfRange):
            normalized_error(50, 101, 100)


class TestSeeding:
    def test_grid_point_id_ignores_seed(self):
        a = StableSpec(alpha=1.5, gamma2=2.0, N=100, seed=1)
        b = StableSpec(alpha=1.5, gamma2=2.0, N=100, seed=999)
        assert grid_point_id(a) == grid_point_id(b)

    def test_grid_point_id_distinguishes_params(self):
        a = StableSpec(alpha=1.5, gamma2=2.0, N=100)
        b = StableSpec(alpha=1.5, gamma2=3.0, N=100)
        assert grid_point_id(a) != grid_point_id(b)

    def test_trial_seed_reproducible_and_distinct(self):
        gp = grid_point_id(StableSpec(alpha=1.5, gamma2=2.0, N=100))
        s0 = trial_seed(0, gp, 0)
        assert s0 == trial_seed(0, gp, 0)
        assert len({trial_seed(0, gp, t) for t in range(50)}) == 50


class TestRunMaeStudy:
    def test_reproducible(self):
        cfg = _small_cfg()
        r1 = run_mae_study(cfg)
        r2 = run_mae_study(cfg)
        for a, b in zip(r1.rows, r2.rows):
            assert a.detections == b.detections
            assert a.seeds == b.seeds
            assert a.mae == b.mae or (math.isnan(a.mae) and math.isnan(b.mae))

    def test_seed_isolation_under_grid_reorder(self):
        cfg = _small_cfg()
        flipped = BenchConfig(
            grid=tuple(reversed(cfg.grid)),
            methods=cfg.methods,
            trials=cfg.trials,
            base_seed=cfg.base_seed,
        )
        by_label = {r.grid_label: r for r in run_mae_study(cfg).rows}
        by_label_flipped = {r.grid_label: r for r in run_mae_study(flipped).rows}
        assert set(by_label) == set(by_label_flipped)
        for label, row in by_label.items():
            assert row.detections == by_label_flipped[label].detections
            assert row.seeds == by_label_flipped[label].seeds

    def test_oracle_detector_has_zero_mae(self, monkeypatch):
        _fake_pipeline(monkeypatch, lambda values: 29)
        report = run_mae_study(_small_cfg())
        assert all(r.mae == 0.0 for r in report.rows)

    def test_truth_is_cp_minus_one(self, monkeypatch):
        _fake_pipeline(monkeypatch, lambda values: 29)
        report = run_mae_study(_small_cfg())
        assert all(r.truth == 29 for r in report.rows)

    def test_failures_recorded_not_dropped(self, monkeypatch):
        def flaky(values):
            if float(values[0]) < 0:
                raise DegenerateScale("synthetic failure")
            return 30

        _fake_pipeline(monkeypatch, flaky)
        cfg = _small_cfg()
        report = run_mae_study(cfg)
        for row in report.rows:
            assert len(row.detections) + len(row.failures) == cfg.trials
            assert all(err == "DegenerateScale" for _, err in row.failures)
            if row.detections:
                assert row.mae == 1.0

    def test_all_failures_give_nan_mae(self, monkeypatch):
        def broken(values):
            raise DegenerateScale("always")

        _fake_pipeline(monkeypatch, broken)
        report = run_mae_study(_small_cfg())
        for row in report.rows:
            assert math.isnan(row.mae)
            assert len(row.failures) == 4

    def test_failures_recorded_for_the_failing_stage(self, monkeypatch):
        # orient fails for QCV: both QCV methods record it; the detector
        # fails for OLS on BMID: only that method records it
        calls = []

        def fake_orient(values, estimator):
            calls.append(estimator.kind)
            if estimator.kind == "qcv":
                raise DegenerateScale("orient")
            return estimator

        def fake_detect(estimator, detector):
            if (estimator.kind, detector) == ("bmid", "ols"):
                raise ZeroTotalSumOfSquares("detector")
            return SimpleNamespace(change_point=29)

        monkeypatch.setattr(scaleshift.bench, "orient", fake_orient)
        monkeypatch.setattr(scaleshift.bench, "detect_oriented", fake_detect)
        cfg = _small_cfg(methods=default_methods(), trials=3)
        report = run_mae_study(cfg)
        assert sorted(calls) == sorted(["classical", "bmid", "qcv"] * 6)
        failed = {
            "OLS[BMID]": "ZeroTotalSumOfSquares",
            "ICSS[QCV]": "DegenerateScale",
            "OLS[QCV]": "DegenerateScale",
        }
        for row in report.rows:
            if row.method in failed:
                assert row.detections == ()
                assert row.failures == tuple(
                    (t, failed[row.method]) for t in range(cfg.trials)
                )
            else:
                assert row.detections == (29, 29, 29)
                assert row.failures == ()

    def test_real_detection_small(self):
        cfg = _small_cfg(trials=3)
        report = run_mae_study(cfg)
        for row in report.rows:
            assert row.mae < 30.0  # sane on an easy two-regime problem
            assert len(row.seeds) == 3


class TestSharedRobustTrace:
    """Robust methods with one estimator share one oriented trace per trial."""

    ROBUST = tuple(m for m in default_methods() if m.estimator.is_robust)

    def test_one_trace_per_trial_and_estimator(self, prefix_estimates):
        # a scale increase: every trial takes the reversal, after the
        # strided vote, and both detectors scan that one reversed trace
        n = 200
        cfg = BenchConfig(
            grid=(MixtureSpec(omega2=5.0, nu=25.0, p=0.05, N=n),),
            methods=self.ROBUST,
            trials=3,
            base_seed=1,
        )
        report = run_mae_study(cfg)
        assert not any(row.failures for row in report.rows)
        one_trace = (n - 1) + math.ceil((n - 3) / ORIENT_STRIDE) + 1
        assert prefix_estimates == {
            "bmid": cfg.trials * one_trace, "qcv": cfg.trials * one_trace
        }

    @pytest.mark.parametrize("n", [60, 7])
    def test_outcomes_equal_per_method_detection(self, n):
        # N=7 is too short for the robust pipeline: its failure is shared
        cfg = BenchConfig(
            grid=(
                StableSpec(alpha=1.5, gamma2=4.0, N=n, cp=n // 2),
                StableSpec(alpha=1.5, gamma2=0.25, N=n, cp=n // 2),
            ),
            methods=default_methods(),
            trials=3,
            base_seed=3,
        )
        shared = run_mae_study(cfg)
        rows = iter(shared.rows)
        for spec in cfg.grid:
            gp = grid_point_id(spec)
            for m in cfg.methods:
                detections, failures = [], []
                for t in range(cfg.trials):
                    s = trial_seed(cfg.base_seed, gp, t)
                    x, _ = gen_stable_series(dataclasses.replace(spec, seed=s))
                    try:
                        oriented = orient(x, m.estimator)
                        cp = detect_oriented(oriented, m.detector).change_point
                    except ScaleShiftError as exc:
                        failures.append((t, type(exc).__name__))
                    else:
                        detections.append(cp)
                row = next(rows)
                assert row.method == m.label
                assert row.detections == tuple(detections)
                assert row.failures == tuple(failures)
        if n == 7:
            assert all(
                len(r.failures) == 3 for r in shared.rows if "[" in r.method
            )


class TestMedianCiRanks:
    def test_values(self):
        assert median_ci_ranks(5) is None
        assert median_ci_ranks(6) == (1, 6)
        assert median_ci_ranks(100) == (40, 61)

    def test_large_n(self):
        # C(n, k) no longer converts to a float from n = 1033 on
        assert median_ci_ranks(1033) == (485, 549)
        assert median_ci_ranks(1075) == (505, 571)
        assert median_ci_ranks(5000) == (2431, 2570)

    def test_symmetry(self):
        for n in (6, 11, 20, 33):
            lo, hi = median_ci_ranks(n)
            assert lo + hi == n + 1


class TestRunTimingStudy:
    def _cfg(self, n_list):
        return BenchConfig(
            grid=(MixtureSpec(omega2=5.0, nu=15.0, p=0.05, N=100),),
            methods=(Method("icss", ScaleEstimatorSpec.classical()),),
            trials=3,
            base_seed=0,
            n_list=n_list,
        )

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ConfigError):
            run_timing_study(self._cfg((500, 500, 500, 500, 500)))
        with pytest.raises(ConfigError):
            run_timing_study(self._cfg((100, 200, 300, 400)))
        with pytest.raises(ConfigError):
            run_timing_study(self._cfg((100, 150, 200, 250, 300)))

    def test_small_run_shape(self):
        rep = run_timing_study(self._cfg((20, 40, 80, 120, 200)))
        assert len(rep.rows) == 5
        assert all(r.median_seconds > 0 for r in rep.rows)
        assert all(r.ci_low <= r.median_seconds <= r.ci_high for r in rep.rows)
        assert len(rep.exponents) == 1
        assert len(rep.rows[0].times) == 3  # warm-up discarded


class TestWriters:
    def test_mae_csv_round_trip(self, tmp_path):
        report = run_mae_study(_small_cfg(methods=default_methods(), trials=2))
        path = tmp_path / "mae.csv"
        write_mae_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        for m in ("ICSS", "ICSS[BMID]", "ICSS[QCV]", "OLS", "OLS[BMID]", "OLS[QCV]"):
            assert f"mae_{m}" in header
            assert f"failures_{m}" in header
        # 17-significant-digit output round-trips through float exactly
        mae_col = header.index("mae_ICSS")
        csv_val = float(rows[1][mae_col])
        assert csv_val == report.rows[0].mae

    def test_mae_json_round_trip(self, tmp_path):
        report = run_mae_study(_small_cfg(trials=2))
        path = tmp_path / "mae.json"
        write_mae_json(report, path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["trials"] == 2
        assert payload["rows"][0]["mae"] == report.rows[0].mae
        assert payload["rows"][0]["detections"] == list(report.rows[0].detections)

    def test_detections_csv_tidy(self, tmp_path):
        report = run_mae_study(_small_cfg(trials=2))
        path = tmp_path / "det.csv"
        write_detections_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["grid", "method", "trial", "detection"]
        assert len(rows) == 1 + 2 * 2  # two grid points x two trials

    def test_detections_csv_numbers_trials_past_a_failure(self, tmp_path, monkeypatch):
        # trial 2 of 5 fails at both grid points; the detections of trials
        # 3 and 4 keep their own numbers instead of moving up to 2 and 3
        calls = iter(range(10))

        def fail_trial_2(values):
            call = next(calls)
            if call % 5 == 2:
                raise DegenerateScale("trial 2")
            return 20 + call

        _fake_pipeline(monkeypatch, fail_trial_2)
        report = run_mae_study(_small_cfg(trials=5))
        path = tmp_path / "det.csv"
        write_detections_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        low, high = (r.grid_label for r in report.rows)
        assert rows[1:] == [
            [low, "ICSS", "0", "20"], [low, "ICSS", "1", "21"],
            [low, "ICSS", "3", "23"], [low, "ICSS", "4", "24"],
            [high, "ICSS", "0", "25"], [high, "ICSS", "1", "26"],
            [high, "ICSS", "3", "28"], [high, "ICSS", "4", "29"],
        ]

    def test_timing_writers(self, tmp_path):
        cfg = BenchConfig(
            grid=(MixtureSpec(omega2=5.0, nu=15.0, p=0.05, N=100),),
            methods=(Method("icss", ScaleEstimatorSpec.classical()),),
            trials=2,
            base_seed=0,
            n_list=(20, 40, 80, 120, 200),
        )
        rep = run_timing_study(cfg)
        cpath, jpath = tmp_path / "t.csv", tmp_path / "t.json"
        write_timing_csv(rep, cpath)
        write_timing_json(rep, jpath)
        with open(cpath, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "method", "median_seconds", "ci_low", "ci_high"]
        assert len(rows) == 6
        with open(jpath) as fh:
            payload = json.load(fh)
        assert "ICSS" in payload["exponents"]
