"""The package's public surface: the names each module lists in ``__all__``."""
import importlib

import scaleshift

# every public name of the package, sorted
SURFACE = [
    "BenchConfig", "BmidConfig", "BoxplotSummary", "ConfigError", "CssTrace",
    "DegenerateScale", "DetectionResult", "EmptyColumn", "EmptyInput",
    "EmptySample", "IndexOutOfRange", "InsufficientLength", "InvalidAlpha",
    "InvalidGamma", "InvalidParameter", "KIND_BMID", "KIND_CLASSICAL",
    "KIND_QCV", "METHOD_ICSS", "METHOD_OLS", "MaeReport", "MaeRow", "Method",
    "MixtureSpec", "NonFiniteSample", "NonFiniteTrace", "NonPositiveForLog",
    "Orientation", "OrientedTrace", "ParseError", "QcvBounds",
    "ScaleEstimatorSpec", "ScaleShiftError", "StableSpec", "TimingReport",
    "TimingRow", "TooShortAfterPreprocess", "WindowTooSmall",
    "ZeroTotalSumOfSquares", "__version__", "bmid_variance", "classical_css",
    "constant_prefix_check", "default_methods", "detect_orientation",
    "detect_oriented", "gen_mixture_series", "gen_stable_series",
    "grid_point_id", "icss_detect", "mad", "make_rng", "median_ci_ranks",
    "normalized_error", "ols_detect", "orient", "qcv_variance",
    "reverse_sample", "robust_css", "run_mae_study", "run_timing_study",
    "sample_mean", "sample_median", "sample_symmetric_stable",
    "sample_variance", "summarize_boxplot", "trial_seed",
    "write_detections_csv", "write_mae_csv", "write_mae_json",
    "write_timing_csv", "write_timing_json",
]
MODULES = ("errors", "estimators", "css", "detect", "simulate", "bench")


def test_surface_is_pinned():
    assert len(SURFACE) == 72
    assert len(scaleshift.__all__) == len(set(scaleshift.__all__))
    assert sorted(scaleshift.__all__) == SURFACE


def test_every_name_resolves_and_star_import_binds_it():
    namespace = {}
    exec("from scaleshift import *", namespace)
    for name in SURFACE:
        assert getattr(scaleshift, name) is namespace[name]


def test_surface_is_the_modules_lists():
    names = ["__version__"]
    for module in MODULES:
        mod = importlib.import_module(f"scaleshift.{module}")
        names += mod.__all__
        for name in mod.__all__:
            assert getattr(scaleshift, name) is getattr(mod, name)
    assert scaleshift.__all__ == names
    assert "main" not in scaleshift.__all__  # the CLI is not re-exported
