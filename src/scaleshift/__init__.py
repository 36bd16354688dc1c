"""Offline scale change-point detection for heavy-tailed time series.

The package locates a single change in scale (volatility) in a univariate
series using cumulative sum-of-squares traces.  Alongside the classical
variance-based trace it offers robust variants built on the biweight
midvariance and on quantile-trimmed conditional variance, which stay
informative when the data are impulsive or have infinite variance.  A
Monte Carlo benchmark harness and a CLI are included.
"""
from .bench import (
    BenchConfig,
    BoxplotSummary,
    MaeReport,
    MaeRow,
    Method,
    TimingReport,
    TimingRow,
    default_methods,
    grid_point_id,
    median_ci_ranks,
    normalized_error,
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
from .css import (
    KIND_BMID,
    KIND_CLASSICAL,
    KIND_QCV,
    CssTrace,
    Orientation,
    ScaleEstimatorSpec,
    classical_css,
    constant_prefix_check,
    detect_orientation,
    reverse_sample,
    robust_css,
)
from .detect import (
    METHOD_ICSS,
    METHOD_OLS,
    DetectionResult,
    OrientedTrace,
    detect_oriented,
    icss_detect,
    ols_detect,
    orient,
)
from .errors import (
    ConfigError,
    DegenerateScale,
    EmptyColumn,
    EmptyInput,
    EmptySample,
    IndexOutOfRange,
    InsufficientLength,
    InvalidAlpha,
    InvalidGamma,
    InvalidParameter,
    NonFiniteSample,
    NonFiniteTrace,
    NonPositiveForLog,
    ParseError,
    ScaleShiftError,
    TooShortAfterPreprocess,
    WindowTooSmall,
    ZeroTotalSumOfSquares,
)
from .estimators import (
    BmidConfig,
    QcvBounds,
    bmid_variance,
    mad,
    qcv_variance,
    sample_mean,
    sample_median,
    sample_variance,
)
from .simulate import (
    MixtureSpec,
    StableSpec,
    gen_mixture_series,
    gen_stable_series,
    make_rng,
    sample_symmetric_stable,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ScaleShiftError", "EmptySample", "InsufficientLength", "NonFiniteSample",
    "InvalidParameter", "InvalidAlpha", "InvalidGamma", "DegenerateScale",
    "WindowTooSmall", "ZeroTotalSumOfSquares", "IndexOutOfRange", "ConfigError",
    "EmptyInput", "ParseError", "EmptyColumn", "NonPositiveForLog",
    "TooShortAfterPreprocess", "NonFiniteTrace",
    # estimators
    "BmidConfig", "QcvBounds", "sample_mean", "sample_variance", "sample_median",
    "mad", "bmid_variance", "qcv_variance",
    # css
    "KIND_CLASSICAL", "KIND_BMID", "KIND_QCV", "Orientation",
    "ScaleEstimatorSpec", "CssTrace", "classical_css", "robust_css",
    "reverse_sample", "detect_orientation", "constant_prefix_check",
    # detect
    "METHOD_ICSS", "METHOD_OLS", "DetectionResult", "OrientedTrace",
    "icss_detect", "ols_detect", "orient", "detect_oriented",
    # simulate
    "make_rng", "StableSpec", "MixtureSpec", "sample_symmetric_stable",
    "gen_stable_series", "gen_mixture_series",
    # bench
    "Method", "default_methods", "BenchConfig", "BoxplotSummary",
    "summarize_boxplot", "normalized_error", "grid_point_id", "trial_seed",
    "MaeRow", "MaeReport", "run_mae_study", "TimingRow", "TimingReport",
    "run_timing_study", "median_ci_ranks", "write_mae_csv", "write_mae_json",
    "write_detections_csv", "write_timing_csv", "write_timing_json",
]
