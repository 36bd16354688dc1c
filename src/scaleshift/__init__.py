"""Offline scale change-point detection for heavy-tailed time series.

The package locates a single change in scale (volatility) in a univariate
series using cumulative sum-of-squares traces.  Alongside the classical
variance-based trace it offers robust variants built on the biweight
midvariance and on quantile-trimmed conditional variance, which stay
informative when the data are impulsive or have infinite variance.  A
Monte Carlo benchmark harness and a CLI are included.

The package exports exactly the names each module lists in its
``__all__``; the CLI module is not re-exported.
"""
from . import bench, css, detect, errors, estimators, simulate
from .bench import *
from .css import *
from .detect import *
from .errors import *
from .estimators import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *estimators.__all__,
    *css.__all__,
    *detect.__all__,
    *simulate.__all__,
    *bench.__all__,
]
