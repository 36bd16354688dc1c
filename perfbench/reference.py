"""A fixed unit of work that tells how fast this machine runs right now.

On a shared host the speed the benchmark gets drifts by up to 2x over
minutes, which no median over one run can remove.  So a run times this
reference between every two jobs, and reports job times in units of the
reference time beside them.  The reference calls nothing of the program; a
change to ``scaleshift`` cannot move it.  Its work is like the program's:
a per-prefix loop of small numpy calls over a sorted buffer (the robust
scans), text formatting and parsing of numbers (CSV ingest and output),
and whole-array numpy arithmetic (preprocessing and classical traces).
"""
from __future__ import annotations

import gc
import time

import numpy as np

# Median time of one reference_s() call over some 1500 calls on a shared
# 2-vCPU Intel Xeon KVM guest with Python 3.11 and numpy 2.4.  Calibrated
# job times read as seconds on a machine where the reference takes this long.
NOMINAL_S = 0.075

_VALUES = np.random.default_rng(0).standard_normal(400)
_LONG = np.random.default_rng(1).standard_normal(100_000)


def _scan(values: np.ndarray) -> float:
    buf = np.empty(values.size)
    acc = 0.0
    for size, x in enumerate(values, 1):
        pos = int(np.searchsorted(buf[: size - 1], x))
        buf[pos + 1 : size] = buf[pos : size - 1]
        buf[pos] = x
        s = buf[:size]
        med = s[size // 2]
        acc += float(np.median(np.abs(s - med))) + float(np.sum((s - med) ** 2))
    return acc


def _text(values: np.ndarray) -> float:
    lines = [f"{i},{format(float(v), '.17g')}" for i, v in enumerate(values, 1)]
    return sum(float(line.split(",")[1]) for line in lines)


def _arrays(values: np.ndarray) -> float:
    prices = np.exp(np.cumsum(values * 0.01))
    returns = np.diff(np.log(prices))
    return float(np.sum(np.cumsum(returns**2)))


def reference_s() -> float:
    """Seconds one unit of the reference work takes now.

    The garbage collector is off meanwhile: a collection of the program's
    objects would otherwise land in the same reference on every pass.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            _scan(_VALUES)
        for _ in range(15):
            _text(_VALUES)
        for _ in range(5):
            _arrays(_LONG)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
