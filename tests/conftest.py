"""Shared fixtures."""
import collections

import pytest

import scaleshift.css


@pytest.fixture()
def prefix_estimates(monkeypatch):
    """Counter of robust prefix estimates by estimator kind: the calls of
    the per-prefix evaluation in the robust scan, for full traces and the
    strided orientation pass alike, degenerate prefixes included."""
    counts = collections.Counter()

    def counting(kind, point):
        def wrapper(*args):
            counts[kind] += 1
            return point(*args)
        return wrapper

    for kind, name in (("bmid", "_bmid_point"), ("qcv", "_qcv_point")):
        monkeypatch.setattr(
            scaleshift.css, name, counting(kind, getattr(scaleshift.css, name))
        )
    return counts
