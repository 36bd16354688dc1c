"""Shared fixtures."""
import collections

import pytest

import scaleshift.detect
from scaleshift.css import robust_css


@pytest.fixture()
def robust_scans(monkeypatch):
    """Counter of robust CSS scans by estimator kind, counting every call
    the package makes: only :mod:`scaleshift.detect` looks up
    ``robust_css``."""
    counts = collections.Counter()

    def counting(values, spec, **kwargs):
        counts[spec.kind] += 1
        return robust_css(values, spec, **kwargs)

    monkeypatch.setattr(scaleshift.detect, "robust_css", counting)
    return counts
