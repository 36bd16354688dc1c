"""Shared fixtures."""
import collections

import pytest

import scaleshift.cli
import scaleshift.detect
from scaleshift.css import robust_css


@pytest.fixture()
def robust_scans(monkeypatch):
    """Counter of robust CSS scans by estimator kind, counting every call
    the package makes through the names its modules look up."""
    counts = collections.Counter()

    def counting(values, spec, **kwargs):
        counts[spec.kind] += 1
        return robust_css(values, spec, **kwargs)

    for module in (scaleshift.detect, scaleshift.cli):
        monkeypatch.setattr(module, "robust_css", counting)
    return counts
