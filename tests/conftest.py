"""Shared fixtures."""
import collections

import pytest

import scaleshift.css
import scaleshift.estimators


@pytest.fixture()
def prefix_estimates(monkeypatch):
    """Counter of robust prefix estimates by estimator kind: the rows of
    the BMID blocks and the prefix lengths of the QCV scans, for full
    traces and the strided orientation pass alike, degenerate prefixes
    included."""
    counts = collections.Counter()
    bmid_block = scaleshift.estimators._bmid_block
    qcv_scan = scaleshift.css._qcv_scan

    def counting_block(values, ns, *args):
        counts["bmid"] += len(ns)
        return bmid_block(values, ns, *args)

    def counting_scan(values, ns, *args):
        counts["qcv"] += len(ns)
        return qcv_scan(values, ns, *args)

    monkeypatch.setattr(scaleshift.estimators, "_bmid_block", counting_block)
    monkeypatch.setattr(scaleshift.css, "_qcv_scan", counting_scan)
    return counts
