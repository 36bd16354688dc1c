"""Shared fixtures."""
import collections

import pytest

import scaleshift.css
import scaleshift.estimators


@pytest.fixture()
def prefix_estimates(monkeypatch):
    """Counter of robust prefix estimates by estimator kind: the rows of
    the BMID blocks and the calls of the QCV per-prefix evaluation in the
    robust scan, for full traces and the strided orientation pass alike,
    degenerate prefixes included."""
    counts = collections.Counter()
    bmid_block = scaleshift.estimators._bmid_block
    qcv_point = scaleshift.css._qcv_point

    def counting_block(values, ns, *args):
        counts["bmid"] += len(ns)
        return bmid_block(values, ns, *args)

    def counting_point(*args):
        counts["qcv"] += 1
        return qcv_point(*args)

    monkeypatch.setattr(scaleshift.estimators, "_bmid_block", counting_block)
    monkeypatch.setattr(scaleshift.css, "_qcv_point", counting_point)
    return counts
