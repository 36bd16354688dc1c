"""Shared fixtures."""
import collections

import pytest

import scaleshift.css


@pytest.fixture()
def prefix_estimates(monkeypatch):
    """Counter of robust prefix estimates by estimator kind: the rows of
    the BMID block kernel and the calls of the QCV per-prefix evaluation
    in the robust scan, for full traces and the strided orientation pass
    alike, degenerate prefixes included."""
    counts = collections.Counter()
    bmid_rows, qcv_point = scaleshift.css._bmid_rows, scaleshift.css._qcv_point

    def counting_rows(values, ns, *args):
        counts["bmid"] += len(ns)
        return bmid_rows(values, ns, *args)

    def counting_point(*args):
        counts["qcv"] += 1
        return qcv_point(*args)

    monkeypatch.setattr(scaleshift.css, "_bmid_rows", counting_rows)
    monkeypatch.setattr(scaleshift.css, "_qcv_point", counting_point)
    return counts
