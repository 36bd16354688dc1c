"""Golden outputs of ``scaleshift detect`` on every committed fixture.

Each of the 108 runs (6 fixtures x 3 estimators x 2 methods x 3
orientations, all ``--column 2`` and no ``--preprocess``, so no
vector-math function touches the values) must give the exit status,
stdout and stderr recorded in ``data/fixture_sweep.json`` and a trace CSV
with the recorded SHA-256.  A change that moves these outputs on purpose
regenerates the file from the repository root with

    PYTHONPATH=src python tests/test_fixture_sweep.py

and the diff of the JSON shows every run that moved.
"""
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from scaleshift.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "data" / "fixture_sweep.json"
FIXTURES = sorted(p.name for p in (ROOT / "fixtures").glob("*.csv"))
RUNS = list(itertools.product(
    FIXTURES, ("classical", "bmid", "qcv"), ("icss", "ols"), ("auto", "on", "off")
))


def _key(fixture, estimator, method, orientation):
    return f"{fixture} {estimator} {method} {orientation}"


def _detect(fixture, estimator, method, orientation, trace_csv):
    """One in-process ``scaleshift detect`` run from the repository root:
    its exit status, stdout, stderr and the SHA-256 of its trace CSV."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    try:
        os.chdir(ROOT)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([
                "detect", "--input", f"fixtures/{fixture}", "--column", "2",
                "--estimator", estimator, "--method", method,
                "--orientation", orientation, "--trace-csv", str(trace_csv),
            ])
    finally:
        os.chdir(cwd)
    digest = hashlib.sha256(Path(trace_csv).read_bytes()).hexdigest()
    return {
        "status": status,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "trace_csv_sha256": digest,
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_sweep_covers_every_run(expected):
    assert len(FIXTURES) == 6
    assert sorted(expected) == sorted(_key(*run) for run in RUNS)


@pytest.mark.parametrize("run", RUNS, ids=lambda run: "-".join(run))
def test_detect_output_is_unchanged(run, expected, tmp_path):
    assert _detect(*run, tmp_path / "trace.csv") == expected[_key(*run)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        sweep = {_key(*run): _detect(*run, trace) for run in RUNS}
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(sweep, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(sweep)} runs to {EXPECTED.relative_to(ROOT)}", file=sys.stderr)
