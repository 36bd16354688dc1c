"""Compare a ``scaleshift simulate`` file, and the ``detect --trace-csv``
files made from it, with ``csv.writer`` rows of ``format(v, ".17g")``,
byte for byte.

    python .github/check_rows.py SERIES.csv [METHOD TRACE.csv]...

Each trace is the one ``detect --column 2 --estimator classical --method
METHOD`` wrote with its other options left at their defaults.
"""
import csv
import io
import math
import sys

import numpy as np

from scaleshift import ScaleEstimatorSpec
from scaleshift.detect import detect_oriented, orient


def _rows(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def _cell(v: float) -> str:
    return "" if math.isnan(v) else format(v, ".17g")


def main(series_path, *traces) -> None:
    with open(series_path, newline="") as fh:
        table = list(csv.reader(fh))
    values = np.array([float(r[1]) for r in table[1:]])
    regimes = [int(r[2]) for r in table[1:]]
    assert set(regimes) <= {1, 2} and regimes == sorted(regimes), series_path
    want = _rows(
        ["index", "value", "regime"],
        zip(range(1, values.size + 1), map(_cell, values.tolist()), regimes),
    )
    with open(series_path, "rb") as fh:
        assert fh.read() == want, series_path
    oriented = orient(values, ScaleEstimatorSpec.classical())
    for method, path in zip(traces[::2], traces[1::2]):
        result = detect_oriented(oriented, method)
        rows = zip(result.trace.values.tolist(), result.statistic_trace.tolist())
        want = _rows(
            ["n", "css", "statistic"],
            ((i, format(c, ".17g"), _cell(s)) for i, (c, s) in enumerate(rows, 1)),
        )
        with open(path, "rb") as fh:
            assert fh.read() == want, path
        print(f"{path}: {values.size} rows as csv.writer writes them")


if __name__ == "__main__":
    main(*sys.argv[1:])
