"""Write a long timestamped CSV, or compare ``ingest_csv`` on a file with
the row loop alone, byte for byte.

    python .github/check_ingest.py write FILE.csv
    python .github/check_ingest.py compare FILE.csv COLUMN

``write`` makes a 200 000-row ``time,value`` file with ISO timestamps,
CRLF line ends, a few blank rows, and value cells in exponent form or
in forms only ``float()`` reads.  ``compare`` also checks that the rest
of the file past its first value was read in bulk, not refused.
"""
import sys
from unittest import mock

import numpy as np

from scaleshift import cli

ROWS = 200_000


def write(path) -> None:
    rng = np.random.default_rng(29)
    x = rng.standard_normal(ROWS) * np.repeat([1.0, 3.0], ROWS // 2)
    cells = [repr(v) for v in x.tolist()]
    for i in range(7, ROWS, 997):
        cells[i] = "%.6e" % x[i]
    for i, cell in zip(range(500, ROWS, 20_011), [" 2.5 ", "1_000", "٣", "-5e-3 "] * 3):
        cells[i] = cell
    stamps = (np.datetime64("2024-01-01T00:00:00") + np.arange(ROWS)).astype(str)
    lines = ["time,value"] + [f"{t},{c}" for t, c in zip(stamps.tolist(), cells)]
    for i in range(ROWS - 5, 0, -40_009):
        lines.insert(i, " , " if i % 2 else "")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def compare(path, column) -> None:
    column = int(column) if column.isdigit() else column
    real, rest = cli._read_plain_rest, []

    def spy(fh, col_idx):
        rest.append(real(fh, col_idx))
        return rest[-1]

    with mock.patch.object(cli, "_read_plain_rest", spy):
        bulk = cli.ingest_csv(path, column).values
    assert len(rest) == 1 and rest[0] is not None, f"{path}: the bulk reader refused it"
    with mock.patch.object(cli, "_read_plain_rest", lambda fh, col_idx: None):
        rows = cli.ingest_csv(path, column).values
    assert bulk.tobytes() == rows.tobytes(), path
    print(f"{path}: {bulk.size} values read in bulk, byte-equal to the row loop")


if __name__ == "__main__":
    {"write": write, "compare": compare}[sys.argv[1]](*sys.argv[2:])
