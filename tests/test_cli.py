"""Unit tests for CSV ingestion, preprocessing, and the CLI subcommands."""
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scaleshift
from scaleshift import (
    BenchConfig,
    ConfigError,
    CssTrace,
    DetectionResult,
    EmptyColumn,
    MixtureSpec,
    NonPositiveForLog,
    OrientedTrace,
    ParseError,
    ScaleEstimatorSpec,
    StableSpec,
    TooShortAfterPreprocess,
    default_methods,
    detect_oriented,
    gen_mixture_series,
    grid_point_id,
    icss_detect,
    orient,
    reverse_sample,
    robust_css,
)
from scaleshift import cli
from scaleshift.cli import (
    TimeSeries,
    build_preset,
    ingest_csv,
    main,
    parse_preprocess_spec,
    preprocess,
)
from scaleshift.detect import ORIENT_STRIDE

from oracles import naive_css


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _ts(values):
    return TimeSeries(values=np.asarray(values, dtype=float), source="test")


def _assert_error_contract(rc, capsys, error):
    """Exit 2, an empty stdout and one JSON line on stderr naming ``error``."""
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    return json.loads(lines[0])["message"]


class TestIngestCsv:
    def test_two_column_with_header(self, tmp_path):
        path = _write(tmp_path, "a.csv", "t,level\n1,10.5\n2,11.5\n3,12.5\n")
        ts = ingest_csv(path, column=2)
        assert ts.values.tolist() == [10.5, 11.5, 12.5]

    def test_column_by_header_name(self, tmp_path):
        path = _write(tmp_path, "a.csv", "t,level\n1,10.5\n2,11.5\n")
        ts = ingest_csv(path, column="level")
        assert ts.values.tolist() == [10.5, 11.5]

    def test_missing_header_name(self, tmp_path):
        path = _write(tmp_path, "a.csv", "t,level\n1,10.5\n")
        with pytest.raises(ParseError):
            ingest_csv(path, column="volume")

    def test_headerless_single_column(self, tmp_path):
        path = _write(tmp_path, "b.csv", "1.0\n2.0\n3.0\n")
        ts = ingest_csv(path)
        assert ts.values.tolist() == [1.0, 2.0, 3.0]

    def test_nan_cell_is_parse_error_with_line(self, tmp_path):
        path = _write(tmp_path, "c.csv", "v\n1.0\n2.0\nNaN\n4.0\n")
        with pytest.raises(ParseError) as exc:
            ingest_csv(path)
        assert exc.value.line == 4

    def test_garbage_cell_line_number(self, tmp_path):
        path = _write(tmp_path, "c.csv", "1.0\nbogus\n")
        with pytest.raises(ParseError) as exc:
            ingest_csv(path)
        assert exc.value.line == 2

    def test_empty_column(self, tmp_path):
        path = _write(tmp_path, "d.csv", "header\n")
        with pytest.raises(EmptyColumn):
            ingest_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_csv(str(tmp_path / "nope.csv"))

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "e.csv", "1.0\n\n2.0\n\n")
        assert ingest_csv(path).values.tolist() == [1.0, 2.0]

    @staticmethod
    def _error(path, column=1):
        with pytest.raises(ParseError) as exc:
            ingest_csv(path, column)
        return str(exc.value), exc.value.line

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("NaN", "non-finite value 'NaN'"),
            (" nan ", "non-finite value 'nan'"),
            ("inf", "non-finite value 'inf'"),
            ("-inf", "non-finite value '-inf'"),
            ("Infinity", "non-finite value 'Infinity'"),
            (" bogus\t", "cannot parse 'bogus' as a real"),
            ("1.0.0", "cannot parse '1.0.0' as a real"),
        ],
    )
    def test_bad_cell_after_blank_rows(self, tmp_path, bad, message):
        # lines 3-5 and 7 are blank, whitespace-only or all-empty cells
        text = "v\n1.0\n\n   \n,\n2.0\n \t \n" + bad + "\n3.0\n"
        path = _write(tmp_path, "f.csv", text)
        assert self._error(path) == (message, 8)

    def test_quoted_numeric_cells(self, tmp_path):
        path = _write(tmp_path, "g.csv", '"v"\n"1.5"\n" 2.5 "\n"-3e-2"\n')
        assert ingest_csv(path).values.tolist() == [1.5, 2.5, -0.03]

    def test_quoted_cell_with_delimiter_is_error(self, tmp_path):
        path = _write(tmp_path, "g.csv", 'v\n1.5\n"1,000"\n')
        assert self._error(path) == ("cannot parse '1,000' as a real", 3)

    def test_underscore_digit_grouping(self, tmp_path):
        # float() accepts PEP 515 underscores, so the ingest does too
        path = _write(tmp_path, "h.csv", "1_000\n2_5.0_1\n")
        assert ingest_csv(path).values.tolist() == [1000.0, 25.01]

    def test_crlf_file(self, tmp_path):
        path = _write(tmp_path, "i.csv", "t,v\r\n1,1.5\r\n\r\n2,2.5\r\n")
        assert ingest_csv(path, 2).values.tolist() == [1.5, 2.5]
        bad = _write(tmp_path, "j.csv", "t,v\r\n1,1.5\r\n2,x\r\n")
        assert self._error(bad, 2) == ("cannot parse 'x' as a real", 3)

    def test_separator_control_padding_is_stripped(self, tmp_path):
        # str.strip() removes U+001C..U+001F, which float() alone rejects
        path = _write(tmp_path, "k.csv", "1.0\n\x1c2.5\x1f\n")
        assert ingest_csv(path).values.tolist() == [1.0, 2.5]

    def test_header_narrower_than_column(self, tmp_path):
        path = _write(tmp_path, "l.csv", "v\n1,10\n2,20\n")
        assert ingest_csv(path, 2).values.tolist() == [10.0, 20.0]
        # a narrow first line of numbers is a short data row, not a header
        path = _write(tmp_path, "m.csv", "5\n1,10\n")
        assert self._error(path, 2) == ("row has 1 columns, need column 2", 1)
        path = _write(tmp_path, "m2.csv", "\n5, \n1,10,100\n")
        assert self._error(path, 3) == ("row has 2 columns, need column 3", 2)
        # one non-numeric cell makes it a header
        path = _write(tmp_path, "m3.csv", "5,t\n1,10,100\n")
        assert ingest_csv(path, 3).values.tolist() == [100.0]

    def test_narrow_data_row_is_error(self, tmp_path):
        path = _write(tmp_path, "n.csv", "t,v\n1,10\n\n2\n")
        assert self._error(path, 2) == ("row has 1 columns, need column 2", 4)

    def test_header_name_on_first_non_blank_row(self, tmp_path):
        path = _write(tmp_path, "o.csv", "\n \n t , level \n1,2.5\n\n2,3.5\n")
        assert ingest_csv(path, "level").values.tolist() == [2.5, 3.5]
        missing = _write(tmp_path, "p.csv", "\n\nt,level\n1,2.5\n")
        assert self._error(missing, "volume") == (
            "no column named 'volume' in header", 3,
        )

    def test_undecodable_bytes_are_parse_error(self, tmp_path):
        path = tmp_path / "ff.csv"
        for text in (b"1.0\n2.0\n\xff\n", b"\xff1.0\n2.0\n"):
            path.write_bytes(text)
            with pytest.raises(ParseError):
                ingest_csv(str(path))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # a headerless file keeps its first value, a header its first name
        values = [float(v) for v in range(1, 41)]
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeff" + "\n".join(map(str, values))).encode())
        assert ingest_csv(str(path)).values.tolist() == values
        named = tmp_path / "named.csv"
        named.write_bytes("\ufeffdate,price\n1,10.5\n2,11.5\n".encode())
        assert ingest_csv(str(named), "date").values.tolist() == [1.0, 2.0]
        assert ingest_csv(str(named), 2).values.tolist() == [10.5, 11.5]

    def test_oversized_field_is_parse_error_with_line(self, tmp_path):
        path = _write(tmp_path, "big.csv", "1.0\n2.0\n" + "9" * 131073 + "\n")
        with pytest.raises(ParseError) as exc:
            ingest_csv(path)
        assert exc.value.line == 3
        assert "field larger than field limit" in str(exc.value)

    def test_header_on_first_non_blank_line(self, tmp_path):
        path = _write(tmp_path, "q.csv", "\nv\n1.0\n")
        assert ingest_csv(path).values.tolist() == [1.0]
        narrow = _write(tmp_path, "q2.csv", " \n,\nv\n1,10\n")
        assert ingest_csv(narrow, 2).values.tolist() == [10.0]
        # only that one row may be a header
        twice = _write(tmp_path, "q3.csv", "\nv\n\nw\n1.0\n")
        assert self._error(twice) == ("cannot parse 'w' as a real", 4)
        late = _write(tmp_path, "q4.csv", "1.0\n\nv\n2.0\n")
        assert self._error(late) == ("cannot parse 'v' as a real", 3)

    def test_error_line_is_the_physical_line(self, tmp_path):
        # the quoted cell "2\n" spans lines 3-4; bogus is on line 5
        path = _write(tmp_path, "s.csv", 'v\n1.0\n"2\n"\nbogus\n')
        assert self._error(path) == ("cannot parse 'bogus' as a real", 5)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False).flatmap(
                    lambda v: st.sampled_from([format(v, ".17g"), repr(v)])
                ),
                st.sampled_from(["", " ", "\t", "  \t "]),
            ),
            max_size=40,
        ).filter(lambda rows: any(r.strip() for r in rows)),
        pad=st.sampled_from(["", " ", "\t "]),
        header=st.booleans(),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_finite_cells_round_trip(self, tmp_path, rows, pad, header, newline):
        cells = [r for r in rows if r.strip()]
        lines = (["value"] if header else []) + [
            pad + r + pad if r.strip() else r for r in rows
        ]
        path = _write(tmp_path, "r.csv", newline.join(lines) + newline)
        got = ingest_csv(path).values
        want = np.array([float(s) for s in cells])
        assert got.tobytes() == want.tobytes()


def _row_loop_only():
    """Make the bulk reader refuse, so ``ingest_csv`` is the row loop alone."""
    return mock.patch.object(cli, "_read_plain_rest", lambda fh, col_idx: None)


def _ingest_outcome(path, column):
    """The value bytes ``ingest_csv`` returns, or its error's
    (type, message, line)."""
    try:
        return ingest_csv(path, column).values.tobytes()
    except (ParseError, EmptyColumn) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


_PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g")),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["+1", ".5", "5.", "-0", "1E+5", "0001.5e-3", "1e-320"]),
)
# cells that only float() reads: padded, with underscores, non-ASCII digits
_FLOAT_ONLY_CELLS = st.sampled_from([" 2.5 ", "1_000", "٣", "\t-7e-3 ", "١٢.٥"])
_TARGET_CELLS = st.one_of(_PLAIN_CELLS, _FLOAT_ONLY_CELLS)
# what other columns of a recording hold
_TEXT_CELLS = st.sampled_from([
    "2024-01-01T00:00:00", "2024-01-01 09:30:00.5", "open", "température",
    "東京", "e", "1.2.3", "",
])
_PAD = st.sampled_from(["", " ", "\t", " \t "])
_BLANK_ROWS = st.sampled_from(["", " ", "\t ", ",", " , ,\t"])
# one each of the inputs the bulk reader must leave to the row loop
_HAZARDS = {
    "quote": '"1,2",5,7',
    "lone-cr": "1,2,3\r4,5,6",
    "nul": "1,2\x00,3",
    "underscore": "1_0,2_0,3_0",
    "arabic-digit": "٣,٣,٣",
    "oversized": "0" * 131072 + "1," + "0" * 131072 + "2,3",
    "oversized-blank": " " * 131073,
    "inf": "inf,inf,inf",
    "nan": "nan,nan,nan",
    "overflow": "1e999,1e999,1e999",
    "short-row": "1",
    "bad-cell": "1.2.3,1e,--1",
}


class TestBulkIngest:
    """The rest of a file past its first value is read in blocks by
    ``_read_plain_block``; whatever it reads must equal the row loop alone,
    value bytes or error (type, message, line)."""

    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.one_of(
                st.tuples(_PLAIN_CELLS, _PLAIN_CELLS, _PLAIN_CELLS, _PAD).map(
                    lambda r: ",".join(r[3] + c + r[3] for c in r[:3])
                ),
                st.tuples(_PLAIN_CELLS, _PLAIN_CELLS, _PLAIN_CELLS, _PLAIN_CELLS).map(
                    ",".join
                ),
                st.tuples(_TEXT_CELLS, _TARGET_CELLS, _TEXT_CELLS).map(",".join),
                st.tuples(_TARGET_CELLS, _TARGET_CELLS, _TARGET_CELLS).map(",".join),
                _BLANK_ROWS,
            ),
            min_size=1,
            max_size=30,
        ),
        header=st.sampled_from([None, "a,b,c", " a , b ,c"]),
        column=st.sampled_from([1, 2, 3, "b"]),
        newline=st.sampled_from(["\n", "\r\n"]),
        hazard=st.sampled_from([None, *_HAZARDS]),
        where=st.floats(0.0, 1.0),
        block_chars=st.sampled_from([cli.CSV_BLOCK_CHARS, 1, 7, 64]),
        trailing_newline=st.booleans(),
    )
    def test_same_as_row_loop(self, tmp_path, rows, header, column, newline,
                              hazard, where, block_chars, trailing_newline):
        if hazard is not None:
            rows.insert(int(where * len(rows)), _HAZARDS[hazard])
        lines = ([header] if header else []) + rows
        text = newline.join(lines) + (newline if trailing_newline else "")
        path = _write(tmp_path, "h.csv", text)
        with _row_loop_only():
            want = _ingest_outcome(path, column)
        with mock.patch.object(cli, "CSV_BLOCK_CHARS", block_chars):
            assert _ingest_outcome(path, column) == want

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("column", [1, 2, 3])
    @pytest.mark.parametrize("hazard", sorted(_HAZARDS))
    def test_hazard_after_the_first_value(self, tmp_path, hazard, column,
                                          newline):
        rows = ["a,b,c", "1,2,3", "4,5,6", _HAZARDS[hazard], "7,8,9"]
        path = _write(tmp_path, "z.csv", newline.join(rows) + newline)
        with _row_loop_only():
            want = _ingest_outcome(path, column)
        assert _ingest_outcome(path, column) == want

    @staticmethod
    def _spy(monkeypatch, name):
        """Record every return value of ``cli.<name>``."""
        real, returned = getattr(cli, name), []

        def spy(*args):
            returned.append(real(*args))
            return returned[-1]

        monkeypatch.setattr(cli, name, spy)
        return returned

    def test_plain_file_takes_the_bulk_path(self, tmp_path, monkeypatch):
        rest = self._spy(monkeypatch, "_read_plain_rest")
        path = _write(
            tmp_path, "p.csv", "index,price\r\n1,100.5\r\n\r\n2,-1e-3\r\n3,7\r\n"
        )
        assert ingest_csv(path, "price").values.tolist() == [100.5, -1e-3, 7.0]
        assert len(rest) == 1
        assert np.concatenate(rest[0]).tolist() == [-1e-3, 7.0]

    @pytest.mark.parametrize("blank", ["  ", "\t", " ,\t,", ",,"])
    def test_blank_looking_rows_take_the_bulk_path(self, tmp_path, monkeypatch,
                                                   blank):
        # no cell of these rows is a number, and the row loop skips them
        rest = self._spy(monkeypatch, "_read_plain_rest")
        path = _write(
            tmp_path, "w.csv",
            f"index,price\r\n1,100.5\r\n{blank}\r\n2,-1e-3\r\n3,7\r\n{blank}\r\n",
        )
        got = ingest_csv(path, "price").values
        assert len(rest) == 1 and rest[0] is not None
        assert np.concatenate(rest[0]).tolist() == [-1e-3, 7.0]
        with _row_loop_only():
            assert ingest_csv(path, "price").values.tobytes() == got.tobytes()
        assert got.tolist() == [100.5, -1e-3, 7.0]

    def test_file_larger_than_one_block(self, tmp_path, monkeypatch):
        x = np.random.default_rng(3).standard_normal(60_000) * 1e3
        head = "index,value\r\n1,%r\r\n" % x[0].item()
        body = "".join("%d,%r\r\n" % (i, v) for i, v in enumerate(x[1:].tolist(), 2))
        assert len(body) > cli.CSV_BLOCK_CHARS
        # the first block's cut falls inside a line
        assert body[cli.CSV_BLOCK_CHARS - 1] != "\n"
        path = _write(tmp_path, "big.csv", head + body)
        blocks = self._spy(monkeypatch, "_read_plain_block")
        got = ingest_csv(path, 2).values
        assert len(blocks) == 2 and blocks[1] is not None
        assert got.tobytes() == x.tobytes()
        with _row_loop_only():
            assert ingest_csv(path, 2).values.tobytes() == x.tobytes()

    @pytest.mark.parametrize("hazard", ["inf", "1e999", "1,2,3\r4,5"])
    def test_hazard_only_in_a_later_block(self, tmp_path, monkeypatch, hazard):
        x = np.random.default_rng(4).standard_normal(60_000)
        lines = ["v"] + [repr(v) for v in x.tolist()]
        lines.insert(len(lines) - 5, hazard)
        path = _write(tmp_path, "late.csv", "\n".join(lines) + "\n")
        blocks = self._spy(monkeypatch, "_read_plain_block")
        got = _ingest_outcome(path, 1)
        assert blocks[0] is not None and blocks[-1] is None
        with _row_loop_only():
            assert got == _ingest_outcome(path, 1)

    @pytest.mark.parametrize("cell", ["1_0", " 2.5 ", "٣", "1e-320"])
    def test_float_only_cell_in_a_later_block(self, tmp_path, monkeypatch, cell):
        # float() reads these cells, and so the bulk reader does too
        x = np.random.default_rng(4).standard_normal(60_000)
        lines = ["v"] + [repr(v) for v in x.tolist()]
        lines.insert(len(lines) - 5, cell)
        path = _write(tmp_path, "late.csv", "\n".join(lines) + "\n")
        blocks = self._spy(monkeypatch, "_read_plain_block")
        got = _ingest_outcome(path, 1)
        assert len(blocks) == 2 and all(b is not None for b in blocks)
        want = np.insert(x, x.size - 5, float(cell))
        assert got == want.tobytes()
        with _row_loop_only():
            assert _ingest_outcome(path, 1) == got

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_timestamp_column_takes_the_bulk_path(self, tmp_path, monkeypatch,
                                                  newline):
        x = np.random.default_rng(5).standard_normal(60_000) * 50 + 100
        stamps = np.datetime64("2024-01-01T00:00:00") + np.arange(x.size)
        text = "time,value" + newline + "".join(
            f"{t},{v!r}{newline}" for t, v in zip(stamps.astype(str), x.tolist())
        )
        path = _write(tmp_path, "t.csv", text)
        assert len(text) > 2 * cli.CSV_BLOCK_CHARS
        blocks = self._spy(monkeypatch, "_read_plain_block")
        got = _ingest_outcome(path, "value")
        assert len(blocks) == 3 and all(b is not None for b in blocks)
        assert got == x.tobytes()
        with _row_loop_only():
            assert _ingest_outcome(path, "value") == got

    def test_oversized_blank_line_in_its_own_block(self, tmp_path, monkeypatch):
        # the row loop's csv reader rejects a blank line over the field
        # limit, so a block holding only that line must be refused too
        monkeypatch.setattr(cli, "CSV_BLOCK_CHARS", 200_000)
        text = "v\n" + "1.25\n" * 20_000 + " " * 131_073 + "\n"
        path = _write(tmp_path, "w.csv", text)
        blocks = self._spy(monkeypatch, "_read_plain_block")
        got = _ingest_outcome(path, 1)
        assert len(blocks) == 2 and blocks[0] is not None and blocks[1] is None
        assert got == (
            "ParseError",
            "unreadable CSV row: field larger than field limit (131072)",
            20_002,
        )
        with _row_loop_only():
            assert _ingest_outcome(path, 1) == got

    def test_undecodable_byte_past_the_first_chunk(self, tmp_path, monkeypatch):
        # the row loop decodes the first 8 KiB; the bulk reader meets the
        # bad byte, refuses, and the row loop reports it
        path = tmp_path / "ff.csv"
        path.write_bytes(b"1.0\n" * 3000 + b"\xff\n2.0\n")
        rest = self._spy(monkeypatch, "_read_plain_rest")
        blocks = self._spy(monkeypatch, "_read_plain_block")
        got = _ingest_outcome(str(path), 1)
        assert rest == [None] and blocks == []
        assert got[0] == "ParseError" and got[1].startswith("file is not valid text")
        with _row_loop_only():
            assert _ingest_outcome(str(path), 1) == got

    def test_blank_block_is_skipped_without_warning(self, tmp_path, monkeypatch):
        path = _write(tmp_path, "b.csv", "v\r\n1\r\n\r\n\r\n2\r\n\r\n")
        monkeypatch.setattr(cli, "CSV_BLOCK_CHARS", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ingest_csv(path).values.tolist() == [1.0, 2.0]


class TestParsePreprocessSpec:
    def test_full_form(self):
        steps = parse_preprocess_spec("log-returns,difference:2,aggregate:60:median")
        assert steps == (
            ("log-returns",),
            ("difference", 2),
            ("aggregate", 60, "median"),
        )

    def test_aliases_and_default_reducer(self):
        steps = parse_preprocess_spec("diff:1,agg:10")
        assert steps == (("difference", 1), ("aggregate", 10, "mean"))

    def test_empty(self):
        assert parse_preprocess_spec("") == ()

    def test_rejects_bad_steps(self):
        for bad in ("smooth:3", "difference", "diff:0", "agg:0", "agg:5:max",
                    "log-returns:2", "diff:x", "agg:y"):
            with pytest.raises(ConfigError):
                parse_preprocess_spec(bad)


class TestPreprocess:
    def test_difference_semantics(self):
        ts = preprocess(_ts([j * j for j in range(1, 10)]),
                        (("difference", 1),))
        assert ts.values.tolist() == [3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0]
        assert ts.preprocessing == ("difference:1",)

    def test_aggregate_mean_semantics(self):
        ts = preprocess(_ts([1, 3, 5, 7] * 4), (("aggregate", 2, "mean"),))
        assert ts.values.tolist() == [2.0, 6.0] * 4

    def test_aggregate_drops_remainder(self):
        ts = preprocess(_ts(list(range(17))), (("aggregate", 2, "mean"),))
        assert ts.values.size == 8

    def test_log_returns_semantics(self):
        x = [math.e**j for j in range(9)]
        ts = preprocess(_ts(x), (("log-returns",),))
        assert np.allclose(ts.values, 1.0)

    def test_log_returns_requires_positive(self):
        with pytest.raises(NonPositiveForLog):
            preprocess(_ts([1.0, -2.0] + [1.0] * 10), (("log-returns",),))

    def test_too_short_result_rejected(self):
        with pytest.raises(TooShortAfterPreprocess):
            preprocess(_ts([1, 4, 9, 16]), (("difference", 1),))
        with pytest.raises(TooShortAfterPreprocess):
            preprocess(_ts([1, 3, 5, 7]), (("aggregate", 2, "mean"),))

    @pytest.mark.parametrize(
        "values, step, message",
        [
            ([2.0], ("log-returns",), "log-returns needs >= 2 points"),
            ([1.0, 2.0, 3.0], ("difference", 3),
             "difference order 3 leaves no data from 3 points"),
            ([1.0, 2.0, 3.0], ("aggregate", 4, "mean"),
             "aggregate block 4 leaves no data from 3 points"),
        ],
        ids=["log-returns", "difference", "aggregate"],
    )
    def test_step_that_leaves_no_data(self, values, step, message):
        with pytest.raises(TooShortAfterPreprocess) as exc:
            preprocess(_ts(values), (step,))
        assert str(exc.value) == message

    def test_labels_name_each_step(self):
        steps = parse_preprocess_spec("log-returns,diff:2,agg:3,agg:2:median")
        ts = preprocess(_ts(np.exp(np.arange(1.0, 60.0) ** 0.5)), steps)
        assert ts.preprocessing == (
            "log-returns", "difference:2", "aggregate:3:mean", "aggregate:2:median"
        )

    def test_length_algebra(self):
        # after difference(k) then aggregate(b): floor((N - k) / b) points
        rng = np.random.default_rng(0)
        for n, k, b in ((100, 1, 3), (57, 2, 5), (64, 3, 2), (200, 4, 7)):
            ts = preprocess(
                _ts(rng.standard_normal(n)),
                (("difference", k), ("aggregate", b, "mean")),
            )
            assert ts.values.size == (n - k) // b


class TestDetectCommand:
    @pytest.fixture()
    def fixture_csv(self, tmp_path):
        path = str(tmp_path / "series.csv")
        rc = main(["simulate", "stable", "--alpha", "1.8", "--gamma2", "3",
                   "--n", "400", "--cp", "200", "--seed", "7", "--output", path])
        assert rc == 0
        return path

    def test_detect_json_contract(self, fixture_csv, capsys):
        rc = main(["detect", "--input", fixture_csv, "--column", "value",
                   "--method", "icss", "--estimator", "bmid"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"change_point", "method", "estimator", "reversed_applied",
                "constant_prefix_fallback", "statistic_at_cp", "n"} <= set(payload)
        assert 2 <= payload["change_point"] <= 399

    def test_detect_output_file_and_trace(self, fixture_csv, tmp_path):
        out = tmp_path / "result.json"
        trace = tmp_path / "trace.csv"
        rc = main(["detect", "--input", fixture_csv, "--column", "2",
                   "--output", str(out), "--trace-csv", str(trace)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "icss"
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "css", "statistic"]
        assert len(rows) == 401
        # 17-digit round-trip
        assert float(rows[1][1]) >= 0.0

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_failed_trace_write_leaves_no_result(self, fixture_csv, tmp_path,
                                                 to_file, capsys):
        out = tmp_path / "out.json"
        argv = ["detect", "--input", fixture_csv, "--column", "2",
                "--trace-csv", str(tmp_path / "missing" / "t.csv")]
        rc = main(argv + (["--output", str(out)] if to_file else []))
        _assert_error_contract(rc, capsys, "FileNotFound")
        assert not out.exists()

    def test_classical_orientation_off(self, fixture_csv, capsys):
        rc = main(["detect", "--input", fixture_csv, "--column", "value",
                   "--estimator", "classical", "--orientation", "off"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reversed_applied"] is False

    def test_preprocess_flag(self, fixture_csv, capsys):
        rc = main(["detect", "--input", fixture_csv, "--column", "value",
                   "--preprocess", "agg:2:mean"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 200
        assert payload["preprocessing"] == ["aggregate:2:mean"]

    def test_missing_file_error_contract(self, capsys):
        rc = main(["detect", "--input", "no-such-file.csv"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFound"

    @pytest.mark.parametrize(
        "flags, error, message",
        [
            (["--preprocess", "bogus"], "ConfigError",
             "unknown preprocessing step 'bogus'"),
            (["--bmid-c", "0"], "InvalidParameter",
             "BMID constant c must be positive, got 0.0"),
            (["--estimator", "qcv", "--qcv-a", "0.9", "--qcv-b", "0.1"],
             "InvalidParameter",
             "QCV bounds must satisfy 0 < a < b < 1, got a=0.9, b=0.1"),
            (["--head-len", "0"], "InvalidParameter", "head_len must be >= 1"),
            (["--prefix-threshold", "nan"], "InvalidParameter",
             "threshold must be in [0, 1], got nan"),
            (["--column", "0"], "ConfigError", "column index must be >= 1, got 0"),
            # how argv carries a name whose bytes are not UTF-8
            (["--column", "temp\udce9"], "ConfigError",
             "--column name 'temp\\udce9' is not UTF-8 text"),
        ],
        ids=["preprocess", "bmid-c", "qcv-bounds", "head-len", "prefix-threshold",
             "column", "column-name"],
    )
    def test_bad_option_refused_before_reading(self, tmp_path, flags, error,
                                               message, capsys):
        # the input does not exist, so a check that came after opening it
        # would report FileNotFound
        rc = main(["detect", "--input", str(tmp_path / "missing.csv"), *flags])
        assert _assert_error_contract(rc, capsys, error) == message

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--estimator", "classical", "--bmid-c", "0"],
             "detect --estimator classical does not read --bmid-c"),
            (["--estimator", "classical", "--qcv-a", "0.2", "--qcv-b", "0.8"],
             "detect --estimator classical does not read --qcv-a, --qcv-b"),
            (["--estimator", "qcv", "--bmid-c", "9", "--qcv-a", "0.2"],
             "detect --estimator qcv does not read --bmid-c"),
            (["--estimator", "bmid", "--qcv-a", "0.2"],
             "detect --estimator bmid does not read --qcv-a"),
            (["--qcv-b", "0.8"], "detect --estimator bmid does not read --qcv-b"),
        ],
        ids=["classical-c", "classical-ab", "qcv-c", "bmid-a", "default-b"],
    )
    def test_unread_estimator_constant_refused(self, tmp_path, flags, message,
                                               capsys):
        # another estimator's constant is refused, before the input is read
        rc = main(["detect", "--input", str(tmp_path / "missing.csv"), *flags])
        assert _assert_error_contract(rc, capsys, "ConfigError") == message

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--orientation", "off", "--head-len", "50"],
             "detect --estimator bmid --orientation off does not read --head-len"),
            (["--estimator", "classical", "--prefix-threshold", "0.1"],
             "detect --estimator classical does not read --prefix-threshold"),
            (["--estimator", "qcv", "--orientation", "off", "--head-len", "3",
              "--prefix-threshold", "0.1"],
             "detect --estimator qcv --orientation off does not read "
             "--head-len, --prefix-threshold"),
            (["--estimator", "classical", "--orientation", "off", "--bmid-c", "1",
              "--head-len", "3"],
             "detect --estimator classical --orientation off does not read "
             "--bmid-c, --head-len"),
            # an invalid value the run would not read is refused as unread
            (["--orientation", "off", "--head-len", "0"],
             "detect --estimator bmid --orientation off does not read --head-len"),
        ],
        ids=["off-head-len", "classical-threshold", "qcv-off-both",
             "classical-off-c-and-head-len", "off-invalid-head-len"],
    )
    def test_unread_orientation_option_refused(self, tmp_path, flags, message,
                                               capsys):
        # the orientation options are read only where the orientation test
        # runs: --orientation on, or auto with a robust estimator
        rc = main(["detect", "--input", str(tmp_path / "missing.csv"), *flags])
        assert _assert_error_contract(rc, capsys, "ConfigError") == message

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            ("orientation = off\nhead-len = 50\n", [],
             "detect --estimator bmid --orientation off does not read --head-len"),
            ("prefix-threshold = 0.1\n", ["--estimator", "classical"],
             "detect --estimator classical does not read --prefix-threshold"),
        ],
        ids=["off-head-len", "classical-threshold"],
    )
    def test_unread_orientation_option_from_config_refused(
        self, tmp_path, config, flags, message, capsys
    ):
        cfg = _write(tmp_path, "detect.cfg", config)
        rc = main(["detect", "--input", str(FIXTURES / "stable_up.csv"),
                   "--column", "2", "--config", cfg, *flags])
        assert _assert_error_contract(rc, capsys, "ConfigError") == message

    @pytest.mark.parametrize(
        "flags, spec, orientation",
        [
            (["--orientation", "on", "--estimator", "classical"],
             ScaleEstimatorSpec.classical(), "on"),
            ([], ScaleEstimatorSpec.bmid(), "auto"),
        ],
        ids=["classical-on", "bmid-auto"],
    )
    def test_read_orientation_option_accepted(self, flags, spec, orientation,
                                              capsys):
        path = str(FIXTURES / "stable_up.csv")
        rc = main(["detect", "--input", path, "--column", "2", "--head-len", "7",
                   "--prefix-threshold", "0.1", *flags])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        res = detect_oriented(
            orient(ingest_csv(path, 2).values, spec, orientation=orientation,
                   head_len=7, threshold=0.1),
            "icss",
        )
        assert (payload["change_point"], payload["statistic_at_cp"]) == (
            res.change_point, res.statistic_at_cp)
        assert payload["reversed_applied"] is res.reversed_applied
        assert payload["constant_prefix_fallback"] is res.constant_prefix_fallback

    @pytest.mark.parametrize(
        "flags, described",
        [
            ([], {"kind": "bmid", "location": "median", "c": 9.0}),
            (["--bmid-c", "4.5"], {"kind": "bmid", "location": "median", "c": 4.5}),
            (["--estimator", "qcv", "--qcv-b", "0.8"],
             {"kind": "qcv", "location": "median", "a": 0.1, "b": 0.8}),
            (["--estimator", "classical"], {"kind": "classical", "location": "mean"}),
        ],
        ids=["bmid-default", "bmid-c", "qcv-b", "classical"],
    )
    def test_estimator_constants_described(self, flags, described, capsys):
        # a constant left unset takes the spec's default
        rc = main(["detect", "--input", str(FIXTURES / "stable_up.csv"),
                   "--column", "2", *flags])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["estimator"] == described

    @pytest.mark.parametrize("c", ["0.5", "1"])
    def test_empty_bmid_weights_are_degenerate_prefixes(self, tmp_path, c, capsys):
        # with c <= 1 a prefix such as 0, 0, 2, 2 has a positive MAD and no
        # point with |u| < 1; the scan substitutes variance 0 there, as for
        # a zero MAD, so the trace stays finite and the detection runs
        cells = [0, 0, 2, 2, 2, 0, 4, 0, 2, 6, 2, 0, 0, 2, 2, 4, 2, 0, 0, 2] * 3
        path = _write(tmp_path, "ties.csv", "".join(f"{v}\n" for v in cells))
        trace = tmp_path / "trace.csv"
        rc = main(["detect", "--input", path, "--bmid-c", c,
                   "--trace-csv", str(trace)])
        assert rc == 0, capsys.readouterr().err
        assert 2 <= json.loads(capsys.readouterr().out)["change_point"] <= 59
        with open(trace, newline="") as fh:
            assert all(math.isfinite(float(row[1])) for row in list(csv.reader(fh))[1:])

    def test_empty_step_list_still_preprocesses(self, tmp_path, capsys):
        # "," parses to no steps, and preprocess still asks for 8 points;
        # without --preprocess the 5 rows go to the classical detector
        path = _write(tmp_path, "five.csv", "1\n5\n2\n8\n3\n")
        argv = ["detect", "--input", path, "--estimator", "classical"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 5
        rc = main(argv + ["--preprocess", ","])
        _assert_error_contract(rc, capsys, "TooShortAfterPreprocess")

    def test_byte_order_mark_keeps_the_first_value(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff".encode() + b"".join(
            b"%d\n" % (v % 7 - 3) for v in range(40)
        ))
        rc = main(["detect", "--input", str(path), "--estimator", "classical"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n"] == 40

    @pytest.mark.parametrize("step", ["diff:x", "agg:y"])
    def test_non_integer_preprocess_argument_contract(self, fixture_csv, step, capsys):
        rc = main(["detect", "--input", fixture_csv, "--preprocess", step])
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    def test_directory_input_contract(self, tmp_path, capsys):
        rc = main(["detect", "--input", str(tmp_path)])
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "IsADirectoryError"

    def test_parse_error_contract(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.csv", "1.0\n2.0\noops\n")
        rc = main(["detect", "--input", path])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["line"] == 3

    def test_round_trip_detection_band(self, tmp_path, capsys):
        # simulate -> detect recovers the change point within the MAE band
        # of the matching benchmark grid point
        path = str(tmp_path / "mix.csv")
        main(["simulate", "mixture", "--omega2", "5", "--nu", "25", "--p", "0.05",
              "--n", "1000", "--cp", "500", "--seed", "3", "--output", path])
        rc = main(["detect", "--input", path, "--column", "value",
                   "--method", "icss", "--estimator", "qcv"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["change_point"] - 499) <= 50


    def test_subnormal_mad_is_quiet(self, tmp_path, capsys):
        # prefixes of subnormals next to values of order 1 have a MAD near
        # the underflow limit, so |u| overflows to inf: outside the weights
        cells = ["5e-324", "1e-323", "5e-324", "1.0", "2.0", "-1.0", "3.0",
                 "0.5", "1e-323"]
        path = _write(tmp_path, "sub.csv", "\n".join(cells) + "\n")
        trace_path = tmp_path / "trace.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["detect", "--input", path, "--orientation", "off",
                       "--trace-csv", str(trace_path)])
        assert rc == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        got = np.array([float(r[1]) for r in rows])
        want = naive_css([float(c) for c in cells], ScaleEstimatorSpec.bmid()).values
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("estimator, orientation", [
        ("classical", "auto"), ("classical", "off"), ("classical", "on"),
        ("bmid", "auto"), ("bmid", "off"), ("qcv", "auto"), ("qcv", "off"),
    ])
    def test_overflowing_squares_contract(self, estimator, orientation,
                                          tmp_path, capsys):
        # squares of order 1e400 overflow float64: one NonFiniteTrace line
        # and no numpy warning on the way
        x = np.random.default_rng(5).standard_normal(50) * 1e200
        path = _write(tmp_path, "big.csv", "\n".join(map(repr, x.tolist())) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["detect", "--input", path, "--estimator", estimator,
                       "--orientation", orientation])
        assert rc == 2
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "NonFiniteTrace"


    @pytest.mark.parametrize("estimator", ["classical", "bmid", "qcv"])
    def test_overflowing_ols_statistic_contract(self, estimator, tmp_path,
                                                capsys):
        # the trace (order 1e302) is finite; the OLS statistic overflows
        x = np.random.default_rng(5).standard_normal(50) * 1e150
        path = _write(tmp_path, "big.csv", "\n".join(map(repr, x.tolist())) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["detect", "--input", path, "--estimator", estimator,
                       "--method", "ols"])
        assert rc == 2
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "NonFiniteTrace"

    @pytest.mark.parametrize("estimator", ["bmid", "qcv"])
    def test_overflowing_icss_statistic_contract(self, estimator, tmp_path,
                                                 capsys):
        # the robust C_N is about 1e-318 and C_2 = 2e20: C_n / C_N overflows
        path = _write(tmp_path, "tiny.csv", "1e10\n1e10\n" + "1e-160\n" * 98)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["detect", "--input", path, "--estimator", estimator,
                       "--orientation", "off"])
        assert rc == 2
        assert caught == []
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "NonFiniteTrace"

    @pytest.mark.parametrize("values, step", [
        ([1.7e308, -1.7e308] * 6, "difference:1"),
        ([1e300, 1e-300] * 6, "log-returns"),
    ])
    def test_overflowing_preprocess_contract(self, values, step, tmp_path,
                                             capsys):
        path = _write(tmp_path, "ovf.csv", "\n".join(map(repr, values)) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["detect", "--input", path, "--preprocess", step])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "NonFiniteSample"


class TestDetectScanCount:
    """``--trace-csv`` writes the trace the detector scanned; it costs no
    extra robust scan.  Either orientation builds one full trace, with its
    N - 1 prefix estimates, after the strided orientation vote's
    ceil((N - 3) / ORIENT_STRIDE) + 1."""

    def _detect(self, name, tmp_path):
        trace_path = tmp_path / "trace.csv"
        rc = main(["detect", "--input", str(FIXTURES / name), "--column", "2",
                   "--trace-csv", str(trace_path)])
        assert rc == 0
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return rows

    @staticmethod
    def _one_scan(rows):
        n = len(rows)
        return (n - 1) + math.ceil((n - 3) / ORIENT_STRIDE) + 1

    def test_reversed_detection_scans_once(self, prefix_estimates, tmp_path, capsys):
        rows = self._detect("stable_up.csv", tmp_path)
        assert json.loads(capsys.readouterr().out)["reversed_applied"] is True
        assert prefix_estimates == {"bmid": self._one_scan(rows)}

    def test_forward_detection_scans_once(self, prefix_estimates, tmp_path, capsys):
        rows = self._detect("stable_down.csv", tmp_path)
        assert json.loads(capsys.readouterr().out)["reversed_applied"] is False
        assert prefix_estimates == {"bmid": self._one_scan(rows)}

    def test_trace_rows_are_the_oriented_scan(self, tmp_path, capsys):
        rows = self._detect("stable_up.csv", tmp_path)
        values = ingest_csv(str(FIXTURES / "stable_up.csv"), 2).values
        trace = robust_css(reverse_sample(values), ScaleEstimatorSpec.bmid())
        stat = icss_detect(trace).statistic_trace
        assert [int(r[0]) for r in rows] == list(range(1, values.size + 1))
        assert np.array_equal([float(r[1]) for r in rows], trace.values)
        assert np.array_equal([float(r[2]) for r in rows], stat)


class TestTraceCsvBytes:
    """The ``--trace-csv`` file, byte for byte: ``csv.writer`` rows of the
    scanned trace and statistic as ``.17g``, an empty cell where the
    statistic is NaN."""

    @staticmethod
    def _reference(result) -> bytes:
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(["n", "css", "statistic"])
        rows = zip(result.trace.values, result.statistic_trace)
        for i, (cv, sv) in enumerate(rows, 1):
            w.writerow([
                i,
                format(float(cv), ".17g"),
                "" if math.isnan(sv) else format(float(sv), ".17g"),
            ])
        return buf.getvalue().encode()

    @pytest.mark.parametrize("block_rows", [None, 7])
    @pytest.mark.parametrize("method", ["icss", "ols"])
    @pytest.mark.parametrize(
        "name, reversed_applied",
        [("stable_up.csv", True), ("stable_down.csv", False)],
    )
    def test_trace_file_bytes(self, name, reversed_applied, method, block_rows,
                              tmp_path, capsys, monkeypatch):
        if block_rows is not None:  # rows straddle many blocks
            monkeypatch.setattr(cli, "TRACE_BLOCK_ROWS", block_rows)
        path = str(FIXTURES / name)
        trace_path = tmp_path / "trace.csv"
        rc = main(["detect", "--input", path, "--column", "2",
                   "--method", method, "--trace-csv", str(trace_path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["reversed_applied"] is reversed_applied
        res = detect_oriented(orient(ingest_csv(path, 2).values), method)
        want = self._reference(res)
        if method == "ols":
            assert b",\r\n" in want  # the statistic is undefined at the ends
        assert trace_path.read_bytes() == want

    EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]

    @pytest.mark.parametrize("block_rows, n", [
        (cli.TRACE_BLOCK_ROWS, 2 * cli.TRACE_BLOCK_ROWS - 1),
        (cli.TRACE_BLOCK_ROWS, 2 * cli.TRACE_BLOCK_ROWS),
        (cli.TRACE_BLOCK_ROWS, 2 * cli.TRACE_BLOCK_ROWS + 1),
        (1, 4), (1, 5), (1, 6),
        (7, 13), (7, 14), (7, 15),
    ])
    def test_edge_values_at_block_edges(self, block_rows, n, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "TRACE_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(n)
        css = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        stat = rng.standard_normal(n)
        css[: len(self.EDGE_VALUES)] = self.EDGE_VALUES
        stat[-len(self.EDGE_VALUES) :] = self.EDGE_VALUES
        rows = np.arange(n)
        stat[(rows % block_rows == 0) | (rows % block_rows == block_rows - 1)] = np.nan
        result = DetectionResult(
            change_point=2,
            method="ols",
            statistic_trace=stat,
            statistic_at_cp=float(stat[1]),
            oriented=OrientedTrace(CssTrace(css, ScaleEstimatorSpec.classical(), n)),
        )
        path = tmp_path / "trace.csv"
        cli._write_trace_csv(str(path), result)
        assert path.read_bytes() == self._reference(result)


class TestDetectMatchesLibrary:
    """``scaleshift detect`` reports what the library pipeline returns for
    the same estimator, method and orientation."""

    SPECS = {
        "classical": ScaleEstimatorSpec.classical(),
        "bmid": ScaleEstimatorSpec.bmid(),
        "qcv": ScaleEstimatorSpec.qcv(),
    }

    @pytest.mark.parametrize("method", ["icss", "ols"])
    @pytest.mark.parametrize("orientation", ["auto", "on", "off"])
    @pytest.mark.parametrize("estimator", ["classical", "bmid", "qcv"])
    @pytest.mark.parametrize("name", ["stable_up.csv", "stable_down.csv"])
    def test_cli_json_equals_library(self, name, estimator, orientation, method, capsys):
        path = str(FIXTURES / name)
        rc = main(["detect", "--input", path, "--column", "2",
                   "--estimator", estimator, "--method", method,
                   "--orientation", orientation])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        oriented = orient(
            ingest_csv(path, 2).values, self.SPECS[estimator],
            orientation=orientation,
        )
        res = detect_oriented(oriented, method)
        assert payload["change_point"] == res.change_point
        assert payload["reversed_applied"] is res.reversed_applied
        assert payload["constant_prefix_fallback"] is res.constant_prefix_fallback
        assert payload["statistic_at_cp"] == res.statistic_at_cp


class TestSimulateCommand:
    def test_deterministic_fixture(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["simulate", "stable", "--alpha", "1.9", "--gamma2", "3",
                "--n", "50", "--cp", "25", "--seed", "7"]
        assert main(args + ["--output", p1]) == 0
        assert main(args + ["--output", p2]) == 0
        assert open(p1).read() == open(p2).read()

    def test_fixture_schema(self, tmp_path):
        path = str(tmp_path / "a.csv")
        main(["simulate", "mixture", "--omega2", "2", "--nu", "6", "--p", "0.1",
              "--n", "40", "--cp", "20", "--seed", "1", "--output", path])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "value", "regime"]
        assert len(rows) == 41
        regimes = [r[2] for r in rows[1:]]
        assert regimes[:19] == ["1"] * 19 and regimes[19:] == ["2"] * 21
        # 17-significant-digit values round-trip
        float(rows[1][1])

    def test_env_var_seed(self, tmp_path, monkeypatch, capsys):
        args = ["simulate", "stable", "--alpha", "1.5", "--gamma2", "2",
                "--n", "20", "--cp", "10"]
        monkeypatch.setenv("SCALESHIFT_SEED", "99")
        main(args)
        from_env = capsys.readouterr().out
        monkeypatch.delenv("SCALESHIFT_SEED")
        main(args + ["--seed", "99"])
        explicit = capsys.readouterr().out
        assert from_env == explicit

    def test_stdout_mode(self, capsys):
        rc = main(["simulate", "stable", "--alpha", "1.5", "--gamma2", "2",
                   "--n", "12", "--cp", "6", "--seed", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,value,regime"
        assert len(lines) == 13

    def test_file_bytes(self, tmp_path, monkeypatch):
        series, cp = gen_mixture_series(
            MixtureSpec(omega2=5.0, nu=15.0, p=0.05, N=60, cp=25, seed=3)
        )
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(["index", "value", "regime"])
        w.writerows(
            (i, format(float(v), ".17g"), 1 if i < cp else 2)
            for i, v in enumerate(series, 1)
        )
        path = tmp_path / "a.csv"
        for block_rows in (cli.TRACE_BLOCK_ROWS, 1, 7):  # 1, 7: rows straddle blocks
            monkeypatch.setattr(cli, "TRACE_BLOCK_ROWS", block_rows)
            assert main(["simulate", "mixture", "--omega2", "5", "--nu", "15",
                         "--n", "60", "--cp", "25", "--seed", "3",
                         "--output", str(path)]) == 0
            assert path.read_bytes() == buf.getvalue().encode()

    def test_stdout_equals_file(self, tmp_path, capsys):
        path = str(tmp_path / "a.csv")
        args = ["simulate", "mixture", "--n", "30", "--cp", "15", "--seed", "4"]
        assert main(args) == 0
        assert main(args + ["--output", path]) == 0
        with open(path, newline="") as fh:
            assert fh.read() == capsys.readouterr().out


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        series = str(tmp_path / "s.csv")
        main(["simulate", "stable", "--alpha", "1.8", "--gamma2", "3",
              "--n", "100", "--cp", "50", "--seed", "2", "--output", series])
        cfg = _write(
            tmp_path,
            "run.cfg",
            "# detection defaults\nmethod = ols\nestimator = qcv\ncolumn = value\n",
        )
        rc = main(["detect", "--config", cfg, "--input", series, "--method", "icss"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "icss"          # flag beat config
        assert payload["estimator"]["kind"] == "qcv"  # config supplied

    def test_boolean_config_value(self, tmp_path, capsys):
        # a boolean-looking value is the option's argument, like any other
        series = str(FIXTURES / "stable_up.csv")
        for value in ("off", "on"):
            cfg = _write(tmp_path, "run.cfg", f"orientation = {value}\ncolumn = 2\n")
            assert main(["detect", "--config", cfg, "--input", series]) == 0
            from_config = capsys.readouterr().out
            assert main(["detect", "--input", series, "--orientation", value,
                         "--column", "2"]) == 0
            assert from_config == capsys.readouterr().out

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        series = str(FIXTURES / "stable_up.csv")
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbforientation = off\ncolumn = 2\n")
        assert main(["detect", "--config", str(cfg), "--input", series]) == 0
        from_config = capsys.readouterr().out
        assert main(["detect", "--input", series, "--orientation", "off",
                     "--column", "2"]) == 0
        assert from_config == capsys.readouterr().out

    def test_config_equals_form(self, tmp_path, capsys):
        series = str(FIXTURES / "stable_up.csv")
        cfg = _write(tmp_path, "run.cfg", "method = ols\ncolumn = 2\n")
        assert main(["detect", f"--config={cfg}", "--input", series]) == 0
        equals_form = capsys.readouterr().out
        assert json.loads(equals_form)["method"] == "ols"
        assert main(["detect", "--config", cfg, "--input", series]) == 0
        assert equals_form == capsys.readouterr().out

    @pytest.mark.parametrize("spelling", ["--conf", "--confi", "--con"])
    @pytest.mark.parametrize("joined", [False, True])
    def test_abbreviated_config_option_is_an_error(self, tmp_path, spelling,
                                                   joined, capsys):
        cfg = _write(tmp_path, "run.cfg", "method = ols\ncolumn = 2\n")
        flag = [f"{spelling}={cfg}"] if joined else [spelling, cfg]
        rc = main(["detect", *flag, "--input", str(FIXTURES / "stable_up.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["detect", "--input", "x.csv"], "meth"),
            (["simulate", "stable"], "a"),
            (["simulate", "stable"], "config"),
            (["bench", "mae", "--preset", "stable-desk"], "tri"),
        ],
    )
    def test_keys_must_name_an_option_exactly(self, tmp_path, argv, key, capsys):
        cfg = _write(tmp_path, "run.cfg", f"{key} = 1\n")
        rc = main(argv + ["--config", cfg])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and repr(key) in err["message"]

    def test_simulate_config_matches_flags(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.cfg", "alpha = 1.9\nn = 20\ncp = 10\n")
        assert main(["simulate", "stable", "--config", cfg, "--seed", "3"]) == 0
        from_config = capsys.readouterr().out
        assert main(["simulate", "stable", "--alpha", "1.9", "--n", "20",
                     "--cp", "10", "--seed", "3"]) == 0
        assert from_config == capsys.readouterr().out

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.cfg", "just a dangling line\n")
        rc = main(["detect", "--config", cfg, "--input", "whatever.csv"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_missing_config_file(self, capsys):
        rc = main(["detect", "--config", "nope.cfg", "--input", "x.csv"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_undecodable_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe=")
        rc = main(["detect", "--config", str(cfg),
                   "--input", str(FIXTURES / "stable_up.csv")])
        message = _assert_error_contract(rc, capsys, "ConfigError")
        assert str(cfg) in message


class TestConfigFlagOrder:
    """The config file's flags go right after the subcommand word, so an
    explicit flag wins wherever it stands, before or after the positional."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--seed", "5", "--config", "CFG", "stable"],
            ["simulate", "--config", "CFG", "--seed", "5", "stable"],
            ["simulate", "--config", "CFG", "stable", "--seed", "5"],
            ["--config", "CFG", "simulate", "stable", "--seed", "5"],
        ],
    )
    def test_explicit_flag_wins(self, tmp_path, argv, capsys):
        cfg = _write(tmp_path, "run.cfg", "seed = 3\nn = 30\ncp = 15\n")
        assert main([cfg if a == "CFG" else a for a in argv]) == 0
        from_config = capsys.readouterr().out
        assert main(["simulate", "stable", "--seed", "5", "--n", "30",
                     "--cp", "15"]) == 0
        assert from_config == capsys.readouterr().out


class TestUsageErrors:
    """argparse usage errors follow the error contract: ``main`` returns 2
    and writes one ConfigError JSON line to stderr."""

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["detect", "--input", "x.csv", "--method", "foo"], None),
            (["detect"], None),
            (["detect", "--input", "x.csv", "--head-len", "x"], None),
            (["no-such-command"], None),
            (["detect", "--input", "x.csv"], "a = 1\n"),
            (["detect", "--input", "x.csv", "--exact-naive"], None),
        ],
        ids=["bad-choice", "missing-input", "bad-int", "unknown-command",
             "unknown-config-key", "removed-exact-naive"],
    )
    def test_usage_error_contract(self, tmp_path, argv, config, capsys):
        if config is not None:
            argv = argv + ["--config", _write(tmp_path, "run.cfg", config)]
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and err["message"]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: scaleshift detect")


class TestBenchCommand:
    def test_explicit_mae_run_csv_schema(self, tmp_path):
        out = str(tmp_path / "mae.csv")
        rc = main(["bench", "mae", "--model", "stable", "--alpha", "2.0",
                   "--gamma2", "4.0", "--n", "60", "--cp", "30",
                   "--trials", "2", "--base-seed", "5", "--output-csv", out])
        assert rc == 0
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        for m in ("ICSS", "ICSS[BMID]", "ICSS[QCV]", "OLS", "OLS[BMID]", "OLS[QCV]"):
            assert f"mae_{m}" in header

    def test_preset_requires_known_name(self, capsys):
        rc = main(["bench", "mae", "--preset", "bogus"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


    def test_timing_run_json(self, tmp_path):
        out = str(tmp_path / "t.json")
        rc = main(["bench", "timing", "--model", "mixture", "--omega2", "5",
                   "--nu", "15", "--p", "0.05", "--trials", "2",
                   "--n-list", "20,40,80,120,200", "--output-json", out])
        assert rc == 0
        payload = json.loads(open(out).read())
        assert set(payload["exponents"]) == {
            "ICSS", "ICSS[BMID]", "ICSS[QCV]", "OLS", "OLS[BMID]", "OLS[QCV]"
        }

    def test_non_integer_n_list_contract(self, capsys):
        rc = main(["bench", "timing", "--model", "mixture", "--omega2", "5",
                   "--nu", "15", "--p", "0.05", "--n-list", "a,b"])
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    def test_model_required_without_preset(self, capsys):
        rc = main(["bench", "mae"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    _LABELS = ["ICSS", "ICSS[BMID]", "ICSS[QCV]", "OLS", "OLS[BMID]", "OLS[QCV]"]
    _ROBUST_LABELS = ["ICSS[BMID]", "ICSS[QCV]", "OLS[BMID]", "OLS[QCV]"]
    # name -> (grid points, sha256[:16] of their comma-joined grid-point
    # ids, trials, n_list, method labels)
    _PRESETS = {
        "stable-desk": (6, "bca67a323a688eb6", 50, (), _LABELS),
        "stable-full": (24, "8a006199474f6bf2", 100, (), _LABELS),
        "mixture-desk": (3, "e60ada834386ded7", 50, (), _LABELS),
        "mixture-full": (16, "703bb6c27bc4bf78", 100, (), _LABELS),
        "timing-desk": (
            1, "f8c0e4b3ad297018", 6, (100, 200, 400, 800, 1600, 3200, 5000),
            _ROBUST_LABELS,
        ),
        "timing-full": (
            1, "f8c0e4b3ad297018", 20,
            (40, 50, 60, 70, 100, 200, 250, 300, 350, 400, 450, 500, 550, 600,
             650, 700, 750, 800, 850, 900, 950, 1000, 1500, 2000, 5000),
            _ROBUST_LABELS,
        ),
    }

    def test_presets_build(self):
        for name, want in self._PRESETS.items():
            cfg = build_preset(name, 7)
            ids = ",".join(str(grid_point_id(spec)) for spec in cfg.grid)
            assert (
                len(cfg.grid),
                hashlib.sha256(ids.encode()).hexdigest()[:16],
                cfg.trials,
                cfg.n_list,
                [m.label for m in cfg.methods],
            ) == want, name
            assert cfg.base_seed == 7

    def test_unknown_preset_name(self):
        with pytest.raises(ConfigError, match="unknown preset 'nope'"):
            build_preset("nope", 0)

    def test_preset_choices_are_the_presets(self):
        _, commands = cli._build_parser()
        (action,) = (
            a for a in commands["bench"]._actions if a.dest == "preset"
        )
        assert sorted(action.choices) == sorted(self._PRESETS)

    def test_preset_summary_equals_its_csv(self, tmp_path, capsys):
        argv = ["bench", "mae", "--preset", "stable-desk", "--trials", "2"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        out = str(tmp_path / "mae.csv")
        assert main(argv + ["--output-csv", out]) == 0
        assert capsys.readouterr().out == ""
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # one line per (grid point, method), in grid order
        assert len(rows) == 6 and len(lines) == 6 * 6
        for i, line in enumerate(lines):
            row, method = rows[i // 6], self._LABELS[i % 6]
            head, _, tail = line.partition(": ")
            label, _, got_method = head.rpartition(" ")
            assert got_method == method
            params = dict(part.split("=") for part in label.split())
            assert params.keys() == {"model", "alpha", "gamma2", "N", "cp", "gamma1"}
            assert params.pop("model") == row["model"] == "stable"
            for key, value in params.items():
                assert float(value) == float(row[key])
            assert tail == (
                f"mae={row['mae_' + method]} failures={row['failures_' + method]}"
            )

    def test_mae_json_and_detections_csv(self, tmp_path, capsys):
        argv = ["bench", "mae", "--model", "mixture", "--omega2", "4",
                "--nu", "12", "--p", "0.05", "--n", "60", "--trials", "2",
                "--base-seed", "3"]
        out_json = str(tmp_path / "mae.json")
        assert main(argv + ["--output-json", out_json]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(open(out_json).read())
        assert payload["trials"] == 2 and payload["base_seed"] == 3
        assert [r["method"] for r in payload["rows"]] == self._LABELS
        out_det = str(tmp_path / "det.csv")
        assert main(argv + ["--detections-csv", out_det]) == 0
        # no table file asked for, so the summary is printed
        assert len(capsys.readouterr().out.splitlines()) == 6
        with open(out_det, newline="") as fh:
            det = list(csv.DictReader(fh))
        for r in payload["rows"]:
            mine = [d for d in det if d["method"] == r["method"]]
            failed = {f["trial"] for f in r["failures"]}
            assert [int(d["trial"]) for d in mine] == [
                t for t in range(2) if t not in failed
            ]
            assert [int(d["detection"]) for d in mine] == r["detections"]

    def test_timing_csv_and_stdout_exponents(self, tmp_path, capsys):
        argv = ["bench", "timing", "--model", "mixture", "--omega2", "5",
                "--nu", "15", "--p", "0.05", "--trials", "2",
                "--n-list", "20,40,80,120,200"]
        out = str(tmp_path / "t.csv")
        assert main(argv + ["--output-csv", out]) == 0
        assert capsys.readouterr().out == ""
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "method", "median_seconds", "ci_low", "ci_high"]
        assert len(rows) == 1 + 5 * 6
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.partition(": ")[0] for line in lines] == self._LABELS
        for line in lines:
            beta = line.partition(": ")[2]
            assert beta.startswith("beta=") and math.isfinite(float(beta[5:]))

    _MIXTURE = ["--model", "mixture", "--omega2", "5", "--nu", "15", "--p", "0.05"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["timing", *_MIXTURE, "--n-list", "20,40,80,160,320",
              "--detections-csv", "{tmp}/det.csv"],
             "bench timing with --model mixture does not read --detections-csv"),
            (["mae", "--preset", "stable-desk", "--model", "mixture",
              "--omega2", "7", "--n", "50", "--n-list", "1,2"],
             "bench mae with --preset stable-desk does not read "
             "--model, --omega2, --n, --n-list"),
            (["timing", "--preset", "timing-desk", "--n-list", "100,200,400",
              "--cp", "50"],
             "bench timing with --preset timing-desk does not read --cp, --n-list"),
            (["mae", "--model", "stable", "--alpha", "2", "--gamma2", "3",
              "--nu", "4"],
             "bench mae with --model stable does not read --nu"),
            (["mae", *_MIXTURE, "--gamma1", "1.0"],
             "bench mae with --model mixture does not read --gamma1"),
            (["mae", *_MIXTURE, "--n-list", "5,6"],
             "bench mae with --model mixture does not read --n-list"),
            (["timing", *_MIXTURE, "--n-list", "20,40,80,160,320", "--n", "50",
              "--cp", "7"],
             "bench timing with --model mixture does not read --n, --cp"),
            (["timing", "--model", "stable", "--alpha", "1.5", "--gamma2", "3",
              "--n-list", "20,40,80,160,320", "--cp", "7"],
             "bench timing with --model stable does not read --cp"),
            (["mae", "--preset", "stable-desk", "--n", "1000"],
             "bench mae with --preset stable-desk does not read --n"),
        ],
        ids=["detections-csv", "preset-model", "preset-n-list", "stable-nu",
             "mixture-gamma1", "mae-n-list", "timing-n-cp", "timing-cp",
             "preset-spec-default-n"],
    )
    def test_unread_flag_refused(self, argv, message, tmp_path, capsys):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        rc = main(["bench", *argv])
        assert _assert_error_contract(rc, capsys, "ConfigError") == message
        assert list(tmp_path.iterdir()) == []

    def test_unread_flag_from_config_refused(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("detections-csv = det.csv\n")
        rc = main(["bench", "timing", "--config", str(cfg), *self._MIXTURE,
                   "--n-list", "20,40,80,160,320"])
        message = _assert_error_contract(rc, capsys, "ConfigError")
        assert message.endswith("does not read --detections-csv")
        # 1000 is StableSpec's own N, and a preset still does not read it
        cfg.write_text("n = 1000\n")
        rc = main(["bench", "mae", "--config", str(cfg), "--preset", "stable-desk"])
        message = _assert_error_contract(rc, capsys, "ConfigError")
        assert message == "bench mae with --preset stable-desk does not read --n"

    def test_overflowing_trials_fail_quietly(self, tmp_path, capsys):
        # each series overflows past cp: every trial of every method is a
        # NonFiniteSample failure, and numpy warns of nothing
        out = tmp_path / "mae.json"
        rc = main(["bench", "mae", "--model", "stable", "--alpha", "1.5",
                   "--gamma2", "1e308", "--n", "50", "--trials", "2",
                   "--output-json", str(out)])
        assert rc == 0
        assert capsys.readouterr() == ("", "")
        for row in json.loads(out.read_text())["rows"]:
            assert row["detections"] == []
            assert row["failures"] == [
                {"trial": t, "error": "NonFiniteSample"} for t in (0, 1)
            ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--model", "stable", "--alpha", "1.5"],
             "stable bench needs --alpha and --gamma2"),
            (["--model", "mixture", "--omega2", "5", "--nu", "15"],
             "mixture bench needs --omega2, --nu and --p"),
        ],
        ids=["stable", "mixture"],
    )
    def test_model_flags_required(self, argv, message, capsys):
        rc = main(["bench", "mae", *argv])
        assert _assert_error_contract(rc, capsys, "ConfigError") == message


class TestNegativeSeedContract:
    """numpy refuses a negative seed; the CLI reports it as a usage error."""

    @pytest.mark.parametrize(
        "argv, env, error",
        [
            (["simulate", "stable", "--n", "20", "--seed", "-1"], None,
             "InvalidParameter"),
            (["simulate", "mixture", "--n", "20"], "-3", "InvalidParameter"),
            (["bench", "mae", "--model", "stable", "--alpha", "1.5",
              "--gamma2", "3", "--n", "50", "--trials", "1", "--base-seed", "-2"],
             None, "ConfigError"),
        ],
        ids=["simulate-flag", "simulate-env", "bench-flag"],
    )
    def test_negative_seed_contract(self, argv, env, error, monkeypatch, capsys):
        if env is None:
            monkeypatch.delenv("SCALESHIFT_SEED", raising=False)
        else:
            monkeypatch.setenv("SCALESHIFT_SEED", env)
        message = _assert_error_contract(main(argv), capsys, error)
        assert "seed must be >= 0" in message


class TestErrorBranchContracts:
    """Failures of the CLI's own checks, each reported by the error
    contract: exit 2, one JSON line on stderr and an empty stdout."""

    STABLE_UP = str(FIXTURES / "stable_up.csv")

    @pytest.mark.parametrize(
        "argv, env, error, message",
        [
            (["detect", "--input", STABLE_UP, "--preprocess", "agg"], None,
             "ConfigError", "aggregate needs a block size: 'agg'"),
            (["detect", "--input", STABLE_UP, "--column", "0"], None,
             "ConfigError", "column index must be >= 1, got 0"),
            (["simulate", "stable", "--n", "20"], "x",
             "ConfigError", "SCALESHIFT_SEED must be an integer, got 'x'"),
            (["detect", "--input", STABLE_UP, "--config"], None,
             "ConfigError", "--config needs a file path"),
            (["--config", "x.cfg"], None, "ConfigError", None),
            (["simulate", "stable", "--n", "3"], None,
             "InvalidParameter", "series length must be at least 4, got 3"),
            (["simulate", "mixture", "--omega2", "0"], None,
             "InvalidParameter", "omega2 must be positive, got 0.0"),
            (["simulate", "mixture", "--nu", "0"], None,
             "InvalidParameter", "nu must be positive, got 0.0"),
            (["simulate", "stable", "--gamma2", "inf", "--n", "20", "--cp", "10"],
             None, "InvalidGamma", "scale parameters must be finite"),
            (["simulate", "mixture", "--omega2", "inf"], None,
             "InvalidParameter", "omega2 must be finite, got inf"),
            (["bench", "mae", "--model", "stable", "--alpha", "1.5",
              "--gamma2", "inf", "--trials", "2"], None,
             "InvalidGamma", "scale parameters must be finite"),
            (["simulate", "stable", "--gamma2", "1e308", "--n", "20", "--cp", "10",
              "--seed", "1"], None,
             "NonFiniteSample", "simulated series holds NaN or infinite values"),
            (["simulate", "mixture", "--omega2", "1e308", "--nu", "1e308",
              "--p", "0.2", "--n", "20"], None,
             "NonFiniteSample", "simulated series holds NaN or infinite values"),
            (["simulate", "mixture", "--alpha", "7", "--gamma1", "-3", "--n", "10",
              "--seed", "1"], None,
             "ConfigError", "simulate mixture does not read --alpha, --gamma1"),
            (["simulate", "stable", "--omega2", "3", "--nu", "15", "--p", "0.05",
              "--n", "10"], None,
             "ConfigError", "simulate stable does not read --omega2, --nu, --p"),
            (["detect", "--input", STABLE_UP, "--config", "a.cfg",
              "--config", "b.cfg"], None,
             "ConfigError", "--config given more than once"),
            (["detect", "--config=a.cfg", "--input", STABLE_UP,
              "--config=b.cfg"], None,
             "ConfigError", "--config given more than once"),
        ],
        ids=["unsized-aggregate", "column-0", "seed-env", "trailing-config",
             "config-without-subcommand", "simulate-n-3", "omega2-0", "nu-0",
             "gamma2-inf", "omega2-inf", "bench-gamma2-inf", "gamma2-1e308",
             "omega2-1e308", "simulate-mixture-stable-flags",
             "simulate-stable-mixture-flags", "config-twice",
             "config-equals-twice"],
    )
    def test_contract(self, argv, env, error, message, monkeypatch, capsys):
        if env is None:
            monkeypatch.delenv("SCALESHIFT_SEED", raising=False)
        else:
            monkeypatch.setenv("SCALESHIFT_SEED", env)
        got = _assert_error_contract(main(argv), capsys, error)
        assert got == message if message is not None else got

    def test_unread_simulate_flag_from_config(self, tmp_path, capsys):
        # a flag from a config file is refused as the same flag on the line
        cfg = _write(tmp_path, "run.cfg", "omega2 = 3\n")
        got = _assert_error_contract(
            main(["simulate", "stable", "--config", cfg, "--n", "20"]),
            capsys, "ConfigError",
        )
        assert got == "simulate stable does not read --omega2"

    def test_overlong_unfinished_last_line(self, tmp_path, monkeypatch, capsys):
        # the last line is longer than a bulk block and the field size
        # limit: the bulk reader refuses its carry, and the row loop reads
        # the file again and reports the line
        path = _write(tmp_path, "long.csv", "v\n1\n" + "3" * 1_200_000)
        calls = []
        read_column = cli._read_column

        def spy(path, column, *, bulk):
            calls.append(bulk)
            return read_column(path, column, bulk=bulk)

        monkeypatch.setattr(cli, "_read_column", spy)
        rc = main(["detect", "--input", path])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert (err["error"], err["line"]) == ("ParseError", 3)
        assert calls == [True, False]


class TestHeadLenChecked:
    """``--head-len`` and ``--prefix-threshold`` are checked before any
    scan, whichever way the trace bends: stable_up's forward trace is
    convex, stable_down's concave."""

    @pytest.mark.parametrize("name", ["stable_up.csv", "stable_down.csv"])
    @pytest.mark.parametrize(
        "head_len, error",
        [("0", "InvalidParameter"), ("999", "InsufficientLength")],
    )
    def test_out_of_range(self, name, head_len, error, prefix_estimates, capsys):
        rc = main(["detect", "--input", str(FIXTURES / name), "--column", "2",
                   "--head-len", head_len])
        _assert_error_contract(rc, capsys, error)
        assert not prefix_estimates

    @pytest.mark.parametrize("name", ["stable_up.csv", "stable_down.csv"])
    @pytest.mark.parametrize("threshold", ["nan", "-1.0", "1.5"])
    def test_prefix_threshold_out_of_range(self, name, threshold, prefix_estimates,
                                           capsys):
        rc = main(["detect", "--input", str(FIXTURES / name), "--column", "2",
                   "--prefix-threshold", threshold])
        message = _assert_error_contract(rc, capsys, "InvalidParameter")
        assert message == f"threshold must be in [0, 1], got {float(threshold)}"
        assert not prefix_estimates


class TestLibraryDefaults:
    """The parser states no default of its own where the library has one."""

    def test_detect_options(self):
        parser, _ = cli._build_parser()
        args = parser.parse_args(["detect", "--input", "x.csv"])
        kw = orient.__kwdefaults__
        # the estimator constants are unset, and each spec supplies its own
        assert (args.bmid_c, args.qcv_a, args.qcv_b) == (None, None, None)
        for kind in ("classical", "bmid", "qcv"):
            args.estimator = kind
            assert cli._estimator_from_args(args) == getattr(ScaleEstimatorSpec, kind)()
        # the orientation options are unset, and orient supplies its own
        assert (args.orientation, args.head_len, args.prefix_threshold) == (
            kw["orientation"], None, None
        )

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "stable"],
         ["bench", "mae", "--model", "stable", "--alpha", "1.5", "--gamma2", "3",
          "--trials", "1"]],
    )
    def test_gamma1(self, argv, monkeypatch, capsys):
        # the spec built from unset flags has the spec's own defaults
        built = []
        model_spec = cli._model_spec

        def spy(*args, **fields):
            built.append(model_spec(*args, **fields))
            return built[-1]

        monkeypatch.setattr(cli, "_model_spec", spy)
        assert main(argv) == 0
        (spec,) = built
        default = StableSpec(spec.alpha, spec.gamma2)
        assert (spec.gamma1, spec.N, spec.cp) == (default.gamma1, default.N, default.cp)

    @pytest.mark.parametrize("model", ["stable", "mixture"])
    def test_simulate_fills_the_required_fields(self, model):
        cls, _, values = cli._MODELS[model]
        required = [
            f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
        ]
        assert list(values) == required

    _MODEL = ["bench", "mae", "--model", "mixture", "--omega2", "4", "--nu", "12",
              "--p", "0.05", "--n", "20"]

    def _trials(self, argv, tmp_path):
        out = tmp_path / "mae.json"
        assert main(argv + ["--output-json", str(out)]) == 0
        return json.loads(out.read_text())["trials"]

    def test_trials_default_and_override(self, tmp_path):
        cfg = BenchConfig(grid=(MixtureSpec(4.0, 12.0, 0.05),), methods=default_methods())
        assert self._trials(self._MODEL, tmp_path) == cfg.trials
        assert self._trials(self._MODEL + ["--trials", "3"], tmp_path) == 3
        preset = ["bench", "mae", "--preset", "mixture-desk", "--trials", "1"]
        assert self._trials(preset, tmp_path) == 1

    @pytest.mark.parametrize(
        "argv", [_MODEL, ["bench", "mae", "--preset", "stable-desk"]],
        ids=["explicit", "preset"],
    )
    def test_trials_checked_on_both_paths(self, argv, capsys):
        rc = main(argv + ["--trials", "0"])
        message = _assert_error_contract(rc, capsys, "ConfigError")
        assert message == "trials must be >= 1, got 0"


_RUN_MAIN = "import sys; from scaleshift.cli import main; sys.exit(main())"


def _cli_env(**extra):
    """This process's environment, with this package's source first on
    PYTHONPATH and ``extra`` set, for running the CLI in a subprocess."""
    env = dict(os.environ, **extra)
    src = str(Path(scaleshift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestLocaleIndependentText:
    """CSV inputs, config files and ``--column`` names are read as UTF-8,
    one leading byte-order mark skipped, whatever the locale's encoding."""

    # argv as bytes, so the name reaches the child as UTF-8 in any locale
    @pytest.mark.parametrize(
        "column", [b"2", "température".encode(), None],
        ids=["csv", "column-name", "config"],
    )
    def test_ascii_locale_reads_the_utf8_run(self, tmp_path, column):
        series = tmp_path / "bom.csv"
        rng = np.random.default_rng(24)
        values = np.repeat([1.0, 3.0], 60) * rng.standard_normal(120)
        rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(values.tolist()))
        series.write_bytes(("\ufeffjour,température\n" + rows).encode())
        argv = ["detect", "--input", str(series)]
        if column is None:
            cfg = tmp_path / "bom.cfg"
            cfg.write_bytes("\ufeff# relevé\ncolumn = 2\nestimator = qcv\n".encode())
            argv += ["--config", str(cfg)]
        else:
            argv += ["--column", column]
        runs = [
            subprocess.run([sys.executable, "-c", _RUN_MAIN, *argv],
                           capture_output=True, env=_cli_env(**locale), timeout=120)
            for locale in (
                {"PYTHONUTF8": "1"},
                {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
            )
        ]
        for run in runs:
            assert (run.returncode, run.stderr) == (0, b"")
        assert runs[0].stdout == runs[1].stdout
        assert json.loads(runs[0].stdout)["n"] == 120


class TestClosedStdout:
    """A reader that stops reading early ends the run with status 0 and an
    empty stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "stable", "--n", "200000"],
            ["bench", "mae", "--preset", "stable-desk", "--trials", "2"],
            pytest.param(
                ["detect", "--input", str(FIXTURES / "stable_up.csv"),
                 "--column", "2", "--trace-csv", "/dev/stdout"],
                marks=pytest.mark.skipif(
                    not os.path.exists("/dev/stdout"), reason="no /dev/stdout"
                ),
            ),
        ],
        ids=["simulate", "bench", "trace-csv"],
    )
    def test_reader_closes_after_one_line(self, argv):
        with subprocess.Popen(
            [sys.executable, "-c", _RUN_MAIN, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 0
        assert err == b""
