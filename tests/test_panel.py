import io
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from infoflow import TimeSeriesPanel, forward_difference, ingest_csv, write_csv
from infoflow.errors import (
    CsvFormatError,
    CsvParseError,
    DataError,
    InsufficientDataError,
    InvalidStrideError,
    UsageError,
    ValidationError,
)
from conftest import make_rng


def write_file(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_ingest_with_time_column(tmp_path):
    path = write_file(tmp_path, "t,x,y\n0.0,1.0,4.0\n0.5,2.0,3.0\n1.0,3.0,2.0\n")
    panel = ingest_csv(path, time_column="t")
    assert panel.labels == ("x", "y")
    assert panel.d == 2 and panel.n == 3
    assert panel.dt == pytest.approx(0.5, rel=1e-12)
    assert np.array_equal(panel.values, [[1.0, 2.0, 3.0], [4.0, 3.0, 2.0]])


def test_ingest_headerless_with_dt_override(tmp_path):
    path = write_file(tmp_path, "1,2\n3,4\n5,6\n")
    panel = ingest_csv(path, has_header=False, dt_override=0.01)
    assert panel.labels == ("c0", "c1")
    assert panel.dt == 0.01


def test_ingest_default_dt_is_one(tmp_path):
    path = write_file(tmp_path, "x,y\n1,2\n3,4\n")
    assert ingest_csv(path).dt == 1.0


def test_nan_cell_rejected_with_location(tmp_path):
    path = write_file(tmp_path, "x,y\n1.0,2.0\n1.5,nan\n2.0,3.0\n")
    with pytest.raises(ValidationError, match=r"row 3.*'y'"):
        ingest_csv(path)


def test_inf_cell_rejected(tmp_path):
    path = write_file(tmp_path, "x,y\n1.0,2.0\ninf,3.0\n")
    with pytest.raises(ValidationError):
        ingest_csv(path)


def test_non_numeric_cell_names_row_and_column(tmp_path):
    path = write_file(tmp_path, "x,y\n1.0,2.0\n1.5,oops\n")
    with pytest.raises(CsvParseError, match=r"'oops' at row 3, column 'y'"):
        ingest_csv(path)


def test_non_uniform_time_column_rejected(tmp_path):
    path = write_file(tmp_path, "t,x\n0.0,1\n1.0,2\n2.5,3\n")
    with pytest.raises(CsvFormatError, match="non-uniform"):
        ingest_csv(path, time_column="t")


def test_decreasing_time_column_rejected(tmp_path):
    path = write_file(tmp_path, "t,x\n0.0,1\n-1.0,2\n-2.0,3\n")
    with pytest.raises(CsvFormatError, match="increase"):
        ingest_csv(path, time_column="t")


def test_too_few_rows(tmp_path):
    path = write_file(tmp_path, "x,y\n1,2\n")
    with pytest.raises(InsufficientDataError):
        ingest_csv(path)


def test_ragged_row_rejected(tmp_path):
    path = write_file(tmp_path, "x,y\n1,2\n3\n")
    with pytest.raises(CsvFormatError, match="row 3"):
        ingest_csv(path)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        ingest_csv(tmp_path / "nope.csv")


LATIN1_FILES = {"header": b"a,caf\xe9\n1,2\n3,4\n5,6\n", "body": b"a,b\n1,2\n3,4\xe9\n5,6\n"}


@pytest.mark.parametrize("where", sorted(LATIN1_FILES))
def test_non_utf8_file_is_data_error(tmp_path, where):
    path = tmp_path / "latin1.csv"
    path.write_bytes(LATIN1_FILES[where])
    with pytest.raises(DataError, match="cannot read input"):
        ingest_csv(path)


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_delimiter_not_one_character_is_usage_error(tmp_path, delimiter):
    with pytest.raises(UsageError, match="delimiter"):
        ingest_csv(write_file(tmp_path, "x;y\n1;2\n3;4\n"), delimiter=delimiter)
    with pytest.raises(UsageError, match="delimiter"):  # checked before the file is opened
        ingest_csv(tmp_path / "nope.csv", delimiter=delimiter)


def test_time_column_plus_dt_override_rejected(tmp_path):
    path = write_file(tmp_path, "t,x\n0,1\n1,2\n")
    with pytest.raises(UsageError):
        ingest_csv(path, time_column="t", dt_override=0.5)


@pytest.mark.parametrize("head", ["t", "time", " Time ", "T"])
def test_first_column_headed_t_or_time_is_the_time_column(tmp_path, head):
    path = write_file(tmp_path, f"{head},x\n0,1\n0.5,2\n1.0,4\n")
    panel = ingest_csv(path)
    assert panel.labels == ("x",)
    assert panel.dt == 0.5


def test_time_column_detected_only_first_and_with_a_header(tmp_path):
    assert ingest_csv(write_file(tmp_path, "x,t\n1,0\n2,1\n4,2\n")).labels == ("x", "t")
    assert ingest_csv(write_file(tmp_path, "0,1\n1,2\n2,4\n"), has_header=False).labels == ("c0", "c1")


@pytest.mark.parametrize("dt_override, dt", [(None, 1.0), (0.25, 0.25)])
def test_time_column_false_reads_t_as_a_series(tmp_path, dt_override, dt):
    path = write_file(tmp_path, "t,x\n0,1\n0.5,2\n1.0,4\n")
    panel = ingest_csv(path, time_column=False, dt_override=dt_override)
    assert panel.labels == ("t", "x")
    assert np.array_equal(panel.values, [[0.0, 0.5, 1.0], [1.0, 2.0, 4.0]])
    assert panel.dt == dt


def test_dt_override_conflicts_with_a_detected_time_column(tmp_path):
    path = write_file(tmp_path, "time,x\n0,1\n1,2\n")
    with pytest.raises(UsageError, match="time column 'time'"):
        ingest_csv(path, dt_override=0.5)


def test_conflict_is_checked_after_the_file_is_read(tmp_path):
    with pytest.raises(DataError, match="cannot read input"):
        ingest_csv(tmp_path / "nope.csv", time_column="t", dt_override=0.5)


def test_named_time_column_needs_a_header(tmp_path):
    with pytest.raises(UsageError, match="header"):
        ingest_csv(write_file(tmp_path, "0,1\n1,2\n"), has_header=False, time_column="t")


def test_empty_time_column_name_is_not_detection(tmp_path):
    with pytest.raises(UsageError, match="no column named ''"):
        ingest_csv(write_file(tmp_path, "t,x\n0,1\n1,2\n"), time_column="")


def test_unknown_time_column(tmp_path):
    path = write_file(tmp_path, "t,x\n0,1\n1,2\n")
    with pytest.raises(UsageError, match="'tt'"):
        ingest_csv(path, time_column="tt")


def test_semicolon_delimiter(tmp_path):
    path = write_file(tmp_path, "x;y\n1;2\n3;4\n")
    panel = ingest_csv(path, delimiter=";")
    assert panel.labels == ("x", "y")
    assert panel.values[1, 1] == 4.0


def test_duplicate_labels_rejected():
    with pytest.raises(ValidationError, match="unique"):
        TimeSeriesPanel(("a", "a"), np.zeros((2, 5)))


def test_nonpositive_dt_rejected():
    with pytest.raises(ValidationError):
        TimeSeriesPanel(("a",), np.zeros((1, 5)), dt=0.0)


def test_panel_values_are_read_only():
    panel = TimeSeriesPanel(("a",), np.arange(4.0).reshape(1, 4))
    with pytest.raises(ValueError):
        panel.values[0, 0] = 7.0


def test_forward_difference_hand_values():
    panel = TimeSeriesPanel(("a",), np.array([[0.0, 1.0, 3.0]]), dt=0.5)
    assert np.array_equal(forward_difference(panel, 0, 1), [2.0, 4.0])
    assert np.array_equal(forward_difference(panel, 0, 2), [3.0])


def test_forward_difference_constant_series_is_zero():
    panel = TimeSeriesPanel(("a",), np.full((1, 10), 3.25), dt=0.1)
    for k in (1, 2, 5):
        assert np.array_equal(forward_difference(panel, 0, k), np.zeros(10 - k))


def test_forward_difference_length_and_label():
    rng = make_rng(1)
    panel = TimeSeriesPanel(("u", "v"), rng.standard_normal((2, 40)), dt=0.2)
    d = forward_difference(panel, 1, 3)
    assert len(d) == 37


def test_forward_difference_invalid_stride():
    panel = TimeSeriesPanel(("a",), np.zeros((1, 5)))
    for k in (0, -1, 5, 7):
        with pytest.raises(InvalidStrideError):
            forward_difference(panel, 0, k)


def test_linear_ramp_differences_to_slope_exactly():
    # a + b*t sampled on a uniform grid: every stride recovers b to round-off
    rng = make_rng(7)
    for _ in range(25):
        a, b = rng.uniform(-5, 5, size=2)
        dt = float(rng.uniform(0.01, 2.0))
        n = int(rng.integers(8, 60))
        k = int(rng.integers(1, n - 1))
        t = np.arange(n) * dt
        panel = TimeSeriesPanel(("r",), (a + b * t)[None, :], dt=dt)
        got = forward_difference(panel, 0, k)
        assert np.allclose(got, b, rtol=0, atol=1e-9 * max(1.0, abs(b)))


def test_csv_round_trip_is_bit_exact(tmp_path):
    # 4099 rows span three of the blocks write_csv formats at a time
    rng = make_rng(11)
    for n in (17, 4099):
        panel = TimeSeriesPanel(
            ("x", "y", "z"), rng.standard_normal((3, n)) * 1e3, dt=0.125
        )
        buf = io.StringIO()
        write_csv(panel, buf)
        path = write_file(tmp_path, buf.getvalue(), "rt.csv")
        named = ingest_csv(path, time_column="t")
        for back in (named, ingest_csv(path)):  # the leading t column is detected without flags
            assert back.labels == panel.labels
            assert np.array_equal(back.values, panel.values)
            assert back.dt == named.dt == pytest.approx(panel.dt, rel=1e-12)


def test_byte_order_mark_ingests_as_the_plain_file(tmp_path):
    # spreadsheet "CSV UTF-8" exports lead with a BOM; it must not rename the
    # time column and so hide it
    panel = TimeSeriesPanel(("x", "y"), make_rng(13).standard_normal((2, 50)), dt=0.25)
    buf = io.StringIO()
    write_csv(panel, buf)
    plain = ingest_csv(write_file(tmp_path, buf.getvalue(), "plain.csv"), time_column="t")
    marked = ingest_csv(write_file(tmp_path, "\ufeff" + buf.getvalue(), "bom.csv"), time_column="t")
    assert marked.labels == plain.labels == ("x", "y")
    assert marked.dt == plain.dt == 0.25
    assert np.array_equal(marked.values, plain.values)


def test_csv_round_trip_without_time_column(tmp_path):
    rng = make_rng(12)
    panel = TimeSeriesPanel(("x",), rng.standard_normal((1, 9)), dt=1.0)
    buf = io.StringIO()
    write_csv(panel, buf, time_label=None)
    back = ingest_csv(write_file(tmp_path, buf.getvalue(), "nt.csv"))
    assert np.array_equal(back.values, panel.values)


def test_csv_bytes_are_17_significant_digits_per_cell():
    # every cell, the time column included, is exactly format(v, ".17g")
    edge = [-0.0, 4.94e-324, 1.797e308, 0.1, 1 / 3, 1e16]
    panel = TimeSeriesPanel(("a", "b"), np.array([edge, edge[::-1]]), dt=0.1)
    buf = io.StringIO()
    write_csv(panel, buf, delimiter=";", time_label="time")
    expected = ["time;a;b"] + [
        ";".join(format(v, ".17g") for v in (m * 0.1, a, b))
        for m, (a, b) in enumerate(zip(edge, edge[::-1]))
    ]
    assert buf.getvalue() == "\n".join(expected) + "\n"
    assert buf.getvalue().splitlines()[1] == "0;-0;10000000000000000"


@pytest.mark.parametrize("dt, n", [(0.1, 4), (0.01, 30)])
def test_csv_round_trip_recovers_dt_exactly(tmp_path, dt, n):
    # the mean step (t[-1] - t[0]) / (n - 1) misses these dt by an ulp
    p = TimeSeriesPanel(("x",), make_rng(13).standard_normal((1, n)), dt=dt)
    buf = io.StringIO()
    write_csv(p, buf)
    q = ingest_csv(write_file(tmp_path, buf.getvalue(), "dt.csv"), time_column="t")
    assert q.dt == p.dt


@pytest.mark.parametrize("cell", ["1_000", "1_0.5", "\u0661\u0662"])
def test_python_only_float_literal_rejected(tmp_path, cell):
    path = write_file(tmp_path, f"x,y\n1.0,2.0\n1.5,{cell}\n")
    with pytest.raises(CsvParseError, match=r"at row 3, column 'y'"):
        ingest_csv(path)


def _ingest_outcome(path, **kwargs):
    """What ``ingest_csv`` makes of a file: labels, value bits and dt, or the
    type and message of what it raised."""
    try:
        panel = ingest_csv(path, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return panel.labels, panel.values.tobytes(), panel.dt


def _random_decimals(rng, count):
    """Decimal strings with long mantissas, wide exponents and subnormals."""
    out = []
    for _ in range(count):
        digits = "".join(rng.choice(list("0123456789"), size=int(rng.integers(1, 26))))
        point = int(rng.integers(0, len(digits) + 1))
        cell = rng.choice(["", "-", "+"]) + digits[:point] + rng.choice([".", ""]) + digits[point:]
        if cell.rstrip(".").lstrip("+-") == "":
            cell += "0"
        if rng.random() < 0.6:
            cell += rng.choice(["e", "E"]) + rng.choice(["", "-", "+"]) + str(int(rng.integers(0, 340)))
        if math.isfinite(float(cell)):
            out.append(cell)
    out += ["4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
            "2.2250738585072011e-308", "1.7976931348623157e308", "-0.0", ".5", "5."]
    return out


_INGEST_CASES = {
    "plain": ("a,b\n1.5,2\n3,4\n", {}),
    "blank lines": ("a,b\n\n1,2\n\n\n3,4\n\n", {}),
    "whitespace-only line": ("a,b\n1,2\n   \n3,4\n", {}),
    "whitespace-only line, one column": ("a\n1\n \t\n3\n", {}),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n", {}),
    "cr": ("a,b\r1,2\r3,4\r", {}),
    "trailing delimiter": ("a,b\n1,2,\n3,4,\n", {}),
    "quoted cells": ('a,b\n"1",2\n3,"4"\n', {}),
    "quoted header": ('"a, x",b\n1,2\n3,4\n', {}),
    "quoted header with a line break": ('"a\r\nx",b\r\n1,2\r\n3,4\r\n', {}),
    "nbsp": ("a,b\n1, 2\n3,4\n", {}),
    "full-width digits": ("a,b\n1,２\n3,4\n", {}),
    "arabic digits": ("a,b\n1,٢\n3,4\n", {}),
    "underscore": ("a,b\n1,1_000\n3,4\n", {}),
    "hash line": ("a,b\n1,2\n#3,4\n5,6\n", {}),
    "hash cell": ("a,b\n1,2 # note\n3,4\n", {}),
    "nan and infinity": ("a,b\nnan,2\n-Infinity,+inf\n", {}),
    "spaces around cells": ("a,b\n 1 , 2\t\n3,4\n", {}),
    "form feed and vertical tab": ("a,b\n1,2\f\n3,\v4\n", {}),
    **{f"control {code:#04x}": (f"a,b\n1,{chr(code)}2{chr(code)}\n3,4{chr(code)}\n", {})
       for code in [*range(0x20), 0x7F]},
    "nul": ("a,b\n1,2\x00\n3,4\n", {}),
    "hex and d exponent": ("a,b\n0x1p3,2\n1d5,4\n", {}),
    "empty cell": ("a,b\n,2\n3,4\n", {}),
    "double delimiter": ("a,b\n1,,2\n3,4\n", {}),
    "short row": ("a,b,c\n1,2\n3,4\n", {}),
    "one data row": ("a,b\n1,2\n", {}),
    "header only": ("a,b\n", {}),
    "empty": ("", {}),
    "blank only": ("\n\n", {}),
    "no header": ("1,2\n3,4\n5,6\n", {"has_header": False}),
    "no header, leading blank": ("\n1,2\n3,4\n", {"has_header": False}),
    "semicolon": ("a;b\n1.5;2\n3;4\n", {"delimiter": ";"}),
    "semicolon decimal comma": ("a;b\n1,5;2\n3;4,0\n", {"delimiter": ";"}),
    "tab": ("a\tb\n1\t2\n3\t4\n", {"delimiter": "\t"}),
    "tab, empty cell": ("a\tb\n1\t\t2\n3\t4\n", {"delimiter": "\t"}),
    "space": ("a b\n1 2\n3 4\n", {"delimiter": " "}),
    "space, doubled": ("a b\n1 2\n3  4\n", {"delimiter": " "}),
    "time column": ("t,x\n0,1\n0.5,2\n1.0,4\n", {"time_column": "t"}),
    "non-uniform time": ("t,x\n0,1\n0.5,2\n1.7,4\n", {"time_column": "t"}),
    "byte-order mark": ("\ufeffa,b\n1,2\n3,4\n", {}),
    "byte-order mark, time column": ("\ufefft,x\n0,1\n0.5,2\n1.0,4\n", {}),
    "byte-order mark, no header": ("\ufeff1,2\n3,4\n", {"has_header": False}),
    "byte-order mark, then non-ascii": ("\ufeffa,b\n1,2\n3,\u00a04\n", {}),
    "header after blank lines": ("\n\n\na,b\n1,2\n3,4\n", {}),
    "header after blank lines, crlf": ("\r\n\r\na,b\r\n1,2\r\n3,4\r\n", {}),
    "form feed in header": ("a\f,b\n1,2\n3,4\n", {}),
    "vertical tab line": ("a,b\n1,2\n\v\n3,4\n", {}),
    "gz-named ascii": ("a,b\n1,2\n3,4\n", {}),
}

# Cases whose file name matters; the others are read from case.csv.
_INGEST_FILE_NAMES = {"gz-named ascii": "case.csv.gz"}


@pytest.mark.parametrize("name", list(_INGEST_CASES))
def test_ingest_fast_path_agrees_with_strict_parser(tmp_path, monkeypatch, name):
    from infoflow import panel as panel_module

    text, kwargs = _INGEST_CASES[name]
    path = tmp_path / _INGEST_FILE_NAMES.get(name, "case.csv")
    path.write_bytes(text.encode("utf-8"))
    fast = _ingest_outcome(path, **kwargs)
    monkeypatch.setattr(panel_module, "_parse_fast", lambda *args: None)
    assert _ingest_outcome(path, **kwargs) == fast


def test_ingest_fast_path_reads_random_decimals_bit_for_bit(tmp_path, monkeypatch):
    from infoflow import panel as panel_module

    cells = _random_decimals(make_rng(21), 12_000)
    assert len(cells) >= 10_000
    cells += ["0"] * (len(cells) % 2)
    rows = [f"{a},{b}" for a, b in zip(cells[::2], cells[1::2])]
    text = "a,b\n" + "\n".join(rows) + "\n"
    path = write_file(tmp_path, text)
    stamp = panel_module._stamp(os.stat(path))
    assert panel_module._parse_fast(path, path.read_bytes(), stamp, ",", True) is not None
    fast = _ingest_outcome(path)
    monkeypatch.setattr(panel_module, "_parse_fast", lambda *args: None)
    assert _ingest_outcome(path) == fast


def test_write_csv_byte_order_mark_and_blank_lead_files_take_the_fast_path(tmp_path, monkeypatch):
    from infoflow import panel as panel_module

    def refuse_strict(*args):
        raise AssertionError("the strict parser ran")

    panel = TimeSeriesPanel(("x", "y"), make_rng(14).standard_normal((2, 500)), dt=0.5)
    buf = io.StringIO()
    write_csv(panel, buf)
    text = buf.getvalue()
    files = [write_file(tmp_path, text, "plain.csv"),
             write_file(tmp_path, "\n\r\n" + text.replace("\n", "\r\n"), "blank-lead.csv")]
    files.append(tmp_path / "bom.csv")
    files[-1].write_bytes(b"\xef\xbb\xbf" + files[0].read_bytes())
    monkeypatch.setattr(panel_module, "_parse_strict", refuse_strict)
    for path in files:
        back = ingest_csv(path)
        assert back.labels == panel.labels and back.dt == panel.dt
        assert np.array_equal(back.values, panel.values)


def test_file_changed_between_the_two_reads_is_parsed_from_the_first(tmp_path, monkeypatch):
    # the body is read again from the path; a file that changed in between
    # is parsed strictly from the bytes that passed the fast-path checks
    from infoflow import panel as panel_module

    path = write_file(tmp_path, "a,b\n1,2\n3,4\n")
    real_loadtxt = np.loadtxt

    def rewrite_then_load(*args, **kwargs):
        path.write_text("a,b\n5,6\n7,8\n9,10\n")
        return real_loadtxt(*args, **kwargs)

    monkeypatch.setattr(panel_module.np, "loadtxt", rewrite_then_load)
    assert np.array_equal(ingest_csv(path).values, [[1.0, 3.0], [2.0, 4.0]])


def test_changed_stamp_takes_the_strict_route(tmp_path, monkeypatch):
    from infoflow import panel as panel_module

    path = write_file(tmp_path, "a,b\n1,2\n3,4\n")
    strict = []
    real_strict, real_fstat = panel_module._parse_strict, os.fstat

    def spy(*args):
        strict.append(args[1])
        return real_strict(*args)

    def earlier_fstat(fd):  # the first read sees an older modification time
        st = real_fstat(fd)
        return SimpleNamespace(st_dev=st.st_dev, st_ino=st.st_ino, st_size=st.st_size,
                               st_mtime_ns=st.st_mtime_ns - 1)

    monkeypatch.setattr(panel_module, "_parse_strict", spy)
    assert np.array_equal(ingest_csv(path).values, [[1.0, 3.0], [2.0, 4.0]])
    assert strict == []
    monkeypatch.setattr(os, "fstat", earlier_fstat)
    assert np.array_equal(ingest_csv(path).values, [[1.0, 3.0], [2.0, 4.0]])
    assert strict == ["a,b\n1,2\n3,4\n"]


def test_ingest_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    # 20000 rows of write_csv output (1.5 MB): the chunked body read peaks at
    # about 1.9x the file's size; loadtxt over a list of its lines took 3.4x
    panel = TimeSeriesPanel(("x", "y", "z"), make_rng(15).standard_normal((3, 20_000)), dt=0.01)
    path = tmp_path / "big.csv"
    with open(path, "w") as fh:
        write_csv(panel, fh)
    tracemalloc.start()
    try:
        ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * path.stat().st_size
