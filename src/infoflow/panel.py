"""Time-series panels: CSV ingestion, validation, and forward differencing.

A panel holds d named series on a uniform grid with step ``dt`` in a
read-only copy of the values it is given, so it is immutable; every
operation here is pure, so panels are safe to share across threads.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CsvFormatError,
    CsvParseError,
    DataError,
    InsufficientDataError,
    InvalidStrideError,
    UsageError,
    ValidationError,
)

# Relative tolerance for declaring a time column uniformly spaced.
TIME_UNIFORMITY_RTOL = 1e-6

# First-column headers (any case) that ingest_csv takes as the time column.
AUTO_TIME_LABELS = ("t", "time")

# Significant digits used when writing floats; 17 round-trips IEEE doubles.
CSV_FLOAT_DIGITS = 17

# ASCII bytes the fast ingest path leaves to the strict one: np.loadtxt strips
# them around a number as whitespace where float() does not.
_FAST_PATH_EXCLUDED = b"\x1c\x1d\x1e\x1f"

# Bytes per slice that the UTF-8 check decodes, and so about the most it holds.
_UTF8_SLICE = 1 << 16

# One line of a file and its ending, as the csv reader and loadtxt split them.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n|\r|\n)?")


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """d named series of n samples each, spaced ``dt`` time units apart.

    ``values`` has shape (d, n): one row per series, which keeps the
    covariance passes cache-friendly. The panel holds a read-only,
    C-ordered float64 copy of the ``values`` it is given.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, order="C")
        if values.ndim != 2:
            raise ValidationError("panel values must be a 2-D array (series, samples)")
        labels = tuple(str(lab) for lab in self.labels)
        if len(labels) != values.shape[0]:
            raise ValidationError(
                f"{len(labels)} labels for {values.shape[0]} series rows"
            )
        if len(labels) == 0:
            raise ValidationError("panel needs at least one series")
        if len(set(labels)) != len(labels):
            raise ValidationError("series labels must be unique")
        if values.shape[1] < 2:
            raise InsufficientDataError("panel needs at least 2 samples per series")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValidationError(
                f"non-finite value in series {labels[bad[0]]!r} at sample {bad[1]}"
            )
        if not (isinstance(self.dt, (int, float)) and math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be a positive finite number, got {self.dt!r}")
        values.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dt", float(self.dt))

    @property
    def d(self) -> int:
        """Number of series."""
        return self.values.shape[0]

    @property
    def n(self) -> int:
        """Number of samples per series."""
        return self.values.shape[1]

    def window(self, start: int, length: int) -> "TimeSeriesPanel":
        """Sub-panel of ``length`` consecutive samples starting at ``start``."""
        if start < 0 or start + length > self.n:
            raise UsageError(f"window [{start}, {start + length}) outside 0..{self.n}")
        return TimeSeriesPanel(self.labels, self.values[:, start : start + length], self.dt)


def _require_stride(k) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidStrideError(f"stride k must be a positive integer, got {k!r}")


def forward_difference(panel: TimeSeriesPanel, j: int | slice, k: int = 1) -> np.ndarray:
    """Euler forward difference of series ``j`` with stride ``k``.

    Returns the derivative-scale series of length n - k whose element m is
    (x[m+k] - x[m]) / (k * dt). A linear ramp yields its slope exactly
    (up to floating round-off) for any stride. A slice ``j`` selects a
    block of series and gives one such row for each.
    """
    _require_stride(k)
    if k >= panel.n:
        raise InvalidStrideError(f"stride k={k} must be smaller than n={panel.n}")
    rows = panel.values[j]
    diff = np.subtract(rows[..., k:], rows[..., :-k])
    diff /= k * panel.dt
    return diff


def _require_delimiter(delimiter) -> None:
    try:
        csv.reader((), delimiter=delimiter)
    except TypeError as exc:
        raise UsageError(f"bad delimiter {delimiter!r}: {exc}") from None


def _default_labels(count: int) -> tuple[str, ...]:
    return tuple(f"c{i}" for i in range(count))


def ingest_csv(
    path,
    *,
    delimiter: str = ",",
    has_header: bool = True,
    time_column: str | bool | None = None,
    dt_override: float | None = None,
) -> TimeSeriesPanel:
    """Read a delimited text file into a validated panel.

    Cells must be numeric. The time column, if any, is the one that
    ``time_column`` names; with the default None, a first column headed
    ``t`` or ``time`` (any case, after stripping) when the file has a
    header, so ``ingest_csv(path)`` reads what ``write_csv`` wrote; with
    False, none: every column is a series. dt is inferred from a time
    column and the grid is checked for uniformity (relative tolerance
    1e-6); a column that is exactly t[0] + m*(t[1] - t[0]), as
    ``write_csv`` writes it, gives that step bit for bit. Without a time
    column dt is ``dt_override`` or 1.0; a ``dt_override`` beside a time
    column, named or detected, is a ``UsageError``. Missing values are
    rejected, never imputed; so are Python-only literals such as ``1_000``.
    A leading UTF-8 byte-order mark is skipped. A refusal's "row" counts
    non-empty lines, the header being row 1.

    The file is read once as bytes, which must be UTF-8, and one ``csv``
    reader over them finds the header (or, without one, the width) and
    the lines before the body. The body is then read a second time, from
    the path, by ``np.loadtxt`` in chunks (``_parse_fast``) when its bytes
    are plain ASCII. If the file's size, modification time or inode after
    that second read differs from the first read's, or the fast parse
    fails, the reader goes on over the body cell by cell instead
    (``_parse_strict``), which words every refusal of a cell.
    """
    _require_delimiter(delimiter)
    if isinstance(time_column, str) and not has_header:
        raise UsageError("time_column requires a header row")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
            stamp = _stamp(os.fstat(fh.fileno()))
    except OSError as exc:
        raise DataError(f"cannot read input: {exc}") from exc
    if not raw.isascii():
        _require_utf8(raw)
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=""),
                        delimiter=delimiter)
    rows = filter(None, reader)
    first = next(rows, None)
    if first is None:
        raise InsufficientDataError(f"{path}: empty file")
    if has_header:
        labels, first_data_line = tuple(cell.strip() for cell in first), 2
    else:
        labels, first_data_line = _default_labels(len(first)), 1
        rows = itertools.chain([first], rows)
    parsed = _parse_fast(path, raw, stamp, delimiter, reader.line_num if has_header else 0,
                         len(labels))
    if parsed is None:
        parsed = _parse_strict(path, rows, labels, first_data_line)
    if len(parsed) < 2:
        raise InsufficientDataError(f"{path}: need at least 2 data rows, found {len(parsed)}")

    if time_column is False or not has_header:
        time_column = None
    elif time_column is None and labels[0].lower() in AUTO_TIME_LABELS:
        time_column = labels[0]
    if time_column is not None and time_column not in labels:
        raise UsageError(f"{path}: no column named {time_column!r}")
    if time_column is not None and dt_override is not None:
        raise UsageError(
            f"{path}: time column {time_column!r} sets dt; drop the dt override (--dt),"
            " or read that column as a series (time_column=False, --no-time-column)"
        )
    if not np.isfinite(parsed).all():
        r, c = np.argwhere(~np.isfinite(parsed))[0]  # the first in file order
        raise ValidationError(
            f"{path}: non-finite value at row {first_data_line + r}, column {labels[c]!r}"
        )

    dt = 1.0 if dt_override is None else float(dt_override)
    values = parsed.T  # (series, samples): a view, which the panel copies once
    if time_column is not None:
        t_idx = labels.index(time_column)
        t = parsed[:, t_idx]
        steps = np.diff(t)
        # write_csv's grid m*dt is exact in its first step; the mean step
        # (t[-1] - t[0]) / (n - 1) may miss dt by an ulp
        dt = t[1] - t[0]
        if not np.array_equal(t, t[0] + np.arange(len(t)) * dt):
            dt = (t[-1] - t[0]) / (len(t) - 1)
        if dt <= 0 or not np.all(steps > 0):
            raise CsvFormatError(f"{path}: time column {time_column!r} must strictly increase")
        if np.any(np.abs(steps - dt) > TIME_UNIFORMITY_RTOL * abs(dt)):
            usual = np.median(steps)  # the mean step would make every step look off
            r = int(np.argmax(np.abs(steps - usual) > TIME_UNIFORMITY_RTOL * usual))
            raise CsvFormatError(
                f"{path}: non-uniform time column {time_column!r} near row"
                f" {first_data_line + r + 1} (step {float(steps[r])!r} vs {float(usual)!r})"
            )
        # the series left of the time column move over it: the series are values[1:]
        parsed[:, 1 : t_idx + 1] = parsed[:, :t_idx]
        labels = labels[:t_idx] + labels[t_idx + 1 :]
        values = values[1:]
    return TimeSeriesPanel(labels=labels, values=values, dt=dt)


def _require_utf8(raw: bytes) -> None:
    """A DataError unless ``raw``, after any UTF-8 byte-order mark, is
    UTF-8; its message is the decoder's, placed at the file offset of the
    bad bytes. Decoded ``_UTF8_SLICE`` bytes at a time, each slice from
    where the one before stopped, so that a sequence cut by the slice
    boundary is decoded whole, with no decoded copy of the file."""
    start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    with memoryview(raw) as view:
        while start < len(raw):
            stop = start + _UTF8_SLICE
            try:
                start += codecs.utf_8_decode(view[start:stop], "strict", stop >= len(raw))[1]
            except UnicodeDecodeError as exc:
                bad = UnicodeDecodeError(exc.encoding, raw, start + exc.start, start + exc.end, exc.reason)
                raise DataError(f"cannot read input: {bad}") from None


def _stamp(st: os.stat_result) -> tuple:
    """What tells two reads of one file apart: device, inode, size, mtime."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _parse_fast(path, raw: bytes, stamp: tuple, delimiter: str, lines: int, width: int):
    """The (rows x ``width``) values of the body of ``raw``, the file's
    bytes after its first ``lines`` lines, read by ``np.loadtxt`` from
    ``path``; None wherever ``_parse_strict`` must decide, including every
    body it refuses, and when the file's ``_stamp`` after that read is not
    ``stamp``, the one of ``raw``.

    ``loadtxt`` gets the absolute path, so that its C reader parses the
    body in chunks (a file object or a list of lines goes through a
    per-line iterator) and no ``http://host/...``-like name is taken for a
    URL; a name ending in ``.gz`` or the like fails to decompress and goes
    to the strict parser. ``loadtxt`` reads some cells that the strict
    parser refuses: it strips a non-breaking space or a \\x1f around a
    number, where ``float`` does not. Hence a body of ASCII without the
    ``_FAST_PATH_EXCLUDED`` bytes only, checked without a copy, and
    ``comments=None``, since it would drop ``#`` lines as comments.
    """
    body = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0  # loadtxt's utf-8-sig drops it
    for _ in range(lines):
        body = _LINE.match(raw, body).end()
    if np.frombuffer(raw, np.uint8, offset=body).max(initial=0) >= 0x80:
        return None
    if any(raw.find(byte, body) >= 0 for byte in _FAST_PATH_EXCLUDED):
        return None
    try:
        name = os.path.abspath(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            values = np.loadtxt(name, delimiter=delimiter, comments=None, ndmin=2,
                                skiprows=lines, encoding="utf-8-sig")
        if _stamp(os.stat(name)) != stamp:
            return None
    except Exception:  # whatever loadtxt refuses, the strict parser words
        return None
    return values if values.shape[1] == width else None


def _parse_strict(path, rows, labels: tuple[str, ...], first_data_line: int) -> np.ndarray:
    """The values of the non-empty ``rows`` that follow the header, cell by
    cell with ``float``, naming the row and column of the first refused
    cell."""
    width = len(labels)
    cells = []
    for r, row in enumerate(rows, first_data_line):
        if len(row) != width:
            raise CsvFormatError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        for c, cell in enumerate(row):
            try:
                # float() also takes Python-only forms such as 1_000 or
                # non-ASCII digits; a data file gets plain decimal text only
                if "_" in cell or not cell.isascii():
                    raise ValueError
                cells.append(float(cell))
            except ValueError:
                raise CsvParseError(
                    f"{path}: non-numeric value {cell.strip()!r} at row {r}, column {labels[c]!r}"
                ) from None
    return np.array(cells, dtype=np.float64).reshape(-1, width)


def write_csv(
    panel: TimeSeriesPanel,
    fh,
    *,
    delimiter: str = ",",
    time_label: str | None = "t",
) -> None:
    """Write a panel in the same format ``ingest_csv`` reads.

    When ``time_label`` is given, a leading time column m*dt is included;
    under the default ``t`` (or ``time``) ``ingest_csv(path)`` detects it
    and recovers dt without flags, and any other label must be passed as
    ``time_column``. Values are written at 17 significant digits and
    round-trip bit-for-bit.
    """
    writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
    header = ([time_label] if time_label else []) + list(panel.labels)
    writer.writerow(header)
    body = panel.values.T
    if time_label:
        body = np.column_stack([np.arange(panel.n) * panel.dt, body])
    row_fmt = delimiter.join([f"%.{CSV_FLOAT_DIGITS}g"] * body.shape[1]) + "\n"
    # one % expression per 2048 rows: as fast as one for the whole body, at
    # a fraction of its peak memory
    for start in range(0, len(body), 2048):
        block = body[start : start + 2048]
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
