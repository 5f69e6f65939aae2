"""Time-series panels: CSV ingestion, validation, and forward differencing.

A panel holds d named series sampled on a uniform grid with step ``dt``.
Panels are immutable after construction and every operation here is pure,
so they are safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import math
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

# Significant digits used when writing floats; 17 round-trips IEEE doubles.
CSV_FLOAT_DIGITS = 17

# ASCII characters the fast ingest path leaves to the strict one: str.splitlines
# breaks lines at all of them and csv at none, and np.loadtxt strips the last
# four around a number as whitespace where float() does not.
_FAST_PATH_EXCLUDED = "\v\f\x1c\x1d\x1e\x1f"


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """d named series of n samples each, spaced ``dt`` time units apart.

    ``values`` has shape (d, n): one row per series, which keeps the
    covariance passes cache-friendly. The array is made read-only.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
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
        return TimeSeriesPanel(self.labels, self.values[:, start : start + length].copy(), self.dt)


def _require_stride(k) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidStrideError(f"stride k must be a positive integer, got {k!r}")


def forward_difference(panel: TimeSeriesPanel, j: int, k: int = 1) -> np.ndarray:
    """Euler forward difference of series ``j`` with stride ``k``.

    Returns the derivative-scale series of length n - k whose element m is
    (x[m+k] - x[m]) / (k * dt). A linear ramp yields its slope exactly
    (up to floating round-off) for any stride.
    """
    _require_stride(k)
    if k >= panel.n:
        raise InvalidStrideError(f"stride k={k} must be smaller than n={panel.n}")
    row = panel.values[j]
    return (row[k:] - row[:-k]) / (k * panel.dt)


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
    time_column: str | None = None,
    dt_override: float | None = None,
) -> TimeSeriesPanel:
    """Read a delimited text file into a validated panel.

    Cells must be numeric apart from an optional time column. When a time
    column is named, dt is inferred from it and the grid is checked for
    uniformity (relative tolerance 1e-6); a column that is exactly
    t[0] + m*(t[1] - t[0]), as ``write_csv`` writes it, gives that step
    bit for bit. Without a time column dt is ``dt_override`` or 1.0. Missing
    values are rejected, never imputed; so are Python-only literals such as
    ``1_000``. A leading UTF-8 byte-order mark is skipped.
    """
    if time_column is not None and dt_override is not None:
        raise UsageError("pass either time_column or dt_override, not both")
    if time_column is not None and not has_header:
        raise UsageError("time_column requires a header row")
    _require_delimiter(delimiter)
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read input: {exc}") from exc
    first_data_line = 2 if has_header else 1
    labels, parsed = _parse_fast(text, delimiter, has_header) or _parse_strict(
        path, text, delimiter, has_header, first_data_line
    )

    dt = 1.0 if dt_override is None else float(dt_override)
    if time_column is not None:
        if time_column not in labels:
            raise UsageError(f"{path}: no column named {time_column!r}")
        t_idx = labels.index(time_column)
        t = parsed[:, t_idx]
        if not np.isfinite(t).all():
            raise ValidationError(f"{path}: non-finite value in time column {time_column!r}")
        steps = np.diff(t)
        # write_csv's grid m*dt is exact in its first step; the mean step
        # (t[-1] - t[0]) / (n - 1) may miss dt by an ulp
        dt = t[1] - t[0]
        if not np.array_equal(t, t[0] + np.arange(len(t)) * dt):
            dt = (t[-1] - t[0]) / (len(t) - 1)
        if dt <= 0 or not np.all(steps > 0):
            raise CsvFormatError(f"{path}: time column {time_column!r} must strictly increase")
        off = np.abs(steps - dt) > TIME_UNIFORMITY_RTOL * abs(dt)
        if off.any():
            r = int(np.argmax(off))
            raise CsvFormatError(
                f"{path}: non-uniform time column {time_column!r} near row"
                f" {first_data_line + r + 1} (step {steps[r]!r} vs {dt!r})"
            )
        keep = [i for i in range(len(labels)) if i != t_idx]
        labels = tuple(labels[i] for i in keep)
        parsed = parsed[:, keep]

    bad = np.argwhere(~np.isfinite(parsed))
    if len(bad):
        r, c = bad[0]
        raise ValidationError(
            f"{path}: non-finite value at row {first_data_line + r}, column {labels[c]!r}"
        )

    return TimeSeriesPanel(labels=labels, values=parsed.T, dt=dt)


def _parse_fast(text: str, delimiter: str, has_header: bool):
    """Labels and (rows x columns) values of a plain-ASCII file, the header
    taken with ``csv`` and the body with ``np.loadtxt``; None wherever
    ``_parse_strict`` must decide, including every input it refuses.

    ``loadtxt`` reads some cells that the strict parser refuses: it strips
    a non-breaking space or a \\x1f around a number, where ``float`` does
    not. Hence ASCII text without the ``_FAST_PATH_EXCLUDED`` characters
    only, and ``comments=None``, since it would drop ``#`` lines as comments.
    """
    if not text.isascii() or any(c in text for c in _FAST_PATH_EXCLUDED):
        return None
    lines = text.splitlines(keepends=True)
    reader = csv.reader(lines, delimiter=delimiter)
    first = next((row for row in reader if row), None)
    if first is None:
        return None
    if has_header:
        labels = tuple(cell.strip() for cell in first)
        lines = lines[reader.line_num:]
    else:
        labels = _default_labels(len(first))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            values = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
    except Exception:  # whatever loadtxt refuses, the strict parser words
        return None
    if values.shape[0] < 2 or values.shape[1] != len(labels):
        return None
    return labels, values


def _parse_strict(path, text: str, delimiter: str, has_header: bool, first_data_line: int):
    """Labels and values cell by cell with ``csv`` and ``float``, naming the
    row and column of the first refused cell."""
    rows = [row for row in csv.reader(io.StringIO(text, newline=""), delimiter=delimiter) if row]
    if not rows:
        raise InsufficientDataError(f"{path}: empty file")

    if has_header:
        labels = tuple(cell.strip() for cell in rows[0])
        data_rows = rows[1:]
    else:
        labels = _default_labels(len(rows[0]))
        data_rows = rows

    if len(data_rows) < 2:
        raise InsufficientDataError(f"{path}: need at least 2 data rows, found {len(data_rows)}")

    width = len(labels)
    parsed = np.empty((len(data_rows), width), dtype=np.float64)
    for r, row in enumerate(data_rows):
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: row {first_data_line + r} has {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            try:
                # float() also takes Python-only forms such as 1_000 or
                # non-ASCII digits; a data file gets plain decimal text only
                if "_" in cell or not cell.isascii():
                    raise ValueError
                parsed[r, c] = float(cell)
            except ValueError:
                raise CsvParseError(
                    f"{path}: non-numeric value {cell.strip()!r} at row {first_data_line + r},"
                    f" column {labels[c]!r}"
                ) from None
    return labels, parsed


def write_csv(
    panel: TimeSeriesPanel,
    fh,
    *,
    delimiter: str = ",",
    time_label: str | None = "t",
) -> None:
    """Write a panel in the same format ``ingest_csv`` reads.

    When ``time_label`` is given, a leading time column m*dt is included so
    that re-ingestion recovers dt without flags. Values are written at 17
    significant digits and round-trip bit-for-bit.
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
