"""CSV ingestion for time-series matrices.

Strict by design: the first non-blank row is the header, a selected cell
must parse as a Python ``float`` once stripped of whitespace (quotes around
it are allowed), and missing or non-finite values are rejected rather than
imputed.  Blank rows are dropped and cells past the selected columns are
ignored.  An optional leading time-index column can be skipped.  Files are
read as UTF-8; a leading byte-order mark, as spreadsheets write it, is
dropped.

The data rows of a file without quotes go through ``np.loadtxt``'s C
parser.  Whatever it declines or rejects is read again by a ``csv.reader``
walk that converts one cell at a time and names the first bad cell in its
error.  Both give the same values to the bit.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import InputError, MissingColumn, NonPositiveForLog, ParseError


@dataclass(frozen=True)
class TimeSeriesMatrix:
    values: np.ndarray      # observations x series
    column_names: tuple

    @property
    def n_series(self):
        return self.values.shape[1]


def read_csv(path, columns=None, transform="none", delimiter=",", skip_index_column=False):
    """Load selected columns of a delimited text file.

    ``columns`` may name columns (header labels) or give zero-based indices;
    ``None`` takes every column, and a column selected twice is an
    ``InputError``.  ``transform`` is ``"none"`` or ``"log"``;
    the log transform rejects non-positive cells.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    if transform not in ("none", "log"):
        raise InputError(f"unknown transform {transform!r}")
    try:
        matrix = _read_with_loadtxt(path, columns, transform, delimiter, skip_index_column)
    except (OSError, ValueError, TypeError, InputError):
        matrix = None
    if matrix is None:
        matrix = _read_with_csv_reader(path, columns, transform, delimiter, skip_index_column)
    return matrix


def _read_with_loadtxt(path, columns, transform, delimiter, skip_index_column):
    """The common case through numpy's C reader, or ``None`` in any doubt.

    In a file without a quote character, ``csv.reader`` splits a line at
    every delimiter, as ``loadtxt`` does.  ``loadtxt`` strips the whitespace
    that ``str.strip`` strips and parses a cell with the correctly rounded
    routine of ``float()``, so it either reads the values the walk would
    read, or raises (on underscores, non-ASCII digits, whitespace-only rows,
    any bad cell) and the walk runs.  It would also take what ``csv``
    rejects, a line past ``csv``'s field size limit or a NUL (on Python
    3.10), and with no column selected it would count whitespace-only rows;
    such files go to the walk too.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        first = fh.readline()
        body = fh.read()
    limit = csv.field_size_limit()
    if (not body.strip("\r\n") or any(c in first or c in body for c in '"\0')
            or len(first) > limit or _longest_line(body) > limit):
        return None
    cells = first.rstrip("\r\n").split(delimiter)
    if not "".join(cells).strip():  # the header is a later row
        return None
    shift = 1 if skip_index_column else 0
    header = [h.strip() for h in cells][shift:]
    indices = _column_indices(header, columns)
    if not indices:
        return None
    out = np.loadtxt(StringIO(body, newline=""), delimiter=delimiter, comments=None,
                     ndmin=2, usecols=[idx + shift for idx in indices])
    if not np.isfinite(out).all() or (transform == "log" and not (out > 0).all()):
        return None
    return TimeSeriesMatrix(values=np.log(out) if transform == "log" else out,
                            column_names=tuple(header[idx] for idx in indices))


def _longest_line(text):
    """Length of the longest line of ``text`` in UTF-8 bytes, which is never
    less than its length in characters."""
    raw = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero((raw == 10) | (raw == 13))
    return int(np.diff(ends, prepend=-1, append=raw.size).max()) - 1


def _column_indices(header, columns):
    """Zero-based positions in ``header`` of the selected columns."""
    if columns is None:
        return list(range(len(header)))
    indices = []
    for c in columns:
        if isinstance(c, int) or (isinstance(c, str) and c.lstrip("-").isdigit()):
            idx = int(c)
            if not 0 <= idx < len(header):
                raise MissingColumn(str(c))
            indices.append(idx)
        elif c in header:
            indices.append(header.index(c))
        else:
            raise MissingColumn(c)
        if indices.count(indices[-1]) > 1:
            raise InputError(f"column {header[indices[-1]]!r} selected twice")
    return indices


def _read_with_csv_reader(path, columns, transform, delimiter, skip_index_column):
    """Every file ``_read_with_loadtxt`` declines: ``csv.reader``, blank rows
    dropped, then one ``float()`` per cell in row order, so that an error
    names the first bad cell."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    rows = [r for r in rows if "".join(r).strip()]  # drop blank rows
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    if skip_index_column:
        header = header[1:]
        data_rows = [r[1:] for r in rows[1:]]
    else:
        data_rows = rows[1:]
    indices = _column_indices(header, columns)
    out = np.empty((len(data_rows), len(indices)))
    for i, row in enumerate(data_rows):
        for j, idx in enumerate(indices):
            if idx >= len(row):
                raise ParseError(i + 2, idx + 1, "missing cell")
            cell = row[idx].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(i + 2, idx + 1, f"not a number: {cell!r}") from None
            if not np.isfinite(value):
                raise ParseError(i + 2, idx + 1, f"non-finite value: {cell!r}")
            if transform == "log" and value <= 0:
                raise NonPositiveForLog(i + 2, idx + 1)
            out[i, j] = value
    return TimeSeriesMatrix(values=np.log(out) if transform == "log" else out,
                            column_names=tuple(header[idx] for idx in indices))
