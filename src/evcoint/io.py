"""CSV ingestion for time-series matrices.

Strict by design: a header row is required, cells must parse as numbers
with a '.' decimal point, and missing values are rejected rather than
imputed.  An optional leading time-index column can be skipped.  Files are
read as UTF-8; a leading byte-order mark, as spreadsheets write it, is
dropped.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
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
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    if skip_index_column:
        header = header[1:]
        data_rows = [r[1:] for r in rows[1:]]
    else:
        data_rows = rows[1:]

    if columns is None:
        indices = list(range(len(header)))
    else:
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

    names = tuple(header[idx] for idx in indices)
    try:
        out = np.array([float(row[idx]) for row in data_rows for idx in indices])
    except (IndexError, ValueError):
        out = None
    if out is not None and np.isfinite(out).all() and (transform != "log" or (out > 0).all()):
        out = out.reshape(len(data_rows), len(indices))
        return TimeSeriesMatrix(values=np.log(out) if transform == "log" else out,
                                column_names=names)
    # Some cell is bad: walk the cells in order to report the first one.
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
            if transform == "log":
                if value <= 0:
                    raise NonPositiveForLog(i + 2, idx + 1)
                value = np.log(value)
            out[i, j] = value
    return TimeSeriesMatrix(values=out, column_names=names)
