"""The CSV table parser: everything that decides a parsed table's values.

The table cache keys each parse by this module's source (see :mod:`lrnn.data`),
so it imports nothing else from ``lrnn``: no edit elsewhere can change a parse.
"""

from __future__ import annotations

import math
from array import array
from pathlib import Path

import numpy as np

_MISSING_CELLS = {"", "?"}
_QUOTED_CHARS = 40  # the longest part of a file's text that an error message quotes


def _quote(value) -> str:
    """``repr(value)``, or the first :data:`_QUOTED_CHARS` characters of its text
    quoted when the text is longer: a string's own text, else its repr."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _QUOTED_CHARS:
        return repr(value)
    return f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"


def _load_csv(path, delimiter: str = ",", has_header: bool = False,
              label_column: int | None = None) -> np.ndarray:
    """Parse a rectangular numeric table; values are returned unnormalized.

    ``label_column`` indexes the raw row (negative indices allowed) and is
    dropped before numeric conversion, so non-numeric class labels are fine.
    Missing cells (empty or ``?``) are imputed with their column mean;
    cells reading as NaN or +-inf raise ``ValueError`` naming line and column.

    A clean table is parsed in bulk by :func:`_parse_bulk`; any other
    table goes through the line scan :func:`_scan_csv`, which gives the
    same values bit for bit, imputes missing cells and words every error.
    """
    x = _parse_bulk(path, delimiter, has_header, label_column)
    return _scan_csv(path, delimiter, has_header, label_column) if x is None else x


def _parse_bulk(path, delimiter: str, has_header: bool,
                label_column: int | None) -> np.ndarray | None:
    """The table in one ``np.loadtxt`` call, or None where the line scan must decide.

    The file is opened as the scan opens it, so both see the same lines.
    Leading blank lines and the header are consumed here, because ``skiprows``
    would count a blank line as the header.  Any quote goes to the scan, which
    unquotes as ``csv`` does.  The label column is read as zeros and dropped.
    ``loadtxt`` refuses ragged rows, an out-of-range label column, missing
    cells and what only ``float`` reads (``1_0``); a non-finite value and a
    table of only the label column also return None.
    """
    if delimiter in '"\r\n':
        return None
    label = {} if label_column is None else {label_column: lambda c: math.nan if '"' in c else 0.0}
    try:
        with open(path, newline="") as f:
            header = has_header
            while True:
                start = f.tell()
                line = f.readline()
                if not line or '"' in line:
                    return None
                if line.replace(delimiter, "").strip():  # the scan skips rows of blank cells
                    if not header:
                        break
                    header = False
            f.seek(start)
            x = np.loadtxt(
                f, delimiter=delimiter, comments=None, converters=label, encoding=None, ndmin=2
            )
    except (TypeError, ValueError):  # the scan words a parse error or a label column past int64
        return None
    if not np.isfinite(x).all() or label and x.shape[1] == 1:
        return None
    return np.delete(x, label_column, axis=1) if label else x


def _scan_csv(path, delimiter: str, has_header: bool, label_column: int | None) -> np.ndarray:
    """:func:`_load_csv` one cell at a time, naming the line and column of any error."""
    import csv  # here, so that only this fallback pays for the import

    path = Path(path)
    cells = array("d")  # every data cell, row after row, 8 bytes apiece
    line_nos = array("q")  # file line of each data row
    missing = array("q")  # position in ``cells`` of each missing cell
    width: int | None = None
    header = has_header

    def records(f):
        """Each record with the file line it ends on; a ``csv.Error`` or bytes that are
        not text as a ``ValueError``."""
        reader = csv.reader(f, delimiter=delimiter)
        try:
            for record in reader:
                yield reader.line_num, record
        except csv.Error as e:  # such as a field over csv's size limit
            raise ValueError(f"{path}:{reader.line_num}: {e}") from None
        except UnicodeDecodeError:  # decoded a chunk ahead of the reader: no line to name
            raise ValueError(f"{path}: not text in the {f.encoding} encoding") from None

    with open(path, newline="") as f:
        for line_no, record in records(f):
            if all(cell.strip() == "" for cell in record):
                continue
            if header:
                header = False
                continue
            if label_column is not None:
                try:
                    del record[label_column]
                except IndexError:
                    raise ValueError(
                        f"{path}:{line_no}: no column {_quote(label_column)} in row of "
                        f"width {len(record)}"
                    ) from None
            if width is None:
                width = len(record)
                if not width:
                    raise ValueError(f"{path}: no data column besides label column {label_column}")
            elif len(record) != width:
                raise ValueError(
                    f"{path}:{line_no}: ragged row of width {len(record)}, expected {width}"
                )
            for col, cell in enumerate(record):
                cell = cell.strip()
                if cell in _MISSING_CELLS:
                    missing.append(len(cells))
                    cells.append(0.0)
                    continue
                try:
                    cells.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_no}: non-numeric cell {_quote(cell)} in column {col}"
                    ) from None
            line_nos.append(line_no)
    if not line_nos:
        raise ValueError(f"{path}: no data rows")
    x = np.frombuffer(cells, dtype=np.float64).reshape(len(line_nos), width)
    if not np.isfinite(x).all():
        row, col = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(
            f"{path}:{line_nos[row]}: non-finite cell {float(x[row, col])} in column {col}"
        )
    if missing:
        rows, cols = np.divmod(np.asarray(missing), width)
        empty = np.flatnonzero(np.bincount(cols, minlength=width) == len(line_nos))
        if empty.size:
            raise ValueError(f"{path}: column(s) {empty.tolist()} have no values at all")
        x[rows, cols] = math.nan
        # Averaged over a power of two that puts each column inside (-2, 2),
        # a column's sum cannot overflow; scaling by a power of two changes no
        # bit of the mean unless a scaled value is subnormal.
        scale = np.ldexp(1.0, np.frexp(np.nanmax(np.abs(x), axis=0))[1] - 1)
        x[rows, cols] = (np.nanmean(x / scale, axis=0) * scale)[cols]
    return x


def _normalize_unit_interval(x: np.ndarray) -> np.ndarray:
    """Linearly map each column onto [0, 1]; constant columns map to 0.

    Values and ends are halved before they are subtracted, so the span of
    any finite column is finite.  Halving changes no bit of the result
    unless a halved value or difference is subnormal.
    """
    mins = x.min(axis=0) / 2.0
    spans = x.max(axis=0) / 2.0 - mins
    out = x / 2.0
    out -= mins  # exactly 0 in a constant column, so dividing it by 1 keeps 0
    out /= np.where(spans > 0.0, spans, 1.0)
    return out
