"""Dataset loading and minibatch iteration.

:func:`load_dataset` is the one entry point: it reads any supported
container and returns a :class:`Dataset` whose values lie in [0, 1].
Image pixels are held as the uint8 bytes they were read into and scaled
by 1/255 only as rows are read, so a pixel dataset takes one byte per
value.  Its formats:

- ``idx``: IDX image files (big endian): i32 magic 0x00000803 | i32 count |
  i32 rows | i32 cols | u8 pixels, row-wise.  Pixels are held as uint8,
  scaled as rows are read.
- ``cifar``: CIFAR-10 binary batches: 3073-byte records, 1 label byte
  followed by 1024 R + 1024 G + 1024 B pixel bytes.  Labels are discarded,
  pixels held as uint8, scaled as rows are read.
- ``csv``: delimiter-separated numeric tables (UCI-style), optionally with
  a header row and a label column to drop.  ``?`` or empty cells are
  treated as missing and imputed with the column mean; ``nan`` and
  ``inf`` cells are refused.  Each column is then mapped onto [0, 1].
- ``manifest``: a JSON manifest mapping dataset names to loader settings.

A CSV table is parsed once per content and settings: the normalized
float64 matrix is kept as a ``.npy`` file under ``$XDG_CACHE_HOME/lrnn/``
(``~/.cache/lrnn/`` by default) and read back by later loads.  An entry is
named by a SHA-256 over the file's bytes, the three CSV settings, the text
encoding the parser reads with, numpy's version and this module's source,
so edited data, other settings, a changed parser or another numpy never
meet an old parse.  An entry that cannot be read or written is passed
over, and deleting the directory is always safe.
"""

from __future__ import annotations

import math
import os
import struct
from array import array
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import Iterator

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 pixel bytes

_MISSING_CELLS = {"", "?"}
_QUOTED_CHARS = 40  # the longest part of a file's text that an error message quotes


def _as_2d(a, name: str) -> np.ndarray:
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def _is_count(value, least: int = 1) -> bool:
    """Whether ``value`` is an integer >= ``least``; a bool is not."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= least


def _check_count(name: str, value, least: int = 1) -> None:
    """Refuse the argument ``name`` unless its ``value`` is an integer >= ``least``."""
    if not _is_count(value, least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _quote(value) -> str:
    """``repr(value)``, or the first :data:`_QUOTED_CHARS` characters of its text
    quoted when the text is longer: a string's own text, else its repr."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _QUOTED_CHARS:
        return repr(value)
    return f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a C-contiguous 2-D float64 array of finite nonnegative entries."""
    m = _as_2d(a, name)
    # min and max propagate NaN and allocate nothing the size of the data
    lo, hi = float(m.min(initial=0.0)), float(m.max(initial=0.0))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} has NaN or infinite entries")
    if lo < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    return m


@dataclass(frozen=True)
class Dataset:
    """An instances-by-attributes matrix, held as loaded and read by rows.

    ``values`` is either a 2-D uint8 array of pixels, which stand for
    ``pixel / 255``, or anything :func:`as_matrix` accepts, which is held
    as its C-contiguous float64 matrix; NaN, infinite or negative entries
    are refused on construction.  :meth:`rows` reads rows as float64, so
    pixels become floats one minibatch or chunk at a time and never as a
    whole-dataset matrix.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        if isinstance(v, np.ndarray) and v.dtype == np.uint8:
            if v.ndim != 2:
                raise ValueError(f"x must be 2-D, got shape {v.shape}")
        else:
            object.__setattr__(self, "values", as_matrix(v, "x"))

    @property
    def instance_count(self) -> int:
        return self.values.shape[0]

    @property
    def attribute_count(self) -> int:
        return self.values.shape[1]

    def rows(self, index) -> np.ndarray:
        """The rows ``index`` (an int, a slice or an index array) as float64.

        ``index`` may also be a pair (rows, columns), the columns an index
        array: those columns of the rows, gathered into a C-contiguous array.
        Pixels are gathered as bytes, then divided by 255.0 into a new
        float64 array in one pass, the same bits as scaling the whole matrix
        at once.  A float64 matrix is indexed as it is, so a slice of it is a
        view.
        """
        if isinstance(index, tuple):
            rows, columns = index
            r = self.values[rows].take(columns, axis=-1)
        else:
            r = self.values[index]
        return np.divide(r, 255.0, dtype=np.float64) if r.dtype == np.uint8 else r

    @property
    def x(self) -> np.ndarray:
        """The whole matrix as float64, read anew on every access (a copy for pixels)."""
        return self.rows(slice(None))


def _as_dataset(x) -> Dataset:
    """``x`` itself if it is a :class:`Dataset`, else the matrix ``x`` as one.

    The matrix is made float64 first, so a uint8 array's entries are taken
    as the numbers they are, not as pixels.
    """
    return x if isinstance(x, Dataset) else Dataset(_as_2d(x, "x"))


def _load_idx(images_path) -> np.ndarray:
    """Read an IDX3 image file into a (count, rows*cols) uint8 pixel matrix."""
    path = Path(images_path)
    raw = path.read_bytes()
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated IDX header ({len(raw)} bytes)")
    magic, count, rows, cols = struct.unpack(">iiii", raw[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise ValueError(f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
    for what, value in (("image count", count), ("rows", rows), ("cols", cols)):
        if value < 1:
            raise ValueError(f"{path}: IDX {what} must be >= 1, got {value}")
    expected = 16 + count * rows * cols
    if len(raw) < expected:
        raise ValueError(f"{path}: truncated IDX file, {len(raw)} bytes < {expected}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
    return pixels.reshape(count, rows * cols)


def _load_cifar10(batch_paths: list) -> np.ndarray:
    """Read and concatenate CIFAR-10 binary batches into a uint8 pixel
    matrix; labels are dropped."""
    if not batch_paths:
        raise ValueError("no CIFAR-10 batch files given")
    parts = []
    for p in batch_paths:
        path = Path(p)
        raw = path.read_bytes()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise ValueError(
                f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        parts.append(records[:, 1:])
    return np.concatenate(parts, axis=0)


def _load_csv(
    path,
    delimiter: str = ",",
    has_header: bool = False,
    label_column: int | None = None,
) -> np.ndarray:
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


def _parse_bulk(
    path, delimiter: str, has_header: bool, label_column: int | None
) -> np.ndarray | None:
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


def _load_table(path, delimiter: str, has_header: bool, label_column: int | None) -> np.ndarray:
    """The CSV table at ``path`` as :func:`_load_csv` parses it, normalized, parsed once.

    The entry the key (see the module docstring) names is returned as it
    is.  Without one the table is parsed, and the result is written through
    a temporary file and ``os.replace``, unless the file's size or
    modification time moved between the hash and the end of the parse.  An
    entry that cannot be read, is not a 2-D float64 array or cannot be
    written counts as no entry; a table that fails to parse raises the
    parser's error and writes nothing.
    """
    import hashlib  # here, so that only CSV tables pay for the import

    with open(path, newline="") as f:  # opened as the parser opens it, to learn its encoding
        seen = os.fstat(f.fileno())
        source = Path(__file__).read_bytes()
        # The repr ends where its parenthesis closes and holds the source's
        # length, so the inputs of two different keys never run into each other.
        settings = (delimiter, has_header, label_column, f.encoding, np.__version__, len(source))
        key = hashlib.sha256(repr(settings).encode() + source)
        while chunk := f.buffer.read(1 << 20):
            key.update(chunk)
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.expanduser(os.path.join("~", ".cache"))
    entry = Path(root, "lrnn", f"{key.hexdigest()}.npy")
    if not entry.is_absolute():  # no home directory to cache in
        return _normalize_unit_interval(_load_csv(path, delimiter, has_header, label_column))
    try:
        with open(entry, "rb") as f:
            x = np.load(f, allow_pickle=False)
        if isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 2:
            return x
    except (OSError, ValueError, EOFError):  # no entry, or a truncated or foreign one
        pass
    x = _normalize_unit_interval(_load_csv(path, delimiter, has_header, label_column))
    try:
        now = os.stat(path)
        if (now.st_size, now.st_mtime_ns) == (seen.st_size, seen.st_mtime_ns):
            _save_entry(entry, x)
    except OSError:  # the file is gone, or the cache cannot be written: parse again next time
        pass
    return x


def _save_entry(entry: Path, x: np.ndarray) -> None:
    """Write ``x`` as the ``.npy`` file ``entry`` through a temporary file and one rename."""
    import tempfile

    entry.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
    try:
        with os.fdopen(fd, "wb") as f:
            np.save(f, x, allow_pickle=False)
        os.replace(tmp, entry)
    except BaseException:
        os.remove(tmp)
        raise


def iter_minibatches(
    d,
    batch_size: int,
    seed: int | np.random.Generator | None = None,
    shuffle: bool = False,
) -> Iterator[np.ndarray]:
    """Yield ceil(D / batch_size) float64 row blocks covering every instance once.

    Without shuffling the blocks are contiguous rows in dataset order and
    the last batch may be short.  With ``shuffle`` the rows are permuted by
    the seeded generator first; passing a ``Generator`` lets a caller drive
    distinct permutations across epochs from one stream.  Each block is
    read on its own, the shuffled ones through their slice of the
    permutation, so no permuted copy of the dataset is made.  ``d`` is a
    :class:`Dataset` or an array, which is checked as a :class:`Dataset`
    checks it; either is read with :meth:`Dataset.rows`.
    """
    _check_count("batch_size", batch_size)
    d = _as_dataset(d)
    order = None
    if shuffle:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        order = rng.permutation(d.instance_count)
    for start in range(0, d.instance_count, batch_size):
        stop = start + batch_size
        yield d.rows(slice(start, stop) if order is None else order[start:stop])


def load_dataset(
    path,
    fmt: str | None = None,
    *,
    name: str | None = None,
    delimiter: str = ",",
    has_header: bool = False,
    label_column: int | None = None,
) -> Dataset:
    """Read a dataset in any supported format, with every value in [0, 1].

    ``fmt`` is ``"idx"``, ``"cifar"``, ``"csv"`` or ``"manifest"``.  With
    ``fmt=None`` it is guessed from ``path``: ``manifest`` for ``*.json``,
    ``csv`` for ``*.csv``, ``cifar`` for a directory or a ``*.bin`` file
    (comma-separated ``*.bin`` files included), and ``idx`` for anything else.

    IDX and CIFAR pixels are held as uint8 and scaled by 1/255 as rows are
    read; CSV tables are column-normalized.  A CSV table is parsed once:
    the normalized matrix is cached as a float64 ``.npy`` file under
    ``$XDG_CACHE_HOME/lrnn/`` (``~/.cache/lrnn/`` by default), keyed by a
    SHA-256 over the file's bytes, the three CSV settings, the text
    encoding, numpy's version and this module's source, and later loads of
    the same bytes under the same settings read that file back.  Deleting
    the directory is always safe.  ``fmt="cifar"`` accepts a
    single file, a directory (all ``*.bin`` files, sorted), a list of files
    or a string of comma-separated files.  ``fmt="manifest"`` loads entry ``name`` of the
    manifest at ``path``, or its only entry when ``name`` is None; the
    entry's own settings replace ``delimiter``, ``has_header`` and
    ``label_column``.  Those three are refused as a manifest's are.  An
    entry whose file cannot be read raises ``ValueError``, not ``OSError``.
    """
    settings = {"delimiter": delimiter, "header": has_header, "label_column": label_column}
    _check_settings(settings, "load_dataset")
    if fmt is None:
        fmt = _guess_format(path)
    where = ""  # for a manifest entry, the manifest and the entry's name
    if fmt == "manifest":
        entries = _load_manifest(path)
        if name is None:
            if len(entries) != 1:
                raise ValueError(
                    f"manifest {path} has {len(entries)} datasets; pick one by name"
                )
            name = next(iter(entries))
        if name not in entries:
            known = ", ".join(sorted(entries))
            known = known if len(known) <= _QUOTED_CHARS else _quote(known)
            raise ValueError(f"dataset {_quote(name)} not in manifest (has: {known})")
        e = entries[name]
        where = f"{path}: entry {_quote(name)}: "
        path, fmt = e["path"], e["format"]
        delimiter, label_column = e.get("delimiter", ","), e.get("label_column")
        has_header = e.get("header", False)
    try:
        if fmt == "idx":
            x = _load_idx(path)
        elif fmt == "cifar":
            if isinstance(path, (str, Path)) and Path(path).is_dir():
                batches = sorted(Path(path).glob("*.bin"))
                if not batches:
                    raise ValueError(f"no *.bin batch files under {path}")
            elif isinstance(path, str):
                batches = path.split(",")
            else:
                batches = [path] if isinstance(path, Path) else list(path)
            x = _load_cifar10(batches)
        elif fmt == "csv":
            x = _load_table(path, delimiter, has_header, label_column)
        else:
            raise ValueError(f"{where}unknown dataset format {_quote(fmt)}")
    except OSError as e:  # an entry's path names a file of the manifest's choosing: quote it
        if not where:
            raise
        raise ValueError(f"{where}cannot read {_quote(str(path))}: {e.strerror}") from None
    return Dataset(x)


def _guess_format(path) -> str:
    path = Path(path)
    if path.suffix == ".json":
        return "manifest"
    if path.suffix == ".csv":
        return "csv"
    return "cifar" if path.is_dir() or path.suffix == ".bin" else "idx"


#: Each manifest setting: what it must be, and the test of a value.
_MANIFEST_SETTINGS = {
    "path": ("a string", lambda v: isinstance(v, str)),
    "format": ("a string", lambda v: isinstance(v, str)),
    "delimiter": ("a one-character string", lambda v: isinstance(v, str) and len(v) == 1),
    "header": ("true or false", lambda v: isinstance(v, bool)),
    "label_column": ("an integer or null", lambda v: v is None or type(v) is int),
}


def _check_settings(settings: dict, where: str) -> None:
    """Refuse a setting of another type than :data:`_MANIFEST_SETTINGS` names."""
    for key, (kind, valid) in _MANIFEST_SETTINGS.items():
        if key in settings and not valid(settings[key]):
            raise ValueError(f"{where} setting {key!r} must be {kind}, got {_quote(settings[key])}")


def _load_manifest(path) -> dict[str, dict]:
    """Read a manifest: JSON object mapping name -> loader settings.

    Each entry needs ``path`` and ``format`` and may add ``delimiter``,
    ``label_column`` and ``header``; a setting of another type than
    :data:`_MANIFEST_SETTINGS` names is refused.  Relative paths are
    resolved against the manifest's directory.
    """
    import json  # here, so that only manifests pay for the import

    path = Path(path)
    try:
        with open(path) as f:
            raw = json.load(f)
    except ValueError as e:  # not JSON, not UTF-8, or a number past int's digit limit
        raise ValueError(f"{path}: {e}") from None
    if not isinstance(raw, dict) or not raw:
        raise ValueError(f"{path}: manifest must be a non-empty JSON object")
    entries: dict[str, dict] = {}
    for name, entry in raw.items():
        if not isinstance(entry, dict) or "path" not in entry or "format" not in entry:
            raise ValueError(f"{path}: entry {_quote(name)} needs at least 'path' and 'format'")
        _check_settings(entry, f"{path}: entry {_quote(name)}")
        entry = dict(entry)
        p = Path(entry["path"])
        if not p.is_absolute():
            p = path.parent / p
        entry["path"] = p
        entries[name] = entry
    return entries

