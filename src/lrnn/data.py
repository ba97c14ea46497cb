"""Dataset loading and minibatch iteration.

:func:`load_dataset` is the one entry point: it reads any supported
container and returns a :class:`Dataset` whose values lie in [0, 1].
Image pixels are held as the uint8 bytes they were read into and scaled
by 1/255 only as rows are read, so a pixel dataset takes one byte per
value.  Its formats:

- ``idx``: IDX image files (big endian): i32 magic 0x00000803 | i32 count |
  i32 rows | i32 cols | u8 pixels, row-wise.
- ``cifar``: CIFAR-10 binary batches: 3073-byte records, 1 label byte
  followed by 1024 R + 1024 G + 1024 B pixel bytes.  Labels are discarded.
- ``csv``: delimiter-separated numeric tables (UCI-style), optionally with
  a header row and a label column to drop.  ``?`` or empty cells are
  treated as missing and imputed with the column mean; ``nan`` and
  ``inf`` cells are refused.  Each column is then mapped onto [0, 1].
- ``manifest``: a JSON manifest mapping dataset names to loader settings.

A CSV table is parsed once per content and settings: the normalized
float64 matrix is kept as a ``.npy`` file under ``$XDG_CACHE_HOME/lrnn/``
(``~/.cache/lrnn/`` by default) and read back by later loads.  An entry is
named by a SHA-256 over the file's bytes, the three CSV settings, the text
encoding the parser reads with, numpy's version and the source of the
parser's module :mod:`lrnn._table`, so edited data, other settings, a
changed parser or another numpy never meet an old parse, and an edit
anywhere else keeps every entry.  An entry that cannot be read or written
is passed over, and deleting the directory is always safe.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import Iterator

import numpy as np

from . import _table
from ._table import _QUOTED_CHARS, _load_csv, _normalize_unit_interval, _quote
from ._table import _parse_bulk, _scan_csv  # noqa: F401  (kept importable from here)

IDX_IMAGE_MAGIC = 0x00000803
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 pixel bytes


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
        source = Path(_table.__file__).read_bytes()
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

    A CSV table is column-normalized and parsed once (the module docstring
    describes the cache).  ``fmt="cifar"`` accepts a single file, a
    directory (all ``*.bin`` files, sorted), a list of files or a string of
    comma-separated files.  ``fmt="manifest"`` loads entry ``name`` of the
    manifest at ``path``, or its only entry when ``name`` is None; the
    entry's own settings replace ``delimiter``, ``has_header`` and
    ``label_column``.  Those three are refused as a manifest's are.  An
    entry whose file cannot be read raises ``ValueError``, not ``OSError``.
    """
    settings = {"delimiter": delimiter, "header": has_header, "label_column": label_column}
    _check_settings(settings, "load_dataset")
    path, fmt, settings, where = _resolve(path, fmt, name, settings)
    with _reading(where, settings.get("path")):
        if fmt == "idx":
            x = _load_idx(path)
        elif fmt == "cifar":
            x = _load_cifar10(path)
        elif fmt == "csv":
            x = _load_table(path, settings.get("delimiter", ","), settings.get("header", False),
                            settings.get("label_column"))
        else:
            raise ValueError(f"{where}unknown dataset format {_quote(fmt)}")
    return Dataset(x)


def _resolve(path, fmt, name, settings: dict) -> tuple:
    """What :func:`load_dataset` reads for its arguments: (path, format, settings, where).

    A manifest gives way to its entry ``name`` (or its only entry): the
    entry's path and format, the entry itself as the settings, and as
    ``where`` the prefix of its messages (``""`` for any other source).  A
    CIFAR source becomes its batch files.  The errors are ``load_dataset``'s.
    """
    if fmt is None:
        fmt = _guess_format(path)
    where = ""
    if fmt == "manifest":
        entries = _load_manifest(path)
        if name is None:
            if len(entries) != 1:
                raise ValueError(f"manifest {path} has {len(entries)} datasets; pick one by name")
            name = next(iter(entries))
        if name not in entries:
            known = ", ".join(sorted(entries))
            known = known if len(known) <= _QUOTED_CHARS else _quote(known)
            raise ValueError(f"dataset {_quote(name)} not in manifest (has: {known})")
        settings, where = entries[name], f"{path}: entry {_quote(name)}: "
        path, fmt = settings["path"], settings["format"]
    if fmt == "cifar":
        with _reading(where, path):
            if isinstance(path, (str, Path)) and Path(path).is_dir():
                batches = sorted(Path(path).glob("*.bin"))
                if not batches:
                    raise ValueError(f"no *.bin batch files under {path}")
            elif isinstance(path, str):
                batches = path.split(",")
            else:
                batches = [path] if isinstance(path, Path) else list(path)
        path = batches
    return path, fmt, settings, where


@contextmanager
def _reading(where: str, path):
    """Let an ``OSError`` pass, or raise it for a manifest entry as a ``ValueError``."""
    try:
        yield
    except OSError as e:
        if not where:
            raise
        raise ValueError(f"{where}cannot read {_quote(str(path))}: {e.strerror}") from None


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

