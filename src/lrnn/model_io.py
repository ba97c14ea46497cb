"""Model files: LRNN2, raw weights behind a text header, and LRNN1, text.

Both layouts open with the same three text lines:

    LRNN2                  (or LRNN1)
    depth M
    dims V H_1 ... H_M

``save_model`` writes LRNN2 only.  After its header come W 1 .. W M and
then WB 1 .. WB M, each as raw little-endian float64 (``<f8``) bytes in
row-major order, with no line between blocks.  Block shapes follow from
``dims``: W m is H_{m-1} x H_m and WB m mirrors the encode chain.  The
bytes are the weights themselves, so save/load reproduces every weight bit
for bit.  On load the file's length must equal the header's plus 8 bytes
per declared weight, checked before any array is allocated, so a short
payload, trailing bytes and sizes the file does not hold are refused.

LRNN1, which earlier versions wrote, is still read.  After its header, each
block is a line ``W m rows cols`` (``WB m`` for decode blocks) followed by
one line of whitespace-separated values per matrix row; blank lines and
extra whitespace are ignored.  Values are numbers as ``np.loadtxt`` reads
them (``1_0``, which only ``float`` reads, is refused); declared sizes are
checked against the lines present before any block is parsed, so no array
outgrows the file; a row-by-row read only words why a block was refused.

Either way the RNN constraints are checked again on the loaded weights.
An LRNN2 depth or dims line is read no further than 4096 bytes, and an
error message quotes at most the first 40 characters of a file line.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .data import _quote
from .model import LrnnModel, validate_constraints

FORMAT_TAG = "LRNN2"  # the layout save_model writes
TEXT_TAG = "LRNN1"
_HEADER_LINE_BYTES = 4096  # the most an LRNN2 depth or dims line may take, newline included


def save_model(model: LrnnModel, path) -> None:
    """Write ``model`` to ``path`` in the LRNN2 layout, one matrix at a time."""
    with open(path, "wb") as f:
        dims = " ".join(str(d) for d in model.encode_dims)
        f.write(f"{FORMAT_TAG}\ndepth {model.depth}\ndims {dims}\n".encode())
        for w in model.encode_weights + model.decode_weights:
            f.write(np.ascontiguousarray(w, dtype="<f8"))


def _line(path: Path, lines: list[str], pos: int, what: str) -> str:
    if pos >= len(lines):
        raise ValueError(f"{path}: unexpected end of file, expected {what}")
    return lines[pos]


def _read_block(path: Path, lines: list[str], pos: int, marker: str, m: int,
                rows: int, cols: int) -> np.ndarray:
    """The block whose header is ``lines[pos]``, as a ``rows`` x ``cols`` matrix."""
    head = _line(path, lines, pos, f"'{marker} {m}' block header")
    parts = head.split()
    if len(parts) != 4 or parts[0] != marker or parts[1] != str(m):
        raise ValueError(f"{path}: expected block '{marker} {m} {rows} {cols}', got {_quote(head)}")
    size = f"block {marker} {m} size"
    if (_header_size(path, size, parts[2]), _header_size(path, size, parts[3])) != (rows, cols):
        declared = _quote(f"{parts[2]}x{parts[3]}")
        raise ValueError(f"{path}: block {marker} {m} declares {declared}, "
                         f"dims require {_quote(f'{rows}x{cols}')}")
    body = lines[pos + 1 : pos + 1 + rows]
    _line(path, lines, pos + rows, f"row {len(body)} of block {marker} {m}")  # before any parse
    try:
        w = np.loadtxt(body, comments=None, ndmin=2)
    except ValueError as e:
        refusal = e
    else:
        if w.shape == (rows, cols):
            return w
        refusal = "rows of another width"
    # Word the refusal: a row's width, a value float refuses, else loadtxt's own.
    for i, line in enumerate(body):
        values = line.split()
        if len(values) != cols:
            raise ValueError(
                f"{path}: block {marker} {m} row {i} has {len(values)} values, expected {cols}"
            )
        for v in values:
            try:
                float(v)
            except ValueError:
                raise ValueError(f"{path}: block {marker} {m} row {i}: "
                                 f"could not convert string to float: {_quote(v)}") from None
    raise ValueError(f"{path}: block {marker} {m}: {refusal}")


def _header_size(path: Path, what: str, text: str) -> int:
    """A size read from the header: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{path}: {what} must be an integer, got {_quote(text)}") from None
    if value < 1:
        raise ValueError(f"{path}: {what} must be >= 1, got {_quote(text)}")
    return value


def _read_dims(path: Path, lines: list[str]) -> list[int]:
    """The sizes V, H_1 .. H_M that the depth and dims lines, ``lines[1:3]``, declare."""
    depth_line = _line(path, lines, 1, "depth").split()
    if len(depth_line) != 2 or depth_line[0] != "depth":
        raise ValueError(f"{path}: malformed depth line {_quote(' '.join(depth_line))}")
    depth = _header_size(path, "depth", depth_line[1])
    dims_line = _line(path, lines, 2, "dims").split()
    if dims_line[:1] != ["dims"] or len(dims_line) != depth + 2:
        raise ValueError(f"{path}: dims line must list depth + 1 sizes, "
                         f"depth {_quote(depth_line[1])}")
    return [_header_size(path, "dims size", v) for v in dims_line[1:]]


def _read_payload(path: Path, f, dims: list[int]) -> tuple[list, list]:
    """The encode and decode chains of an LRNN2 file, ``f`` positioned past its header."""
    shapes = list(zip(dims, dims[1:]))
    expected = f.tell() + 16 * sum(rows * cols for rows, cols in shapes)
    actual = os.fstat(f.fileno()).st_size
    if actual != expected:  # before any array is allocated
        fault = "payload ends early" if actual < expected else "trailing bytes after the final block"
        raise ValueError(f"{path}: {fault}: the dims declare a file of "
                         f"{_quote(str(expected))} bytes, the file has {actual}")
    encode = [np.empty(shape, dtype="<f8") for shape in shapes]
    decode = [np.empty((cols, rows), dtype="<f8") for rows, cols in reversed(shapes)]
    for w in encode + decode:
        if f.readinto(w) != w.nbytes:
            raise ValueError(f"{path}: file shrank while it was read")
    return encode, decode


def _header_line(path: Path, f) -> str:
    """The next line of the binary file ``f``, read no further than :data:`_HEADER_LINE_BYTES`."""
    line = f.readline(_HEADER_LINE_BYTES)
    if len(line) == _HEADER_LINE_BYTES and not line.endswith(b"\n"):
        raise ValueError(f"{path}: header line longer than {_HEADER_LINE_BYTES} bytes")
    return line.decode("ascii", "replace")


def _read_text(path: Path) -> tuple[list, list]:
    """The encode and decode chains of an LRNN1 file."""
    lines = [line for line in map(str.strip, path.read_text(errors="replace").splitlines()) if line]
    tag = _line(path, lines, 0, "format tag")
    if tag != TEXT_TAG:
        raise ValueError(f"{path}: version tag mismatch, got {_quote(tag)}, "
                         f"expected {FORMAT_TAG!r} or {TEXT_TAG!r}")
    dims = _read_dims(path, lines)
    encode, decode, pos = [], [], 3
    for marker, sizes, chain in (("W", dims, encode), ("WB", dims[::-1], decode)):
        for m in range(len(dims) - 1):
            chain.append(_read_block(path, lines, pos, marker, m + 1, sizes[m], sizes[m + 1]))
            pos += 1 + sizes[m]
    if pos < len(lines):
        raise ValueError(f"{path}: trailing content after the final block")
    return encode, decode


def load_model(path) -> LrnnModel:
    """Read an LRNN2 or LRNN1 file back into a constraint-checked model."""
    path = Path(path)
    with open(path, "rb") as f:
        if f.readline(64).strip() == FORMAT_TAG.encode():
            header = [FORMAT_TAG] + [_header_line(path, f) for _ in range(2)]
            encode, decode = _read_payload(path, f, _read_dims(path, header))
        else:
            encode, decode = _read_text(path)
    model = LrnnModel(encode, decode)
    if violations := validate_constraints(model):
        v = violations[0]
        raise ValueError(f"{path}: stored model violates RNN constraints ({len(violations)} "
                         f"row(s); first: {v.layer} row {v.row} {v.kind} {v.value:.6g})")
    return model
