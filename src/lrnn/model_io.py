"""Plain-text model files.

Layout (whitespace separated, one matrix row per line):

    LRNN1
    depth M
    dims V H_1 ... H_M
    W 1 rows cols
    <rows lines of cols values>
    ...
    WB 1 rows cols
    ...

``np.savetxt`` writes the values with 17 significant digits, which
round-trips IEEE doubles exactly, so save/load reproduces every weight bit
for bit.  On load, values are whitespace-separated numbers as
``np.loadtxt`` reads them (``1_0``, which only ``float`` reads, is
refused); declared sizes are checked against the lines present before any
block is parsed, so no array outgrows the file; a row-by-row read only
words why a block was refused; and the RNN constraints are checked again.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .model import LrnnModel, reject_violations, validate_constraints

FORMAT_TAG = "LRNN1"


def save_model(model: LrnnModel, path) -> None:
    """Write ``model`` to ``path`` in the LRNN1 text format."""
    with open(path, "w") as f:
        dims = " ".join(str(d) for d in model.encode_dims)
        f.write(f"{FORMAT_TAG}\ndepth {model.depth}\ndims {dims}\n")
        for marker, chain in (("W", model.encode_weights), ("WB", model.decode_weights)):
            for m, w in enumerate(chain, start=1):
                f.write(f"{marker} {m} {w.shape[0]} {w.shape[1]}\n")
                np.savetxt(f, w, fmt="%.17g")


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
        raise ValueError(f"{path}: expected block '{marker} {m} {rows} {cols}', got {head!r}")
    size = f"block {marker} {m} size"
    if (_header_size(path, size, parts[2]), _header_size(path, size, parts[3])) != (rows, cols):
        raise ValueError(f"{path}: block {marker} {m} declares {parts[2]}x{parts[3]}, "
                         f"dims require {rows}x{cols}")
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
        try:
            for v in values:
                float(v)
        except ValueError as e:
            raise ValueError(f"{path}: block {marker} {m} row {i}: {e}") from None
    raise ValueError(f"{path}: block {marker} {m}: {refusal}")


def _header_size(path: Path, what: str, text: str) -> int:
    """A size read from the header: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{path}: {what} must be an integer, got {text!r}") from None
    if value < 1:
        raise ValueError(f"{path}: {what} must be >= 1, got {value}")
    return value


def load_model(path) -> LrnnModel:
    """Read an LRNN1 text file back into a constraint-checked model."""
    path = Path(path)
    lines = [line for line in map(str.strip, path.read_text().splitlines()) if line]
    tag = _line(path, lines, 0, "format tag")
    if tag != FORMAT_TAG:
        raise ValueError(f"{path}: version tag mismatch, got {tag!r}, expected {FORMAT_TAG!r}")
    depth_line = _line(path, lines, 1, "depth").split()
    if len(depth_line) != 2 or depth_line[0] != "depth":
        raise ValueError(f"{path}: malformed depth line {' '.join(depth_line)!r}")
    depth = _header_size(path, "depth", depth_line[1])
    dims_line = _line(path, lines, 2, "dims").split()
    if dims_line[0] != "dims" or len(dims_line) != depth + 2:
        raise ValueError(f"{path}: dims line must list {depth + 1} sizes")
    dims = [_header_size(path, "dims size", v) for v in dims_line[1:]]
    encode, decode, pos = [], [], 3
    for marker, sizes, chain in (("W", dims, encode), ("WB", dims[::-1], decode)):
        for m in range(depth):
            chain.append(_read_block(path, lines, pos, marker, m + 1, sizes[m], sizes[m + 1]))
            pos += 1 + sizes[m]
    if pos < len(lines):
        raise ValueError(f"{path}: trailing content after the final block")
    model = LrnnModel(encode, decode)
    reject_violations(validate_constraints(model), f"{path}: stored model")
    return model
