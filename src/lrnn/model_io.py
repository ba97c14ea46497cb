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

Values are written with 17 significant digits, which round-trips IEEE
doubles exactly, so save/load reproduces every weight bit for bit.
Loading re-checks the declared shapes and the RNN constraints.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from .model import LrnnModel, reject_violations, validate_constraints

FORMAT_TAG = "LRNN1"


def _format_rows(w: np.ndarray, sep: str = " ") -> Iterator[str]:
    """Each row of ``w`` as text, every value written as ``f"{v:.17g}"`` writes it."""
    row_format = sep.join(["%.17g"] * w.shape[1])
    for row in w:
        yield row_format % tuple(row.tolist())


def save_model(model: LrnnModel, path) -> None:
    """Write ``model`` to ``path`` in the LRNN1 text format."""
    dims = model.encode_dims
    lines = [FORMAT_TAG, f"depth {model.depth}", "dims " + " ".join(str(d) for d in dims)]
    for marker, chain in (("W", model.encode_weights), ("WB", model.decode_weights)):
        for m, w in enumerate(chain, start=1):
            lines.append(f"{marker} {m} {w.shape[0]} {w.shape[1]}")
            lines.extend(_format_rows(w))
    Path(path).write_text("\n".join(lines) + "\n")


class _Reader:
    def __init__(self, path: Path):
        self.path = path
        self.lines = path.read_text().splitlines()
        self.pos = 0

    def next_line(self, what: str) -> str:
        line = self.next_line_or_none()
        if line is None:
            raise ValueError(f"{self.path}: unexpected end of file, expected {what}")
        return line

    def next_line_or_none(self) -> str | None:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line
        return None


def _read_block(r: _Reader, marker: str, m: int, rows: int, cols: int) -> np.ndarray:
    head = r.next_line(f"'{marker} {m}' block header")
    parts = head.split()
    if len(parts) != 4 or parts[0] != marker or parts[1] != str(m):
        raise ValueError(f"{r.path}: expected block '{marker} {m} {rows} {cols}', got {head!r}")
    if (int(parts[2]), int(parts[3])) != (rows, cols):
        raise ValueError(
            f"{r.path}: block {marker} {m} declares {parts[2]}x{parts[3]}, "
            f"dims require {rows}x{cols}"
        )
    start = r.pos
    lines = [r.next_line_or_none() for _ in range(rows)]
    if rows and None not in lines:
        # One parse of the block.  A value loadtxt accepts is one that float
        # reads alike, so only the spacing can differ: a double space, a tab
        # between values, a ragged row or ``1_0`` make it refuse or return
        # another shape, and the row-by-row read below decides and words it.
        try:
            w = np.loadtxt(lines, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            w = None
        if w is not None and w.shape == (rows, cols):
            return w
    r.pos = start
    w = np.empty((rows, cols))
    for i in range(rows):
        values = r.next_line(f"row {i} of block {marker} {m}").split()
        if len(values) != cols:
            raise ValueError(
                f"{r.path}: block {marker} {m} row {i} has {len(values)} values, expected {cols}"
            )
        try:
            w[i] = [float(v) for v in values]
        except ValueError as e:
            raise ValueError(f"{r.path}: block {marker} {m} row {i}: {e}") from None
    return w


def _header_size(r: _Reader, what: str, text: str) -> int:
    """A size read from the header: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{r.path}: {what} must be an integer, got {text!r}") from None
    if value < 1:
        raise ValueError(f"{r.path}: {what} must be >= 1, got {value}")
    return value


def load_model(path) -> LrnnModel:
    """Read an LRNN1 text file back into a constraint-checked model."""
    r = _Reader(Path(path))
    tag = r.next_line("format tag")
    if tag != FORMAT_TAG:
        raise ValueError(f"{r.path}: version tag mismatch, got {tag!r}, expected {FORMAT_TAG!r}")
    depth_line = r.next_line("depth").split()
    if len(depth_line) != 2 or depth_line[0] != "depth":
        raise ValueError(f"{r.path}: malformed depth line {' '.join(depth_line)!r}")
    depth = _header_size(r, "depth", depth_line[1])
    dims_line = r.next_line("dims").split()
    if dims_line[0] != "dims" or len(dims_line) != depth + 2:
        raise ValueError(f"{r.path}: dims line must list {depth + 1} sizes")
    dims = [_header_size(r, "dims size", v) for v in dims_line[1:]]
    mirror = dims[::-1]
    encode = [_read_block(r, "W", m + 1, dims[m], dims[m + 1]) for m in range(depth)]
    decode = [_read_block(r, "WB", m + 1, mirror[m], mirror[m + 1]) for m in range(depth)]
    if r.next_line_or_none() is not None:
        raise ValueError(f"{r.path}: trailing content after the final block")
    model = LrnnModel(encode, decode)
    reject_violations(validate_constraints(model), f"{r.path}: stored model")
    return model
