"""Model files: LRNN2, raw float64 weights behind a three-line text header.

The header is

    LRNN2
    depth M
    dims V H_1 ... H_M

and after it come W 1 .. W M and then WB 1 .. WB M, each as raw
little-endian float64 (``<f8``) bytes in row-major order, with no line
between blocks.  Block shapes follow from ``dims``: W m is H_{m-1} x H_m and
WB m mirrors the encode chain.  The bytes are the weights themselves, so
save/load reproduces every weight bit for bit.  On load the file's length
must equal the header's plus 8 bytes per declared weight, checked before any
array is allocated, so a short payload, trailing bytes and sizes the file
does not hold are refused.  A file whose first line is not ``LRNN2`` is
refused, the LRNN1 text layout of earlier versions included.

The RNN constraints are checked again on the loaded weights.  A header line
is read no further than 4096 bytes, and an error message quotes at most the
first 40 characters of a file line.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .data import _quote
from .model import LrnnModel, validate_constraints

FORMAT_TAG = "LRNN2"
_HEADER_LINE_BYTES = 4096  # the most a header line may take, newline included


def save_model(model: LrnnModel, path) -> None:
    """Write ``model`` to ``path`` in the LRNN2 layout, one matrix at a time."""
    with open(path, "wb") as f:
        dims = " ".join(str(d) for d in model.encode_dims)
        f.write(f"{FORMAT_TAG}\ndepth {model.depth}\ndims {dims}\n".encode())
        for w in model.encode_weights + model.decode_weights:
            f.write(np.ascontiguousarray(w, dtype="<f8"))


def _header_size(path: Path, what: str, text: str) -> int:
    """A size read from the header: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{path}: {what} must be an integer, got {_quote(text)}") from None
    if value < 1:
        raise ValueError(f"{path}: {what} must be >= 1, got {_quote(text)}")
    return value


def _read_dims(path: Path, depth_line: str, dims_line: str) -> list[int]:
    """The sizes V, H_1 .. H_M that the depth and dims lines declare."""
    depth_line = depth_line.split()
    if len(depth_line) != 2 or depth_line[0] != "depth":
        raise ValueError(f"{path}: malformed depth line {_quote(' '.join(depth_line))}")
    depth = _header_size(path, "depth", depth_line[1])
    dims_line = dims_line.split()
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


def load_model(path) -> LrnnModel:
    """Read an LRNN2 file back into a constraint-checked model."""
    path = Path(path)
    with open(path, "rb") as f:
        tag = _header_line(path, f).strip()
        if tag != FORMAT_TAG:
            raise ValueError(f"{path}: version tag mismatch, got {_quote(tag)}, "
                             f"expected {FORMAT_TAG!r}")
        dims = _read_dims(path, _header_line(path, f), _header_line(path, f))
        encode, decode = _read_payload(path, f, dims)
    model = LrnnModel(encode, decode)
    if violations := validate_constraints(model):
        v = violations[0]
        raise ValueError(f"{path}: stored model violates RNN constraints ({len(violations)} "
                         f"row(s); first: {v.layer} row {v.row} {v.kind} {v.value:.6g})")
    return model
