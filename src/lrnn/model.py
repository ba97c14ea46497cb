"""Quasi-linear random neural network autoencoder: weight container and forward pass.

Every neuron has firing rate 1, so a connection weight doubles as the
probability that a spike travels along it.  This forces the "RNN
constraints" on all weight matrices: entries are nonnegative and each
row sums to at most 1.  Under those constraints a layer's excitation
probabilities are the clamped linear map ``min(input @ W, 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .data import _as_2d, _as_dataset, _is_count, as_matrix

#: Slack used when checking row sums against 1, absorbing rounding from
#: the exact-normalization steps in training.
ROW_SUM_SLACK = 1e-12

#: Values per float64 block of a whole-dataset pass (2 MB): a block of rows
#: as wide as the widest array the pass builds holds about this many, so the
#: pass stays in cache and a narrow table is still cut into few blocks.
CHUNK_VALUES = 1 << 18


def rows_per_chunk(*widths: int) -> int:
    """Rows per block of a whole-dataset pass over arrays ``widths`` values wide."""
    return max(1, CHUNK_VALUES // max(widths))


def _encode_dims(encode_dims: Sequence[int]) -> list[int]:
    """The sizes V, H1, ..., Hk as ints, refused unless they are two or more integers >= 1."""
    if len(encode_dims) < 2 or not all(_is_count(d) for d in encode_dims):
        raise ValueError(f"encode dims need >= 2 positive integers, got {encode_dims}")
    return [int(d) for d in encode_dims]


def _check_attributes(what: str, count: int, expected: int) -> None:
    """Refuse ``what`` unless its ``count`` attributes are the ``expected`` visible units."""
    if count != expected:
        raise ValueError(f"{what} has {count} attributes but model expects {expected}")


def clamp_unit(m: np.ndarray) -> np.ndarray:
    """Elementwise min(m, 1), the saturation applied to every layer's activation."""
    return np.minimum(m, 1.0)


@dataclass
class LrnnModel:
    """Weights of a feed-forward autoencoder with ``depth`` encode/decode stages.

    ``encode_weights[m]`` maps layer m to layer m+1 of the encoder
    (shape ``(H_m, H_{m+1})`` with ``H_0 = V``).  ``decode_weights`` mirror
    the encoder: the decode dimension chain is the encode chain reversed,
    so the final decode layer has width V again.

    Construction checks the dimension chain, every size at least 1.  The
    RNN constraints are checked where a model enters: by ``load_model``, and
    by :class:`~lrnn.simulation.SimNetwork` for ``compile_sim`` and
    ``feed_forward_spec``.  :func:`validate_constraints` reports on any model.
    """

    encode_weights: list[np.ndarray]
    decode_weights: list[np.ndarray]

    def __post_init__(self) -> None:
        if not self.encode_weights or not self.decode_weights:
            raise ValueError("model needs at least one encode and one decode layer")
        if len(self.encode_weights) != len(self.decode_weights):
            raise ValueError(
                f"encode depth {len(self.encode_weights)} != decode depth "
                f"{len(self.decode_weights)}"
            )
        self.encode_weights = [_as_2d(w, f"W{m + 1}") for m, w in enumerate(self.encode_weights)]
        self.decode_weights = [_as_2d(w, f"WB{m + 1}") for m, w in enumerate(self.decode_weights)]
        for i, (w, v) in enumerate(zip(self.encode_weights, self.encode_weights[1:]), 1):
            if w.shape[1] != v.shape[0]:
                raise ValueError(f"encode chain broken at layer {i}: {w.shape} -> {v.shape}")
        shapes = [w.shape for w in self.decode_weights]
        mirror = [w.shape[::-1] for w in reversed(self.encode_weights)]
        if shapes != mirror:  # so the decode chain is unbroken too
            raise ValueError(f"decode shapes {shapes} must mirror the encode shapes: {mirror}")
        _encode_dims(self.encode_dims)

    @property
    def depth(self) -> int:
        return len(self.encode_weights)

    @property
    def encode_dims(self) -> list[int]:
        return [self.encode_weights[0].shape[0]] + [w.shape[1] for w in self.encode_weights]

    @property
    def visible_dim(self) -> int:
        return self.encode_weights[0].shape[0]


@dataclass
class ActivationState:
    """Per-layer excitation probabilities for a batch of instances.

    All entries lie in [0, 1]; ``q_enc[m]``/``q_dec[m]`` hold the m-th
    encode/decode layer for the whole batch (rows = instances).
    """

    q_hat: np.ndarray
    q_enc: list[np.ndarray]
    q_dec: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        """Final decode layer, the batch reconstruction."""
        return self.q_dec[-1]


def _layers(model: LrnnModel, x: np.ndarray) -> Iterator[np.ndarray]:
    """Every layer of the pass of a checked float64 batch ``x``, visual layer first.

    The visual layer is ``min(x, 1)`` and each later one ``min(previous @ W, 1)``,
    clamped where its product lies; a yielded layer is never written again.
    """
    q = clamp_unit(x)
    yield q
    for w in model.encode_weights + model.decode_weights:
        q = q @ w
        np.minimum(q, 1.0, out=q)
        yield q


def forward(model: LrnnModel, x) -> ActivationState:
    """Propagate a nonnegative batch ``x`` (rows = instances) through the model.

    Each layer computes ``min(previous @ W, 1)``; the visual layer is
    ``min(x, 1)``.
    """
    x = as_matrix(x, "x")
    _check_attributes("input", x.shape[1], model.visible_dim)
    q_hat, *layers = _layers(model, x)
    return ActivationState(q_hat, layers[: model.depth], layers[model.depth :])


def reconstruction_error(x, q_dec_final) -> float:
    """Mean squared error between a batch and its reconstruction."""
    x = np.asarray(x, dtype=np.float64)
    q = np.asarray(q_dec_final, dtype=np.float64)
    if x.shape != q.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {q.shape}")
    if not x.size:
        raise ValueError(f"empty batch of shape {x.shape}")
    d = x - q
    np.multiply(d, d, out=d)
    return float(np.mean(d))


def _live_units(w: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Mask of the visible units with a nonzero row of ``w``, the first encode
    layer, or a nonzero column of ``wb``, the last decode layer."""
    return (w != 0.0).any(axis=1) | (wb != 0.0).any(axis=0)


def dataset_error(model: LrnnModel, x) -> float:
    """Reconstruction MSE over a whole dataset, evaluated in blocks of rows.

    ``x`` is a :class:`Dataset` or an array; an array is validated as
    :func:`forward` validates it.  Equivalent to
    ``reconstruction_error(x, forward(model, x).output)``, but each block
    of as many rows as :data:`CHUNK_VALUES` allows at the model's widest
    layer is read with :meth:`Dataset.rows` and run through the layers
    keeping only the latest one, which becomes the squared error in place.
    Each row's squared error is summed on its own and the row sums are
    added exactly rounded (``math.fsum``), so the blocks bound the working
    set, a few block-sized arrays whatever the size of the dataset, and do
    not group the sum.  They can still move a row's output bits: BLAS
    takes other kernels for short blocks, so a row in a short last block
    may differ in its last bit from the same row in a full one, and the
    last digit of the error can depend on the row count.  ``lrnn train``
    and ``lrnn eval`` use the same blocks and print the same error.

    A visible unit is live when its row of the first encode layer or its
    column of the last decode layer is nonzero (:func:`_live_units`, the
    rule training uses).  A dead unit's input meets a zero row and its
    reconstruction is a zero column's, exactly 0, so when some units are
    dead and some live each block reads only the live columns, runs the
    layers restricted to them, and adds each row's sum of x^2 over the dead
    columns.  Pixels are gathered as bytes before they become floats.  The
    products skip only exact zeros, but BLAS groups a shorter dot product
    otherwise, and a row's error is then two sums added, so a row's output
    and its squared error may move in their last bit against the full
    width.  A pixel dataset and its float copy still give the same bits.
    """
    d = _as_dataset(x)
    if d.instance_count == 0:
        raise ValueError("empty dataset")
    _check_attributes("input", d.attribute_count, model.visible_dim)
    step = rows_per_chunk(*model.encode_dims)  # the full width's blocks, live path or not
    alive = _live_units(model.encode_weights[0], model.decode_weights[-1])
    live = dead = None
    if alive.any() and not alive.all():
        live, dead = np.flatnonzero(alive), np.flatnonzero(~alive)
        model = LrnnModel(
            [model.encode_weights[0][live], *model.encode_weights[1:]],
            [*model.decode_weights[:-1], model.decode_weights[-1][:, live]],
        )
    row_sums = np.empty(d.instance_count)
    for start in range(0, d.instance_count, step):
        rows = slice(start, start + step)
        chunk = d.rows(rows if live is None else (rows, live))
        for q in _layers(model, chunk):
            pass  # only the latest layer is kept
        np.subtract(chunk, q, out=q)
        np.multiply(q, q, out=q)
        np.sum(q, axis=1, out=row_sums[rows])
        del q  # freed before the next array is built, which can reuse its memory
        if dead is not None:  # a dead unit's reconstruction is 0
            q = d.rows((rows, dead))
            np.multiply(q, q, out=q)
            row_sums[rows] += q.sum(axis=1)
            del q
    return math.fsum(row_sums) / (d.instance_count * d.attribute_count)


@dataclass(frozen=True)
class ConstraintViolation:
    """One offending (layer, row) pair found by :func:`validate_constraints`."""

    layer: str
    row: int
    kind: str  # "non_finite", "negative" or "row_sum"
    value: float


def validate_constraints(model: LrnnModel) -> list[ConstraintViolation]:
    """List every (layer, row) violating the RNN constraints.

    A row is reported with kind ``"non_finite"`` if it contains NaN or an
    infinity (value = the sum), with kind ``"negative"`` if it contains a
    negative entry (value = the most negative entry) and with kind
    ``"row_sum"`` if its sum exceeds ``1 + ROW_SUM_SLACK`` (value = the
    sum).  An empty list means the model is valid.
    """
    violations: list[ConstraintViolation] = []
    layers = [(f"W{m + 1}", w) for m, w in enumerate(model.encode_weights)]
    layers += [(f"WB{m + 1}", w) for m, w in enumerate(model.decode_weights)]
    for name, w in layers:
        row_min = w.min(axis=1)
        row_sum = w.sum(axis=1)
        for row in np.flatnonzero(~(np.isfinite(row_min) & np.isfinite(w.max(axis=1)))):
            value = float(row_sum[row])
            violations.append(ConstraintViolation(name, int(row), "non_finite", value))
        for row in np.flatnonzero(row_min < 0.0):
            violations.append(ConstraintViolation(name, int(row), "negative", float(row_min[row])))
        for row in np.flatnonzero(row_sum > 1.0 + ROW_SUM_SLACK):
            violations.append(ConstraintViolation(name, int(row), "row_sum", float(row_sum[row])))
    return violations
