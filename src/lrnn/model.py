"""Quasi-linear random neural network autoencoder: weight container and forward pass.

Every neuron has firing rate 1, so a connection weight doubles as the
probability that a spike travels along it.  This forces the "RNN
constraints" on all weight matrices: entries are nonnegative and each
row sums to at most 1.  Under those constraints a layer's excitation
probabilities are the clamped linear map ``min(input @ W, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Slack used when checking row sums against 1, absorbing rounding from
#: the exact-normalization steps in training.
ROW_SUM_SLACK = 1e-12


def _as_2d(a, name: str) -> np.ndarray:
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a C-contiguous 2-D float64 array of finite nonnegative entries."""
    m = _as_2d(a, name)
    if m.size:
        # min and max propagate NaN and allocate nothing the size of the data
        lo, hi = float(m.min()), float(m.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"{name} has NaN or infinite entries")
        if lo < 0.0:
            raise ValueError(f"{name} must be nonnegative")
    return m


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

    Construction checks the dimension chain only.  The RNN constraints
    (nonnegativity, row sums <= 1) are checked separately by
    :func:`validate_constraints` because training routines need to hold,
    inspect and repair models that temporarily violate them.
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
        for chain, kind in ((self.encode_weights, "encode"), (self.decode_weights, "decode")):
            for i in range(len(chain) - 1):
                if chain[i].shape[1] != chain[i + 1].shape[0]:
                    raise ValueError(
                        f"{kind} chain broken at layer {i + 1}: "
                        f"{chain[i].shape} -> {chain[i + 1].shape}"
                    )
        if self.decode_dims != list(reversed(self.encode_dims)):
            raise ValueError(
                f"decode dims {self.decode_dims} must mirror encode dims "
                f"{self.encode_dims}"
            )

    @property
    def depth(self) -> int:
        return len(self.encode_weights)

    @property
    def encode_dims(self) -> list[int]:
        return [self.encode_weights[0].shape[0]] + [w.shape[1] for w in self.encode_weights]

    @property
    def decode_dims(self) -> list[int]:
        return [self.decode_weights[0].shape[0]] + [w.shape[1] for w in self.decode_weights]

    @property
    def visible_dim(self) -> int:
        return self.encode_weights[0].shape[0]

    @property
    def code_dim(self) -> int:
        return self.encode_weights[-1].shape[1]

    def copy(self) -> "LrnnModel":
        return LrnnModel(
            [w.copy() for w in self.encode_weights],
            [w.copy() for w in self.decode_weights],
        )


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


def forward(model: LrnnModel, x) -> ActivationState:
    """Propagate a nonnegative batch ``x`` (rows = instances) through the model.

    Each layer computes ``min(previous @ W, 1)``; the visual layer is
    ``min(x, 1)``.
    """
    x = as_matrix(x, "x")
    if x.shape[1] != model.visible_dim:
        raise ValueError(
            f"input has {x.shape[1]} attributes but model expects {model.visible_dim}"
        )
    q_hat = clamp_unit(x)
    q_enc: list[np.ndarray] = []
    q = q_hat
    for w in model.encode_weights:
        q = clamp_unit(q @ w)
        q_enc.append(q)
    q_dec: list[np.ndarray] = []
    for w in model.decode_weights:
        q = clamp_unit(q @ w)
        q_dec.append(q)
    return ActivationState(q_hat=q_hat, q_enc=q_enc, q_dec=q_dec)


def reconstruction_error(x, q_dec_final) -> float:
    """Mean squared error between a batch and its reconstruction."""
    x = np.asarray(x, dtype=np.float64)
    q = np.asarray(q_dec_final, dtype=np.float64)
    if x.shape != q.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {q.shape}")
    d = x - q
    return float(np.mean(d * d))


def dataset_error(model: LrnnModel, x, chunk_rows: int = 4096) -> float:
    """Reconstruction MSE over a whole dataset, evaluated in row chunks.

    Equivalent to ``reconstruction_error(x, forward(model, x).output)`` but
    does not materialize every layer's activations for the full dataset.
    """
    x = _as_2d(x, "x")  # forward validates the entries chunk by chunk
    if x.shape[0] == 0:
        raise ValueError("empty dataset")
    total = 0.0
    for start in range(0, x.shape[0], chunk_rows):
        chunk = x[start : start + chunk_rows]
        d = chunk - forward(model, chunk).output
        total += float(np.sum(d * d))
    return total / x.size


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
