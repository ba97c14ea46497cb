"""Multiplicative-update training for the nonnegative autoencoder.

The objective ||X - reconstruction||^2 is minimized under the RNN
constraints with NMF-style updates.  With A the input activations of an
encode layer, W its weights and WB the paired decode weights, one update is

    W  <- W  * (A^T A WB^T) / (A^T A W WB WB^T)        (elementwise)
    WB <- WB * (W^T A^T A)  / (W^T A^T A W WB)

Zero denominator entries are replaced by ``EPS_FLOOR`` before dividing, so
the rules are total and preserve both nonnegativity and exact zeros.
After each update the weights are pushed back inside the constraint set
(rows summing above 1 are normalized onto the boundary) and every unit
whose batch pre-activation peaks above the saturation level 1 is scaled
back onto the boundary.

One minibatch loop does all training: per batch, each encode layer and its
mirrored decode layer are updated in turn, feeding the clamped activations
forward.  A pair whose input is all zero is skipped, as the rules would zero
it for good.  ``algo="joint"`` runs the loop once over all layers (a shallow
model is the one-hidden-layer case); ``algo="greedy"`` runs it once per
stage, stage m being a depth-1 model seeded ``cfg.seed + m - 1`` and fit on
the clamped code of stage m-1.  Observers see the model trained so far: in
greedy mode the finished stages stacked around the current one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .data import iter_minibatches
from .model import LrnnModel, as_matrix, clamp_unit, dataset_error, reconstruction_error

#: Replacement for exact-zero denominators (IEEE double machine epsilon).
EPS_FLOOR = float(np.finfo(np.float64).eps)

#: Relative margin keeping freshly initialized row sums strictly below 1.
_INIT_MARGIN = 1e-6

#: Window length (minibatches) of the early-stop moving average.
_EARLY_STOP_WINDOW = 50

#: Stream tag separating batch-order draws from weight-init draws.
_SHUFFLE_STREAM = 0x5B

Observer = Callable[[int, float, LrnnModel], None]


@dataclass
class TrainConfig:
    """Budget and reproducibility knobs for one training run.

    At least one of ``max_iterations`` (total minibatch updates) or
    ``max_epochs`` must be set; whichever is hit first ends the run.
    ``rel_tol`` > 0 additionally stops early once the moving average of the
    minibatch error (window 50) improves by less than ``rel_tol``
    relatively against the preceding window.
    """

    batch_size: int = 100
    max_epochs: int | None = None
    max_iterations: int | None = None
    seed: int = 0
    rel_tol: float = 0.0
    shuffle: bool = False

    def __post_init__(self) -> None:
        for name in ("batch_size", "max_epochs", "max_iterations"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class TrainReport:
    """Error trace of a run: minibatch errors per update plus the final
    whole-dataset error."""

    error_curve: list[tuple[int, float]] = field(default_factory=list)
    final_full_error: float = float("nan")
    wall_time: float = 0.0


def _encode_dims(encode_dims: Sequence[int]) -> list[int]:
    dims = [int(d) for d in encode_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"encode dims need >= 2 positive entries, got {encode_dims}")
    return dims


def init_weights(encode_dims: Sequence[int], seed: int) -> LrnnModel:
    """Random model satisfying the RNN constraints, deterministic in ``seed``.

    Entries are uniform draws from the seeded generator, then every row is
    divided by its sum times (1 + 1e-6) so all row sums land strictly
    below 1.  Encode layers are drawn first, then decode layers.
    """
    dims = _encode_dims(encode_dims)
    rng = np.random.default_rng(seed)

    def draw(rows: int, cols: int) -> np.ndarray:
        w = rng.random((rows, cols))
        w /= w.sum(axis=1, keepdims=True) * (1.0 + _INIT_MARGIN)
        return w

    encode = [draw(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    mirror = dims[::-1]
    decode = [draw(mirror[i], mirror[i + 1]) for i in range(len(mirror) - 1)]
    return LrnnModel(encode, decode)


def _multiplicative_encode(gram, w, wb):
    num = gram @ wb.T
    den = (gram @ w) @ (wb @ wb.T)
    den[den == 0.0] = EPS_FLOOR
    return w * num / den


def _multiplicative_decode(gram, w, wb):
    num = w.T @ gram
    den = (w.T @ gram @ w) @ wb
    den[den == 0.0] = EPS_FLOOR
    return wb * num / den


def _layer_operands(model: LrnnModel, m: int, a):
    a = as_matrix(a, "a")
    w = model.encode_weights[m - 1]
    if a.shape[1] != w.shape[0]:
        raise ValueError(f"activations have {a.shape[1]} columns, layer {m} expects {w.shape[0]}")
    return a.T @ a, w, model.decode_weights[model.depth - m]


def update_encode(model: LrnnModel, m: int, a) -> np.ndarray:
    """One multiplicative update of encode layer ``m`` (1-based), not applied.

    ``a`` is the layer's input activation for the current minibatch: the
    clamped batch itself for m=1, otherwise the (m-1)-th encode activation.
    The paired decode weights are those of the mirrored layer.
    """
    return _multiplicative_encode(*_layer_operands(model, m, a))


def update_decode(model: LrnnModel, m: int, a) -> np.ndarray:
    """Multiplicative update of the decode layer mirroring encode layer ``m``.

    Uses the model's current encode weights W_m, so when following the
    training order the freshly updated W_m must already be in the model.
    """
    return _multiplicative_decode(*_layer_operands(model, m, a))


def project_rows(w: np.ndarray) -> np.ndarray:
    """Scale every row with sum > 1 back onto the constraint boundary sum = 1."""
    sums = w.sum(axis=1)
    over = sums > 1.0
    if not np.any(over):
        return w
    out = w.copy()
    out[over] /= sums[over, None]
    return out


def rescale_saturation(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Scale saturated units of ``w`` so no batch pre-activation exceeds 1.

    ``a`` holds the layer inputs for the current minibatch.  Each unit
    (column of ``w``) whose peak pre-activation ``max(a @ w)`` exceeds the
    saturation level 1 is divided by that peak, putting it exactly on the
    saturation boundary; unsaturated units, including the degenerate
    all-zero case, stay untouched.  Scaling is never upward, so weights
    satisfying the row-sum constraints still satisfy them afterwards.
    """
    if not (w.size and a.size):
        return w
    peaks = (a @ w).max(axis=0)
    return w / np.maximum(peaks, 1.0)


def _pair_step(a, w, wb):
    """One Algorithm body for an (encode, decode) pair on input activations ``a``.

    Returns the new weights plus h = min(a @ w, 1), the activations feeding
    the next layer.
    """
    gram = a.T @ a
    w = _multiplicative_encode(gram, w, wb)
    w = project_rows(w)
    pre = a @ w
    scale = np.maximum(pre.max(axis=0), 1.0)
    w = w / scale
    pre = pre / scale
    wb = _multiplicative_decode(gram, w, wb)
    wb = project_rows(wb)
    h = clamp_unit(pre)
    wb = rescale_saturation(wb, h)
    return w, wb, h


def _fit(x, model, first, cfg, curve, observer) -> None:
    """The minibatch loop: trains pairs ``first``..depth-1 (0-based) of ``model``
    in place on ``x``, the input of encode layer ``first``; appends to ``curve``.

    Iterations are numbered on from the last entry of ``curve``; the
    budget and the early stop count this call's iterations only.
    """
    order_rng = np.random.default_rng([cfg.seed, _SHUFFLE_STREAM]) if cfg.shuffle else None
    depth = model.depth
    offset = len(curve)
    errors: list[float] = []
    epoch = 0
    while cfg.max_epochs is None or epoch < cfg.max_epochs:
        epoch += 1
        for batch in iter_minibatches(x, cfg.batch_size, order_rng, cfg.shuffle):
            a = clamp_unit(batch)
            for m in range(first, depth):
                w, wb = model.encode_weights[m], model.decode_weights[depth - 1 - m]
                if a.max() > 0.0:
                    w, wb, a = _pair_step(a, w, wb)
                    model.encode_weights[m], model.decode_weights[depth - 1 - m] = w, wb
                else:
                    a = np.zeros((a.shape[0], w.shape[1]))
            for wb in model.decode_weights[: depth - first]:
                a = clamp_unit(a @ wb)
            err = reconstruction_error(batch, a)
            errors.append(err)
            curve.append((offset + len(errors), err))
            if observer is not None:
                observer(offset + len(errors), err, model)
            if cfg.max_iterations is not None and len(errors) >= cfg.max_iterations:
                return
            if cfg.rel_tol > 0.0 and len(errors) >= 2 * _EARLY_STOP_WINDOW:
                prev = float(np.mean(errors[-2 * _EARLY_STOP_WINDOW : -_EARLY_STOP_WINDOW]))
                cur = float(np.mean(errors[-_EARLY_STOP_WINDOW:]))
                if prev > 0.0 and (prev - cur) / prev < cfg.rel_tol:
                    return


def train(
    x, dims: Sequence[int], cfg: TrainConfig, algo: str = "joint", observer: Observer | None = None
) -> tuple[LrnnModel, TrainReport]:
    """Train an autoencoder with encode dims ``dims`` (V, H1, ..., Hk) on ``x``.

    ``algo`` is ``"joint"`` or ``"greedy"`` (see the module docstring); a
    greedy run equals depth-1 ``train`` calls chained by hand.  ``observer``
    gets ``(iteration, batch error, model trained so far)`` after every
    update; the curve numbers iterations on across greedy stages.
    """
    dims = _encode_dims(dims)
    if algo not in ("joint", "greedy"):
        raise ValueError(f"algo must be 'joint' or 'greedy', got {algo!r}")
    x = as_matrix(x, "x")
    if x.shape[0] == 0:
        raise ValueError("empty dataset")
    if x.shape[1] != dims[0]:
        raise ValueError(f"dataset has {x.shape[1]} attributes but model expects {dims[0]}")
    if cfg.max_iterations is None and cfg.max_epochs is None:
        raise ValueError("set max_iterations and/or max_epochs in TrainConfig")
    start = time.perf_counter()
    stages = [dims] if algo == "joint" else [dims[m : m + 2] for m in range(len(dims) - 1)]
    model, x_stage, curve = None, x, []
    for m, stage_dims in enumerate(stages):
        stage = init_weights(stage_dims, cfg.seed + m)
        if m:  # stack the new pair inside the finished stages
            x_stage = clamp_unit(x_stage @ model.encode_weights[-1])
            stage = LrnnModel(
                model.encode_weights + stage.encode_weights,
                stage.decode_weights + model.decode_weights,
            )
        model = stage
        _fit(x_stage, model, m, replace(cfg, seed=cfg.seed + m), curve, observer)
    return model, TrainReport(curve, dataset_error(model, x), time.perf_counter() - start)
