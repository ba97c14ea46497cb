"""Multiplicative-update training for the nonnegative autoencoder.

The objective ||X - reconstruction||^2 is minimized under the RNN
constraints with NMF-style updates.  With A the (B x V) input activations
of an encode layer, W its (V x H) weights and WB the paired decode weights,
one update is

    W  <- W  * (A^T A WB^T) / (A^T A W WB WB^T)        (elementwise)
    WB <- WB * (W^T A^T A)  / (W^T A^T A W WB)

A pair update runs over its live visible units S only: those with a
nonzero W row or WB column.  The rules keep exact zeros, so a unit whose W
row and WB column are both zero is dead for good and takes part in no
product.  A unit whose input is zero throughout one minibatch dies there:
A^T A has a zero row and column for it, so both its W row and its WB
column become 0, and no later batch revives it.  The training loop
therefore holds each pair as W[S] and WB[:, S] across minibatches, with S
only ever shrinking: a step gathers just A[:, S], widens only the decode
output the batch error needs, and drops from S the units it killed.  The
full-width weights are written back into the model before every observer
call and when the loop ends, early stop included.
``TrainReport.dead_units`` counts the dead visible units at the end.

The minibatch's height against |S| picks how every product with A^T A is
evaluated.  When B >= |S| the |S| x |S| Gram matrix G = A^T A is formed
once, and the rules take

    W  <- W  * (G WB^T) / ((G W) (WB WB^T))
    WB <- WB * (W^T G)  / ((W^T G W) WB)

When B < |S| it never is: with P = A W_new, the saturation rescale's
pre-activations, they take the same rules reassociated so that every
intermediate is B rows or H x H,

    W  <- W  * (A^T (A WB^T)) / (A^T ((A W) (WB WB^T)))
    WB <- WB * (P^T A)        / ((P^T P) WB)

Per pair, the rescales' products included, that is about
(B + 3H) |S|^2 + 2 B |S| H + 4 |S| H^2 multiply-adds in the Gram form
against 7 B |S| H + 2 (B + |S|) H^2 in the factored one, so the factored
form wins for wide minibatches such as 100 images of 784 pixels and the
Gram form for tall ones such as 1000 rows of 64 attributes.  Both compute
the same rules up to rounding.  ``update_encode`` and ``update_decode``
run the same rule code over all V units, choosing by B against V.

Two products are not taken again when their bits are already known.
Without shuffling every epoch sees the same minibatches, so the first
trained pair's Gram matrix of batch b is the same in every epoch while the
pair's live set holds; that pair keeps each batch's, in at most as many
bytes as the dataset's values take, and drops them with its dead units.
And the decode rescale takes no product h @ WB where no unit can saturate,
every WB column summing below 1 - 4 H EPS_FLOOR: the loop forms the
innermost pair's then, as the batch reconstruction needs it, and no other.

Nor does the loop repeat a check whose answer it holds, and no skip
changes a bit.  Whether to clamp the input to [0, 1] is decided once per
dataset: pixels never exceed 1, a float matrix is scanned once, and
clamping a batch already at or below 1 changes no value.  A batch whose
Gram matrix the pair keeps skips the test for an input that is 0 on every
live unit: the matrix was kept by a step on the same rows over the same
live set, and a step runs only on an input that passed the test.  The
layer of the batch reconstruction that a pair's certified WB (above)
decodes is not clamped, as from inputs in [0, 1] no entry can exceed 1.
And the batch error (x - q)^2 is formed in the reconstruction q, which
the loop owns, with the operations of ``reconstruction_error``.

Zero denominator entries are replaced by ``EPS_FLOOR`` before dividing, so
the rules are total and preserve both nonnegativity and exact zeros.
After each update the weights are pushed back inside the constraint set
(rows summing above 1 are normalized onto the boundary) and every unit
whose batch pre-activation peaks above the saturation level 1 is scaled
back onto the boundary.  The scaled pre-activations then lie at or below 1
exactly, so they are the clamped activations h without a clamp.  The
decode rescale's products h @ WB, scaled with WB, are the pair's decode
output, so the innermost pair hands the batch reconstruction its first
layer.

One minibatch loop does all training: per batch, each encode layer and its
mirrored decode layer are updated in turn, feeding the clamped activations
forward.  A pair whose input is zero on every live unit is skipped, with
the pairs inside it, as the rules would zero it for good: a batch that
lies only on dead units leaves the model alone.  ``algo="joint"`` runs the
loop once over all layers (a shallow model is the one-hidden-layer case);
``algo="greedy"`` runs it once per stage, stage m being a depth-1 model
seeded ``cfg.seed + m - 1`` and fit on the clamped code of stage m-1.
Observers see the model trained so far: in greedy mode the finished
stages stacked around the current one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, _as_dataset, _check_count, as_matrix, iter_minibatches
from .model import LrnnModel, _check_attributes, _encode_dims, _live_units, clamp_unit
from .model import dataset_error, rows_per_chunk

#: Replacement for exact-zero denominators (IEEE double machine epsilon).
EPS_FLOOR = float(np.finfo(np.float64).eps)

#: Relative margin keeping freshly initialized row sums strictly below 1.
_INIT_MARGIN = 1e-6

#: Window length (minibatches) of the early-stop moving average.
_EARLY_STOP_WINDOW = 50

#: Stream tag separating batch-order draws from weight-init draws.
_SHUFFLE_STREAM = 0x5B

#: Values per regrouped row when :func:`_saturation_scale` takes column peaks.
_PEAK_ROW = 256

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
            if getattr(self, name) is not None:
                _check_count(name, getattr(self, name))
        _check_count("seed", self.seed, 0)
        rel_tol = self.rel_tol
        if not (isinstance(rel_tol, Real) and math.isfinite(rel_tol) and rel_tol >= 0.0):
            raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol!r}")


@dataclass
class TrainReport:
    """Error trace of a run: minibatch errors per update plus the final
    whole-dataset error.

    ``dead_units`` counts the visible units whose row of the first encode
    layer and column of the last decode layer are both zero at the end:
    units no further update can revive (see the module docstring).
    """

    error_curve: list[tuple[int, float]] = field(default_factory=list)
    final_full_error: float = float("nan")
    wall_time: float = 0.0
    dead_units: int = 0


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


def _gram(a):
    """A^T A when ``a`` has at least as many rows as columns, else None: the
    rules then take every product with A^T A in factored form (see the module
    docstring)."""
    return a.T @ a if a.shape[0] >= a.shape[1] else None


def _multiplicative(x, num, den):
    """``x * num / den`` with exact-zero denominator entries set to ``EPS_FLOOR``."""
    den[den == 0.0] = EPS_FLOOR
    out = np.multiply(x, num)
    np.divide(out, den, out=out)
    return out


def _encode_rule(a, w, wb, gram):
    if gram is None:
        num = a.T @ (a @ wb.T)
        den = a.T @ ((a @ w) @ (wb @ wb.T))
    else:
        num = gram @ wb.T
        den = (gram @ w) @ (wb @ wb.T)
    return _multiplicative(w, num, den)


def _decode_rule(a, w, wb, gram, pre=None):
    """``pre``, when given, is ``a @ w`` already at hand; only the factored form uses it."""
    if gram is None:
        pre = a @ w if pre is None else pre
        num = pre.T @ a  # W^T A^T A
        den = (pre.T @ pre) @ wb
    else:
        num = (gram @ w).T  # W^T A^T A, as A^T A is symmetric
        den = (num @ w) @ wb
    return _multiplicative(wb, num, den)


def _layer_operands(model: LrnnModel, m: int, a):
    a = as_matrix(a, "a")
    w = model.encode_weights[m - 1]
    if a.shape[1] != w.shape[0]:
        raise ValueError(f"activations have {a.shape[1]} columns, layer {m} expects {w.shape[0]}")
    return a, w, model.decode_weights[model.depth - m], _gram(a)


def update_encode(model: LrnnModel, m: int, a) -> np.ndarray:
    """One multiplicative update of encode layer ``m`` (1-based), not applied.

    ``a`` is the layer's input activation for the current minibatch: the
    clamped batch itself for m=1, otherwise the (m-1)-th encode activation.
    The paired decode weights are those of the mirrored layer.
    """
    return _encode_rule(*_layer_operands(model, m, a))


def update_decode(model: LrnnModel, m: int, a) -> np.ndarray:
    """Multiplicative update of the decode layer mirroring encode layer ``m``.

    Uses the model's current encode weights W_m, so when following the
    training order the freshly updated W_m must already be in the model.
    """
    return _decode_rule(*_layer_operands(model, m, a))


def _row_scale(w: np.ndarray) -> np.ndarray:
    """Per row of ``w``, its sum where above 1, else 1 (dividing by 1 is exact)."""
    return np.maximum(w.sum(axis=1), 1.0)[:, None]


def project_rows(w: np.ndarray) -> np.ndarray:
    """Scale every row with sum > 1 back onto the constraint boundary sum = 1."""
    scale = _row_scale(w)
    return w / scale if np.any(scale > 1.0) else w


def _saturation_scale(pre: np.ndarray) -> np.ndarray:
    """Per unit (column of ``pre``), its peak pre-activation where above 1, else 1.

    numpy takes the column peaks of a C-ordered block one short row at a
    time, so a tall, narrow block (at least ``_PEAK_ROW`` rows of at most
    ``_PEAK_ROW // 4`` units) is read as wide rows of ``g = _PEAK_ROW // H``
    of its rows each: one max over the wide rows leaves g candidate rows,
    the rows after the last whole group are folded into as many of them,
    and one more max gives each unit's peak.  Entry (i, j) lands in wide
    column (i mod g) H + j, so every comparison is between entries of one
    unit, and max returns one of its operands whatever the order it
    compares them in: the bits are those of ``pre.max(axis=0, initial=1.0)``.
    On one core of an x86-64 machine, (1000, 32) takes 30 -> 11 us and
    (1000, 16) 24 -> 8 us, while outside the shape rule the extra calls cost
    more than they save: (100, 100) 5.0 -> 6.5 us, (100, 32) 3.8 -> 8.3 us,
    (1000, 200) 55 -> 59 us.
    """
    b, h = pre.shape
    if b < _PEAK_ROW or not 0 < h <= _PEAK_ROW // 4:
        return pre.max(axis=0, initial=1.0)
    g = _PEAK_ROW // h
    whole = b - b % g
    peaks = pre[:whole].reshape(-1, g * h).max(axis=0).reshape(g, h)
    tail = peaks[: b - whole]
    np.maximum(tail, pre[whole:], out=tail)
    return peaks.max(axis=0, initial=1.0)


def rescale_saturation(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Scale saturated units of ``w`` so no batch pre-activation exceeds 1.

    ``a`` holds the layer inputs for the current minibatch.  Each unit
    (column of ``w``) whose peak pre-activation ``max(a @ w)`` exceeds the
    saturation level 1 is divided by that peak, putting it exactly on the
    saturation boundary; unsaturated units, including the degenerate
    all-zero case, stay untouched.  Scaling is never upward, so weights
    satisfying the row-sum constraints still satisfy them afterwards.
    """
    return w / _saturation_scale(a @ w)


class _LivePair:
    """An (encode, decode) pair's weights over its live visible units.

    ``w`` and ``wb`` are W[live] and WB[:, live], ``live`` the indexes of
    the live units among the pair's ``visible`` ones, or None while every
    unit is live (then ``w`` and ``wb`` are W and WB themselves).  The rules
    keep exact zeros, so the live set only shrinks: each step drops the
    units it killed.

    ``grams`` keeps the Gram matrix of each batch stepped on, by index, in
    at most ``budget`` bytes; past that a batch's is formed anew.  It holds
    only while the live set does, so dropping units empties ``grams``.
    ``saturable`` is False when the last step certified that no decode unit
    can saturate (it returned q = None): then no entry of q @ wb exceeds 1
    for any q in [0, 1].
    """

    def __init__(self, w: np.ndarray, wb: np.ndarray, budget: int = 0) -> None:
        self.visible = w.shape[0]
        self.live: np.ndarray | None = None
        self.w, self.wb = w, wb
        self.budget, self.grams = budget, {}
        self.saturable = True
        self._drop_dead()

    def _drop_dead(self) -> None:
        alive = _live_units(self.w, self.wb)
        if not alive.all():
            keep = np.flatnonzero(alive)
            self.live = keep if self.live is None else self.live[keep]
            self.w, self.wb = self.w[keep], self.wb[:, keep]
            self.grams.clear()

    def widen(self, m: np.ndarray) -> np.ndarray:
        """``m``, whose columns are the live units, among zero columns for the dead ones."""
        if self.live is None:
            return m
        out = np.zeros((m.shape[0], self.visible))
        out[:, self.live] = m
        return out

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """W and WB over all visible units."""
        if self.live is None:
            return self.w, self.wb
        w = np.zeros((self.visible, self.w.shape[1]))
        w[self.live] = self.w
        return w, self.widen(self.wb)

    def gather(self, a: np.ndarray) -> np.ndarray:
        """The columns of ``a`` (all visible units) that belong to the live units."""
        return a if self.live is None else a[:, self.live]

    def step(self, a: np.ndarray, b: int = 0):
        """One pair update on input activations ``a`` of the live units (:meth:`gather`),
        batch ``b``'s: one index means one ``a`` while the live set holds, as
        its Gram matrix is kept.  Returns h = min(a @ w, 1), the activations
        feeding the next layer, and min(h @ wb, 1) for the new wb over all
        visible units, the pair's decode output, or None where no decode unit
        can saturate, as the rescale then takes no product (:func:`_pair_update`).
        """
        gram = self.grams.get(b)
        if gram is None:
            gram = _gram(a)
            if gram is not None and (len(self.grams) + 1) * gram.nbytes <= self.budget:
                self.grams[b] = gram
        self.w, self.wb, h, q = _pair_update(a, self.w, self.wb, gram)
        self.saturable = q is not None
        q = None if q is None else self.widen(q)
        self._drop_dead()
        return h, q


def _pair_step(a, w, wb):
    """One Algorithm body for an (encode, decode) pair on input activations ``a``:
    a single :meth:`_LivePair.step`.  Returns the new W and WB, h and the
    decode output (see there), formed where the step returned None."""
    pair = _LivePair(w, wb)
    h, q = pair.step(pair.gather(a))
    return (*pair.weights(), h, pair.widen(h @ pair.wb) if q is None else q)


def _pair_update(a, w, wb, gram=None):
    """The pair update on its operands as given.

    Both rules share one A^T A operand (the Gram matrix, if formed, is built
    once, or passed in as ``gram``).  The saturation rescale's
    pre-activations a @ w, scaled with w, serve as the decode rule's A W_new
    and as h; those of the decode rescale, h @ wb scaled with wb, as the
    decode output.  Neither needs clamping: a unit whose peak exceeds 1 is
    divided by that peak, which puts every entry at or below 1 exactly.

    As 0 <= h <= 1, no entry of h @ wb exceeds its wb column's sum.  A sum
    below 1 - 4 H EPS_FLOOR (H = wb.shape[0]) leaves more room than the
    rounding of an H-term nonnegative dot product in any order, so when
    every column sum is below it no decode unit saturates: the rescale,
    which divides only by peaks above 1, would leave wb as it is.  Then
    neither the product nor its peak is taken, and q is None.
    """
    if gram is None:
        gram = _gram(a)
    w = _encode_rule(a, w, wb, gram)
    np.divide(w, _row_scale(w), out=w)
    h = a @ w
    scale = _saturation_scale(h)
    np.divide(w, scale, out=w)
    np.divide(h, scale, out=h)
    wb = _decode_rule(a, w, wb, gram, h)
    np.divide(wb, _row_scale(wb), out=wb)
    if wb.sum(axis=0).max(initial=0.0) < 1.0 - 4 * wb.shape[0] * EPS_FLOOR:
        return w, wb, h, None
    q = h @ wb
    scale = _saturation_scale(q)
    if np.any(scale > 1.0):  # dividing by 1 is exact, so skip it when no unit saturates
        np.divide(wb, scale, out=wb)
        np.divide(q, scale, out=q)
    return w, wb, h, q


def _fit(x: Dataset, model, first, cfg, curve, observer) -> None:
    """The minibatch loop: trains pairs ``first``..depth-1 (0-based) of ``model``
    in place on ``x``, the input of encode layer ``first``; appends to ``curve``.

    The pairs' weights are held over their live units (:class:`_LivePair`)
    and written back into ``model`` before every observer call and on
    return.  Iterations are numbered on from the last entry of ``curve``;
    the budget and the early stop count this call's iterations only.
    """
    order_rng = np.random.default_rng([cfg.seed, _SHUFFLE_STREAM]) if cfg.shuffle else None
    clamp = x.values.dtype != np.uint8 and x.values.max() > 1.0  # pixels never exceed 1
    budget = 0 if cfg.shuffle else x.values.nbytes  # only the first pair's inputs repeat
    depth = model.depth
    pairs = [
        _LivePair(model.encode_weights[m], model.decode_weights[depth - 1 - m],
                  budget if m == first else 0)
        for m in range(first, depth)
    ]

    def write_back() -> None:
        for m, pair in enumerate(pairs, first):
            model.encode_weights[m], model.decode_weights[depth - 1 - m] = pair.weights()

    offset = len(curve)
    errors: list[float] = []
    epoch = 0
    try:
        while cfg.max_epochs is None or epoch < cfg.max_epochs:
            epoch += 1
            for b, batch in enumerate(iter_minibatches(x, cfg.batch_size, order_rng, cfg.shuffle)):
                a = clamp_unit(batch) if clamp else batch
                for pair in pairs:
                    a = pair.gather(a)
                    # 0 on every live unit: skip the pairs left; a kept Gram matrix says no
                    if b not in pair.grams and not a.any():
                        q = np.zeros(batch.shape)
                        break
                    a, q = pair.step(a, b)
                else:  # q: the innermost pair's decode output, the reconstruction's first layer
                    if q is None:  # no unit saturates: the product h @ WB itself
                        q = pairs[-1].widen(a @ pairs[-1].wb)
                    for pair in pairs[-2::-1]:
                        q = q @ pair.widen(pair.wb)
                        if pair.saturable:
                            np.minimum(q, 1.0, out=q)
                np.subtract(batch, q, out=q)  # the batch error, in this batch's own q
                np.multiply(q, q, out=q)
                err = float(np.mean(q))
                errors.append(err)
                curve.append((offset + len(errors), err))
                if observer is not None:
                    write_back()
                    observer(offset + len(errors), err, model)
                if cfg.max_iterations is not None and len(errors) >= cfg.max_iterations:
                    return
                if cfg.rel_tol > 0.0 and len(errors) >= 2 * _EARLY_STOP_WINDOW:
                    prev = float(np.mean(errors[-2 * _EARLY_STOP_WINDOW : -_EARLY_STOP_WINDOW]))
                    cur = float(np.mean(errors[-_EARLY_STOP_WINDOW:]))
                    if prev > 0.0 and (prev - cur) / prev < cfg.rel_tol:
                        return
    finally:
        write_back()


def _code(x: Dataset, w: np.ndarray) -> Dataset:
    """The encode layer ``min(min(x, 1) @ w, 1)`` of every row, a chunk of rows at a
    time, each written into its rows of the one result array."""
    out = np.empty((x.instance_count, w.shape[1]))
    step = rows_per_chunk(*w.shape)
    for start in range(0, x.instance_count, step):
        block = out[start : start + step]
        np.matmul(clamp_unit(x.rows(slice(start, start + step))), w, out=block)
        np.minimum(block, 1.0, out=block)
    return Dataset(out)


def train(
    x, dims: Sequence[int], cfg: TrainConfig, algo: str = "joint", observer: Observer | None = None
) -> tuple[LrnnModel, TrainReport]:
    """Train an autoencoder with encode dims ``dims`` (V, H1, ..., Hk) on ``x``.

    ``x`` is a :class:`Dataset` or an array; an array's entries are taken
    as numbers (a uint8 array too, not as pixels).  ``algo`` is
    ``"joint"`` or ``"greedy"`` (see the module docstring); a greedy run
    equals depth-1 ``train`` calls chained by hand.  ``observer`` gets
    ``(iteration, batch error, model trained so far)`` after every update;
    the curve numbers iterations on across greedy stages.
    """
    dims = _encode_dims(dims)
    if algo not in ("joint", "greedy"):
        raise ValueError(f"algo must be 'joint' or 'greedy', got {algo!r}")
    x = _as_dataset(x)
    if x.instance_count == 0:
        raise ValueError("empty dataset")
    _check_attributes("dataset", x.attribute_count, dims[0])
    if cfg.max_iterations is None and cfg.max_epochs is None:
        raise ValueError("set max_iterations and/or max_epochs in TrainConfig")
    start = time.perf_counter()
    stages = [dims] if algo == "joint" else [dims[m : m + 2] for m in range(len(dims) - 1)]
    model, x_stage, curve = None, x, []
    for m, stage_dims in enumerate(stages):
        stage = init_weights(stage_dims, cfg.seed + m)
        if m:  # stack the new pair inside the finished stages
            x_stage = _code(x_stage, model.encode_weights[-1])
            stage = LrnnModel(
                model.encode_weights + stage.encode_weights,
                stage.decode_weights + model.decode_weights,
            )
        model = stage
        _fit(x_stage, model, m, replace(cfg, seed=cfg.seed + m), curve, observer)
    dead = int(np.count_nonzero(~_live_units(model.encode_weights[0], model.decode_weights[-1])))
    return model, TrainReport(curve, dataset_error(model, x), time.perf_counter() - start, dead)
