"""Traced replay of the three CLI commands through lrnn's public functions.

The replay does what ``lrnn train``, ``lrnn eval`` and ``lrnn simulate``
do, one public call at a time, and records a span around each call.  The
training loop follows ``lrnn.training._pair_step`` call for call:

    update_encode -> project_rows -> rescale_saturation ->
    update_decode -> project_rows -> rescale_saturation

``_pair_step`` rescales the cached pre-activations where the replay
recomputes ``a @ w``, so the replayed weights can differ from the CLI's in
the last bits; the caller checks the final error against the CLI run
within ``REPLAY_RTOL``.

Calls that public functions make to other public functions
(``dataset_error`` -> ``forward``, ``load_model`` and ``compile_sim`` ->
``validate_constraints``) get nested spans by wrapping the module
attribute for the duration of a traced replay.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import lrnn
import lrnn.model
import lrnn.model_io
import lrnn.simulation
from workloads import TrainSpec

#: Relative tolerance between the replayed and the CLI's final error.
REPLAY_RTOL = 1e-9

#: Stream tag lrnn.training mixes into the seed for the batch order.
SHUFFLE_STREAM = 0x5B

#: (module, attribute, span name) of calls made inside public functions.
NESTED_CALLS = (
    (lrnn.model, "forward", "model.forward"),
    (lrnn.model_io, "validate_constraints", "model.validate_constraints"),
    (lrnn.simulation, "validate_constraints", "model.validate_constraints"),
)

_NO_SPAN = nullcontext()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """In-memory spans ``[name, start, end, parent]``; a disabled tracer records nothing.

    ``parent`` is the index of the enclosing span, or -1 for a root.  Each
    root is one CLI command, and its descendants share it through the
    parent chain.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        return _Span(self, len(self.spans) - 1)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def __enter__(self):
        self._saved = []
        if self.enabled:
            for module, attr, name in NESTED_CALLS:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: count, inclusive total and self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return dict(out)


@dataclass
class Counts:
    """Constraint activity counted at the replay's call boundaries."""

    pair_updates: int = 0
    rows_projected: int = 0
    rows_checked: int = 0
    units_rescaled: int = 0
    units_checked: int = 0
    dead_units: int = 0


def _project(tr: Tracer, w: np.ndarray, counts: Counts) -> np.ndarray:
    out = tr.call("training.project_rows", lrnn.project_rows, w)
    counts.rows_checked += w.shape[0]
    if out is not w:
        counts.rows_projected += int(np.count_nonzero(np.any(out != w, axis=1)))
    return out


def _rescale(tr: Tracer, w: np.ndarray, a: np.ndarray, counts: Counts) -> np.ndarray:
    out = tr.call("training.rescale_saturation", lrnn.rescale_saturation, w, a)
    counts.units_checked += w.shape[1]
    counts.units_rescaled += int(np.count_nonzero(np.any(out != w, axis=0)))
    return out


def _pair(tr: Tracer, model, m: int, a: np.ndarray, counts: Counts) -> np.ndarray:
    """One (encode, decode) pair update of layer ``m`` (1-based); returns its activations."""
    w = tr.call("training.update_encode", lrnn.update_encode, model, m, a)
    w = _project(tr, w, counts)
    w = _rescale(tr, w, a, counts)
    model.encode_weights[m - 1] = w
    wb = tr.call("training.update_decode", lrnn.update_decode, model, m, a)
    wb = _project(tr, wb, counts)
    h = lrnn.clamp_unit(a @ w)
    wb = _rescale(tr, wb, h, counts)
    model.decode_weights[model.depth - m] = wb
    counts.pair_updates += 1
    return h


def dead_units(model) -> int:
    """All-zero encode columns plus all-zero decode rows: units no update can revive."""
    dead = sum(int(np.count_nonzero(~w.any(axis=0))) for w in model.encode_weights)
    return dead + sum(int(np.count_nonzero(~w.any(axis=1))) for w in model.decode_weights)


def replay_train(tr: Tracer, spec: TrainSpec, seed: int, data, fmt: str, out_path) -> tuple:
    """Replay ``lrnn train``; returns (final error, dataset bytes, model file bytes, counts)."""
    counts = Counts()
    with tr.span("cli.train"):
        x = tr.call("data.load", lrnn.load_dataset, data, fmt).x
        model = tr.call("training.init_weights", lrnn.init_weights, spec.dims, seed)
        order_rng = np.random.default_rng([seed, SHUFFLE_STREAM]) if spec.shuffle else None
        iteration = 0
        while iteration < spec.iters:
            batches = lrnn.iter_minibatches(x, spec.batch, order_rng, spec.shuffle)
            while iteration < spec.iters:
                with tr.span("data.minibatch"):
                    batch = next(batches, None)
                if batch is None:
                    break
                a = lrnn.clamp_unit(batch)
                for m in range(1, model.depth + 1):
                    a = _pair(tr, model, m, a, counts)
                for wb in model.decode_weights:
                    a = lrnn.clamp_unit(a @ wb)
                tr.call("model.reconstruction_error", lrnn.reconstruction_error, batch, a)
                iteration += 1
        error = tr.call("model.dataset_error", lrnn.dataset_error, model, x)
        tr.call("model_io.save", lrnn.save_model, model, out_path)
    counts.dead_units = dead_units(model)
    return error, x.nbytes, out_path.stat().st_size, counts


def replay_eval(tr: Tracer, model_path, data, fmt: str) -> float:
    with tr.span("cli.eval"):
        model = tr.call("model_io.load", lrnn.load_model, model_path)
        x = tr.call("data.load", lrnn.load_dataset, data, fmt).x
        return tr.call("model.dataset_error", lrnn.dataset_error, model, x)


def replay_simulate(tr: Tracer, model_path, data, fmt: str, index: int, events: int, seed: int):
    """Replay ``lrnn simulate``; returns (mean |q_sim - q_num| over neurons, observations)."""
    with tr.span("cli.simulate"):
        model = tr.call("model_io.load", lrnn.load_model, model_path)
        instance = tr.call("data.load", lrnn.load_dataset, data, fmt).x[index]
        numeric = tr.call("model.forward", lrnn.forward, model, instance.reshape(1, -1))
        net = tr.call("simulation.compile", lrnn.compile_sim, model, instance)
        est = tr.call("simulation.run", lrnn.run, net, events, 1000, seed=seed)
        tr.call("simulation.compare", lrnn.compare, est, numeric)
    q_num = np.concatenate(
        [numeric.q_hat.ravel()] + [q.ravel() for q in numeric.q_enc + numeric.q_dec]
    )
    return float(np.mean(np.abs(est.q - q_num))), est.observation_count


def minibatch_peak_alloc_mb(spec: TrainSpec, seed: int, data, fmt: str) -> float:
    """Peak bytes allocated (tracemalloc) while iterating one epoch of minibatches."""
    x = lrnn.load_dataset(data, fmt).x
    order_rng = np.random.default_rng([seed, SHUFFLE_STREAM]) if spec.shuffle else None
    tracemalloc.start()
    try:
        for _ in lrnn.iter_minibatches(x, spec.batch, order_rng, spec.shuffle):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20
