"""Spiking simulation of the autoencoder, swept layer by layer in time slabs.

The trained model is run as the stochastic network it describes: visual
neurons receive external excitatory spikes in Poisson streams at the
instance's attribute values, every neuron fires at rate 1 while its
integer potential is positive, and a fired spike either moves to a
next-layer neuron (probability = the connection weight, since all firing
rates are 1) or leaves the network.  Final-layer spikes always leave.

Each neuron is therefore a ·/M/1 queue: spikes wait in its potential and
leave one at a time after exponential(1) services.  A queue's departures
follow from its arrivals by Lindley's recursion
``d_k = max(a_k, d_{k-1}) + s_k``, and since the network is feed-forward,
a layer's arrivals are known once the layer before it is done.  Time is
cut into slabs of a bounded number of events, and each slab is swept one
layer at a time:

* the visual layer draws each neuron's Poisson arrivals for the slab;
* every layer groups its arrivals by neuron in time order, runs the
  recursion for all its neurons at once as a segmented max-plus scan
  (:func:`_departures`), and routes each departure with one categorical
  draw against the cumulative row of its weight matrix, or to the leak;
* departures later than the slab's end are held for the next slab, and
  each neuron's last departure time is carried into it, so every queue
  runs on across slab boundaries as if there were none.

This is an exact sample path of the network: the same law as an
event-by-event (Gillespie) simulation, with no appeal to Burke's theorem
or to the product-form solution, so the simulator can still test both.

An *event* is one external arrival or one firing.  An observation window
closes every ``observe_every`` events past the burn-in.  ``run`` counts
each neuron's firings from event ``burn_in`` to the close of the last
whole window and divides them by the simulated time between the two.  A
neuron fires at rate 1 whenever its potential is positive, so its firing
rate is the share of time it is excited: its excitation probability q.
That holds for any stationary queue, product form or not, and a
saturated neuron fires at rate 1, which is the model's clamp.  The
estimate thus assumes neither Burke's theorem nor the product form; the
tests check the product form's occupancy relation k = q / (1 - q) on the
event-by-event reference, whose paths follow the same law.

Randomness comes from numpy's PCG64 generator.  Runs are deterministic
given (network, event budget, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .data import _check_count, as_matrix
from .model import ROW_SUM_SLACK, ActivationState, LrnnModel, _check_attributes

#: Events per slab.  A slab lasts as long as ``_SLAB_EVENTS // (layers + 1)``
#: external arrivals take on average, and each arrival causes at most one
#: firing per layer, so the slab's arrays stay near this size whatever the
#: event budget.
_SLAB_EVENTS = 1 << 15


class SimNetwork:
    """One instance fed into one model, as a layered spiking network.

    ``arrival_rates`` feed the visual layer, ``weight_chain`` holds one
    routing matrix per consecutive layer pair (visual, encode layers, decode
    layers), checked finite and nonnegative with rows summing to at most 1,
    and ``layer_names`` names the layers; the widths are read off the rates
    and each matrix's columns.  A spike fired by neuron i leaves the network
    with probability 1 minus its row's sum; neurons of the final layer route
    nowhere, so their spikes always leave.
    """

    def __init__(
        self, weight_chain: Sequence[np.ndarray], arrival_rates, layer_names: Sequence[str]
    ):
        self.layer_names = list(layer_names)
        if len(self.layer_names) != len(weight_chain) + 1:
            raise ValueError(
                f"{len(weight_chain)} routing matrices need {len(weight_chain) + 1} "
                f"layer names, got {len(self.layer_names)}"
            )
        name = f"arrival-rate vector of layer {self.layer_names[0]}"
        self.arrival_rates = as_matrix(np.reshape(arrival_rates, (1, -1)), name)[0]
        self.layer_sizes = [self.arrival_rates.shape[0]]
        self.weight_chain: list[np.ndarray] = []
        for layer, w in enumerate(weight_chain):
            name = (
                f"routing matrix {layer} "
                f"({self.layer_names[layer]} -> {self.layer_names[layer + 1]})"
            )
            w = as_matrix(w, name)
            if w.shape[0] != self.layer_sizes[-1]:
                raise ValueError(f"{name} has {w.shape[0]} rows, expected {self.layer_sizes[-1]}")
            if w.sum(axis=1).max(initial=0.0) > 1.0 + ROW_SUM_SLACK:
                raise ValueError(f"{name} has a row sum above 1")
            self.weight_chain.append(w)
            self.layer_sizes.append(w.shape[1])
        self.layer_offsets = [0, *accumulate(self.layer_sizes)]
        self.n_neurons = self.layer_offsets[-1]


def compile_sim(model: LrnnModel, instance) -> SimNetwork:
    """Build the spiking network for ``model`` driven by one instance's attributes."""
    _check_attributes("instance", np.size(instance), model.visible_dim)
    names = (
        ["visual"]
        + [f"enc{m + 1}" for m in range(model.depth)]
        + [f"dec{m + 1}" for m in range(model.depth)]
    )
    return SimNetwork(model.encode_weights + model.decode_weights, instance, names)


@dataclass
class QEstimate:
    """Per-neuron excitation probabilities estimated by a simulation.

    ``q[i]`` is neuron i's firings over the simulated time they span, and
    exactly 0 in a network with no arrivals, which has no event to observe
    (``observation_count`` 0).  It is not clamped: a saturated neuron fires
    at rate 1, so its estimate can exceed 1 by sampling noise.
    """

    q: np.ndarray
    observation_count: int
    layer_sizes: list[int]
    layer_names: list[str]

    def per_layer(self) -> list[np.ndarray]:
        return np.split(self.q, np.cumsum(self.layer_sizes)[:-1])


def _departures(a: np.ndarray, starts: np.ndarray, d0: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Departure times of FIFO ·/M/1 queues by Lindley's recursion.

    ``a`` holds arrival times grouped by queue, in time order within each
    group; ``starts`` is the index where each group begins, ``d0`` each
    queue's last departure before these arrivals and ``s`` the service
    times.  With S_k the running service sum of a group,
    d_k = max(a_k, d_{k-1}) + s_k unrolls to
    d_k = S_k + max(d0, max_{j<=k} (a_j - S_{j-1})).  The running maximum
    restarts at each group: it runs over (group number, value) pairs held
    as complex numbers, which numpy orders lexicographically.
    """
    counts = np.diff(starts, append=a.size)
    total = np.cumsum(s)
    before = np.concatenate(([0.0], total[:-1]))
    base = np.repeat(before[starts], counts)
    x = a - (before - base)
    x[starts] = np.maximum(x[starts], d0)
    keyed = np.empty(a.size, dtype=np.complex128)
    keyed.real = np.repeat(np.arange(starts.size, dtype=np.float64), counts)
    keyed.imag = x
    return (total - base) + np.maximum.accumulate(keyed).imag


def _serve(times, ids, width: int, last_departure: np.ndarray, rng):
    """Departures caused by one layer's arrivals in a slab.

    Returns the departure times and the neuron of each, grouped by neuron,
    and moves ``last_departure`` on to each served neuron's last departure.
    """
    if times.size == 0:
        return times, ids
    order = np.argsort(times)
    # a stable sort on the narrowest id type, which numpy radix-sorts
    order = order[np.argsort(ids[order].astype(np.min_scalar_type(width)), kind="stable")]
    a, ids = times[order], ids[order]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    served = ids[starts]
    d = _departures(a, starts, last_departure[served], rng.standard_exponential(a.size))
    last_departure[served] = d[np.append(starts[1:], a.size) - 1]
    return d, ids


def _route_keys(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative rows of ``w``, row i shifted by 2i, flattened, and each row's last key.

    For a spike of row i and a uniform u, the number of keys at or below
    2i + u, less i times the row width, is the drawn target; the row width
    itself means the leak.  Rows sum to at most 1, so the shift keeps them
    apart, and a zero weight is never drawn.
    """
    keys = np.cumsum(w, axis=1) + 2.0 * np.arange(w.shape[0])[:, None]
    return keys.ravel(), keys[:, -1].copy()


def _route(keys: np.ndarray, tails: np.ndarray, j: np.ndarray, u: np.ndarray):
    """Which spikes of rows ``j`` drawing uniforms ``u`` are routed, and their targets.

    ``keys`` and ``tails`` are :func:`_route_keys`'s.  A needle 2j + u at or
    above its row's last key passes every key of the row, which is the
    leak; only the other needles are searched for.
    """
    needle = 2.0 * j + u
    routed = needle < tails[j]
    k = np.searchsorted(keys, needle[routed], side="right")
    return routed, k - j[routed] * (keys.size // tails.size)


def _sweep_slab(net: SimNetwork, end: float, routes, last_departure, held, rng):
    """Every event of the next slab, which lasts ``end``, swept layer by layer.

    Returns two lists: the event times (relative to the slab's start) of
    the external arrivals and then of each layer's firings, and the neuron
    (numbered within its layer) that fires in each of those firings.
    ``last_departure`` and ``held`` (per layer: the times and neurons of
    firings past the slab's end) carry the queues into the next slab.
    """
    sizes = net.layer_sizes
    v = np.repeat(np.arange(sizes[0]), rng.poisson(net.arrival_rates * end))
    t = rng.random(v.size) * end
    times, fired = [t], []
    for layer, size in enumerate(sizes):
        d, j = _serve(t, v, size, last_departure[layer], rng)
        d, j = np.concatenate((held[layer][0], d)), np.concatenate((held[layer][1], j))
        now = d < end
        held[layer] = (d[~now] - end, j[~now])
        d, j = d[now], j[now]
        times.append(d)
        fired.append(j)
        if layer < len(routes):
            routed, v = _route(*routes[layer], j, rng.random(j.size))
            t = d[routed]
    for ld in last_departure:
        np.maximum(ld - end, 0.0, out=ld)
    return times, fired


def run(
    net: SimNetwork,
    n_events: int,
    observe_every: int = 1000,
    seed=0,
    burn_in: int = 0,
) -> QEstimate:
    """Simulate ``n_events`` events and estimate every neuron's excitation probability.

    The estimate counts firings from event ``burn_in`` (default: no
    burn-in, transients included) to the close of the last whole window
    of ``observe_every`` events past it; later events are simulated but
    not counted.  ``observation_count`` is the number of those windows.
    The span is cut by time in each slab it overlaps, and no slab is
    sorted: no two event times coincide, so the firings timed between
    event ``burn_in`` and the last close are those ranked between them.
    A network with no arrivals has no event: its exact estimate is q = 0.
    """
    _check_count("n_events", n_events)
    _check_count("observe_every", observe_every)
    _check_count("burn_in", burn_in, 0)
    if n_events < burn_in + observe_every:
        raise ValueError(
            f"n_events={n_events} yields no observation "
            f"(burn_in={burn_in}, observe_every={observe_every})"
        )
    sizes, names = list(net.layer_sizes), list(net.layer_names)
    total_rate = float(net.arrival_rates.sum())
    if total_rate == 0.0:  # no event can occur, so no neuron is ever excited
        return QEstimate(np.zeros(net.n_neurons), 0, sizes, names)
    rng = np.random.default_rng(seed)
    routes = [_route_keys(w) for w in net.weight_chain]
    last_departure = [np.zeros(size) for size in net.layer_sizes]
    held = [(np.zeros(0), np.zeros(0, dtype=np.intp))] * len(net.layer_sizes)
    slab_arrivals = max(1, _SLAB_EVENTS // (len(net.layer_sizes) + 1))
    longest = min(slab_arrivals, n_events)  # arrivals of the longest slab
    if longest / total_rate == math.inf:
        raise ValueError(
            f"total arrival rate {total_rate!r} is too small: "
            f"{longest} arrivals take longer than the largest float"
        )

    observations = (n_events - burn_in) // observe_every
    last_close = burn_in + observations * observe_every
    firings = np.zeros(net.n_neurons, dtype=np.int64)
    span = 0.0  # simulated time from event burn_in to event last_close
    events = 0
    while events < n_events:
        end = min(slab_arrivals, n_events - events) / total_rate
        times, fired = _sweep_slab(net, end, routes, last_departure, held, rng)
        count = sum(t.size for t in times)
        # event events + k is the slab's k-th earliest; one partition finds
        # the times of events burn_in and last_close if the slab holds them
        lo, hi = burn_in - events, last_close - events
        if lo <= count and hi > 0:  # the slab overlaps the span
            cuts = [k - 1 for k in (lo, hi) if 0 < k <= count]
            t = np.partition(np.concatenate(times), cuts) if cuts else None
            start = t[lo - 1] if lo > 0 else 0.0
            stop = t[hi - 1] if hi <= count else end
            span += stop - start
            for d, j, first, size in zip(times[1:], fired, net.layer_offsets, sizes):
                counted = j[(start < d) & (d <= stop)]
                firings[first : first + size] += np.bincount(counted, minlength=size)
        events += count
    return QEstimate(firings / span, observations, sizes, names)


@dataclass(frozen=True)
class LayerComparison:
    layer: str
    max_abs_diff: float
    mean_abs_diff: float


def compare(est: QEstimate, numeric: ActivationState) -> list[LayerComparison]:
    """Per-layer agreement between simulated and numerically computed probabilities.

    ``numeric`` must come from a single-instance forward pass of the same
    model that was compiled into the simulation.
    """
    layers = [numeric.q_hat] + list(numeric.q_enc) + list(numeric.q_dec)
    sim_layers = est.per_layer()
    if len(layers) != len(sim_layers):
        raise ValueError(f"{len(sim_layers)} simulated layers vs {len(layers)} numeric layers")
    out = []
    for name, sim_q, num_q in zip(est.layer_names, sim_layers, layers):
        num_q = np.asarray(num_q, dtype=np.float64)
        if num_q.ndim != 1:
            if num_q.shape[0] != 1:
                raise ValueError("numeric activations must hold exactly one instance")
            num_q = num_q.ravel()
        if num_q.shape != sim_q.shape:
            raise ValueError(
                f"layer {name}: simulated size {sim_q.shape[0]} vs numeric {num_q.shape[0]}"
            )
        diff = np.abs(sim_q - num_q)
        out.append(LayerComparison(name, float(diff.max()), float(diff.mean())))
    return out
