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

An *event* is one external arrival or one firing.  Every
``observe_every`` events past the burn-in an observation window closes
and yields each neuron's *time-averaged* potential over it, computed
exactly from the arrival and departure times.  Plain event-count
snapshots would sample the embedded jump chain, which over-weights states
with many active neurons; the windowed time average estimates the
stationary mean potential k consistently, from which the excitation
probability follows as q = k / (1 + k), the occupancy relation of the
product-form network.  Times and the open window's potential integral are
kept relative to the current slab's start, so no sum grows with the
length of the run.

Randomness comes from numpy's PCG64 generator.  Runs are deterministic
given (network, event budget, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .data import as_matrix
from .model import (
    ROW_SUM_SLACK,
    ActivationState,
    LrnnModel,
    reject_violations,
    validate_constraints,
)

#: Events per slab.  A slab lasts as long as ``_SLAB_EVENTS // (layers + 1)``
#: external arrivals take on average, and each arrival causes at most one
#: firing per layer, so the slab's arrays stay near this size whatever the
#: event budget.
_SLAB_EVENTS = 1 << 15


class DeadNetworkError(RuntimeError):
    """No event can occur: no external arrivals and no active neuron."""


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
            row_sums = w.sum(axis=1)
            if row_sums.size and float(row_sums.max()) > 1.0 + ROW_SUM_SLACK:
                raise ValueError(f"{name} has a row sum above 1")
            self.weight_chain.append(w)
            self.layer_sizes.append(w.shape[1])
        self.layer_offsets = [0, *accumulate(self.layer_sizes)]
        self.n_neurons = self.layer_offsets[-1]


def compile_sim(model: LrnnModel, instance) -> SimNetwork:
    """Build the spiking network for ``model`` driven by one instance's attributes."""
    reject_violations(validate_constraints(model))
    if np.size(instance) != model.visible_dim:
        raise ValueError(
            f"instance has {np.size(instance)} attributes but model expects {model.visible_dim}"
        )
    names = (
        ["visual"]
        + [f"enc{m + 1}" for m in range(model.depth)]
        + [f"dec{m + 1}" for m in range(model.depth)]
    )
    return SimNetwork(model.encode_weights + model.decode_weights, instance, names)


@dataclass
class QEstimate:
    """Per-neuron excitation probabilities estimated from potential observations.

    ``mean_potential[i]`` averages the observed potentials; the
    probability follows as q = k / (1 + k).
    """

    mean_potential: np.ndarray
    observation_count: int
    layer_sizes: list[int]
    layer_names: list[str]

    @property
    def q(self) -> np.ndarray:
        return self.mean_potential / (1.0 + self.mean_potential)

    def per_layer(self) -> list[np.ndarray]:
        return np.split(self.q, np.cumsum(self.layer_sizes)[:-1])

    @classmethod
    def zeros(cls, net: SimNetwork) -> "QEstimate":
        """Estimate for a network in which nothing ever happened."""
        return cls(np.zeros(net.n_neurons), 0, list(net.layer_sizes), list(net.layer_names))


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


def _route_keys(w: np.ndarray) -> np.ndarray:
    """Cumulative rows of ``w``, row i shifted by 2i, flattened.

    For a spike of row i and a uniform u, the number of keys at or below
    2i + u, less i times the row width, is the drawn target; the row width
    itself means the leak.  Rows sum to at most 1, so the shift keeps them
    apart, and a zero weight is never drawn.
    """
    return (np.cumsum(w, axis=1) + 2.0 * np.arange(w.shape[0])[:, None]).ravel()


def _sweep_slab(net: SimNetwork, end: float, keys, last_departure, held, rng):
    """Every event of the next slab, which lasts ``end``, swept layer by layer.

    Returns each event's time (relative to the slab's start), the neuron
    whose potential it raises and the neuron whose potential it lowers;
    the dummy index ``net.n_neurons`` stands for none (an external arrival
    lowers none, a leaked or final-layer spike raises none).
    ``last_departure`` and ``held`` (per layer: the times and neurons of
    firings past the slab's end) carry the queues into the next slab.
    """
    n, sizes, offsets = net.n_neurons, net.layer_sizes, net.layer_offsets
    v = np.repeat(np.arange(sizes[0]), rng.poisson(net.arrival_rates * end))
    t = rng.random(v.size) * end
    times, raised, lowered = [t], [v], [np.full(v.size, n)]
    for layer, size in enumerate(sizes):
        d, j = _serve(t, v, size, last_departure[layer], rng)
        d, j = np.concatenate((held[layer][0], d)), np.concatenate((held[layer][1], j))
        now = d < end
        held[layer] = (d[~now] - end, j[~now])
        d, j = d[now], j[now]
        times.append(d)
        lowered.append(j + offsets[layer])
        target = np.full(d.size, n)
        if layer < len(keys):
            width = sizes[layer + 1]
            k = np.searchsorted(keys[layer], 2.0 * j + rng.random(j.size), side="right")
            k -= j * width
            routed = k < width
            t, v = d[routed], k[routed]
            target[routed] = v + offsets[layer + 1]
        raised.append(target)
    for ld in last_departure:
        np.maximum(ld - end, 0.0, out=ld)
    return np.concatenate(times), np.concatenate(raised), np.concatenate(lowered)


def _net_change(raised, lowered, weights, n: int) -> np.ndarray:
    """Per-neuron sum of ``weights`` over raised minus lowered potentials."""
    return (
        np.bincount(raised, weights, minlength=n + 1)[:n]
        - np.bincount(lowered, weights, minlength=n + 1)[:n]
    )


def run(
    net: SimNetwork,
    n_events: int,
    observe_every: int = 1000,
    seed=0,
    burn_in: int = 0,
) -> QEstimate:
    """Simulate ``n_events`` events and estimate every neuron's excitation probability.

    Observations are taken after every ``observe_every``-th event past
    ``burn_in`` (default: no burn-in, transients included).
    """
    if observe_every < 1:
        raise ValueError("observe_every must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if n_events < burn_in + observe_every:
        raise ValueError(
            f"n_events={n_events} yields no observation "
            f"(burn_in={burn_in}, observe_every={observe_every})"
        )
    total_rate = float(net.arrival_rates.sum())
    if total_rate == 0.0:
        raise DeadNetworkError(
            "no possible event: all arrival rates are zero and no neuron is active"
        )
    rng = np.random.default_rng(seed)
    keys = [_route_keys(w) for w in net.weight_chain]
    last_departure = [np.zeros(size) for size in net.layer_sizes]
    held = [(np.zeros(0), np.zeros(0, dtype=np.intp))] * len(net.layer_sizes)
    slab_arrivals = max(1, _SLAB_EVENTS // (len(net.layer_sizes) + 1))

    n = net.n_neurons
    potential = np.zeros(n)  # at the slab's start
    carried = np.zeros(n)  # open window's potential integral up to the slab's start
    window_start = 0.0  # relative to the slab's start
    sums = np.zeros(n)
    observations = 0
    events = 0
    close = burn_in or observe_every  # the event that closes the open window
    counted = burn_in == 0  # the window ending at the burn-in is not observed
    while True:
        end = min(slab_arrivals, n_events - events) / total_rate
        t, raised, lowered = _sweep_slab(net, end, keys, last_departure, held, rng)
        last = min(events + t.size, n_events)
        closing = np.arange(close, last + 1, observe_every)
        mark = 0.0  # start of the open window within the slab
        if closing.size:
            order = np.argsort(t)
            b = t[order[closing - events - 1]]  # window ends
            weight = np.ones(b.size)
            weight[0] = float(counted)
            scale = weight / np.diff(b, prepend=window_start)
            after = weight.sum() - np.cumsum(weight)  # observed windows closing after each
            # Event number e falls in window w = #{closing < e}.  Its change
            # adds (b[w] - t) * scale[w] to that window's mean and 1 to every
            # observed mean after it, as the starting potential does.
            rank = np.empty(t.size, dtype=np.intp)
            rank[order] = np.arange(t.size)
            w = np.clip((rank + (events + observe_every - close)) // observe_every, 0, b.size)
            inside = w < b.size
            w = w[inside]
            c = scale[w] * (b[w] - t[inside]) + after[w]
            sums += scale[0] * (carried + potential * b[0]) + after[0] * potential
            sums += _net_change(raised[inside], lowered[inside], c, n)
            observations += int(weight.sum())
            close = int(closing[-1]) + observe_every
            counted = True
            carried[:] = 0.0
            mark = window_start = float(b[-1])
        if last == n_events:
            break
        carried += potential * (end - mark)
        carried += _net_change(raised, lowered, end - np.maximum(t, mark), n)
        potential += _net_change(raised, lowered, None, n)
        window_start -= end
        events += t.size
    sizes, names = list(net.layer_sizes), list(net.layer_names)
    return QEstimate(sums / observations, observations, sizes, names)


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
