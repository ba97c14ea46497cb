"""Discrete-event simulation of the autoencoder's spiking dynamics.

The trained model is run as the stochastic network it describes: visual
neurons receive external excitatory spikes in Poisson streams at the
instance's attribute values, every neuron fires at rate 1 while its
integer potential is positive, and a fired spike either moves to a
next-layer neuron (probability = the connection weight, since all firing
rates are 1) or leaves the network.  Final-layer spikes always leave.

An *event* is one external arrival or one firing.  Event selection uses
the Gillespie direct method over a flat rate vector: the total rate is
the sum of arrival rates plus the number of currently active neurons,
one exponential dwell is sampled per event, and one uniform picks both
the event category and the neuron involved.

Once every ``observe_every`` events each neuron's potential is observed.
An observation is the *time average* of the potential over the window
ending at that event, computed exactly from the sampled dwells.  Plain
event-count snapshots would sample the embedded jump chain, which
over-weights states with many active neurons (and, for a single neuron,
can only ever see potentials whose parity matches the event index); the
windowed time average estimates the stationary mean potential k
consistently, from which the excitation probability follows as
q = k / (1 + k), the occupancy relation of the product-form network.

Randomness comes from numpy's PCG64 generator; ensemble runs split seeds
with ``SeedSequence.spawn`` so streams never overlap.  Runs are
deterministic given (network, event budget, seed).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import log
from typing import Sequence

import numpy as np

from .model import ROW_SUM_SLACK, ActivationState, LrnnModel, validate_constraints

_RNG_BLOCK = 1 << 16


class DeadNetworkError(RuntimeError):
    """No event can occur: no external arrivals and no active neuron."""


class SimNetwork:
    """Compiled routing tables for one instance fed into one model.

    ``layer_sizes`` lists the widths along the chain (visual, encode
    layers, decode layers); ``weight_chain`` holds one routing matrix per
    consecutive layer pair.  Neurons of the final layer route nowhere, so
    their spikes always leave the network.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        weight_chain: Sequence[np.ndarray],
        arrival_rates,
        layer_names: Sequence[str] | None = None,
    ):
        self.layer_sizes = [int(s) for s in layer_sizes]
        if len(weight_chain) != len(self.layer_sizes) - 1:
            raise ValueError(
                f"{len(self.layer_sizes)} layers need {len(self.layer_sizes) - 1} "
                f"routing matrices, got {len(weight_chain)}"
            )
        if layer_names is None:
            layer_names = [f"layer{i}" for i in range(len(self.layer_sizes))]
        self.layer_names = list(layer_names)
        self.layer_offsets = [0]
        for s in self.layer_sizes:
            self.layer_offsets.append(self.layer_offsets[-1] + s)
        self.n_neurons = self.layer_offsets[-1]

        x = np.asarray(arrival_rates, dtype=np.float64).ravel()
        if x.shape[0] != self.layer_sizes[0]:
            raise ValueError(
                f"{x.shape[0]} arrival rates for a visual layer of {self.layer_sizes[0]}"
            )
        if x.size and float(x.min()) < 0.0:
            raise ValueError("arrival rates must be nonnegative")
        self.arrival_rates = x
        self._arrival_cum = np.cumsum(x).tolist()
        self.total_arrival_rate = self._arrival_cum[-1] if self._arrival_cum else 0.0

        # Per-neuron compressed routing: cumulative probabilities over the
        # nonzero targets; the tail mass 1 - cum[-1] is the leak.
        self._route_cum: list[list[float]] = [[] for _ in range(self.n_neurons)]
        self._route_targets: list[list[int]] = [[] for _ in range(self.n_neurons)]
        leak = np.ones(self.n_neurons)
        for layer, w in enumerate(weight_chain):
            w = np.asarray(w, dtype=np.float64)
            expect = (self.layer_sizes[layer], self.layer_sizes[layer + 1])
            if w.shape != expect:
                raise ValueError(f"routing matrix {layer} has shape {w.shape}, expected {expect}")
            if w.size and float(w.min()) < 0.0:
                raise ValueError(f"routing matrix {layer} has negative entries")
            row_sums = w.sum(axis=1)
            if row_sums.size and float(row_sums.max()) > 1.0 + ROW_SUM_SLACK:
                raise ValueError(f"routing matrix {layer} has a row sum above 1")
            base = self.layer_offsets[layer]
            nxt = self.layer_offsets[layer + 1]
            for j in range(w.shape[0]):
                targets = np.flatnonzero(w[j])
                if targets.size:
                    i = base + j
                    self._route_targets[i] = (nxt + targets).tolist()
                    self._route_cum[i] = np.cumsum(w[j, targets]).tolist()
                leak[base + j] = max(0.0, 1.0 - float(row_sums[j]))
        self.leak = leak

    def layer_slice(self, layer: int) -> slice:
        return slice(self.layer_offsets[layer], self.layer_offsets[layer + 1])


def compile_sim(model: LrnnModel, instance) -> SimNetwork:
    """Build the spiking network for ``model`` driven by one instance's attributes."""
    violations = validate_constraints(model)
    if violations:
        first = violations[0]
        raise ValueError(
            f"model violates RNN constraints ({len(violations)} row(s); first: "
            f"{first.layer} row {first.row} {first.kind} {first.value:.6g})"
        )
    sizes = model.encode_dims + model.decode_dims[1:]
    chain = list(model.encode_weights) + list(model.decode_weights)
    names = (
        ["visual"]
        + [f"enc{m + 1}" for m in range(model.depth)]
        + [f"dec{m + 1}" for m in range(model.depth)]
    )
    return SimNetwork(sizes, chain, instance, names)


@dataclass
class SimState:
    """Mutable simulation state.

    Integer potentials plus the bookkeeping needed for the windowed
    time-average observations: simulated time, each neuron's running
    potential-time integral (updated lazily when the potential changes),
    and the origin of the currently open observation window.
    """

    potentials: list[int]
    active: list[int]
    active_pos: list[int]
    observation_sums: np.ndarray
    rng: np.random.Generator
    sim_time: float = 0.0
    potential_integrals: list[float] = field(default_factory=list)
    integral_times: list[float] = field(default_factory=list)
    window_start_time: float = 0.0
    window_start_integrals: list[float] = field(default_factory=list)
    event_count: int = 0
    arrival_count: int = 0
    firing_count: int = 0
    observation_count: int = 0


def new_state(net: SimNetwork, seed=0) -> SimState:
    n = net.n_neurons
    return SimState(
        potentials=[0] * n,
        active=[],
        active_pos=[-1] * n,
        observation_sums=np.zeros(n),
        rng=np.random.default_rng(seed),
        potential_integrals=[0.0] * n,
        integral_times=[0.0] * n,
        window_start_integrals=[0.0] * n,
    )


def _advance(
    net: SimNetwork,
    state: SimState,
    n_events: int,
    observe_every: int | None = None,
    burn_in: int = 0,
) -> None:
    """Apply ``n_events`` events to ``state`` in place.

    When ``observe_every`` is set, every ``observe_every``-th event past
    the burn-in closes an observation window and accumulates each
    neuron's time-averaged potential over that window into the
    observation sums.  Uniform draws are prefetched in blocks; the
    consumed stream values equal drawing them one at a time.
    """
    pot = state.potentials
    active = state.active
    pos = state.active_pos
    integ = state.potential_integrals
    mark = state.integral_times
    win_integ = state.window_start_integrals
    cum = net._route_cum
    tgt = net._route_targets
    acum = net._arrival_cum
    total_x = net.total_arrival_rate
    rng = state.rng
    obs_sums = state.observation_sums
    n = net.n_neurons

    t = state.sim_time
    win_t = state.window_start_time
    events = state.event_count
    start_events = events
    arrivals = state.arrival_count
    firings = state.firing_count
    observations = state.observation_count

    buf: list[float] = []
    bi = 0
    bn = 0
    try:
        for _ in range(n_events):
            n_act = len(active)
            r_total = total_x + n_act
            if r_total <= 0.0:
                raise DeadNetworkError(
                    "no possible event: all arrival rates are zero and no neuron is active"
                )
            if bi + 1 >= bn:
                need = 2 * (n_events - (events - start_events)) + 2
                bn = min(need, _RNG_BLOCK)
                buf = rng.random(bn).tolist()
                bi = 0
            t -= log(1.0 - buf[bi]) / r_total  # exponential dwell in the current state
            u = buf[bi + 1] * r_total
            bi += 2
            if u < total_x:
                v = bisect_right(acum, u)
                p = pot[v]
                integ[v] += p * (t - mark[v])
                mark[v] = t
                if p == 0:
                    pos[v] = n_act
                    active.append(v)
                pot[v] = p + 1
                arrivals += 1
            else:
                j = int(u - total_x)
                if j >= n_act:  # guards float roundoff at the top of the range
                    j = n_act - 1
                i = active[j]
                p = pot[i]
                integ[i] += p * (t - mark[i])
                mark[i] = t
                p -= 1
                pot[i] = p
                if p == 0:
                    k = pos[i]
                    last = active[-1]
                    active[k] = last
                    pos[last] = k
                    active.pop()
                    pos[i] = -1
                ci = cum[i]
                if ci:
                    if bi == bn:
                        bn = min(2 * (n_events - (events - start_events)) + 2, _RNG_BLOCK)
                        buf = rng.random(bn).tolist()
                        bi = 0
                    u2 = buf[bi]
                    bi += 1
                    k = bisect_right(ci, u2)
                    if k < len(ci):
                        target = tgt[i][k]
                        q = pot[target]
                        integ[target] += q * (t - mark[target])
                        mark[target] = t
                        if q == 0:
                            pos[target] = len(active)
                            active.append(target)
                        pot[target] = q + 1
                firings += 1
            events += 1
            if observe_every is not None:
                if events == burn_in:
                    for i2 in range(n):  # reset the window origin after the burn-in
                        s = integ[i2] + pot[i2] * (t - mark[i2])
                        integ[i2] = s
                        mark[i2] = t
                        win_integ[i2] = s
                    win_t = t
                elif events > burn_in and (events - burn_in) % observe_every == 0:
                    dt = t - win_t
                    if dt > 0.0:
                        means = [0.0] * n
                        for i2 in range(n):
                            s = integ[i2] + pot[i2] * (t - mark[i2])
                            integ[i2] = s
                            mark[i2] = t
                            means[i2] = (s - win_integ[i2]) / dt
                            win_integ[i2] = s
                        obs_sums += means
                    else:  # zero-length window cannot happen in practice; snapshot
                        obs_sums += pot
                    win_t = t
                    observations += 1
    finally:
        state.sim_time = t
        state.window_start_time = win_t
        state.event_count = events
        state.arrival_count = arrivals
        state.firing_count = firings
        state.observation_count = observations


def step_event(net: SimNetwork, state: SimState) -> SimState:
    """Apply exactly one event (external arrival or firing) to ``state``.

    Raises :class:`DeadNetworkError` when the total event rate is zero.
    """
    _advance(net, state, 1)
    return state


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
        q = self.q
        out = []
        offset = 0
        for size in self.layer_sizes:
            out.append(q[offset : offset + size])
            offset += size
        return out

    @classmethod
    def zeros(cls, net: SimNetwork) -> "QEstimate":
        """Estimate for a network in which nothing ever happened."""
        return cls(np.zeros(net.n_neurons), 0, list(net.layer_sizes), list(net.layer_names))


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
    state = new_state(net, seed)
    _advance(net, state, n_events, observe_every, burn_in)
    k_bar = state.observation_sums / state.observation_count
    return QEstimate(k_bar, state.observation_count, list(net.layer_sizes), list(net.layer_names))


def run_ensemble(
    net: SimNetwork,
    n_events: int,
    observe_every: int = 1000,
    seed=0,
    runs: int = 4,
) -> QEstimate:
    """Pool several independent runs (split seeds) into one estimate.

    Observations are pooled, i.e. the combined mean potential weighs each
    run by its observation count.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    children = np.random.SeedSequence(seed).spawn(runs)
    total_sums = np.zeros(net.n_neurons)
    total_obs = 0
    for child in children:
        est = run(net, n_events, observe_every, seed=child)
        total_sums += est.mean_potential * est.observation_count
        total_obs += est.observation_count
    return QEstimate(total_sums / total_obs, total_obs, list(net.layer_sizes), list(net.layer_names))


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
