"""Independent reference computations used by the unit and acceptance tests.

Everything here is written with explicit Python loops over scalars so the
vectorized library code is checked against a genuinely separate path, or
keeps a plainer formula that an optimized library routine must equal.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import fsum, log

import numpy as np

from lrnn.model import LrnnModel, forward
from lrnn.simulation import QEstimate, SimNetwork, run


class DeadNetworkError(RuntimeError):
    """No event can occur: no external arrivals and no active neuron."""


def dataset_error_reference(model, x, chunk_rows: int = 4096) -> float:
    """Whole-dataset MSE from ``forward``'s output, a chunk of ``chunk_rows``
    rows at a time: each row's squared error summed on its own, the row sums
    added with ``math.fsum``.  ``dataset_error``, which evaluates the chunks
    in place, must give these bits."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    row_sums = []
    for start in range(0, x.shape[0], chunk_rows):
        chunk = x[start : start + chunk_rows]
        for row in chunk - forward(model, chunk).output:
            row_sums.append(np.sum(row * row))
    return fsum(row_sums) / x.size


def dataset_error_live_reference(model, x, chunk_rows: int) -> float:
    """Whole-dataset MSE taken over the live visible units only, those with a
    nonzero row of the first encode layer or column of the last decode layer.

    Per chunk of ``chunk_rows`` rows, ``forward`` runs the model restricted
    to the live units on the chunk's live columns; each row's squared error
    there is summed, its sum of squares over the dead columns added, and the
    row sums are added with ``math.fsum``.  ``dataset_error`` must give these
    bits on a model with both live and dead units."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    w, wb = model.encode_weights[0], model.decode_weights[-1]
    live = [v for v in range(x.shape[1]) if w[v].any() or wb[:, v].any()]
    dead = [v for v in range(x.shape[1]) if v not in live]
    restricted = LrnnModel(
        [w[live], *model.encode_weights[1:]], [*model.decode_weights[:-1], wb[:, live]]
    )
    row_sums = []
    for start in range(0, x.shape[0], chunk_rows):
        chunk = x[start : start + chunk_rows]
        for row, out in zip(chunk, forward(restricted, chunk[:, live]).output):
            d, rest = row[live] - out, row[dead]
            row_sums.append(np.sum(d * d) + np.sum(rest * rest))
    return fsum(row_sums) / x.size


def gram_loops(a) -> list[list[float]]:
    d, v_dim = len(a), len(a[0])
    return [
        [sum(a[r][i] * a[r][j] for r in range(d)) for j in range(v_dim)] for i in range(v_dim)
    ]


def scalar_update_encode(a, w, wb, eps) -> np.ndarray:
    """Triple-loop reference for the encode multiplicative rule."""
    v_dim, h_dim = len(w), len(w[0])
    o_dim = len(wb[0])
    gram = gram_loops(a)
    out = [[0.0] * h_dim for _ in range(v_dim)]
    for v in range(v_dim):
        for h in range(h_dim):
            num = sum(gram[v][u] * wb[h][u] for u in range(v_dim))
            den = 0.0
            for u in range(v_dim):
                for k in range(h_dim):
                    for o in range(o_dim):
                        den += gram[v][u] * w[u][k] * wb[k][o] * wb[h][o]
            if den == 0.0:
                den = eps
            out[v][h] = w[v][h] * num / den
    return np.array(out)


def scalar_update_decode(a, w, wb, eps) -> np.ndarray:
    """Triple-loop reference for the decode multiplicative rule."""
    v_dim, h_dim = len(w), len(w[0])
    o_dim = len(wb[0])
    gram = gram_loops(a)
    out = [[0.0] * o_dim for _ in range(h_dim)]
    for h in range(h_dim):
        for o in range(o_dim):
            num = sum(w[u][h] * gram[u][o] for u in range(v_dim))
            den = 0.0
            for u in range(v_dim):
                for z in range(v_dim):
                    for k in range(h_dim):
                        den += w[u][h] * gram[u][z] * w[z][k] * wb[k][o]
            if den == 0.0:
                den = eps
            out[h][o] = wb[h][o] * num / den
    return np.array(out)


# ---------------------------------------------------------------------------
# Reference spiking simulator: the Gillespie direct method, one event at a
# time.  The library's layer-sweep engine (lrnn.simulation.run) is checked
# against it.
#
# An *event* is one external arrival or one firing.  The total rate is the
# sum of arrival rates plus the number of currently active neurons; one
# exponential dwell is sampled per event, and one uniform picks both the
# event category and the neuron involved.  Every ``observe_every`` events
# past the burn-in an observation window closes.  Over each window the
# reference counts each neuron's firings, as the library's estimator does,
# and time-averages its potential, which the product form relates to q.


def routing_lists(net: SimNetwork) -> tuple[list[list[int]], list[list[float]]]:
    """Per-neuron compressed routing: the nonzero targets (global indices)
    and their cumulative probabilities; the tail mass 1 - cum[-1] is the leak."""
    targets: list[list[int]] = [[] for _ in range(net.n_neurons)]
    cums: list[list[float]] = [[] for _ in range(net.n_neurons)]
    for layer, w in enumerate(net.weight_chain):
        base = net.layer_offsets[layer]
        nxt = net.layer_offsets[layer + 1]
        for j in range(w.shape[0]):
            nz = np.flatnonzero(w[j])
            if nz.size:
                targets[base + j] = (nxt + nz).tolist()
                cums[base + j] = np.cumsum(w[j, nz]).tolist()
    return targets, cums


@dataclass
class SimState:
    """Mutable Gillespie state: integer potentials, the active-neuron set,
    the routing lists, per-neuron firing counts, and the bookkeeping of the
    windowed firing counts and time averages."""

    potentials: list[int]
    active: list[int]
    active_pos: list[int]
    observation_sums: np.ndarray
    fired: list[int]
    firing_sums: np.ndarray
    window_start_fired: np.ndarray
    rng: np.random.Generator
    route_targets: list[list[int]]
    route_cum: list[list[float]]
    arrival_cum: list[float]
    sim_time: float = 0.0
    potential_integrals: list[float] = field(default_factory=list)
    integral_times: list[float] = field(default_factory=list)
    window_start_time: float = 0.0
    window_start_integrals: list[float] = field(default_factory=list)
    observed_time: float = 0.0
    event_count: int = 0
    arrival_count: int = 0
    firing_count: int = 0
    observation_count: int = 0


def new_state(net: SimNetwork, seed=0) -> SimState:
    n = net.n_neurons
    targets, cums = routing_lists(net)
    return SimState(
        potentials=[0] * n,
        active=[],
        active_pos=[-1] * n,
        observation_sums=np.zeros(n),
        fired=[0] * n,
        firing_sums=np.zeros(n),
        window_start_fired=np.zeros(n),
        rng=np.random.default_rng(seed),
        route_targets=targets,
        route_cum=cums,
        arrival_cum=np.cumsum(net.arrival_rates).tolist(),
        potential_integrals=[0.0] * n,
        integral_times=[0.0] * n,
        window_start_integrals=[0.0] * n,
    )


_RNG_BLOCK = 1 << 16


def _advance(
    net: SimNetwork,
    state: SimState,
    n_events: int,
    observe_every: int | None = None,
    burn_in: int = 0,
) -> None:
    """Apply ``n_events`` events to ``state`` in place.

    When ``observe_every`` is set, every ``observe_every``-th event past
    the burn-in closes an observation window.  It adds each neuron's
    firings in the window to the firing sums, the window's length to the
    observed time, and each neuron's time-averaged potential over the
    window to the observation sums.  Uniform draws are prefetched in
    blocks; the consumed stream values equal drawing them one at a time.
    """
    pot = state.potentials
    active = state.active
    pos = state.active_pos
    integ = state.potential_integrals
    mark = state.integral_times
    win_integ = state.window_start_integrals
    cum = state.route_cum
    tgt = state.route_targets
    acum = state.arrival_cum
    total_x = acum[-1] if acum else 0.0
    rng = state.rng
    obs_sums = state.observation_sums
    fired = state.fired
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
                fired[i] += 1
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
                    state.window_start_fired = np.array(fired, dtype=np.float64)
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
                    counts = np.array(fired, dtype=np.float64)
                    state.firing_sums += counts - state.window_start_fired
                    state.window_start_fired = counts
                    state.observed_time += dt
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


def gillespie_run(
    net: SimNetwork, n_events: int, observe_every: int = 1000, seed=0, burn_in: int = 0
) -> tuple[QEstimate, np.ndarray]:
    """The reference counterpart of :func:`lrnn.simulation.run`.

    Returns the estimate, whose q is each neuron's firings over the
    observed time, and each neuron's mean potential k over the windows.
    """
    state = new_state(net, seed)
    _advance(net, state, n_events, observe_every, burn_in)
    q = state.firing_sums / state.observed_time
    est = QEstimate(q, state.observation_count, list(net.layer_sizes), list(net.layer_names))
    return est, state.observation_sums / state.observation_count


def run_ensemble(
    net: SimNetwork,
    n_events: int,
    observe_every: int = 1000,
    seed=0,
    runs: int = 4,
) -> QEstimate:
    """Pool several independent library runs into one estimate.

    Seeds are split with ``SeedSequence.spawn`` so streams never overlap.
    Observations are pooled, i.e. the combined q weighs each run by its
    observation count.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    children = np.random.SeedSequence(seed).spawn(runs)
    total_sums = np.zeros(net.n_neurons)
    total_obs = 0
    for child in children:
        est = run(net, n_events, observe_every, seed=child)
        total_sums += est.q * est.observation_count
        total_obs += est.observation_count
    return QEstimate(total_sums / total_obs, total_obs, list(net.layer_sizes), list(net.layer_names))


def ordered_slab_accounting(
    slabs, layer_sizes, n_events: int, observe_every: int, burn_in: int
) -> tuple[np.ndarray, int]:
    """q and the observation count from the recorded output of every slab of a run.

    ``slabs`` holds, per slab, its length and :func:`lrnn.simulation._sweep_slab`'s
    two lists.  Every slab's events are put in time order and cut by rank at
    events ``burn_in`` and ``last_close``; :func:`lrnn.simulation.run` sorts
    no slab and cuts the span by time, which must give the same bits.
    """
    offsets = np.cumsum([0, *layer_sizes])
    n = int(offsets[-1])
    observations = (n_events - burn_in) // observe_every
    last_close = burn_in + observations * observe_every
    firings = np.zeros(n + 1, dtype=np.int64)
    span, events = 0.0, 0
    for end, times, fired in slabs:
        t = np.concatenate(times)
        ids = np.concatenate([np.full(times[0].size, n)] + [j + o for j, o in zip(fired, offsets)])
        order = np.argsort(t)
        edges = np.concatenate(([0.0], t[order], [end]))
        lo, hi = np.clip((burn_in - events, last_close - events), 0, t.size + 1)
        span += edges[hi] - edges[lo]
        firings += np.bincount(ids[order[lo:hi]], minlength=n + 1)
        events += t.size
    return firings[:-1] / span, observations
