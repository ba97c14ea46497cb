"""Steady-state excitation probabilities of a general recurrent random neural network.

For neuron h the stationary excitation probability solves

    q_h = min( (lam_plus_h + sum_v q_v r_v p_plus[v,h])
               / (r_h + lam_minus_h + sum_v q_v r_v p_minus[v,h]), 1 )

a system whose solution is unique.  :func:`solve_steady_state` finds it by
successive substitution from q = 0, switching to damped steps if the
iteration keeps reversing direction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import _check_count, as_matrix
from .model import ROW_SUM_SLACK, LrnnModel, clamp_unit
from .simulation import compile_sim

#: Consecutive direction reversals of the update before damping kicks in.
_OSCILLATION_WINDOW = 100
_DAMPING_FACTOR = 0.5


class ConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach tolerance within the budget."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"steady-state iteration did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


@dataclass
class RnnNetworkSpec:
    """Parameters of an N-neuron recurrent network, each held as float64.

    rates
        Firing rate r_v per neuron (events per unit time), a vector of N.
    p_plus, p_minus
        N x N matrices of excitatory/inhibitory routing probabilities;
        p_plus[v, h] is the probability that a spike from v excites h.
    lam_plus, lam_minus
        External Poisson arrival rates of excitatory/inhibitory spikes,
        vectors of N.  A field of another shape is refused.
    """

    rates: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    lam_plus: np.ndarray
    lam_minus: np.ndarray

    def __post_init__(self) -> None:
        n = np.size(self.rates)
        for field in fields(self):
            a = np.asarray(getattr(self, field.name), dtype=np.float64)
            shape = (n, n) if field.name.startswith("p_") else (n,)
            if a.shape != shape:
                raise ValueError(f"{field.name} must have shape {shape}, got {a.shape}")
            setattr(self, field.name, a)

    @property
    def n_neurons(self) -> int:
        return self.rates.shape[0]

    def validate(self) -> None:
        for field in fields(self):
            as_matrix(np.atleast_2d(getattr(self, field.name)), field.name)  # finite, nonnegative
        row_sums = self.p_plus.sum(axis=1) + self.p_minus.sum(axis=1)
        bad = np.flatnonzero(row_sums > 1.0 + ROW_SUM_SLACK)
        if bad.size:
            raise ValueError(
                f"routing probabilities of neuron(s) {bad.tolist()} sum to more than 1"
            )


def solve_steady_state(
    spec: RnnNetworkSpec, tol: float = 1e-12, max_iter: int = 10_000
) -> np.ndarray:
    """Iterate the excitation-probability equations to a fixed point.

    Starts from q = 0 and applies plain successive substitution until the
    largest per-neuron step falls below ``tol``.  If the update direction
    reverses for ``_OSCILLATION_WINDOW`` consecutive iterations the step is
    damped by ``_DAMPING_FACTOR`` from then on, which restores convergence
    for strongly inhibitory networks whose plain iteration ping-pongs.

    Raises :class:`ConvergenceError` after ``max_iter`` iterations and
    ``ValueError`` if some neuron has positive excitatory input but a zero
    total service rate (zero denominator).
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _check_count("max_iter", max_iter)
    spec.validate()
    q = np.zeros(spec.n_neurons)
    damping = 1.0
    prev_delta: np.ndarray | None = None
    reversals = 0
    residual = np.inf
    for _ in range(max_iter):
        flow = q * spec.rates
        num = spec.lam_plus + flow @ spec.p_plus
        den = spec.rates + spec.lam_minus + flow @ spec.p_minus
        dead = den == 0.0
        if np.any(dead & (num > 0.0)):
            h = int(np.flatnonzero(dead & (num > 0.0))[0])
            raise ValueError(
                f"neuron {h} receives excitatory input at rate {num[h]:g} "
                "but has zero firing rate and zero inhibitory inflow"
            )
        target = np.zeros_like(q)
        np.divide(num, den, out=target, where=~dead)
        target = clamp_unit(target)
        delta = damping * (target - q)
        q = q + delta
        residual = float(np.abs(delta).max(initial=0.0))
        if residual < tol:
            return q
        if prev_delta is not None and float(delta @ prev_delta) < 0.0:
            reversals += 1
            if reversals >= _OSCILLATION_WINDOW:
                damping = _DAMPING_FACTOR
        else:
            reversals = 0
        prev_delta = delta
    raise ConvergenceError(max_iter, residual)


def feed_forward_spec(model: LrnnModel, attributes) -> RnnNetworkSpec:
    """Recurrent-network view of an autoencoder fed with one instance.

    All firing rates are 1, so every weight is directly a routing
    probability; the instance's attribute values become the external
    excitatory arrival rates of the visual neurons.  The layout is
    :func:`lrnn.simulation.compile_sim`'s, with its checks.  Solving the
    returned spec reproduces :func:`lrnn.model.forward` neuron by neuron.
    """
    net = compile_sim(model, attributes)
    n, offsets = net.n_neurons, net.layer_offsets
    p_plus = np.zeros((n, n))
    for layer, w in enumerate(net.weight_chain):
        p_plus[offsets[layer] : offsets[layer + 1], offsets[layer + 1] : offsets[layer + 2]] = w
    lam_plus = np.zeros(n)
    lam_plus[: net.layer_sizes[0]] = net.arrival_rates
    return RnnNetworkSpec(np.ones(n), p_plus, np.zeros((n, n)), lam_plus, np.zeros(n))
