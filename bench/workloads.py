"""The benchmark's workloads: input shapes and the command settings run on them.

Every workload runs the whole user path (train, eval, simulate) so that
every end-to-end metric exists on every workload; the sizes decide which
layer does most of the work.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TrainSpec:
    """The ``lrnn train`` settings of a workload."""

    algo: str
    dims: tuple[int, ...]
    batch: int
    iters: int
    shuffle: bool

    def argv(self) -> list[str]:
        args = ["--algo", self.algo, "--arch", ",".join(map(str, self.dims))]
        args += ["--batch", str(self.batch), "--iters", str(self.iters)]
        return args + (["--shuffle"] if self.shuffle else [])


@dataclass(frozen=True)
class Workload:
    """One generated dataset and the commands run on it.

    ``q_bound`` is the stated upper bound on ``sim_q_mean_abs_diff``, the
    mean over all neurons of |q_sim - q_num| after ``sim_events`` events,
    averaged over ``sim_instances`` simulated rows.  Small networks need
    several rows for a steady figure, because their neurons' errors are
    strongly correlated.
    """

    name: str
    fmt: str
    rows: int
    train: TrainSpec
    sim_events: int
    q_bound: float
    sim_instances: int = 1

    @property
    def data_file(self) -> str:
        return "table.csv" if self.fmt == "csv" else "images.idx"

    @property
    def neurons(self) -> int:
        """Neurons of the simulated network: visual, encode and decode layers."""
        return sum(self.train.dims) + sum(self.train.dims[:-1])


WORKLOADS = {
    w.name: w
    for w in (
        # Encode/decode rules dominate (V=784 > B=100, the Gram form is
        # costly); --shuffle copies the whole dataset every epoch.
        Workload(
            "mnist_shallow", "idx", 10_000,
            TrainSpec("shallow", (784, 100), batch=100, iters=100, shuffle=True),
            sim_events=200_000, q_bound=0.02, sim_instances=2,
        ),
        # Same layers used differently: B=1000 > V=64, so the update rules
        # are cheap and CSV parsing plus per-call overhead dominate.
        Workload(
            "table_deep", "csv", 20_000,
            TrainSpec("joint", (64, 32, 16), batch=1000, iters=400, shuffle=False),
            sim_events=1_000_000, q_bound=0.02, sim_instances=3,
        ),
        # The 1668-neuron spiking simulation dominates; training is a
        # token 10 updates on a small image set.
        Workload(
            "sim_1668", "idx", 1_000,
            TrainSpec("shallow", (784, 100), batch=100, iters=10, shuffle=False),
            sim_events=1_000_000, q_bound=0.01, sim_instances=1,
        ),
    )
}
