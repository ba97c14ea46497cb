"""Nonnegative quasi-linear random neural network autoencoders.

Training uses NMF-style multiplicative weight updates kept inside the RNN
probability constraints, through one entry point, :func:`train`, that fits
shallow and deep models jointly or greedily stage by stage; trained models
can be cross-checked against the general recurrent steady-state equations
and validated by discrete-event simulation of the underlying spiking
network.
"""

from .data import (
    Dataset,
    iter_minibatches,
    load_cifar10,
    load_csv,
    load_dataset,
    load_idx,
    load_manifest,
    load_manifest_entry,
    normalize_unit_interval,
)
from .model import (
    ActivationState,
    ConstraintViolation,
    LrnnModel,
    clamp_unit,
    dataset_error,
    forward,
    reconstruction_error,
    validate_constraints,
)
from .model_io import load_model, save_model
from .simulation import (
    DeadNetworkError,
    LayerComparison,
    QEstimate,
    SimNetwork,
    SimState,
    compare,
    compile_sim,
    new_state,
    run,
    run_ensemble,
    step_event,
)
from .steady_state import (
    ConvergenceError,
    RnnNetworkSpec,
    feed_forward_spec,
    solve_steady_state,
)
from .training import (
    TrainConfig,
    TrainReport,
    init_weights,
    project_rows,
    rescale_saturation,
    train,
    update_decode,
    update_encode,
)

__all__ = [
    "ActivationState",
    "ConstraintViolation",
    "ConvergenceError",
    "Dataset",
    "DeadNetworkError",
    "LayerComparison",
    "LrnnModel",
    "QEstimate",
    "RnnNetworkSpec",
    "SimNetwork",
    "SimState",
    "TrainConfig",
    "TrainReport",
    "clamp_unit",
    "compare",
    "compile_sim",
    "dataset_error",
    "feed_forward_spec",
    "forward",
    "init_weights",
    "iter_minibatches",
    "load_cifar10",
    "load_csv",
    "load_dataset",
    "load_idx",
    "load_manifest",
    "load_manifest_entry",
    "load_model",
    "new_state",
    "normalize_unit_interval",
    "project_rows",
    "reconstruction_error",
    "rescale_saturation",
    "run",
    "run_ensemble",
    "save_model",
    "solve_steady_state",
    "step_event",
    "train",
    "update_decode",
    "update_encode",
    "validate_constraints",
]

__version__ = "0.1.0"
