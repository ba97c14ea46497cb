"""Nonnegative quasi-linear random neural network autoencoders.

Training uses NMF-style multiplicative weight updates kept inside the RNN
probability constraints, through one entry point, :func:`train`, that fits
shallow and deep models jointly or greedily stage by stage; trained models
can be cross-checked against the general recurrent steady-state equations
and validated by discrete-event simulation of the underlying spiking
network.

Each public name is imported from its module on first access (PEP 562) and
then bound here, so ``import lrnn`` loads no submodule and a command loads
only the modules it runs.
"""

from importlib import import_module

#: Home module of every public name.
_HOMES = {
    "data": ("Dataset", "iter_minibatches", "load_dataset"),
    "model": (
        "ActivationState",
        "ConstraintViolation",
        "LrnnModel",
        "clamp_unit",
        "dataset_error",
        "forward",
        "reconstruction_error",
        "validate_constraints",
    ),
    "model_io": ("load_model", "save_model"),
    "simulation": (
        "LayerComparison",
        "QEstimate",
        "SimNetwork",
        "compare",
        "compile_sim",
        "run",
    ),
    "steady_state": (
        "ConvergenceError",
        "RnnNetworkSpec",
        "feed_forward_spec",
        "solve_steady_state",
    ),
    "training": (
        "TrainConfig",
        "TrainReport",
        "init_weights",
        "project_rows",
        "rescale_saturation",
        "train",
        "update_decode",
        "update_encode",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _HOME_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    # Bound once: later reads skip this hook and keep the object first found,
    # even if the module attribute is rebound afterwards.
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
