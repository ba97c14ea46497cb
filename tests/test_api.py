"""The public API: the exported names are exactly the pinned set, each one
resolves, and the calls the benchmark scripts (bench/replay.py,
bench/probe.py) make still bind."""

import inspect

import pytest

import lrnn

#: Public calls made by the benchmark scripts, with the positional argument
#: count and keyword names they pass.
BENCH_CALLS = (
    ("load_dataset", 2, ()),
    ("init_weights", 2, ()),
    ("iter_minibatches", 4, ()),
    ("update_encode", 3, ()),
    ("update_decode", 3, ()),
    ("project_rows", 1, ()),
    ("rescale_saturation", 2, ()),
    ("clamp_unit", 1, ()),
    ("reconstruction_error", 2, ()),
    ("dataset_error", 2, ()),
    ("save_model", 2, ()),
    ("load_model", 1, ()),
    ("forward", 2, ()),
    ("compile_sim", 2, ()),
    ("run", 3, ("seed",)),
    ("compare", 2, ()),
)


#: Every public name; an export is added or removed by editing this set.
PUBLIC_API = {
    "ActivationState", "ConstraintViolation", "ConvergenceError", "Dataset",
    "LayerComparison", "LrnnModel", "QEstimate", "RnnNetworkSpec",
    "SimNetwork", "TrainConfig", "TrainReport", "clamp_unit", "compare", "compile_sim",
    "dataset_error", "feed_forward_spec", "forward", "init_weights", "iter_minibatches",
    "load_dataset", "load_model", "project_rows", "reconstruction_error",
    "rescale_saturation", "run", "save_model", "solve_steady_state", "train",
    "update_decode", "update_encode", "validate_constraints",
}


def test_public_api_is_pinned():
    assert set(lrnn.__all__) == PUBLIC_API


def test_all_names_resolve():
    missing = [name for name in lrnn.__all__ if not hasattr(lrnn, name)]
    assert missing == []


@pytest.mark.parametrize("name, n_args, keywords", BENCH_CALLS, ids=[c[0] for c in BENCH_CALLS])
def test_benchmark_calls_bind(name, n_args, keywords):
    assert name in lrnn.__all__
    inspect.signature(getattr(lrnn, name)).bind(*range(n_args), **{k: 0 for k in keywords})
