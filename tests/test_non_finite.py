"""NaN and +-inf are refused wherever they enter and never yield a model."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrnn import (
    RnnNetworkSpec,
    TrainConfig,
    compile_sim,
    init_weights,
    load_model,
    save_model,
    solve_steady_state,
    train,
)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
POSITION = st.integers(0, 10**6)  # taken modulo the size of the target array
FAST = settings(max_examples=50, deadline=None)


def poisoned_model(layer: int, position: int, bad: float):
    model = init_weights([5, 3, 2], seed=0)
    w = (model.encode_weights + model.decode_weights)[layer]
    w.flat[position % w.size] = bad
    return model


@FAST
@given(position=POSITION, bad=NON_FINITE)
def test_train_refuses_non_finite_x(position, bad):
    x = np.full((6, 4), 0.5)
    x.flat[position % x.size] = bad
    with pytest.raises(ValueError):
        train(x, [4, 2], TrainConfig(batch_size=3, max_iterations=2))


@FAST
@given(layer=st.integers(0, 3), position=POSITION, bad=NON_FINITE)
def test_load_model_refuses_non_finite_weight(layer, position, bad):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.lrnn"
        save_model(poisoned_model(layer, position, bad), path)
        with pytest.raises(ValueError):
            load_model(path)


@FAST
@given(layer=st.integers(0, 3), position=POSITION, bad=NON_FINITE)
def test_compile_sim_refuses_non_finite_weight(layer, position, bad):
    with pytest.raises(ValueError):
        compile_sim(poisoned_model(layer, position, bad), np.full(5, 0.5))


@FAST
@given(
    field=st.sampled_from(["rates", "p_plus", "p_minus", "lam_plus", "lam_minus"]),
    position=POSITION,
    bad=NON_FINITE,
)
def test_solve_steady_state_refuses_non_finite_spec(field, position, bad):
    n = 3
    spec = RnnNetworkSpec(
        rates=np.ones(n),
        p_plus=np.full((n, n), 0.2),
        p_minus=np.full((n, n), 0.1),
        lam_plus=np.full(n, 0.5),
        lam_minus=np.full(n, 0.1),
    )
    a = getattr(spec, field)
    a.flat[position % a.size] = bad
    with pytest.raises(ValueError):
        solve_steady_state(spec)
