"""Multiplicative update rules, constraint handling and the training loop."""

from dataclasses import replace

import numpy as np
import pytest

from lrnn import (
    Dataset,
    LrnnModel,
    TrainConfig,
    clamp_unit,
    dataset_error,
    forward,
    init_weights,
    project_rows,
    reconstruction_error,
    rescale_saturation,
    train,
    update_decode,
    update_encode,
    validate_constraints,
)


from lrnn.model import rows_per_chunk
from oracles import scalar_update_decode, scalar_update_encode
from synthetic import disjoint_halves, mnist_like


class TestUpdateRules:
    def test_encode_hand_arithmetic(self):
        # num = 0.25 * 1.0, den = 0.25 * 0.5 * 1.0 * 1.0 -> factor 2
        model = LrnnModel([np.array([[0.5]])], [np.array([[1.0]])])
        new_w = update_encode(model, 1, [[0.5]])
        assert new_w[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_decode_hand_arithmetic(self):
        # num = 0.25, den = 0.25 * 0.5 -> factor 2
        model = LrnnModel([np.array([[1.0]])], [np.array([[0.5]])])
        new_wb = update_decode(model, 1, [[0.5]])
        assert new_wb[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_fixed_point_scalar(self):
        # a w wb = a exactly: numerator equals denominator
        model = LrnnModel([np.array([[1.0]])], [np.array([[1.0]])])
        assert update_encode(model, 1, [[0.5]])[0, 0] == 1.0
        assert update_decode(model, 1, [[0.5]])[0, 0] == 1.0

    def test_fixed_point_identity_weights(self):
        rng = np.random.default_rng(3)
        a = rng.random((6, 3)) + 0.05
        model = LrnnModel([np.eye(3)], [np.eye(3)])
        np.testing.assert_allclose(update_encode(model, 1, a), np.eye(3), rtol=1e-12)
        np.testing.assert_allclose(update_decode(model, 1, a), np.eye(3), rtol=1e-12)

    def test_zero_entries_locked(self):
        rng = np.random.default_rng(5)
        w = rng.random((3, 2))
        w[1, 0] = 0.0
        wb = rng.random((2, 3))
        wb[0, 2] = 0.0
        model = LrnnModel([w], [wb])
        a = rng.random((4, 3))
        assert update_encode(model, 1, a)[1, 0] == 0.0
        assert update_decode(model, 1, a)[0, 2] == 0.0

    def test_matches_scalar_oracle_shallow(self):
        # acceptance-grade: Eq.-style rules on random 6x4 data, H=3
        rng = np.random.default_rng(17)
        a = rng.random((6, 4))
        w = rng.random((4, 3)) * 0.3
        wb = rng.random((3, 4)) * 0.3
        model = LrnnModel([w.copy()], [wb.copy()])
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(
            update_encode(model, 1, a), scalar_update_encode(a, w, wb, eps), rtol=1e-12
        )
        np.testing.assert_allclose(
            update_decode(model, 1, a), scalar_update_decode(a, w, wb, eps), rtol=1e-12
        )

    def test_matches_scalar_oracle_deep_layer(self):
        # general-layer rules: layer 2 of a depth-2 model pairs with the
        # first decode matrix; its input activations play the data role
        rng = np.random.default_rng(23)
        model = init_weights([5, 4, 3], seed=23)
        a = rng.random((6, 4))  # activations of encode layer 1
        w = model.encode_weights[1]
        wb = model.decode_weights[0]
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(
            update_encode(model, 2, a), scalar_update_encode(a, w, wb, eps), rtol=1e-12
        )
        np.testing.assert_allclose(
            update_decode(model, 2, a), scalar_update_decode(a, w, wb, eps), rtol=1e-12
        )

    def test_eps_floor_rescues_zero_denominator(self):
        model = LrnnModel([np.array([[0.5]])], [np.array([[0.0]])])
        new_w = update_encode(model, 1, [[0.5]])
        assert np.isfinite(new_w).all()
        assert new_w[0, 0] == 0.0  # numerator is zero as well

    def test_nonnegativity_preserved(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            model = init_weights([4, 3], seed=seed)
            a = rng.random((5, 4))
            assert update_encode(model, 1, a).min() >= 0.0
            assert update_decode(model, 1, a).min() >= 0.0


class TestProjectRows:
    def test_normalizes_offending_row(self):
        out = project_rows(np.array([[0.6, 0.8]]))
        np.testing.assert_allclose(out, [[0.6 / 1.4, 0.8 / 1.4]])
        assert out.sum() == pytest.approx(1.0)

    def test_leaves_feasible_row(self):
        w = np.array([[0.2, 0.3]])
        np.testing.assert_array_equal(project_rows(w), w)

    def test_zero_row_untouched(self):
        w = np.zeros((1, 2))
        np.testing.assert_array_equal(project_rows(w), w)

    def test_mixed_rows(self):
        out = project_rows(np.array([[0.6, 0.8], [0.1, 0.1]]))
        np.testing.assert_allclose(out.sum(axis=1), [1.0, 0.2])


class TestRescaleSaturation:
    def test_divides_by_peak(self):
        out = rescale_saturation(np.array([[4.0]]), np.array([[0.5]]))
        np.testing.assert_allclose(out, [[2.0]])

    def test_peak_at_one_unchanged(self):
        w = np.array([[2.0]])
        out = rescale_saturation(w, np.array([[0.5]]))
        np.testing.assert_array_equal(out, w)

    def test_zero_input_guarded(self):
        w = np.array([[0.7, 0.2]])
        out = rescale_saturation(w, np.zeros((3, 1)))
        np.testing.assert_array_equal(out, w)

    def test_only_saturated_units_scaled(self):
        # unit 0 peaks at 2 and is halved; unit 1 peaks at 0.4 and stays
        w = np.array([[4.0, 0.8]])
        out = rescale_saturation(w, np.array([[0.5]]))
        np.testing.assert_allclose(out, [[2.0, 0.8]])

    def test_never_breaks_row_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = project_rows(rng.random((4, 3)))
            a = rng.random((6, 4))
            out = rescale_saturation(w, a)
            assert out.sum(axis=1).max() <= w.sum(axis=1).max() + 1e-15


class TestInitWeights:
    def test_rows_strictly_below_one(self):
        model = init_weights([2, 1], seed=4)
        for w in model.encode_weights + model.decode_weights:
            assert w.min() > 0.0
            assert w.sum(axis=1).max() < 1.0

    def test_deterministic(self):
        a = init_weights([5, 3, 2], seed=42)
        b = init_weights([5, 3, 2], seed=42)
        for wa, wb in zip(a.encode_weights + a.decode_weights, b.encode_weights + b.decode_weights):
            np.testing.assert_array_equal(wa, wb)

    def test_large_init_satisfies_constraints(self):
        model = init_weights([784, 100], seed=0)
        assert validate_constraints(model) == []

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            init_weights([4], seed=0)
        with pytest.raises(ValueError):
            init_weights([4, 0], seed=0)


def small_config(**kw):
    base = dict(batch_size=4, max_iterations=30, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainShallow:
    def test_one_iteration_hand_trace(self):
        # On x=[[0.5]] the encode update lands above 1 and is projected to
        # exactly 1; the pre-activation 0.5 stays unsaturated so the rescale
        # is a no-op; the decode update then cancels its own initial value.
        # Both weights end at exactly 1 whatever the seed.
        model, report = train(
            [[0.5]], [1, 1], TrainConfig(batch_size=1, max_iterations=1, seed=123)
        )
        assert model.encode_weights[0][0, 0] == 1.0
        assert model.decode_weights[0][0, 0] == 1.0
        assert report.error_curve == [(1, 0.0)]
        assert report.final_full_error == 0.0

    def test_requires_budget(self):
        with pytest.raises(ValueError, match="max_iterations"):
            train(np.ones((4, 2)) * 0.5, [2, 1], TrainConfig(batch_size=2))
        for name, value in (
            ("max_iterations", 0), ("max_iterations", -3), ("max_epochs", 0),
            ("rel_tol", -1.0), ("rel_tol", np.nan), ("rel_tol", np.inf),
        ):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: value})

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train(np.zeros((0, 2)), [2, 1], small_config())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="attributes"):
            train(np.ones((4, 3)) * 0.5, [2, 1], small_config())

    def test_unknown_algo(self):
        with pytest.raises(ValueError, match="algo"):
            train(np.ones((4, 2)) * 0.5, [2, 1], small_config(), "layerwise")

    def test_non_finite_data_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            x = np.full((4, 2), 0.5)
            x[2, 1] = bad
            with pytest.raises(ValueError, match="NaN or infinite"):
                train(x, [2, 1], small_config())

    def test_curve_indices_strictly_increasing(self):
        x = np.random.default_rng(0).random((17, 3))
        _, report = train(x, [3, 2], small_config(max_iterations=12))
        indices = [i for i, _ in report.error_curve]
        assert indices == list(range(1, 13))

    def test_constraints_after_every_iteration(self):
        x = np.random.default_rng(1).random((20, 4))
        seen = []
        train(x, [4, 2], small_config(max_iterations=25),
            observer=lambda i, e, m: seen.append(len(validate_constraints(m))),
        )
        assert seen and not any(seen)

    def test_epoch_budget(self):
        x = np.random.default_rng(2).random((10, 3))
        _, report = train(x, [3, 2], TrainConfig(batch_size=3, max_epochs=2, seed=0))
        # ceil(10/3) = 4 batches per epoch, two epochs
        assert len(report.error_curve) == 8

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(3).random((21, 5))
        cfg = small_config(max_iterations=20, seed=11, shuffle=True)
        m1, r1 = train(x, [5, 2], cfg)
        m2, r2 = train(x, [5, 2], cfg)
        np.testing.assert_array_equal(m1.encode_weights[0], m2.encode_weights[0])
        np.testing.assert_array_equal(m1.decode_weights[0], m2.decode_weights[0])
        assert r1.error_curve == r2.error_curve

    def test_early_stop_window(self):
        x = np.random.default_rng(4).random((40, 3))
        cfg = TrainConfig(batch_size=4, max_iterations=5000, seed=0, rel_tol=0.5)
        _, report = train(x, [3, 2], cfg)
        assert len(report.error_curve) < 5000

    def test_unit_zero_throughout_one_minibatch_dies(self):
        # Column 0 is 0 in the first 10-row batch only: the rules zero its W
        # row and WB column there, and the later batches cannot revive it.
        x = np.random.default_rng(23).random((20, 4))
        x[:10, 0] = 0.0
        for iterations in (1, 50):
            model, report = train(x, [4, 2], small_config(batch_size=10, max_iterations=iterations))
            assert report.dead_units == 1
            assert not model.encode_weights[0][0].any()
            assert not model.decode_weights[0][:, 0].any()

    def test_no_dead_units_on_dense_data(self):
        _, report = train(np.random.default_rng(24).random((20, 4)), [4, 2], small_config())
        assert report.dead_units == 0

    def test_error_decreases_on_structured_data(self):
        rng = np.random.default_rng(8)
        protos = (rng.random((6, 24)) < 0.2) * rng.uniform(0.5, 1.0, (6, 24))
        x = protos[rng.integers(0, 6, 300)]
        cfg = TrainConfig(batch_size=30, max_iterations=400, seed=1)
        initial = dataset_error(init_weights([24, 8], cfg.seed), x)
        model, report = train(x, [24, 8], cfg)
        assert report.final_full_error < initial
        assert validate_constraints(model) == []


class TestTrainOnDataset:
    """A Dataset trains to the bytes its float64 matrix trains to."""

    def assert_same_run(self, a, b):
        (ma, ra), (mb, rb) = a, b
        weights = zip(ma.encode_weights + ma.decode_weights, mb.encode_weights + mb.decode_weights)
        for wa, wb in weights:
            assert wa.tobytes() == wb.tobytes()
        assert ra.error_curve == rb.error_curve
        assert ra.final_full_error == rb.final_full_error

    def test_joint_shuffled(self):
        d = Dataset(np.random.default_rng(12).integers(0, 256, (130, 10)).astype(np.uint8))
        cfg = TrainConfig(batch_size=20, max_iterations=15, seed=3, shuffle=True)
        self.assert_same_run(train(d, [10, 6, 3], cfg), train(d.x, [10, 6, 3], cfg))

    def test_greedy_over_several_chunks(self):
        rows = rows_per_chunk(10, 6) + 4  # the stage-2 code is built in two chunks
        d = Dataset(np.random.default_rng(13).integers(0, 256, (rows, 10)).astype(np.uint8))
        cfg = TrainConfig(batch_size=50, max_iterations=6, seed=5)
        self.assert_same_run(
            train(d, [10, 6, 3], cfg, "greedy"), train(d.x, [10, 6, 3], cfg, "greedy")
        )


class TestTrainGreedy:
    def test_matches_manual_chaining(self):
        x = np.random.default_rng(5).random((10, 4))
        cfg = TrainConfig(batch_size=3, max_iterations=7, seed=9)
        greedy_model, _ = train(x, [4, 2, 1], cfg, "greedy")
        stage1, _ = train(x, [4, 2], cfg)
        x2 = clamp_unit(x @ stage1.encode_weights[0])
        stage2, _ = train(x2, [2, 1], replace(cfg, seed=10))
        np.testing.assert_array_equal(greedy_model.encode_weights[0], stage1.encode_weights[0])
        np.testing.assert_array_equal(greedy_model.encode_weights[1], stage2.encode_weights[0])
        np.testing.assert_array_equal(greedy_model.decode_weights[0], stage2.decode_weights[0])
        np.testing.assert_array_equal(greedy_model.decode_weights[1], stage1.decode_weights[0])

    def test_stacked_input_is_clamped_previous_code(self):
        x = np.random.default_rng(6).random((8, 3)) * 2.0
        cfg = TrainConfig(batch_size=4, max_iterations=4, seed=2)
        model, _ = train(x, [3, 2, 2], cfg, "greedy")
        assert model.depth == 2
        assert model.encode_dims == [3, 2, 2]
        # stage 2 is fit on the first encode layer of stage 1, which clamps x first
        stage1, _ = train(x, [3, 2], cfg)
        stage2, _ = train(forward(stage1, x).q_enc[0], [2, 2], replace(cfg, seed=3))
        np.testing.assert_array_equal(model.encode_weights[1], stage2.encode_weights[0])
        np.testing.assert_array_equal(model.decode_weights[0], stage2.decode_weights[0])

    def test_curve_concatenates_stages(self):
        x = np.random.default_rng(7).random((12, 4))
        cfg = TrainConfig(batch_size=4, max_iterations=5, seed=0)
        _, report = train(x, [4, 3, 2], cfg, "greedy")
        assert [i for i, _ in report.error_curve] == list(range(1, 11))

    def test_constraints_hold(self):
        x = np.random.default_rng(8).random((15, 5))
        model, _ = train(x, [5, 3, 2], small_config(max_iterations=10), "greedy")
        assert validate_constraints(model) == []


class TestTrainJoint:
    def test_two_layer_hand_trace_all_dims_one(self):
        # Every pair repeats the shallow trace on input 0.5: all four
        # weights end at exactly 1 regardless of the random init.
        model, report = train(
            [[0.5]], [1, 1, 1], TrainConfig(batch_size=1, max_iterations=1, seed=7)
        )
        for w in model.encode_weights + model.decode_weights:
            assert w[0, 0] == 1.0
        assert report.error_curve == [(1, 0.0)]

    def test_error_curve_decreases_overall(self):
        rng = np.random.default_rng(10)
        protos = (rng.random((5, 16)) < 0.25) * rng.uniform(0.5, 1.0, (5, 16))
        x = protos[rng.integers(0, 5, 400)]
        cfg = TrainConfig(batch_size=40, max_iterations=300, seed=4)
        initial = dataset_error(init_weights([16, 8, 4], cfg.seed), x)
        _, report = train(x, [16, 8, 4], cfg)
        assert report.final_full_error < initial

    def test_constraints_every_iteration(self):
        x = np.random.default_rng(11).random((18, 4))
        seen = []
        train(
            x, [4, 3, 2], small_config(max_iterations=20),
            observer=lambda i, e, m: seen.append(len(validate_constraints(m))),
        )
        assert seen and not any(seen)

    def test_blank_row_does_not_kill_the_model(self):
        # Updating on an all-zero batch would set every weight to 0 for good;
        # the batch is skipped but still counts, with its error of 0.
        x = np.array([[0.0, 0.0, 0.0], [0.6, 0.2, 0.4], [0.1, 0.7, 0.3]])
        for algo in ("joint", "greedy"):
            model, report = train(x, [3, 2, 1], TrainConfig(batch_size=1, max_iterations=6), algo)
            assert report.error_curve[0] == (1, 0.0)
            for w in model.encode_weights + model.decode_weights:
                assert w.any(), algo


def snapshot(model):
    return [w.copy() for w in model.encode_weights + model.decode_weights]


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestLiveUnitsHeldAcrossBatches:
    """Training holds each pair's weights over its live visible units and
    writes them back whenever a model leaves the loop."""

    X = Dataset(mnist_like(seed=31, rows=60))  # 8 x 8 images, blank borders

    def observed(self, dims, cfg, algo):
        seen = {}
        model, report = train(self.X, dims, cfg, algo, lambda i, e, m: seen.update({i: snapshot(m)}))
        return seen, model, report

    def test_data_has_dead_visible_units(self):
        _, report = train(self.X, [64, 6], TrainConfig(batch_size=10, max_iterations=3))
        assert 0 < report.dead_units < 64

    def test_joint_observer_sees_the_model_train_returns(self):
        cfg = TrainConfig(batch_size=10, max_iterations=14, seed=2)
        seen, model, report = self.observed([64, 6, 3], cfg, "joint")
        assert sorted(seen) == list(range(1, 15))
        assert_same_arrays(seen[14], snapshot(model))
        for i in (1, 2, 7, 13):
            at_i, _ = train(self.X, [64, 6, 3], replace(cfg, max_iterations=i))
            assert_same_arrays(seen[i], snapshot(at_i))
        # each batch error is the reconstruction by the weights just updated
        for i, err in report.error_curve:
            start = (i - 1) % 6 * 10  # 60 rows: six batches an epoch
            batch = self.X.rows(slice(start, start + 10))
            m = LrnnModel(seen[i][:2], seen[i][2:])
            assert err == pytest.approx(reconstruction_error(batch, forward(m, batch).output), rel=1e-9)

    def test_greedy_observer_sees_the_stages_train_returns(self):
        cfg = TrainConfig(batch_size=10, max_iterations=8, seed=3)
        seen, model, _ = self.observed([64, 6, 3], cfg, "greedy")
        assert_same_arrays(seen[16], snapshot(model))
        stage1, _ = train(self.X, [64, 6], cfg, "greedy")
        code = clamp_unit(self.X.x @ stage1.encode_weights[0])
        for i in (1, 5, 8):
            at_i, _ = train(self.X, [64, 6], replace(cfg, max_iterations=i), "greedy")
            assert_same_arrays(seen[i], snapshot(at_i))
        for j in (1, 4):
            stage2, _ = train(code, [6, 3], replace(cfg, max_iterations=j, seed=4))
            want = LrnnModel(
                [stage1.encode_weights[0], stage2.encode_weights[0]],
                [stage2.decode_weights[0], stage1.decode_weights[0]],
            )
            assert_same_arrays(seen[8 + j], snapshot(want))

    def test_early_stop_returns_the_written_back_weights(self):
        cfg = TrainConfig(batch_size=10, max_iterations=5000, seed=1, rel_tol=0.5)
        seen, model, report = self.observed([64, 6], cfg, "joint")
        stopped = len(report.error_curve)
        assert stopped < 5000 and report.dead_units > 0
        assert_same_arrays(seen[stopped], snapshot(model))
        budget, _ = train(self.X, [64, 6], replace(cfg, max_iterations=stopped, rel_tol=0.0))
        assert_same_arrays(snapshot(model), snapshot(budget))


class TestEveryVisibleUnitDies:
    """Rows whose supports are disjoint across the two minibatches: each
    pixel is 0 throughout one of them, so every visible unit dies."""

    @pytest.mark.parametrize("dims", [[64, 6], [64, 6, 3]])
    def test_training_finishes_with_every_unit_dead(self, dims):
        x = Dataset(disjoint_halves(seed=7, batch=5))
        live_sets = []

        def observer(i, err, model):
            live = model.encode_weights[0].any(axis=1) | model.decode_weights[-1].any(axis=0)
            live_sets.append(live)

        model, report = train(x, dims, TrainConfig(batch_size=5, max_iterations=8), "joint", observer)
        assert not model.encode_weights[0].any() and not model.decode_weights[-1].any()
        assert report.dead_units == 64
        assert np.isfinite([err for _, err in report.error_curve]).all()
        assert np.isfinite(report.final_full_error)
        assert live_sets[0].any() and not live_sets[1].any()
        for before, after in zip(live_sets, live_sets[1:]):
            assert not (after & ~before).any()  # a shrunk live set never grows again
