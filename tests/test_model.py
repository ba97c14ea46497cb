"""Forward-pass mathematics, reconstruction error and constraint checking."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrnn import (
    Dataset,
    LrnnModel,
    clamp_unit,
    dataset_error,
    forward,
    init_weights,
    reconstruction_error,
    validate_constraints,
)
import lrnn.model
from lrnn.model import CHUNK_VALUES, rows_per_chunk
from oracles import dataset_error_live_reference, dataset_error_reference

nonneg_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(0.0, 10.0, allow_nan=False),
)


class TestClampUnit:
    def test_below_threshold_identity(self):
        np.testing.assert_array_equal(clamp_unit(np.array([[0.5]])), [[0.5]])

    def test_clamps_above_one(self):
        np.testing.assert_array_equal(clamp_unit(np.array([[2.0]])), [[1.0]])

    def test_boundary_cases(self):
        np.testing.assert_array_equal(
            clamp_unit(np.array([[0.0, 1.0, 1.5]])), [[0.0, 1.0, 1.0]]
        )

    @given(nonneg_matrices)
    def test_idempotent(self, m):
        once = clamp_unit(m)
        np.testing.assert_array_equal(clamp_unit(once), once)


class TestModelStructure:
    def test_depth_and_dims(self):
        model = init_weights([4, 3, 2], seed=0)
        assert model.depth == 2
        assert model.encode_dims == [4, 3, 2]
        assert [w.shape for w in model.decode_weights] == [(2, 3), (3, 4)]
        assert model.visible_dim == 4

    def test_broken_encode_chain_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            LrnnModel(
                [np.zeros((4, 3)), np.zeros((2, 2))],
                [np.zeros((2, 3)), np.zeros((3, 4))],
            )

    def test_decode_must_mirror_encode(self):
        with pytest.raises(ValueError, match="mirror"):
            LrnnModel([np.zeros((4, 2))], [np.zeros((2, 3))])

    def test_broken_decode_chain_refused_as_no_mirror(self):
        message = "decode shapes [(2, 2), (3, 4)] must mirror the encode shapes: [(2, 3), (3, 4)]"
        with pytest.raises(ValueError, match=re.escape(message)):
            LrnnModel(
                [np.zeros((4, 3)), np.zeros((3, 2))],
                [np.zeros((2, 2)), np.zeros((3, 4))],
            )

    def test_no_layers_rejected(self):
        with pytest.raises(ValueError, match="at least one encode and one decode layer"):
            LrnnModel([], [])

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            LrnnModel([np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))])

    def test_layer_without_units_rejected(self):
        for w in (np.zeros((2, 0)), np.zeros((0, 2))):
            with pytest.raises(ValueError, match=re.escape(f"got {list(w.shape)}")):
                LrnnModel([w], [w.T])


class TestForward:
    def test_scalar_network_by_hand(self):
        # 0.5 * 0.8 = 0.4, then 0.4 * 0.9 = 0.36
        model = LrnnModel([np.array([[0.8]])], [np.array([[0.9]])])
        state = forward(model, [[0.5]])
        assert state.q_hat[0, 0] == 0.5
        assert state.q_enc[0][0, 0] == pytest.approx(0.4, abs=1e-15)
        assert state.q_dec[0][0, 0] == pytest.approx(0.36, abs=1e-15)

    def test_zero_weights_annihilate(self):
        model = LrnnModel([np.zeros((3, 2))], [np.zeros((2, 3))])
        state = forward(model, np.random.default_rng(0).random((4, 3)))
        assert not state.q_enc[0].any()
        assert not state.q_dec[0].any()

    def test_clamp_mid_network(self):
        # pre-activation 1.2 saturates to 1, decode halves it
        model = LrnnModel([np.array([[0.6], [0.6]])], [np.array([[0.5, 0.5]])])
        state = forward(model, [[1.0, 1.0]])
        assert state.q_enc[0][0, 0] == 1.0
        np.testing.assert_allclose(state.q_dec[0], [[0.5, 0.5]])

    def test_dimension_mismatch(self):
        model = init_weights([4, 2], seed=0)
        with pytest.raises(ValueError, match="attributes"):
            forward(model, np.zeros((3, 5)))

    def test_negative_input_rejected(self):
        model = init_weights([2, 1], seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            forward(model, [[-0.1, 0.2]])

    def test_non_finite_input_rejected(self):
        model = init_weights([2, 1], seed=0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="NaN or infinite"):
                forward(model, [[bad, 0.2]])
            with pytest.raises(ValueError, match="NaN or infinite"):
                dataset_error(model, [[0.1, 0.2], [0.3, bad]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_outputs_are_probabilities(self, seed):
        rng = np.random.default_rng(seed)
        model = init_weights([5, 3, 2], seed=seed)
        state = forward(model, rng.random((4, 5)) * 2.0)
        for layer in [state.q_hat] + state.q_enc + state.q_dec:
            assert layer.min() >= 0.0
            assert layer.max() <= 1.0


class TestReconstructionError:
    def test_perfect_reconstruction(self):
        x = np.random.default_rng(0).random((3, 4))
        assert reconstruction_error(x, x) == 0.0

    def test_opposite_corners(self):
        assert reconstruction_error([[1.0, 0.0]], [[0.0, 1.0]]) == 1.0

    def test_hand_value(self):
        # (0.5 - 0.36)^2 = 0.0196
        assert reconstruction_error([[0.5]], [[0.36]]) == pytest.approx(0.0196, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            reconstruction_error(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_empty_batch_refused(self):
        # the mean of no values is NaN, with a RuntimeWarning
        with pytest.raises(ValueError, match=r"^empty batch of shape \(0, 3\)$"):
            reconstruction_error(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_dataset_error_of_no_rows_refused(self):
        with pytest.raises(ValueError, match="^empty dataset$"):
            dataset_error(init_weights([3, 2], seed=0), np.zeros((0, 3)))

    @given(nonneg_matrices)
    def test_nonnegative_and_zero_iff_equal(self, m):
        assert reconstruction_error(m, m) == 0.0
        shifted = m + 0.5
        assert reconstruction_error(m, shifted) > 0.0

    def test_in_place_square_equals_product_of_difference(self):
        rng = np.random.default_rng(6)
        for shape in ((1, 1), (7, 13), (100, 784)):
            x = rng.random(shape) * (rng.random(shape) < 0.5)
            q = rng.random(shape)
            d = x - q
            assert reconstruction_error(x, q) == float(np.mean(d * d))

    def test_dataset_error_matches_forward(self, monkeypatch):
        rng = np.random.default_rng(1)
        model = init_weights([6, 3], seed=1)
        x = rng.random((50, 6))
        whole = reconstruction_error(x, forward(model, x).output)
        monkeypatch.setattr(lrnn.model, "CHUNK_VALUES", 7 * 6)  # blocks of 7 rows
        assert dataset_error(model, x) == pytest.approx(whole, rel=1e-12)

    def test_dataset_error_bit_identical_to_forward_chunks(self, monkeypatch):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, (4097, 12)).astype(np.uint8)  # a one-row last chunk
        floats = pixels / 255.0
        wide = rng.random((30, 12)) * 1.5  # entries above 1, clamped by the visual layer
        for dims in ([12, 5], [12, 6, 3]):
            model = init_weights(dims, seed=3)
            for x in (Dataset(pixels), Dataset(floats), floats, wide):
                rows = x.x if isinstance(x, Dataset) else x
                want = dataset_error_reference(model, rows, rows_per_chunk(*dims))
                assert dataset_error(model, x) == want
                for chunk_rows in (4096, 512, 7, 1):
                    with monkeypatch.context() as m:
                        m.setattr(lrnn.model, "CHUNK_VALUES", chunk_rows * 12)
                        got = dataset_error(model, x)
                    assert got == dataset_error_reference(model, rows, chunk_rows)

    def test_forward_layers_are_the_plain_clamped_chain(self):
        """Clamping each product where it lies gives the bits of ``min(q @ W, 1)``."""
        rng = np.random.default_rng(5)
        x = rng.random((40, 12)) * 1.5  # entries above 1, clamped by the visual layer
        for dims in ([12, 5], [12, 6, 3]):
            model = init_weights(dims, seed=4)
            state = forward(model, x)
            q = np.minimum(x, 1.0)
            assert state.q_hat.tobytes() == q.tobytes()
            for w, got in zip(model.encode_weights + model.decode_weights,
                              state.q_enc + state.q_dec):
                q = np.minimum(q @ w, 1.0)
                assert got.tobytes() == q.tobytes()

    def test_dataset_error_refuses_wrong_width(self):
        with pytest.raises(ValueError, match="attributes"):
            dataset_error(init_weights([3, 2], seed=0), Dataset(np.zeros((4, 2), np.uint8)))

    def test_dataset_error_working_set_is_a_few_chunks(self):
        """40,000 x 64 rows are 20 MB as float64; a chunk of CHUNK_VALUES is 2 MB."""
        pixels = np.random.default_rng(4).integers(0, 256, (40_000, 64)).astype(np.uint8)
        model = init_weights([64, 32, 16], seed=0)
        chunk_bytes = CHUNK_VALUES * 8
        for x in (Dataset(pixels), pixels / 255.0):
            tracemalloc.start()
            try:
                dataset_error(model, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * chunk_bytes, type(x)


def with_dead_units(model: LrnnModel, dead) -> LrnnModel:
    """``model`` with the first encode layer's rows and the last decode layer's
    columns ``dead`` zeroed: visible units no update can revive."""
    w, wb = model.encode_weights[0].copy(), model.decode_weights[-1].copy()
    w[dead], wb[:, dead] = 0.0, 0.0
    return LrnnModel([w, *model.encode_weights[1:]], [*model.decode_weights[:-1], wb])


#: Dead visible units of a 12-wide model: several, and all but unit 5.
DEAD_SETS = ([0, 3, 4, 7, 11], [v for v in range(12) if v != 5])


class TestDatasetErrorOverLiveUnits:
    """A model with dead visible units is evaluated on its live columns only."""

    @pytest.mark.parametrize("dims", [[12, 5], [12, 6, 3]])
    @pytest.mark.parametrize("dead", DEAD_SETS, ids=["several dead", "one live"])
    def test_bit_identical_to_the_live_oracle(self, monkeypatch, dims, dead):
        rng = np.random.default_rng(7)
        pixels = rng.integers(0, 256, (301, 12)).astype(np.uint8)  # a one-row last chunk
        pixels[:, dead[:2]] = 0  # dead units often see zeros, but not always
        floats = pixels / 255.0
        wide = rng.random((30, 12)) * 1.5  # entries above 1, clamped by the visual layer
        model = with_dead_units(init_weights(dims, seed=8), dead)
        for x in (Dataset(pixels), Dataset(floats), floats, wide):
            rows = x.x if isinstance(x, Dataset) else x
            want = dataset_error_live_reference(model, rows, rows_per_chunk(*dims))
            assert dataset_error(model, x) == want
            assert dataset_error(model, x) == pytest.approx(
                dataset_error_reference(model, rows), rel=1e-12, abs=0.0)
            for chunk_rows in (300, 7, 1):
                with monkeypatch.context() as m:
                    m.setattr(lrnn.model, "CHUNK_VALUES", chunk_rows * 12)
                    got = dataset_error(model, x)
                assert got == dataset_error_live_reference(model, rows, chunk_rows)

    def test_pixels_and_their_float_copy_give_the_same_bits(self):
        pixels = np.random.default_rng(9).integers(0, 256, (2000, 784)).astype(np.uint8)
        model = with_dead_units(init_weights([784, 20], seed=1), np.arange(0, 784, 3))
        assert dataset_error(model, Dataset(pixels)) == dataset_error(model, pixels / 255.0)

    def test_a_unit_with_a_decode_column_only_is_live(self):
        """A zero first-W row alone does not make a unit dead: its reconstruction
        is not 0, and the live path must take its column."""
        x = np.random.default_rng(10).random((40, 12))
        model = with_dead_units(init_weights([12, 6, 3], seed=2), [0, 1])
        model.encode_weights[0][2] = 0.0
        assert dataset_error(model, x) == dataset_error_live_reference(model, x, 40)
        assert dataset_error(model, x) == pytest.approx(
            dataset_error_reference(model, x), rel=1e-12, abs=0.0)

    def test_no_live_unit_takes_the_full_width(self):
        """With every unit dead the reconstruction is 0 and the error the mean of x^2."""
        x = np.random.default_rng(11).random((50, 12))
        model = with_dead_units(init_weights([12, 5], seed=3), list(range(12)))
        assert dataset_error(model, x) == dataset_error_reference(model, x, rows_per_chunk(12, 5))

    def test_working_set_is_a_few_chunks(self):
        """The bound of ``test_dataset_error_working_set_is_a_few_chunks``, with dead units."""
        pixels = np.random.default_rng(4).integers(0, 256, (40_000, 64)).astype(np.uint8)
        model = with_dead_units(init_weights([64, 32, 16], seed=0), np.arange(0, 64, 2))
        for x in (Dataset(pixels), pixels / 255.0):
            tracemalloc.start()
            try:
                dataset_error(model, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * CHUNK_VALUES * 8, type(x)


class TestValidateConstraints:
    def test_valid_row(self):
        model = LrnnModel([np.array([[0.4, 0.5]])], [np.array([[0.3], [0.3]])])
        assert validate_constraints(model) == []

    def test_row_sum_violation(self):
        model = LrnnModel([np.array([[0.6, 0.8]])], [np.array([[0.3], [0.3]])])
        report = validate_constraints(model)
        assert len(report) == 1
        v = report[0]
        assert (v.layer, v.row, v.kind) == ("W1", 0, "row_sum")
        assert v.value == pytest.approx(1.4)

    def test_negativity_violation(self):
        model = LrnnModel([np.array([[-0.1, 0.5]])], [np.array([[0.3], [0.3]])])
        report = validate_constraints(model)
        assert [(v.layer, v.kind) for v in report] == [("W1", "negative")]

    def test_non_finite_violation(self):
        w = np.array([[0.2, 0.3], [np.nan, 0.1], [0.1, np.inf]])
        model = LrnnModel([w], [np.array([[0.3, 0.2, 0.1], [0.3, 0.2, 0.1]])])
        report = [(v.layer, v.row, v.kind) for v in validate_constraints(model)]
        assert ("W1", 1, "non_finite") in report
        assert ("W1", 2, "non_finite") in report
        assert all(row != 0 for _, row, _ in report)

    def test_slack_absorbs_rounding(self):
        model = LrnnModel(
            [np.array([[0.5, 0.5 + 5e-13]])], [np.array([[0.3], [0.3]])]
        )
        assert validate_constraints(model) == []

    def test_decode_layers_reported(self):
        model = LrnnModel([np.array([[0.5, 0.4]])], [np.array([[0.9], [1.2]])])
        report = validate_constraints(model)
        assert [(v.layer, v.row) for v in report] == [("WB1", 1)]
