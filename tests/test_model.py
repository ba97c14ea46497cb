"""Forward-pass mathematics, reconstruction error and constraint checking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrnn import (
    LrnnModel,
    clamp_unit,
    dataset_error,
    forward,
    init_weights,
    reconstruction_error,
    validate_constraints,
)

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
        assert model.decode_dims == [2, 3, 4]
        assert model.visible_dim == 4
        assert model.code_dim == 2

    def test_broken_encode_chain_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            LrnnModel(
                [np.zeros((4, 3)), np.zeros((2, 2))],
                [np.zeros((2, 3)), np.zeros((3, 4))],
            )

    def test_decode_must_mirror_encode(self):
        with pytest.raises(ValueError, match="mirror"):
            LrnnModel([np.zeros((4, 2))], [np.zeros((2, 3))])

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            LrnnModel([np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))])


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

    @given(nonneg_matrices)
    def test_nonnegative_and_zero_iff_equal(self, m):
        assert reconstruction_error(m, m) == 0.0
        shifted = m + 0.5
        assert reconstruction_error(m, shifted) > 0.0

    def test_dataset_error_matches_forward(self):
        rng = np.random.default_rng(1)
        model = init_weights([6, 3], seed=1)
        x = rng.random((50, 6))
        whole = reconstruction_error(x, forward(model, x).output)
        assert dataset_error(model, x, chunk_rows=7) == pytest.approx(whole, rel=1e-12)


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
