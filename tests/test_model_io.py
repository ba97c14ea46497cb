"""Text model files: exact round trips and validation on load."""

import numpy as np
import pytest

from lrnn import LrnnModel, forward, init_weights, load_model, save_model


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = init_weights([7, 4, 2], seed=13)
        path = tmp_path / "m.lrnn"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.encode_dims == model.encode_dims
        for a, b in zip(
            model.encode_weights + model.decode_weights,
            loaded.encode_weights + loaded.decode_weights,
        ):
            np.testing.assert_array_equal(a, b)

    def test_awkward_values_survive(self, tmp_path):
        w = np.array([[1.0 / 3.0, 0.1 + 0.2]]) / 2.0
        wb = np.array([[np.nextafter(0.5, 1.0)], [2**-40]])
        model = LrnnModel([w], [wb])
        path = tmp_path / "m.lrnn"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.encode_weights[0], w)
        np.testing.assert_array_equal(loaded.decode_weights[0], wb)

    def test_files_are_stable(self, tmp_path):
        model = init_weights([3, 2], seed=1)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestLoadValidation:
    def test_version_tag_mismatch(self, tmp_path):
        f = tmp_path / "m.lrnn"
        f.write_text("LRNN2\ndepth 1\ndims 1 1\n")
        with pytest.raises(ValueError, match="version tag"):
            load_model(f)

    def test_declared_depth_requires_all_blocks(self, tmp_path):
        f = tmp_path / "m.lrnn"
        f.write_text("LRNN1\ndepth 2\ndims 1 1 1\nW 1 1 1\n0.5\n")
        with pytest.raises(ValueError, match="unexpected end"):
            load_model(f)

    def test_shape_mismatch_between_dims_and_block(self, tmp_path):
        f = tmp_path / "m.lrnn"
        f.write_text("LRNN1\ndepth 1\ndims 2 1\nW 1 3 1\n0.1\n0.1\n0.1\nWB 1 1 2\n0.1 0.1\n")
        with pytest.raises(ValueError, match="dims require"):
            load_model(f)

    def test_constraint_violation_on_load(self, tmp_path):
        f = tmp_path / "m.lrnn"
        for w in ("1.5", "nan", "inf"):
            f.write_text(f"LRNN1\ndepth 1\ndims 1 1\nW 1 1 1\n{w}\nWB 1 1 1\n0.5\n")
            with pytest.raises(ValueError, match="constraints"):
                load_model(f)

    def test_trailing_content_rejected(self, tmp_path):
        f = tmp_path / "m.lrnn"
        f.write_text("LRNN1\ndepth 1\ndims 1 1\nW 1 1 1\n0.5\nWB 1 1 1\n0.5\nextra\n")
        with pytest.raises(ValueError, match="trailing"):
            load_model(f)

    def test_hand_written_model_forward(self, tmp_path):
        f = tmp_path / "m.lrnn"
        f.write_text("LRNN1\ndepth 1\ndims 1 1\nW 1 1 1\n0.5\nWB 1 1 1\n0.5\n")
        model = load_model(f)
        state = forward(model, [[1.0]])
        assert state.q_dec[0][0, 0] == pytest.approx(0.25, abs=1e-15)
