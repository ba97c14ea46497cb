"""Model files: exact LRNN2 round trips, the header rules and validation on load."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrnn import LrnnModel, forward, init_weights, load_model, model_io, save_model
from lrnn.cli import EXIT_DATA, main


def refusal(path) -> str:
    """The message ``load_model`` refuses ``path`` with, after its ``"{path}: "`` prefix."""
    with pytest.raises(ValueError) as excinfo:
        load_model(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: "), message[:300]
    return message[len(f"{path}: "):]


def lrnn2(w, wb) -> bytes:
    """The bytes of a depth-1 LRNN2 file that holds the weights ``w`` and ``wb``."""
    w, wb = np.atleast_2d(w), np.atleast_2d(wb)
    return (f"LRNN2\ndepth 1\ndims {w.shape[0]} {w.shape[1]}\n".encode()
            + np.concatenate([w.ravel(), wb.ravel()]).astype("<f8").tobytes())


def assert_bits_equal(model: LrnnModel, other: LrnnModel) -> None:
    assert model.encode_dims == other.encode_dims
    for a, b in zip(model.encode_weights + model.decode_weights,
                    other.encode_weights + other.decode_weights):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


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

    def test_save_writes_row_by_row(self, tmp_path):
        """Saving a 784 -> 100 model (1.25 MB of weights) allocates well under 1 MB."""
        model = init_weights([784, 100], seed=0)
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "m.lrnn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_loaded_weights_are_writable(self, tmp_path):
        """Callers update a loaded model in place."""
        path = tmp_path / "m.lrnn"
        save_model(init_weights([4, 3, 2], seed=3), path)
        loaded = load_model(path)
        for w in loaded.encode_weights + loaded.decode_weights:
            assert w.flags.writeable and w.flags.c_contiguous and w.dtype == np.float64
            w *= 0.5

    def test_lrnn1_file_refused(self, tmp_path, capsys):
        """The text layout of earlier versions is refused by its tag, in the
        library and by ``lrnn eval`` as a data error."""
        path = tmp_path / "m.lrnn"
        path.write_text("LRNN1\ndepth 1\ndims 1 1\nW 1 1 1\n0.5\nWB 1 1 1\n0.5\n")
        message = "version tag mismatch, got 'LRNN1', expected 'LRNN2'"
        assert refusal(path) == message
        data = tmp_path / "t.csv"
        data.write_text("0.5\n0.25\n")
        assert main(["eval", "--model", str(path), "--data", str(data)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {path}: {message}\n"


#: A model written by hand as LRNN2: the header lines, then W 1 and WB 1 as
#: little-endian float64, row after row.
GOLDEN_BYTES = b"LRNN2\ndepth 1\ndims 2 2\n" + bytes.fromhex(
    "555555555555d53f" "000000000000e03f"  # W 1 row 0: 1/3, 0.5
    "010000000000e03f" "000000000000703d"  # W 1 row 1: nextafter(0.5, 1), 2**-40
    "0000000000000000" "000000000000f03f"  # WB 1 row 0: 0, 1
    "9a9999999999b93f" "9a9999999999c93f"  # WB 1 row 1: 0.1, 0.2
)


def golden_model():
    w = np.array([[1.0 / 3.0, 0.5], [np.nextafter(0.5, 1.0), 2**-40]])
    wb = np.array([[0.0, 1.0], [0.1, 0.2]])
    return LrnnModel([w], [wb])


class TestGoldenFile:
    def test_save_writes_the_golden_bytes(self, tmp_path):
        path = tmp_path / "m.lrnn"
        save_model(golden_model(), path)
        assert path.read_bytes() == GOLDEN_BYTES

    def test_golden_bytes_load_bit_exact(self, tmp_path):
        path = tmp_path / "m.lrnn"
        path.write_bytes(GOLDEN_BYTES)
        assert_bits_equal(load_model(path), golden_model())


_DIGITS = "9" * 4000
_GOLDEN_PAYLOAD = GOLDEN_BYTES[len(b"LRNN2\ndepth 1\ndims 2 2\n"):]
#: (name, depth and dims lines put before GOLDEN_BYTES's weights, message)
#: of header refusals; a parser rewrite keeps each message.
LOAD_ERRORS = [
    ("malformed depth line", "depth 1 1\ndims 2 2\n", "malformed depth line 'depth 1 1'"),
    ("depth line without a value", "depth\ndims 2 2\n", "malformed depth line 'depth'"),
    ("depth 0", "depth 0\ndims 2\n", "depth must be >= 1, got '0'"),
    ("non-integer depth", "depth x\ndims 2 2\n", "depth must be an integer, got 'x'"),
    ("negative depth of 4,000 digits", f"depth -{_DIGITS}\ndims 2 2\n",
     f"depth must be >= 1, got '-{_DIGITS[:39]}'... (4001 characters)"),
    ("non-integer size", "depth 1\ndims 2 x\n", "dims size must be an integer, got 'x'"),
    ("negative size", "depth 1\ndims 2 -1\n", "dims size must be >= 1, got '-1'"),
    ("zero size", "depth 1\ndims 2 0\n", "dims size must be >= 1, got '0'"),
    ("dims line too short", "depth 1\ndims 2\n",
     "dims line must list depth + 1 sizes, depth '1'"),
    ("dims line too long", "depth 1\ndims 2 2 2\n",
     "dims line must list depth + 1 sizes, depth '1'"),
    ("dims line with the wrong keyword", "depth 1\nsizes 2 2\n",
     "dims line must list depth + 1 sizes, depth '1'"),
]


@pytest.mark.parametrize("lines, message", [c[1:] for c in LOAD_ERRORS],
                         ids=[c[0] for c in LOAD_ERRORS])
def test_load_error_message(tmp_path, lines, message):
    f = tmp_path / "m.lrnn"
    f.write_bytes(b"LRNN2\n" + lines.encode() + _GOLDEN_PAYLOAD)
    assert refusal(f) == message


#: (name, change to GOLDEN_BYTES, message) of LRNN2 load errors.
BINARY_LOAD_ERRORS = [
    ("short payload", lambda b: b[:-8],
     "payload ends early: the dims declare a file of '87' bytes, the file has 79"),
    ("header only", lambda b: b[:23],
     "payload ends early: the dims declare a file of '87' bytes, the file has 23"),
    ("extra bytes", lambda b: b + b"\0",
     "trailing bytes after the final block: the dims declare a file of '87' bytes, "
     "the file has 88"),
    ("newline after the payload", lambda b: b + b"\n",
     "trailing bytes after the final block: the dims declare a file of '87' bytes, "
     "the file has 88"),
    ("dims that disagree with the length", lambda b: b.replace(b"dims 2 2", b"dims 2 3"),
     "payload ends early: the dims declare a file of '119' bytes, the file has 87"),
    ("dims of a smaller model", lambda b: b.replace(b"dims 2 2", b"dims 2 1"),
     "trailing bytes after the final block: the dims declare a file of '55' bytes, "
     "the file has 87"),
    ("wrong tag", lambda b: b.replace(b"LRNN2", b"LRNN3"),
     "version tag mismatch, got 'LRNN3', expected 'LRNN2'"),
    ("malformed depth line", lambda b: b.replace(b"depth 1", b"deep 1"),
     "malformed depth line 'deep 1'"),
    ("no dims line", lambda b: b[:14], "dims line must list depth + 1 sizes, depth '1'"),
    ("NaN payload", lambda b: b[:-8] + np.array([np.nan]).astype("<f8").tobytes(),
     "stored model violates RNN constraints (1 row(s); first: WB1 row 1 non_finite nan)"),
    ("negative payload", lambda b: b[:-8] + np.array([-0.5]).astype("<f8").tobytes(),
     "stored model violates RNN constraints (1 row(s); first: WB1 row 1 negative -0.5)"),
]


@pytest.mark.parametrize("change, message", [c[1:] for c in BINARY_LOAD_ERRORS],
                         ids=[c[0] for c in BINARY_LOAD_ERRORS])
def test_binary_load_error_message(tmp_path, change, message):
    f = tmp_path / "m.lrnn"
    f.write_bytes(change(GOLDEN_BYTES))
    assert refusal(f) == message


def test_file_that_shrinks_while_read_refused(tmp_path, monkeypatch):
    """The length checked before the read is not trusted to hold during it."""
    f = tmp_path / "m.lrnn"
    f.write_bytes(GOLDEN_BYTES[:-8])  # the last weight dropped
    stat = SimpleNamespace(st_size=len(GOLDEN_BYTES))
    monkeypatch.setattr(model_io, "os", SimpleNamespace(fstat=lambda fd: stat))
    assert refusal(f) == "file shrank while it was read"


class TestDeclaredSizes:
    def test_binary_header_of_a_billion_rows_refused_without_allocating_it(self, tmp_path):
        """An LRNN2 header's sizes are checked against the file's length first."""
        f = tmp_path / "m.lrnn"
        f.write_bytes(b"LRNN2\ndepth 1\ndims 1000000000 1\n" + bytes(16))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="a file of '16000000032' bytes, the file has 48"):
                load_model(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


#: (name, file bytes) of models with one header line of 8 MiB and no newline.
_LONG_LINE = b"9" * (8 << 20)
LONG_HEADER_LINES = [
    ("LRNN2 depth line", b"LRNN2\ndepth " + _LONG_LINE),
    ("LRNN2 dims line", b"LRNN2\ndepth 1\ndims 2 " + _LONG_LINE),
    ("LRNN2 newline past the limit", b"LRNN2\ndepth 1\ndims 2 2" + b" " * 4088 + b"\n"),
    ("tag line", b"LRNN2" + _LONG_LINE),
]


@pytest.mark.parametrize("body", [c[1] for c in LONG_HEADER_LINES],
                         ids=[c[0] for c in LONG_HEADER_LINES])
def test_long_line_refused_with_a_short_message(tmp_path, body):
    f = tmp_path / "m.lrnn"
    f.write_bytes(body)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as excinfo:
            load_model(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(str(excinfo.value)) < 300, str(excinfo.value)[:300]
    assert peak < 1 << 20
    assert "header line longer than 4096 bytes" in str(excinfo.value)


#: (name, file text) of models whose header holds a number of 4,000 or more digits.
LONG_HEADER_NUMBERS = [
    ("LRNN2 depth", f"LRNN2\ndepth {_DIGITS}\ndims 1 1\n"),
    ("LRNN2 dims size", f"LRNN2\ndepth 1\ndims 1 {_DIGITS}\n"),
    ("LRNN2 dims of two 2,000-digit sizes", f"LRNN2\ndepth 1\ndims {_DIGITS[:2000]} {_DIGITS[:2000]}\n"),
    ("LRNN2 depth 2000", f"LRNN2\ndepth 2000\ndims{' 1' * 2001}\n"),
]


@pytest.mark.parametrize("text", [c[1] for c in LONG_HEADER_NUMBERS],
                         ids=[c[0] for c in LONG_HEADER_NUMBERS])
def test_long_header_number_refused_with_a_short_message(tmp_path, text):
    f = tmp_path / "m.lrnn"
    f.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        load_model(f)
    assert str(excinfo.value).startswith(f"{f}: ")
    assert len(str(excinfo.value)) < 300, str(excinfo.value)[:300]


def test_longest_header_line_loads(tmp_path):
    """A dims line of exactly 4096 bytes, its newline included, is read whole."""
    f = tmp_path / "m.lrnn"
    padded = GOLDEN_BYTES.replace(b"dims 2 2\n", b"dims 2 2" + b" " * 4087 + b"\n")
    f.write_bytes(padded)
    assert_bits_equal(load_model(f), golden_model())


_SPACES = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])


@settings(max_examples=40, deadline=None)
@given(
    arch=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_respaced_file_loads_bit_identical(tmp_path_factory, arch, seed, data):
    """LRNN2 keeps every weight bit, and tabs and runs of spaces in its
    header lines change no weight."""
    model = init_weights(arch, seed=seed)
    rng = np.random.default_rng(seed)
    model = LrnnModel(  # small exponents too
        [w * 2.0 ** -rng.integers(0, 60, w.shape) for w in model.encode_weights],
        [w * 2.0 ** -rng.integers(0, 60, w.shape) for w in model.decode_weights],
    )
    path = tmp_path_factory.mktemp("respaced") / "m.lrnn"
    save_model(model, path)
    assert_bits_equal(load_model(path), model)
    blob = path.read_bytes()
    header = b"".join(blob.splitlines(keepends=True)[:3]).decode()  # ASCII
    respaced = ""
    for line in header.splitlines():
        words = line.split()
        text = words[0] + "".join(data.draw(_SPACES) + v for v in words[1:])
        respaced += data.draw(_SPACES) + text + data.draw(_SPACES) + "\n"
    path.write_bytes(respaced.encode() + blob[len(header):])
    assert_bits_equal(load_model(path), model)


class TestLoadValidation:
    def test_version_tag_mismatch(self, tmp_path):
        f = tmp_path / "m.lrnn"
        f.write_text("LRNN9\ndepth 1\ndims 1 1\n")
        assert refusal(f).startswith("version tag mismatch")

    def test_declared_depth_requires_all_blocks(self, tmp_path):
        f = tmp_path / "m.lrnn"
        f.write_bytes(b"LRNN2\ndepth 2\ndims 1 1 1\n" + np.array([0.5]).astype("<f8").tobytes())
        assert refusal(f).startswith("payload ends early")

    def test_constraint_violation_on_load(self, tmp_path):
        f = tmp_path / "m.lrnn"
        for w in (1.5, np.nan, np.inf):
            f.write_bytes(lrnn2(w, 0.5))
            assert refusal(f).startswith("stored model violates RNN constraints"), w

    def test_trailing_content_rejected(self, tmp_path):
        f = tmp_path / "m.lrnn"
        f.write_bytes(lrnn2(0.5, 0.5) + b"extra\n")
        assert refusal(f).startswith("trailing bytes after the final block")

    def test_hand_written_model_forward(self, tmp_path):
        f = tmp_path / "m.lrnn"
        f.write_bytes(lrnn2(0.5, 0.5))
        model = load_model(f)
        state = forward(model, [[1.0]])
        assert state.q_dec[0][0, 0] == pytest.approx(0.25, abs=1e-15)
