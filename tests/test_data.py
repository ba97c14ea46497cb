"""Container parsing, normalization and minibatch iteration."""

import json
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrnn._table
import lrnn.data
from lrnn import Dataset, iter_minibatches, load_dataset
from lrnn.data import (
    IDX_IMAGE_MAGIC,
    _load_csv,
    _load_manifest,
    _normalize_unit_interval,
    _parse_bulk,
    _scan_csv,
)


class TestLoadIdx:
    def test_zero_images(self, idx_file):
        path = idx_file(np.zeros((3, 28, 28), dtype=np.uint8))
        d = load_dataset(path, "idx")
        assert d.x.shape == (3, 784)
        assert not d.x.any()

    def test_pixel_scaling(self, idx_file):
        img = np.zeros((1, 2, 2), dtype=np.uint8)
        img[0] = [[0, 51], [102, 255]]
        d = load_dataset(idx_file(img), "idx")
        np.testing.assert_allclose(d.x, [[0.0, 0.2, 0.4, 1.0]])

    def test_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 12)
        with pytest.raises(ValueError) as excinfo:
            load_dataset(bad, "idx")
        assert str(excinfo.value).startswith(f"{bad}: bad IDX magic")

    def test_truncated(self, idx_file):
        path = idx_file(np.zeros((4, 5, 5), dtype=np.uint8))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_dataset(path, "idx")

    def test_shorter_than_its_header(self, tmp_path):
        short = tmp_path / "short.idx"
        short.write_bytes(struct.pack(">ii", IDX_IMAGE_MAGIC, 1) + b"\x00\x00")
        with pytest.raises(ValueError, match=r"truncated IDX header \(10 bytes\)"):
            load_dataset(short, "idx")

    def test_deterministic(self, idx_file):
        rng = np.random.default_rng(0)
        path = idx_file(rng.integers(0, 256, (5, 4, 4)).astype(np.uint8))
        np.testing.assert_array_equal(load_dataset(path, "idx").x, load_dataset(path, "idx").x)

    @pytest.mark.parametrize(
        "count, rows, cols, message",
        [
            (-1, 2, 2, "IDX image count must be >= 1, got -1"),
            (0, 2, 2, "IDX image count must be >= 1, got 0"),
            (1, -2, -2, "IDX rows must be >= 1, got -2"),
            (1, 2, 0, "IDX cols must be >= 1, got 0"),
        ],
    )
    def test_header_fields_below_one_refused(self, tmp_path, count, rows, cols, message):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">iiii", IDX_IMAGE_MAGIC, count, rows, cols) + bytes(16))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_dataset(path, "idx")


class TestDatasetRows:
    INDEXES = (slice(None), slice(2, 7), np.array([8, 0, 3, 3]), 4)

    def assert_scaled_on_read(self, d, pixels):
        assert d.values.dtype == np.uint8  # held as loaded
        scaled = pixels.astype(np.float64) / 255.0
        for index in self.INDEXES:
            rows = d.rows(index)
            assert rows.dtype == np.float64
            assert rows.tobytes() == scaled[index].tobytes()
        assert d.x.tobytes() == scaled.tobytes()

    def test_idx_rows_bit_identical_to_whole_scaling(self, idx_file):
        img = np.random.default_rng(3).integers(0, 256, (9, 4, 5)).astype(np.uint8)
        self.assert_scaled_on_read(load_dataset(idx_file(img), "idx"), img.reshape(9, 20))

    def test_cifar_rows_bit_identical_to_whole_scaling(self, cifar_file):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 256, (9, 3072))
        d = load_dataset(cifar_file(rng.integers(0, 10, 9), pixels), "cifar")
        self.assert_scaled_on_read(d, pixels.astype(np.uint8))

    def test_one_pass_scaling_equals_convert_then_divide(self):
        pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)  # every pixel value
        for index in self.INDEXES:
            old = pixels[index].astype(np.float64)
            old /= 255.0
            assert Dataset(pixels).rows(index).tobytes() == old.tobytes()

    def test_float_rows_are_views(self):
        d = Dataset(np.arange(12.0).reshape(6, 2))
        assert np.shares_memory(d.rows(slice(1, 4)), d.values)
        assert np.shares_memory(d.x, d.values)

    def test_construction_refuses_bad_values(self):
        for bad in ([[0.5, np.nan]], [[np.inf, 0.0]], [[-0.1, 0.2]], [0.5, 0.2]):
            with pytest.raises(ValueError):
                Dataset(np.array(bad))
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.zeros(3, dtype=np.uint8))


class TestLoadCifar10:
    def test_single_record_full_intensity(self, cifar_file):
        path = cifar_file([7], np.full((1, 3072), 255))
        d = load_dataset(path, "cifar")
        assert d.x.shape == (1, 3072)
        assert (d.x == 1.0).all()

    def test_labels_dropped_and_concatenated(self, cifar_file, tmp_path):
        rng = np.random.default_rng(1)
        p1 = cifar_file(rng.integers(0, 10, 4), rng.integers(0, 256, (4, 3072)), "b1.bin")
        p2 = cifar_file(rng.integers(0, 10, 3), rng.integers(0, 256, (3, 3072)), "b2.bin")
        d = load_dataset([p1, p2], "cifar")
        assert d.x.shape == (7, 3072)
        assert d.x.max() <= 1.0

    def test_bad_record_size(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00" * 5000)
        with pytest.raises(ValueError, match="multiple of 3073"):
            load_dataset(bad, "cifar")

    def test_no_batch_files(self, tmp_path):
        with pytest.raises(ValueError, match="no CIFAR-10 batch files given"):
            load_dataset([], "cifar")
        (tmp_path / "readme.txt").write_text("no batches here\n")
        with pytest.raises(ValueError, match=re.escape(f"no *.bin batch files under {tmp_path}")):
            load_dataset(tmp_path, "cifar")


class TestLoadCsv:
    def test_minimal_parse(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("0.1,0.2\n")
        x = _load_csv(f)
        np.testing.assert_allclose(x, [[0.1, 0.2]])

    def test_header_and_label_column(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b,class\n1,2,setosa\n3,4,versicolor\n")
        x = _load_csv(f, has_header=True, label_column=2)
        np.testing.assert_allclose(x, [[1, 2], [3, 4]])

    def test_negative_label_column(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("1,2,x\n3,4,y\n")
        x = _load_csv(f, label_column=-1)
        np.testing.assert_allclose(x, [[1, 2], [3, 4]])

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError) as excinfo:
            load_dataset(f)
        assert str(excinfo.value).startswith(f"{f}:2: ragged row")

    def test_non_numeric_cell(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_dataset(f)

    def test_long_non_numeric_cell_quoted_in_a_short_message(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text(f"1,2\n3,{'x' * 100_000}\n")
        message = f"{f}:2: non-numeric cell {'x' * 40!r}... (100000 characters) in column 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_dataset(f)

    def test_missing_values_imputed_with_column_mean(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("1,10\n?,20\n3,\n")
        x = _load_csv(f)
        np.testing.assert_allclose(x, [[1, 10], [2, 20], [3, 15]])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN", "Infinity", "1e999"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        f = tmp_path / "t.csv"
        f.write_text(f"1,2,3\n\n4,5,6\n7,{cell},9\n")
        with pytest.raises(ValueError, match=r"t\.csv:4: non-finite cell .* in column 1"):
            load_dataset(f)

    def test_missing_cells_imputed_after_label_drop(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b,label\n1,?,x\n3,4,y\n,8,z\n")
        x = _load_csv(f, has_header=True, label_column=-1)
        np.testing.assert_allclose(x, [[1, 6], [3, 4], [2, 8]])

    def test_all_missing_column_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("?,1\n?,2\n")
        with pytest.raises(ValueError, match="no values"):
            load_dataset(f)

    def test_no_data_column_left_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a\nb\nc\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(f))}: no data column"):
            load_dataset(f, label_column=0)
        manifest = tmp_path / "m.json"  # a newline delimiter leaves one cell per row
        entry = {"path": "t.csv", "format": "csv", "delimiter": "\n", "label_column": -1}
        manifest.write_text(json.dumps({"t": entry}))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(f))}: no data column"):
            load_dataset(manifest)

    def test_alternate_delimiter(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("1\t2\n3\t4\n")
        d = load_dataset(f, "csv", delimiter="\t")
        assert d.x.shape == (2, 2)
        f.write_text("1\n3\n")  # a newline delimiter is legal: one cell per row
        np.testing.assert_array_equal(load_dataset(f, "csv", delimiter="\n").x, [[0], [1]])

    @pytest.mark.parametrize(
        "setting, value, kind",
        [
            ("delimiter", ";;", "a one-character string"),
            ("delimiter", "", "a one-character string"),
            ("has_header", 1, "true or false"),
            ("label_column", True, "an integer or null"),
            ("label_column", 1.0, "an integer or null"),
        ],
    )
    def test_mistyped_argument_refused_as_a_manifest_setting(self, tmp_path, setting, value, kind):
        f = tmp_path / "t.csv"
        f.write_text("1,2,x\n3,4,y\n")
        key = "header" if setting == "has_header" else setting
        message = f"load_dataset setting {key!r} must be {kind}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(f, **{setting: value})

    def test_error_names_the_file_line_after_a_quoted_line_break(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text('h,"x\ny"\n1,2\n4,oops\n')
        with pytest.raises(ValueError, match=r"t\.csv:4: non-numeric cell 'oops' in column 1"):
            load_dataset(f, has_header=True)

    def test_field_over_csv_size_limit_refused(self, tmp_path):
        import csv

        limit = csv.field_size_limit()
        f = tmp_path / "t.csv"
        f.write_text(f'1,2\n3,"{"7" * (limit + 1)}"\n')
        with pytest.raises(ValueError, match=rf"^{re.escape(str(f))}:2: field larger than"):
            load_dataset(f)
        assert csv.field_size_limit() == limit  # the process-wide limit is left alone

    def test_table_not_in_the_reader_encoding_refused(self, tmp_path):
        # Latin-1 "café": byte 0xe9 starts no UTF-8 character.  The text is
        # decoded ahead of the reader in chunks, so no line is named.
        f = tmp_path / "t.csv"
        f.write_bytes("café,b,c\n1,2,3\n4,5,6\n".encode("latin-1"))
        with open(f, newline="") as text:
            encoding = text.encoding
        message = rf"^{re.escape(str(f))}: not text in the {encoding} encoding$"
        with pytest.raises(ValueError, match=message):
            load_dataset(f, has_header=True)


class TestLoadCsvTraps:
    """Tables a plain ``np.loadtxt`` call reads differently from the line scan."""

    def write(self, tmp_path, text):
        f = tmp_path / "t.csv"
        f.write_text(text)
        return f

    def test_too_long_row_with_label_column(self, tmp_path):
        f = self.write(tmp_path, "1,2,a\n3,4,b,5\n")
        with pytest.raises(ValueError, match=r"t\.csv:2: ragged row of width 3, expected 2"):
            _load_csv(f, label_column=2)

    def test_too_short_row_with_last_label_column(self, tmp_path):
        f = self.write(tmp_path, "1,2,a\n3,4\n")
        with pytest.raises(ValueError, match=r"t\.csv:2: ragged row of width 1, expected 2"):
            _load_csv(f, label_column=-1)

    def test_header_after_leading_blank_line(self, tmp_path):
        f = self.write(tmp_path, "\n10,20\n1,2\n3,4\n")
        np.testing.assert_array_equal(_load_csv(f, has_header=True), [[1, 2], [3, 4]])

    def test_quoted_blank_line_before_header(self, tmp_path):
        f = self.write(tmp_path, '""\n10,20\n1,2\n')
        np.testing.assert_array_equal(_load_csv(f, has_header=True), [[1, 2]])

    def test_hash_cell_is_non_numeric(self, tmp_path):
        f = self.write(tmp_path, "1,2\n#3,4\n")
        with pytest.raises(ValueError, match=r"t\.csv:2: non-numeric cell '#3' in column 0"):
            _load_csv(f)

    def test_whitespace_only_line_skipped(self, tmp_path):
        f = self.write(tmp_path, "1,2\n  \t \n3,4\n")
        np.testing.assert_array_equal(_load_csv(f), [[1, 2], [3, 4]])

    def test_underscore_digits_parse_as_python_float(self, tmp_path):
        f = self.write(tmp_path, "1_0,2\n3,4\n")
        np.testing.assert_array_equal(_load_csv(f), [[10, 2], [3, 4]])

    def test_clean_table_takes_the_bulk_path(self, tmp_path):
        f = self.write(tmp_path, "h,label,g\n\n0.5,x,1e-3\r\n2,y,-0\n")
        x = _parse_bulk(f, ",", True, 1)
        assert x is not None
        np.testing.assert_array_equal(x, [[0.5, 1e-3], [2.0, -0.0]])
        assert _parse_bulk(f, ",", True, None) is None  # the label column is not numeric

    @pytest.mark.parametrize(
        "text, rows",
        [
            ('"h\n1,2,x"\n3,4,y\n', [[3, 4]]),  # the header's quoted name holds a line break
            ('h,i,j\n0,0,w\n1,2,"x\n5,6,y"\n3,4,z\n', [[0, 0], [1, 2], [3, 4]]),  # a label's
        ],
    )
    def test_quoted_line_break_read_as_the_scan_reads_it(self, tmp_path, text, rows):
        f = self.write(tmp_path, text)
        assert _parse_bulk(f, ",", True, -1) is None
        np.testing.assert_array_equal(_load_csv(f, has_header=True, label_column=-1), rows)


_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-99, 99).map(str)
_ODD_CELL = st.sampled_from(
    ["?", "", "nan", "inf", "-inf", "1e999", '"0.25"', '"1,5"', " 3 ", "\t4", "1_0", "#2", "x"]
)


@st.composite
def _csv_tables(draw):
    """(text, delimiter, has_header, label_column) of a small table, sometimes malformed."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    width = draw(st.integers(1, 4))
    clean = draw(st.booleans())
    cell = _NUMBER if clean else st.one_of(_NUMBER, _NUMBER, _ODD_CELL)
    widths = st.just(width) if clean else st.sampled_from([width] * 6 + [width - 1, width + 1])
    lo, hi = (-width, width - 1) if clean else (-width - 1, width)
    label = draw(st.none() | st.integers(lo, hi))
    words = ["x", '"setosa"', '"Iris setosa"', '"a""b"', '""', f'"a{delimiter}b"', '"a\nb"']
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        row = [draw(cell) for _ in range(draw(widths))]
        if label is not None and -len(row) <= label < len(row) and draw(st.booleans()):
            row[label] = draw(st.sampled_from(words))
        if draw(st.booleans()):
            row = [f" {c} " for c in row]
        lines.append(delimiter.join(row))
    if draw(st.booleans()):
        names = ["h{}", '"h{}"', '"h {}"', f'"h{delimiter}{{}}"', '"h\n{}"']
        header = [draw(st.sampled_from(names)).format(i) for i in range(width)]
        lines.insert(0, delimiter.join(header))
    odd_blanks = ["", " ", "\t", delimiter, " " + delimiter, '""', '" "', '"",""', '""""', '","']
    blanks = st.just("") if clean else st.sampled_from(odd_blanks)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blanks))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text, delimiter, draw(st.booleans()), label


def _outcome(parse, *args):
    try:
        x = parse(*args)
    except ValueError as e:
        return "error", str(e)
    return x.shape, x.tobytes()


@settings(max_examples=100, deadline=None)
@given(table=_csv_tables())
def test_bulk_parse_matches_line_scan(table):
    """``_load_csv`` gives the scan's float64 bits, or the scan's error message."""
    text, delimiter, has_header, label = table
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "t.csv"
        f.write_bytes(text.encode())
        args = (f, delimiter, has_header, label)
        assert _outcome(_load_csv, *args) == _outcome(_scan_csv, *args)


class TestNormalize:
    def test_affine_endpoints(self):
        x = np.array([[2.0], [4.0], [6.0]])
        np.testing.assert_allclose(_normalize_unit_interval(x), [[0.0], [0.5], [1.0]])

    def test_constant_column_maps_to_zero(self):
        x = np.array([[5.0], [5.0]])
        np.testing.assert_array_equal(_normalize_unit_interval(x), [[0.0], [0.0]])

    def test_already_unit_interval_unchanged(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.25]])
        np.testing.assert_allclose(_normalize_unit_interval(x), x)

    def test_output_always_in_unit_interval(self):
        rng = np.random.default_rng(2)
        x = rng.normal(3.0, 10.0, (30, 5))
        out = _normalize_unit_interval(x)
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_bits_of_the_direct_formula(self):
        """Halving first gives (x - min) / (max - min) bit for bit on normal values."""
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, (200, 6)) * 10.0 ** rng.integers(-300, 300, (1, 6))
        mins, spans = x.min(axis=0), x.max(axis=0) - x.min(axis=0)
        np.testing.assert_array_equal(_normalize_unit_interval(x).view(np.uint64),
                                      ((x - mins) / spans).view(np.uint64))

    def test_span_past_the_largest_float(self, tmp_path):
        """A column from -1e308 to 1e308 spans 2e308, which float64 cannot hold."""
        f = tmp_path / "t.csv"
        f.write_text("-1e308,0\n0,1\n1e308,2\n")
        x = load_dataset(f).rows(slice(None))
        np.testing.assert_array_equal(x, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])


class TestImpute:
    def test_column_sum_past_the_largest_float(self, tmp_path):
        """The finite values of column 1 sum to 2e308; the mean is exact."""
        f = tmp_path / "t.csv"
        f.write_text(",0.5\n1,1e308\n1,1e308\n0,0\n0,\n")
        x = _load_csv(f)
        assert x[0, 0] == 0.5 and x[4, 1] == 1e308 / 2
        x = load_dataset(f).rows(slice(None))
        np.testing.assert_array_equal(x[:, 1], [0.5 / 1e308, 1.0, 1.0, 0.0, 0.5])

    def test_bits_of_nanmean(self, tmp_path):
        """Scaling by a power of two gives ``np.nanmean``'s bits on normal values."""
        rng = np.random.default_rng(4)
        x = rng.random((50, 5)) * 10.0 ** rng.integers(-300, 300, (1, 5))
        holes = rng.random(x.shape) < 0.2
        holes[0] = False
        f = tmp_path / "t.csv"
        f.write_text("".join(
            ",".join("" if h else repr(v) for v, h in zip(row, hole)) + "\n"
            for row, hole in zip(x.tolist(), holes)
        ))
        want = np.nanmean(np.where(holes, np.nan, x), axis=0)
        got = _load_csv(f)
        np.testing.assert_array_equal(got[holes].view(np.uint64),
                                      np.broadcast_to(want, x.shape)[holes].view(np.uint64))


class TestTableCache:
    """``load_dataset`` keeps each parsed CSV table under ``$XDG_CACHE_HOME/lrnn``.

    ``table_cache`` (conftest) is a fresh, empty cache directory for each test.
    """

    @staticmethod
    def fresh(path, delimiter=",", has_header=False, label_column=None):
        return _normalize_unit_interval(_load_csv(path, delimiter, has_header, label_column))

    @staticmethod
    def entries(cache):
        return sorted(cache.iterdir()) if cache.exists() else []

    @staticmethod
    def refuse_parsing(monkeypatch):
        def parse(*args):
            raise AssertionError("the table was parsed again")

        monkeypatch.setattr(lrnn.data, "_load_csv", parse)

    def test_second_load_returns_the_same_bits_unparsed(self, tmp_path, table_cache, monkeypatch):
        f = tmp_path / "t.csv"
        f.write_text("a,b,label\n1.5,2,x\n3,0.25,y\n7,9,z\n")
        first = load_dataset(f, has_header=True, label_column=-1).values
        assert [e.suffix for e in self.entries(table_cache)] == [".npy"]
        self.refuse_parsing(monkeypatch)
        second = load_dataset(f, has_header=True, label_column=-1).values
        assert second.dtype == np.float64 and second.flags.c_contiguous
        assert second.tobytes() == first.tobytes() == self.fresh(f, ",", True, -1).tobytes()

    def test_other_settings_make_other_entries(self, tmp_path, table_cache):
        wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
        wide.write_text("5,1,0\n2,4,8\n3,9,1\n8,6,2\n")
        narrow.write_text("10\n20\n40\n70\n")
        loads = [(wide, ",", False, None), (wide, ",", True, None), (wide, ",", False, 0),
                 (wide, ",", False, -1), (narrow, ",", False, None), (narrow, ";", False, None),
                 (narrow, "\t", True, None)]
        for _ in range(2):
            for path, delimiter, header, label in loads:
                got = load_dataset(path, delimiter=delimiter, has_header=header,
                                   label_column=label).values
                assert got.tobytes() == self.fresh(path, delimiter, header, label).tobytes()
        assert len(self.entries(table_cache)) == len(loads)

    def test_rewrite_of_the_same_size_and_mtime_is_parsed_anew(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("1,2\n3,4\n6,5\n")
        old = load_dataset(f).values
        stat = f.stat()
        f.write_text("1,2\n3,4\n6,9\n")
        os.utime(f, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (f.stat().st_size, f.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        new = load_dataset(f).values
        assert new.tobytes() == self.fresh(f).tobytes() != old.tobytes()

    @pytest.mark.parametrize("damage", [
        lambda b: b"not an array at all",
        lambda b: b[:-8],  # a truncated payload
        lambda b: b[:20],  # a truncated header
        lambda b: b"",
        lambda b: b.replace(b"'<f8'", b"'<i8'"),  # a whole array of another dtype
    ])
    def test_unreadable_entry_is_parsed_past_and_replaced(self, tmp_path, table_cache, damage):
        f = tmp_path / "t.csv"
        f.write_text("1,2\n3,4\n6,5\n")
        want = load_dataset(f).values.tobytes()
        [entry] = self.entries(table_cache)
        entry.write_bytes(damage(entry.read_bytes()))
        assert load_dataset(f).values.tobytes() == want
        assert self.entries(table_cache) == [entry]
        assert np.load(entry, allow_pickle=False).tobytes() == want

    def test_unwritable_cache_location_still_loads(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        f = tmp_path / "t.csv"
        f.write_text("1,2\n3,4\n6,5\n")
        for _ in range(2):
            assert load_dataset(f).values.tobytes() == self.fresh(f).tobytes()
        assert blocker.read_text() == ""

    def test_relative_cache_locations_are_not_used(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "cache")
        monkeypatch.setenv("HOME", "home")
        (tmp_path / "t.csv").write_text("1,2\n3,4\n6,5\n")
        for _ in range(2):
            assert load_dataset("t.csv").values.tobytes() == self.fresh("t.csv").tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_file_changed_during_the_parse_leaves_no_entry(self, tmp_path, table_cache,
                                                            monkeypatch):
        f = tmp_path / "t.csv"
        f.write_text("1,2\n3,4\n")
        parse = _load_csv

        def parse_after_an_edit(path, *args):
            with open(path, "a") as out:
                out.write("6,5\n")
            return parse(path, *args)

        monkeypatch.setattr(lrnn.data, "_load_csv", parse_after_an_edit)
        assert load_dataset(f).instance_count == 3
        assert self.entries(table_cache) == []

    def test_failed_entry_write_leaves_no_file_and_parses_again(self, tmp_path, table_cache,
                                                                 monkeypatch):
        f = tmp_path / "t.csv"
        f.write_text("1,2\n3,4\n6,5\n")

        def failing_replace(src, dst):
            raise OSError("no space left on device")

        with monkeypatch.context() as m:
            m.setattr(lrnn.data.os, "replace", failing_replace)
            assert load_dataset(f).values.tobytes() == self.fresh(f).tobytes()
        assert self.entries(table_cache) == []
        parse, parses = _load_csv, []

        def counted_parse(*args):
            parses.append(args)
            return parse(*args)

        monkeypatch.setattr(lrnn.data, "_load_csv", counted_parse)
        assert load_dataset(f).values.tobytes() == self.fresh(f).tobytes()
        assert len(parses) == 1
        assert [e.suffix for e in self.entries(table_cache)] == [".npy"]

    def test_ragged_table_fails_alike_twice_and_leaves_no_entry(self, tmp_path, table_cache):
        f = tmp_path / "t.csv"
        f.write_text("1,2\n3,4,5\n")
        message = re.escape(f"{f}:2: ragged row of width 3, expected 2")
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                load_dataset(f)
        assert self.entries(table_cache) == []

    def test_imputed_table_round_trips_bit_for_bit(self, tmp_path, monkeypatch):
        f = tmp_path / "t.csv"
        f.write_text("0.1,?\n0.7,0.3\n,0.2\n0.3,0.11\n")
        first = load_dataset(f).values
        self.refuse_parsing(monkeypatch)
        assert load_dataset(f).values.tobytes() == first.tobytes() == self.fresh(f).tobytes()

    @staticmethod
    def edited_copy(module, tmp_path, monkeypatch):
        """Point ``module.__file__`` at a copy of its source with one comment added."""
        copy = tmp_path / Path(module.__file__).name
        copy.write_bytes(Path(module.__file__).read_bytes() + b"# edited\n")
        monkeypatch.setattr(module, "__file__", str(copy))

    def test_an_edit_outside_the_parser_keeps_the_entry(self, tmp_path, table_cache,
                                                        monkeypatch):
        f = tmp_path / "t.csv"
        f.write_text("1,2\n3,4\n6,5\n")
        first = load_dataset(f).values
        self.edited_copy(lrnn.data, tmp_path, monkeypatch)
        self.refuse_parsing(monkeypatch)
        assert load_dataset(f).values.tobytes() == first.tobytes()
        assert len(self.entries(table_cache)) == 1

    def test_an_edit_to_the_parser_parses_again_into_a_second_entry(self, tmp_path, table_cache,
                                                                    monkeypatch):
        f = tmp_path / "t.csv"
        f.write_text("1,2\n3,4\n6,5\n")
        first = load_dataset(f).values
        self.edited_copy(lrnn._table, tmp_path, monkeypatch)
        assert load_dataset(f).values.tobytes() == first.tobytes()
        assert len(self.entries(table_cache)) == 2  # only a parse writes an entry

    def test_image_files_never_reach_the_cache(self, idx_file, cifar_file, table_cache):
        load_dataset(idx_file(np.zeros((2, 3, 3), dtype=np.uint8)), "idx")
        load_dataset(cifar_file(np.zeros(1), np.zeros((1, 3072))), "cifar")
        assert not table_cache.exists()


class TestIterMinibatches:
    def test_ceiling_split(self):
        x = np.arange(20.0).reshape(10, 2)
        sizes = [b.shape[0] for b in iter_minibatches(x, 3)]
        assert sizes == [3, 3, 3, 1]

    def test_contiguous_without_shuffle(self):
        x = np.arange(12.0).reshape(6, 2)
        batches = list(iter_minibatches(x, 4))
        np.testing.assert_array_equal(np.vstack(batches), x)

    def test_shuffle_covers_everything_once(self):
        x = np.arange(14.0).reshape(7, 2)
        batches = list(iter_minibatches(x, 3, seed=5, shuffle=True))
        stacked = np.vstack(batches)
        assert sorted(map(tuple, stacked)) == sorted(map(tuple, x))

    def test_shuffle_deterministic(self):
        x = np.arange(30.0).reshape(15, 2)
        a = np.vstack(list(iter_minibatches(x, 4, seed=9, shuffle=True)))
        b = np.vstack(list(iter_minibatches(x, 4, seed=9, shuffle=True)))
        np.testing.assert_array_equal(a, b)

    def test_generator_drives_epoch_variation(self):
        x = np.arange(30.0).reshape(15, 2)
        rng = np.random.default_rng(0)
        e1 = np.vstack(list(iter_minibatches(x, 5, rng, shuffle=True)))
        e2 = np.vstack(list(iter_minibatches(x, 5, rng, shuffle=True)))
        assert not np.array_equal(e1, e2)

    def test_accepts_dataset(self):
        d = Dataset(np.ones((4, 2)))
        assert len(list(iter_minibatches(d, 2))) == 2

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(iter_minibatches(np.ones((3, 1)), 0))

    @pytest.mark.parametrize("batch_size", [2.0, True, "2"])
    def test_batch_size_that_is_not_an_integer_refused(self, batch_size):
        message = f"batch_size must be an integer >= 1, got {batch_size!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            list(iter_minibatches(np.ones((3, 1)), batch_size))

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "NaN or infinite"), (np.inf, "NaN or infinite"), (-1.0, "nonnegative")])
    def test_array_checked_as_a_dataset(self, bad, message):
        x = np.ones((3, 2))
        x[1, 0] = bad
        with pytest.raises(ValueError, match=message):
            list(iter_minibatches(x, 2))

    def test_shuffle_reads_the_dataset_rows_in_permuted_order(self):
        pixels = np.random.default_rng(5).integers(0, 256, (23, 3)).astype(np.uint8)
        got = np.vstack(list(iter_minibatches(Dataset(pixels), 4, seed=9, shuffle=True)))
        x = pixels / 255.0
        assert got.tobytes() == x[np.random.default_rng(9).permutation(23)].tobytes()

    def test_shuffle_makes_no_dataset_sized_copy(self):
        """Peak allocation is the permutation and one batch, for 20 MB of rows."""
        rng = np.random.default_rng(6)
        pixels = rng.integers(0, 256, (40_000, 64)).astype(np.uint8)
        floats = pixels / 255.0
        for d in (Dataset(pixels), Dataset(floats), floats):
            tracemalloc.start()
            try:
                for _ in iter_minibatches(d, 100, seed=0, shuffle=True):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 40_000 * 8 + 4 * 100 * 64 * 8, type(d)


class TestManifest:
    def test_round_trip(self, dataset_manifest):
        entries = _load_manifest(dataset_manifest)
        assert "iris" in entries and "wine" in entries
        iris = load_dataset(dataset_manifest, name="iris")
        assert (iris.instance_count, iris.attribute_count) == (150, 4)
        assert iris.x.min() >= 0.0 and iris.x.max() <= 1.0

    def test_unknown_name(self, dataset_manifest):
        with pytest.raises(ValueError, match="not in manifest"):
            load_dataset(dataset_manifest, name="nope")

    @pytest.mark.parametrize("text", ["{}", "[]", '"iris"'])
    def test_manifest_that_is_not_a_non_empty_object(self, tmp_path, text):
        bad = tmp_path / "m.json"
        bad.write_text(text)
        with pytest.raises(ValueError, match="manifest must be a non-empty JSON object"):
            load_dataset(bad)

    def test_malformed_manifest(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text('{"x": {"path": "f.csv"}}')
        with pytest.raises(ValueError, match="format"):
            load_dataset(bad)

    @pytest.mark.parametrize(
        "setting, value, kind",
        [
            ("header", "false", "true or false"),
            ("header", 0, "true or false"),
            ("label_column", True, "an integer or null"),
            ("label_column", "0", "an integer or null"),
            ("label_column", 1.0, "an integer or null"),
            ("delimiter", 59, "a one-character string"),
            ("delimiter", ";;", "a one-character string"),
            ("delimiter", "", "a one-character string"),
            ("path", ["t.csv"], "a string"),
            ("format", None, "a string"),
        ],
    )
    def test_mistyped_setting_refused(self, tmp_path, setting, value, kind):
        (tmp_path / "t.csv").write_text("a,b\n1,2\n3,4\n5,6\n")
        entry = {"path": "t.csv", "format": "csv", setting: value}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"t": entry}))
        message = f"{manifest}: entry 't' setting {setting!r} must be {kind}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(manifest)

    def test_well_typed_settings_are_read(self, tmp_path):
        (tmp_path / "t.csv").write_text("a;b;c\n1;2;x\n3;4;y\n5;8;z\n")
        manifest = tmp_path / "m.json"
        entry = {"path": "t.csv", "format": "csv", "delimiter": ";", "header": True,
                 "label_column": -1}
        manifest.write_text(json.dumps({"t": entry}))
        np.testing.assert_array_equal(load_dataset(manifest).x, [[0, 0], [0.5, 1 / 3], [1, 1]])

    def test_load_dataset_dispatch(self, idx_file):
        path = idx_file(np.zeros((2, 3, 3), dtype=np.uint8))
        d = load_dataset(path, "idx")
        assert d.x.shape == (2, 9)
        with pytest.raises(ValueError, match="unknown dataset format"):
            load_dataset(path, "tar")


class TestLoadDatasetGuess:
    """``load_dataset(path)`` without a format guesses it from the path."""

    @pytest.fixture
    def table(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("0,4\n2,8\n")
        return f

    def write_manifest(self, tmp_path, entries):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(entries))
        return path

    def test_csv_suffix(self, table):
        d = load_dataset(table)
        np.testing.assert_array_equal(d.x, [[0.0, 0.0], [1.0, 1.0]])

    def test_json_suffix_is_a_manifest(self, table, tmp_path):
        manifest = self.write_manifest(tmp_path, {"t": {"path": table.name, "format": "csv"}})
        np.testing.assert_array_equal(load_dataset(manifest).x, load_dataset(table, "csv").x)

    def test_directory_is_cifar(self, cifar_file, tmp_path):
        (tmp_path / "batches").mkdir()
        cifar_file([1, 2], np.zeros((2, 3072)), "batches/a.bin")
        cifar_file([3], np.full((1, 3072), 255), "batches/b.bin")
        d = load_dataset(tmp_path / "batches")
        assert d.x.shape == (3, 3072)
        assert (d.x[2] == 1.0).all()

    def test_bin_suffix_is_cifar(self, cifar_file):
        assert load_dataset(cifar_file([7], np.full((1, 3072), 51))).x.shape == (1, 3072)

    def test_comma_list_of_bin_files(self, cifar_file):
        a = cifar_file([1], np.zeros((1, 3072)), "a.bin")
        b = cifar_file([2, 3], np.zeros((2, 3072)), "b.bin")
        assert load_dataset(f"{a},{b}").x.shape == (3, 3072)

    @pytest.mark.parametrize("name", ["images.idx", "train-images-idx3-ubyte", "x.gz"])
    def test_anything_else_is_idx(self, idx_file, name):
        d = load_dataset(idx_file(np.zeros((2, 3, 3), dtype=np.uint8), name))
        assert d.x.shape == (2, 9)

    def test_one_entry_manifest_needs_no_name(self, table, tmp_path):
        manifest = self.write_manifest(tmp_path, {"t": {"path": str(table), "format": "csv"}})
        assert load_dataset(manifest, "manifest").x.shape == (2, 2)

    def test_two_entry_manifest_needs_a_name(self, table, tmp_path):
        entry = {"path": str(table), "format": "csv"}
        manifest = self.write_manifest(tmp_path, {"a": entry, "b": entry})
        with pytest.raises(ValueError, match="2 datasets"):
            load_dataset(manifest)
        with pytest.raises(ValueError, match=re.escape("dataset 'c' not in manifest (has: a, b)")):
            load_dataset(manifest, name="c")
        assert load_dataset(manifest, name="b").x.shape == (2, 2)

    def test_manifest_entry_cannot_be_a_manifest(self, tmp_path):
        manifest = self.write_manifest(tmp_path, {"m": {"path": "m.json", "format": "manifest"}})
        with pytest.raises(ValueError, match="unknown dataset format 'manifest'"):
            load_dataset(manifest)


_TABLE = "1,2\n3,4\n"
#: (kind, file text with "@" where the long token goes, loader keywords).
_TOKEN_POSITIONS = [
    ("csv", "@,2\n3,4\n", {}),
    ("csv", "1,2\n3,@\n", {}),
    ("csv", "1,2\n3,4,@\n", {}),
    ("csv", "@,b\n1,2\n3,4\n", {"has_header": True}),
    ("csv", "@,1,2\n4,5,6\n", {"label_column": 0}),
    ("manifest", '{"@": {"path": "t.csv", "format": "csv"}}', {}),
    ("manifest", '{"t": {"path": "@", "format": "csv"}}', {}),
    ("manifest", '{"t": {"path": "t.csv", "format": "@"}}', {}),
    ("manifest", '{"t": {"path": "t.csv", "format": "csv", "delimiter": "@"}}', {}),
    ("manifest", '{"t": {"path": "t.csv", "format": "csv", "header": @}}', {}),
    ("manifest", '{"t": {"path": "t.csv", "format": "csv", "header": "@"}}', {}),
    ("manifest", '{"t": {"path": "t.csv", "format": "csv", "label_column": @}}', {}),
    ("manifest", '{"t": {"path": "t.csv", "format": "csv", "label_column": "@"}}', {}),
    ("manifest", '{"t": {"path": "t.csv", "format": "csv", "@": 1}}', {}),
    ("idx", "@", {}),
    ("idx", "\0\0\x08\x03\0\0\0\x01\0\0\0\x01\0\0\0\x01@", {}),
    ("model", "@\ndepth 1\ndims 1 1\n", {}),
    ("model", "LRNN2\ndepth @\ndims 1 1\n", {}),
    ("model", "LRNN2\ndepth 1\ndims @ 1\n", {}),
    ("model", "LRNN2\ndepth 1\ndims 1 @\n", {}),
]


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from(_TOKEN_POSITIONS),
    token=st.builds(lambda c, n: c * n, st.sampled_from("019xeZ"), st.integers(1, 100_000)),
)
def test_long_token_refused_with_a_short_message(tmp_path_factory, case, token):
    """A token of up to 10^5 digits or letters in any header, cell or setting
    of a file is read or refused with a ``ValueError`` of under 300 characters
    that names the file."""
    from lrnn import load_model

    kind, text, kwargs = case
    root = tmp_path_factory.mktemp("long")
    table = root / "t.csv"
    table.write_text(_TABLE)
    path = root / {"csv": "d.csv", "manifest": "m.json", "idx": "d.idx", "model": "m.lrnn"}[kind]
    path.write_bytes(text.replace("@", token).encode("latin-1"))
    try:
        load_model(path) if kind == "model" else load_dataset(path, kind, **kwargs)
    except ValueError as e:
        message = str(e)
        assert len(message) < 300, message[:300]
        assert str(path) in message or str(table) in message, message
