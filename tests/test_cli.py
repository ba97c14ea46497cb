"""Command-line flows: training, evaluation, simulation, exit codes."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrnn import LrnnModel, init_weights, load_model, save_model, validate_constraints
import lrnn.training
from lrnn.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main


@pytest.fixture
def csv_dataset(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.random((30, 4))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join(f"{v:.10g}" for v in row) for row in x) + "\n")
    return path


def train_args(csv_path, out, extra=()):
    return [
        "train",
        "--data", str(csv_path),
        "--format", "csv",
        "--arch", "4,2",
        "--algo", "shallow",
        "--batch", "10",
        "--iters", "12",
        "--seed", "3",
        "--out", str(out),
        *extra,
    ]


class TestTrain:
    def test_prints_dead_visible_units(self, tmp_path, capsys):
        # column 0 is 0 throughout the first 10-row batch, so its unit dies there
        x = np.random.default_rng(1).random((30, 4))
        x[:, 0] = np.linspace(0.0, 1.0, 30)
        x[:10, 0] = 0.0
        data = tmp_path / "data.csv"
        data.write_text("\n".join(",".join(f"{v:.10g}" for v in row) for row in x) + "\n")
        assert main(train_args(data, tmp_path / "m.lrnn")) == EXIT_OK
        assert "dead visible units: 1 of 4\n" in capsys.readouterr().out

    def test_writes_model_and_curve(self, csv_dataset, tmp_path, capsys):
        model_path = tmp_path / "m.lrnn"
        curve_path = tmp_path / "curve.csv"
        code = main(train_args(csv_dataset, model_path, ["--curve", str(curve_path)]))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "final full-dataset error:" in out
        model = load_model(model_path)
        assert model.encode_dims == [4, 2]
        assert validate_constraints(model) == []
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "iter,error"
        assert len(lines) == 13  # header + one row per minibatch update
        assert lines[1].startswith("1,")

    def test_deterministic_byte_identical(self, csv_dataset, tmp_path):
        m1, m2 = tmp_path / "m1", tmp_path / "m2"
        c1, c2 = tmp_path / "c1", tmp_path / "c2"
        assert main(train_args(csv_dataset, m1, ["--curve", str(c1)])) == EXIT_OK
        assert main(train_args(csv_dataset, m2, ["--curve", str(c2)])) == EXIT_OK
        assert m1.read_bytes() == m2.read_bytes()
        assert c1.read_bytes() == c2.read_bytes()

    def test_full_error_rows_tagged(self, csv_dataset, tmp_path):
        model_path = tmp_path / "m.lrnn"
        curve_path = tmp_path / "c.csv"
        code = main(
            train_args(
                csv_dataset, model_path,
                ["--curve", str(curve_path), "--full-error-every", "5"],
            )
        )
        assert code == EXIT_OK
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "iter,error,kind"
        kinds = [line.split(",")[2] for line in lines[1:]]
        assert kinds.count("full") == 2  # iterations 5 and 10
        assert kinds.count("batch") == 12

    def test_greedy_full_error_rows_cover_both_stages(self, csv_dataset, tmp_path):
        curve_path = tmp_path / "c.csv"
        extra = ["--curve", str(curve_path), "--full-error-every", "5"]
        args = train_args(csv_dataset, tmp_path / "m.lrnn", extra)
        args[args.index("--arch") + 1] = "4,3,2"
        args[args.index("--algo") + 1] = "greedy"
        assert main(args) == EXIT_OK
        rows = [line.split(",") for line in curve_path.read_text().splitlines()[1:]]
        assert [int(i) for i, _, kind in rows if kind == "full"] == [5, 10, 15, 20]
        assert sum(kind == "batch" for _, _, kind in rows) == 24  # 12 per stage

    def test_shallow_is_joint_at_depth_one(self, csv_dataset, tmp_path):
        files = {}
        for algo in ("shallow", "joint"):
            model, curve = tmp_path / f"{algo}.lrnn", tmp_path / f"{algo}.csv"
            args = train_args(csv_dataset, model, ["--curve", str(curve)])
            args[args.index("--algo") + 1] = algo
            assert main(args) == EXIT_OK
            files[algo] = (model.read_bytes(), curve.read_bytes())
        assert files["shallow"] == files["joint"]

    def test_greedy_and_joint(self, csv_dataset, tmp_path):
        for algo in ("greedy", "joint"):
            out = tmp_path / f"{algo}.lrnn"
            args = train_args(csv_dataset, out)
            args[args.index("--arch") + 1] = "4,3,2"
            args[args.index("--algo") + 1] = algo
            assert main(args) == EXIT_OK
            assert load_model(out).encode_dims == [4, 3, 2]

    def test_usage_errors(self, csv_dataset, tmp_path):
        out = tmp_path / "m.lrnn"
        assert main(["train", "--data", str(csv_dataset)]) == EXIT_USAGE  # missing flags
        bad = train_args(csv_dataset, out)
        bad[bad.index("--arch") + 1] = "4"
        assert main(bad) == EXIT_USAGE
        no_budget = [a for a in train_args(csv_dataset, out) if a not in ("--iters", "12")]
        assert main(no_budget) == EXIT_USAGE
        # full-dataset rows go into the curve, so without --curve the flag contradicts
        assert main(train_args(csv_dataset, out, ["--full-error-every", "2"])) == EXIT_USAGE
        for flag, value in (
            ("--batch", "0"), ("--iters", "0"), ("--iters", "-3"), ("--iters", "two"),
            ("--epochs", "0"), ("--full-error-every", "0"), ("--seed", "-1"),
            ("--rel-tol", "-1"), ("--rel-tol", "nan"), ("--rel-tol", "inf"),
        ):
            assert main(train_args(csv_dataset, out, [flag, value])) == EXIT_USAGE, flag
        assert not out.exists()

    def test_type_errors_name_no_private_function(self, csv_dataset, tmp_path, capsys):
        out = tmp_path / "m.lrnn"
        for flag, value, kind in (
            ("--iters", "two", "positive integer"),
            ("--iters", "0", "positive integer"),
            ("--seed", "x", "non-negative integer"),
            ("--seed", "-1", "non-negative integer"),
            ("--rel-tol", "abc", "non-negative number"),
            ("--rel-tol", "nan", "non-negative number"),
            ("--delimiter", ";;", "one-character"),
            ("--arch", "4,2.5", "layer sizes"),
            ("--arch", "4,0", "layer sizes"),
        ):
            assert main(train_args(csv_dataset, out, [flag, value])) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"invalid {kind} value: '{value}'" in err, err
            assert "_positive_int" not in err and "_non_negative" not in err, err
        assert not out.exists()

    def test_long_flag_text_quoted_in_a_short_message(self, csv_dataset, tmp_path, capsys):
        out = tmp_path / "m.lrnn"
        for flag, words in (
            ("--batch", "invalid positive integer value"),
            ("--arch", "invalid layer sizes value"),
            ("--label-column", "invalid int value"),
            ("--format", "invalid choice"),
            ("--algo", "invalid choice"),
        ):
            assert main(train_args(csv_dataset, out, [flag, "9" * 5000])) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"argument {flag}: {words}: {'9' * 40!r}... (5000 characters)" in err, err
            assert len(err) < 2000, err[-300:]
        assert not out.exists()

    def test_non_finite_csv_cells_are_data_errors(self, csv_dataset, tmp_path):
        out = tmp_path / "m.lrnn"
        lines = csv_dataset.read_text().splitlines()
        for cell in ("inf", "-inf", "nan"):
            lines[1] = f"0.5,0.5,{cell},0.5"
            bad = tmp_path / f"{cell}.csv"
            bad.write_text("\n".join(lines) + "\n")
            assert main(train_args(bad, out)) == EXIT_DATA, cell
        assert not out.exists()

    def test_shallow_rejects_deep_arch(self, csv_dataset, tmp_path):
        args = train_args(csv_dataset, tmp_path / "m")
        args[args.index("--arch") + 1] = "4,3,2"
        assert main(args) == EXIT_USAGE

    def test_data_errors(self, tmp_path):
        out = tmp_path / "m.lrnn"
        assert main(train_args(tmp_path / "missing.csv", out)) == EXIT_DATA
        f = tmp_path / "three.csv"
        f.write_text("1,2,3\n")
        assert main(train_args(f, out)) == EXIT_DATA  # 3 attributes vs --arch 4,2

    def test_manifest_input(self, dataset_manifest, tmp_path):
        out = tmp_path / "m.lrnn"
        code = main(
            [
                "train",
                "--data", str(dataset_manifest),
                "--name", "iris",
                "--arch", "4,2",
                "--batch", "50",
                "--iters", "9",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert load_model(out).visible_dim == 4


class TestEval:
    def test_matches_trainer_final_error(self, csv_dataset, tmp_path, capsys):
        model_path = tmp_path / "m.lrnn"
        assert main(train_args(csv_dataset, model_path)) == EXIT_OK
        trained_err = float(capsys.readouterr().out.split("final full-dataset error:")[1].split()[0])
        code = main(
            ["eval", "--model", str(model_path), "--data", str(csv_dataset), "--format", "csv"]
        )
        assert code == EXIT_OK
        printed = float(capsys.readouterr().out.split("reconstruction error:")[1].split()[0])
        assert printed == pytest.approx(trained_err, abs=1e-12)

    def test_dump_reconstruction(self, csv_dataset, tmp_path):
        model_path = tmp_path / "m.lrnn"
        dump = tmp_path / "recon.csv"
        assert main(train_args(csv_dataset, model_path)) == EXIT_OK
        code = main(
            [
                "eval",
                "--model", str(model_path),
                "--data", str(csv_dataset),
                "--format", "csv",
                "--dump", str(dump),
            ]
        )
        assert code == EXIT_OK
        rows = dump.read_text().splitlines()
        assert len(rows) == 30
        assert all(len(r.split(",")) == 4 for r in rows)

    def test_dimension_mismatch(self, csv_dataset, tmp_path):
        model_path = tmp_path / "m.lrnn"
        assert main(train_args(csv_dataset, model_path)) == EXIT_OK
        other = tmp_path / "other.csv"
        other.write_text("1,2\n3,4\n")
        code = main(["eval", "--model", str(model_path), "--data", str(other), "--format", "csv"])
        assert code == EXIT_DATA

    def test_dump_writes_17_significant_digits(self, tmp_path):
        """An identity model returns its input, so the dump shows awkward values as written."""
        awkward = [1.0 / 3.0, float(np.nextafter(0.5, 1.0)), 2**-40, 0.0, 1.0]
        # every column spans [0, 1], so column normalization leaves it as is
        x = np.array([awkward, [0, 0, 0, 1, 0], [1, 1, 1, 0, 0]], dtype=float)
        data = tmp_path / "x.csv"
        data.write_text("\n".join(",".join(repr(v) for v in row) for row in x.tolist()) + "\n")
        model_path = tmp_path / "identity.lrnn"
        save_model(LrnnModel([np.eye(5)], [np.eye(5)]), model_path)
        dump = tmp_path / "recon.csv"
        args = ["eval", "--model", str(model_path), "--data", str(data), "--dump", str(dump)]
        assert main(args) == EXIT_OK
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in x.tolist())
        assert dump.read_bytes() == expected.encode()
        assert dump.read_text().splitlines()[0] == (
            "0.33333333333333331,0.50000000000000011,9.0949470177292824e-13,0,1"
        )


class TestSimulate:
    def sim_args(self, model_path, data_path, out, index=0, events=200000, seed=1):
        return [
            "simulate",
            "--model", str(model_path),
            "--data", str(data_path),
            "--format", "csv",
            "--index", str(index),
            "--events", str(events),
            "--seed", str(seed),
            "--out", str(out),
        ]

    def test_comparison_csv_schema(self, csv_dataset, tmp_path, capsys):
        model_path = tmp_path / "m.lrnn"
        sim_csv = tmp_path / "sim.csv"
        assert main(train_args(csv_dataset, model_path)) == EXIT_OK
        capsys.readouterr()
        code = main(self.sim_args(model_path, csv_dataset, sim_csv))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "visual: max abs diff" in out
        lines = sim_csv.read_text().splitlines()
        assert lines[0] == "layer,neuron,q_sim,q_num,abs_diff"
        assert len(lines) == 1 + 4 + 2 + 4
        assert lines[1].startswith("visual,0,")

    def test_byte_identical_runs(self, csv_dataset, tmp_path):
        model_path = tmp_path / "m.lrnn"
        assert main(train_args(csv_dataset, model_path)) == EXIT_OK
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(self.sim_args(model_path, csv_dataset, s1)) == EXIT_OK
        assert main(self.sim_args(model_path, csv_dataset, s2)) == EXIT_OK
        assert s1.read_bytes() == s2.read_bytes()

    def test_zero_instance_reports_dead_network(self, tmp_path, capsys):
        data = tmp_path / "zeros.csv"
        data.write_text("0,0\n0.5,0.5\n")
        model_path = tmp_path / "m.lrnn"
        args = train_args(data, model_path)
        args[args.index("--arch") + 1] = "2,1"
        assert main(args) == EXIT_OK
        capsys.readouterr()
        sim_csv = tmp_path / "sim.csv"
        code = main(self.sim_args(model_path, data, sim_csv, index=0))
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert err == (
            "dead network: no possible event: all arrival rates are zero and no neuron "
            "is active; all estimates are 0\n"
        )
        for line in sim_csv.read_text().splitlines()[1:]:
            _, _, q_sim, q_num, diff = line.split(",")
            assert float(q_sim) == 0.0 and float(q_num) == 0.0 and float(diff) == 0.0

    def test_usage_errors(self, csv_dataset, tmp_path):
        model_path = tmp_path / "m.lrnn"
        assert main(train_args(csv_dataset, model_path)) == EXIT_OK
        out = tmp_path / "s.csv"
        for flag, value in (
            ("--events", "0"), ("--events", "-5"), ("--observe-every", "0"),
            ("--seed", "-1"), ("--burn-in", "-5"),
        ):
            args = self.sim_args(model_path, csv_dataset, out) + [flag, value]
            assert main(args) == EXIT_USAGE, (flag, value)
        assert not out.exists()

    def test_index_out_of_range(self, csv_dataset, tmp_path):
        model_path = tmp_path / "m.lrnn"
        assert main(train_args(csv_dataset, model_path)) == EXIT_OK
        code = main(self.sim_args(model_path, csv_dataset, tmp_path / "s.csv", index=99))
        assert code == EXIT_DATA

    def test_agreement_improves_with_more_events(self, csv_dataset, tmp_path, capsys):
        model_path = tmp_path / "m.lrnn"
        assert main(train_args(csv_dataset, model_path)) == EXIT_OK
        capsys.readouterr()

        def worst_diff(events):
            code = main(
                self.sim_args(model_path, csv_dataset, tmp_path / f"s{events}.csv", events=events)
            )
            assert code == EXIT_OK
            out = capsys.readouterr().out
            return max(
                float(line.split("max abs diff")[1].split()[0])
                for line in out.splitlines()
                if "max abs diff" in line
            )

        assert worst_diff(400_000) < worst_diff(2_000)


class TestParser:
    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE


def _train(*extra, data="{data}", arch="4,2", budget=("--iters", "3"), out="{out}"):
    return ["train", "--data", data, "--arch", arch, *budget, "--out", out, *extra]


def _simulate(*extra, model="{model}"):
    return ["simulate", "--model", model, "--data", "{data}", "--events", "2000", *extra]


#: (name, argv template, exit code) of every documented failure.
EXIT_CASES = [
    ("bad flag", _train("--batch", "0"), EXIT_USAGE),
    ("bad arch", _train(arch="4,x"), EXIT_USAGE),
    ("no budget", _train(budget=()), EXIT_USAGE),
    ("shallow with deep arch", _train(arch="4,3,2"), EXIT_USAGE),
    ("empty delimiter", _train("--delimiter", ""), EXIT_USAGE),
    ("two-character delimiter", _train("--delimiter", ";;"), EXIT_USAGE),
    ("no observation", _simulate("--events", "10", "--observe-every", "100", "--out", "{out}"),
     EXIT_USAGE),
    ("burn-in eats the budget",
     _simulate("--events", "150", "--burn-in", "100", "--observe-every", "100", "--out", "{out}"),
     EXIT_USAGE),
    ("no observation, model never read",
     _simulate("--events", "10", "--observe-every", "100", model="{tmp}/missing.lrnn"),
     EXIT_USAGE),
    ("missing data file", _train(data="{tmp}/missing.csv"), EXIT_DATA),
    ("mistyped manifest setting", _train(data="{manifest}"), EXIT_DATA),
    ("manifest entry naming a missing file", _train(data="{lost_entry}"), EXIT_DATA),
    ("attribute mismatch", _train(arch="5,2"), EXIT_DATA),
    ("no data column besides the label", _train("--delimiter", ";", "--label-column", "0"),
     EXIT_DATA),
    ("model width mismatch", ["eval", "--model", "{model}", "--data", "{narrow}"], EXIT_DATA),
    ("field over csv's size limit", _train(data="{long_field}"), EXIT_DATA),
    ("missing model file", _simulate(model="{tmp}/missing.lrnn"), EXIT_DATA),
    ("bad model file", _simulate(model="{data}"), EXIT_DATA),
    ("index out of range", _simulate("--index", "30"), EXIT_DATA),
    ("unwritable train --out", _train(out="{tmp}/no/m.lrnn"), EXIT_DATA),
    ("unwritable train --curve", _train("--curve", "{tmp}/no/c.csv"), EXIT_DATA),
    ("unwritable eval --dump",
     ["eval", "--model", "{model}", "--data", "{data}", "--dump", "{tmp}/no/r.csv"], EXIT_DATA),
    ("unwritable simulate --out", _simulate("--out", "{tmp}/no/s.csv"), EXIT_DATA),
    ("manifest of two entries without --name", _train(data="{pair}"), EXIT_DATA),
    ("--name not in the manifest", _train("--name", "c", data="{pair}"), EXIT_DATA),
    ("cifar directory without a batch", _train(data="{empty}", arch="3072,2"), EXIT_DATA),
]


#: (name, argv template) of each output flag that names an input file or another output.
ALIAS_CASES = [
    ("train --out is --data", _train(out="{data}")),
    ("train --curve is --data", _train("--curve", "{data}")),
    ("train --curve is --out", _train("--curve", "{out}")),
    ("eval --dump is --model",
     ["eval", "--model", "{model}", "--data", "{data}", "--dump", "{model}"]),
    ("eval --dump is --data", ["eval", "--model", "{model}", "--data", "{data}", "--dump", "{data}"]),
    ("simulate --out is --model", _simulate("--out", "{model}")),
    ("simulate --out links to --data", _simulate("--out", "{link}")),
    ("train --out is the manifest's only entry", _train(data="{one_entry}", out="{data}")),
    ("eval --dump is the manifest entry --name picks",
     ["eval", "--model", "{model}", "--data", "{two_entries}", "--name", "b", "--dump", "{data}"]),
    ("train --out is a file of a cifar list",
     _train("--format", "cifar", data="{bins}/a.bin,{bins}/b.bin", arch="3072,2", out="{bins}/b.bin")),
    ("train --curve is a batch of a cifar directory",
     _train("--curve", "{bins}/a.bin", data="{bins}", arch="3072,2")),
    ("train --out is a batch of the cifar directory a manifest entry names",
     _train(data="{bins_entry}", arch="3072,2", out="{bins}/a.bin")),
]


class TestExitCodes:
    """Each failure returns its code from ``main`` with one message; nothing escapes."""

    @pytest.fixture
    def paths(self, csv_dataset, tmp_path):
        model = tmp_path / "m.lrnn"
        assert main(train_args(csv_dataset, model)) == EXIT_OK
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("1,2\n3,4\n")
        manifest = tmp_path / "m.json"  # "header" must be a JSON boolean
        manifest.write_text(json.dumps({"d": {"path": str(csv_dataset), "format": "csv",
                                              "header": "false"}}))
        lost_entry = tmp_path / "lost.json"
        lost_entry.write_text(json.dumps({"d": {"path": "missing.csv", "format": "csv"}}))
        long_field = tmp_path / "long_field.csv"  # csv refuses a field of over 131,072 characters
        long_field.write_text(f'1,2,3,4\n5,6,7,"{"8" * 200_000}"\n')
        pair = tmp_path / "pair.json"  # a load must name one of its two entries
        pair.write_text(json.dumps({"a": {"path": "narrow.csv", "format": "csv"},
                                    "b": {"path": "data.csv", "format": "csv"}}))
        bins_entry = tmp_path / "bins.json"  # its entry is the cifar directory "bins"
        bins_entry.write_text(json.dumps({"c": {"path": "bins", "format": "cifar"}}))
        (tmp_path / "empty").mkdir()
        return {"data": csv_dataset, "model": model, "narrow": narrow, "manifest": manifest,
                "lost_entry": lost_entry, "long_field": long_field, "tmp": tmp_path,
                "out": tmp_path / "out", "pair": pair, "bins_entry": bins_entry,
                "empty": tmp_path / "empty"}

    @pytest.mark.parametrize("argv,code", [c[1:] for c in EXIT_CASES],
                             ids=[c[0] for c in EXIT_CASES])
    def test_failure_exit_code(self, paths, argv, code, capsys):
        capsys.readouterr()
        assert main([a.format(**paths) for a in argv]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        prefix = {EXIT_USAGE: "error: ", EXIT_DATA: "data error: "}[code]
        assert prefix in err.splitlines()[-1], err
        if code == EXIT_DATA:
            assert len(err.splitlines()) == 1, err
        assert not paths["out"].exists()  # a failed command leaves no output

    @pytest.mark.parametrize("argv", [c[1] for c in ALIAS_CASES], ids=[c[0] for c in ALIAS_CASES])
    def test_output_naming_an_input_or_output_is_refused(self, paths, argv, cifar_file, capsys):
        tmp = paths["tmp"]
        (tmp / "link.csv").symlink_to(paths["data"])
        entries = {"a": {"path": "narrow.csv", "format": "csv"},
                   "b": {"path": "data.csv", "format": "csv"}}
        (tmp / "one.json").write_text(json.dumps({"b": entries["b"]}))
        (tmp / "two.json").write_text(json.dumps(entries))
        (tmp / "bins").mkdir()
        pixels = np.arange(2 * 3072).reshape(2, 3072) % 256
        bins = [cifar_file([3, 7], pixels, f"bins/{name}.bin") for name in ("a", "b")]
        before = {p: p.read_bytes() for p in [paths["data"], paths["model"], *bins]}
        names = dict(paths, link=tmp / "link.csv", one_entry=tmp / "one.json",
                     two_entries=tmp / "two.json", bins=tmp / "bins")
        capsys.readouterr()
        assert main([a.format(**names) for a in argv]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert {p: p.read_bytes() for p in before} == before
        assert not paths["out"].exists()  # nothing written

    def test_table_not_in_the_reader_encoding_is_a_data_error(self, paths, capsys):
        data = paths["tmp"] / "latin1.csv"
        data.write_bytes("café,b,c,d\n1,2,3,4\n5,6,7,8\n".encode("latin-1"))
        capsys.readouterr()
        assert main([a.format(**paths) for a in _train("--header", data=str(data))]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {data}: "), err
        assert not paths["out"].exists()

    def test_library_value_error_is_a_numeric_failure(self, paths, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise ValueError("training diverged")

        monkeypatch.setattr(lrnn.training, "train", diverge)
        capsys.readouterr()
        assert main([a.format(**paths) for a in _train()]) == EXIT_NUMERIC
        assert capsys.readouterr().err.splitlines() == ["numeric failure: training diverged"]
        assert not paths["out"].exists()


#: CSV cells: ordinary, extreme but finite, subnormal and missing.
_CELLS = st.sampled_from(["0", "1", "0.5", "3", "-2", "1e308", "-1e308", "1.7976931348623157e308",
                          "-1.7976931348623157e308", "5e-324", "2.2e-308", "1e-300", "", "?"])


@st.composite
def cli_runs(draw):
    """A small table, then flags for train, eval and simulate, and the damage
    done to the model file before eval and simulate read it."""
    width = draw(st.integers(1, 4))
    table = "".join(",".join(draw(_CELLS) for _ in range(width)) + "\n"
                    for _ in range(draw(st.integers(1, 6))))
    algo = draw(st.sampled_from(["shallow", "joint", "greedy"]))
    arch = [draw(st.sampled_from([width, width + 1])), draw(st.integers(1, 3))]
    arch += [] if algo == "shallow" or draw(st.booleans()) else [1]
    count = st.integers(1, 4).map(str)
    train = ["--arch", ",".join(map(str, arch)), "--algo", algo, "--iters", draw(count),
             "--batch", draw(count), "--seed", draw(count), *draw(st.sampled_from([[], ["--shuffle"]]))]
    damage = draw(st.sampled_from([None, "truncate", "flip"])), draw(st.integers(0, 10**6))
    simulate = ["--index", draw(st.integers(0, 6).map(str)),
                "--events", draw(st.integers(1, 3000).map(str)),
                "--observe-every", draw(st.integers(1, 300).map(str)),
                "--burn-in", draw(st.integers(0, 100).map(str)), "--seed", draw(count)]
    return width, table, train, damage, simulate


def _exit(argv) -> int:
    """``main(argv)``'s exit code, checked: 0 to 3, and one stderr line on failure."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
    if code != EXIT_OK:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    return code


@settings(max_examples=60, deadline=None)
@given(cli_runs())
def test_fuzz_of_main(run):
    """Every command on random tables, flags and damaged model files exits
    with a documented code and one line; no warning escapes (tier-1 makes
    warnings errors)."""
    width, table, train, (damage, position), simulate = run
    with tempfile.TemporaryDirectory() as tmp:
        data, model = Path(tmp) / "t.csv", Path(tmp) / "m.lrnn"
        data.write_text(table)
        if _exit(["train", "--data", str(data), *train, "--out", str(model)]) != EXIT_OK:
            save_model(init_weights([width, 2], seed=0), model)
        blob = bytearray(model.read_bytes())
        if damage == "truncate":
            del blob[position % len(blob):]
        elif damage == "flip":
            blob[position % len(blob)] ^= 1 + position % 255
        model.write_bytes(blob)
        _exit(["eval", "--model", str(model), "--data", str(data)])
        _exit(["simulate", "--model", str(model), "--data", str(data), *simulate])
