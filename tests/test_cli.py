"""Command-line flows: training, evaluation, simulation, exit codes."""

import numpy as np
import pytest

from lrnn import load_model, validate_constraints
from lrnn.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


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
        for flag, value in (
            ("--batch", "0"), ("--iters", "0"), ("--iters", "-3"), ("--iters", "two"),
            ("--epochs", "0"), ("--full-error-every", "0"),
        ):
            assert main(train_args(csv_dataset, out, [flag, value])) == EXIT_USAGE, flag
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
        assert "dead network" in err
        for line in sim_csv.read_text().splitlines()[1:]:
            _, _, q_sim, q_num, diff = line.split(",")
            assert float(q_sim) == 0.0 and float(q_num) == 0.0 and float(diff) == 0.0

    def test_usage_errors(self, csv_dataset, tmp_path):
        model_path = tmp_path / "m.lrnn"
        assert main(train_args(csv_dataset, model_path)) == EXIT_OK
        out = tmp_path / "s.csv"
        for flag, value in (("--events", "0"), ("--events", "-5"), ("--observe-every", "0")):
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
