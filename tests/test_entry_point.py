"""The real entry point, ``python -m lrnn``, and the modules each command loads.

The other CLI tests call :func:`lrnn.cli.main` in this process; these run
the program as users do, in a fresh interpreter, a handful of times.  The
import-graph checks are structural: they read ``-X importtime``'s list of
modules a process imported and time nothing.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrnn
from lrnn.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main

SRC = Path(lrnn.__file__).resolve().parent.parent


def run_python(*args: str, cwd: Path) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``python -X importtime ARGS``; the result and the lrnn modules it imported.

    The import report is taken out of ``stderr``.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    imported = set()
    err_lines = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            imported.add(line.rsplit("|", 1)[1].strip())
        else:
            err_lines.append(line)
    proc.stderr = "\n".join(err_lines)
    return proc, {m for m in imported if m == "lrnn" or m.startswith("lrnn.")}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 30 x 4 CSV and a model trained on it in this process, with the train arguments."""
    tmp = tmp_path_factory.mktemp("entry")
    x = np.random.default_rng(0).random((30, 4))
    data = tmp / "data.csv"
    data.write_text("\n".join(",".join(f"{v:.10g}" for v in row) for row in x) + "\n")
    train = ["train", "--data", str(data), "--arch", "4,2", "--batch", "10", "--iters", "12"]
    assert main([*train, "--out", str(tmp / "m.lrnn")]) == EXIT_OK
    return tmp, data, tmp / "m.lrnn", train


class TestEntryPoint:
    def test_eval_prints_what_main_prints_and_loads_only_its_modules(self, trained, capsys):
        tmp, data, model, _ = trained
        args = ["eval", "--model", str(model), "--data", str(data)]
        proc, imported = run_python("-m", "lrnn", *args, cwd=tmp)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert main(args) == EXIT_OK
        assert proc.stdout == capsys.readouterr().out
        assert proc.stdout.startswith("reconstruction error: ")
        assert imported == {"lrnn", "lrnn.cli", "lrnn.data", "lrnn.model", "lrnn.model_io"}

    def test_train_writes_what_main_writes_without_the_simulator(self, trained):
        tmp, _, model, train = trained
        out = tmp / "entry.lrnn"
        proc, imported = run_python("-m", "lrnn", *train, "--out", str(out), cwd=tmp)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert out.read_bytes() == model.read_bytes()
        err = lrnn.dataset_error(lrnn.load_model(model), lrnn.load_dataset(trained[1]))
        assert proc.stdout.splitlines()[:2] == [
            f"final full-dataset error: {err:.17g}", "dead visible units: 0 of 4"]
        assert "lrnn.training" in imported
        assert not imported & {"lrnn.simulation", "lrnn.steady_state"}

    def test_simulate_prints_what_main_prints_without_the_trainer(self, trained, capsys):
        tmp, data, model, _ = trained
        args = ["simulate", "--model", str(model), "--data", str(data), "--events", "2000"]
        proc, imported = run_python("-m", "lrnn", *args, cwd=tmp)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert main(args) == EXIT_OK
        assert proc.stdout == capsys.readouterr().out
        assert proc.stdout.startswith("visual: max abs diff ")
        assert "lrnn.simulation" in imported
        assert not imported & {"lrnn.training", "lrnn.steady_state"}

    def test_usage_error_exits_1(self, trained):
        tmp, data, _, _ = trained
        proc, _ = run_python("-m", "lrnn", "train", "--data", str(data), cwd=tmp)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert "error: the following arguments are required: --arch, --out" in proc.stderr

    def test_data_error_exits_2(self, trained):
        tmp, data, _, _ = trained
        proc, _ = run_python("-m", "lrnn", "eval", "--model", "missing.lrnn", "--data", str(data),
                           cwd=tmp)
        assert proc.returncode == EXIT_DATA
        assert proc.stdout == ""
        assert proc.stderr.startswith("data error: ")

    def test_main_leaves_the_heap_unfrozen(self, trained, capsys):
        _, data, model, _ = trained
        assert main(["eval", "--model", str(model), "--data", str(data)]) == EXIT_OK
        assert gc.get_freeze_count() == 0


class TestImportGraph:
    def test_import_lrnn_loads_no_submodule(self, tmp_path):
        proc, imported = run_python("-c", "import lrnn", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert imported == {"lrnn"}

    def test_only_a_table_load_imports_hashlib(self, tmp_path, idx_file, trained):
        images = idx_file(np.zeros((2, 3, 3), dtype=np.uint8))
        code = "import sys, lrnn; lrnn.load_dataset(sys.argv[1]); print('hashlib' in sys.modules)"
        for path, hashed in ((images, "False"), (trained[1], "True")):
            proc, _ = run_python("-c", code, str(path), cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == hashed

    @pytest.mark.parametrize("name", lrnn.__all__)
    def test_name_is_bound_from_its_home_module(self, name):
        value = getattr(lrnn, name)
        assert value.__module__.startswith("lrnn.")
        assert getattr(sys.modules[value.__module__], name) is value
        assert vars(lrnn)[name] is value  # bound: later reads skip the lookup
        assert name in dir(lrnn)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            lrnn.nope  # noqa: B018
