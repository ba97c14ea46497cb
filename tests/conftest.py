"""Shared fixtures: synthetic container files, CSV exports of bundled
datasets with a manifest, discovery of locally provided image datasets,
and a cache of parsed tables that is never the user's own."""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def local_data_dir() -> Path:
    """Directory searched for user-provided dataset files (MNIST, CIFAR-10)."""
    return Path(os.environ.get("LRNN_DATA_DIR", REPO_ROOT / "data"))


def require_file(name: str) -> Path:
    path = local_data_dir() / name
    if not path.exists():
        pytest.skip(
            f"dataset file {name} not found under {local_data_dir()} "
            "(set LRNN_DATA_DIR or place the file there)"
        )
    return path


@pytest.fixture(scope="session", autouse=True)
def _session_table_cache(tmp_path_factory):
    """Point ``XDG_CACHE_HOME`` at a session directory before any module fixture loads a table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(autouse=True)
def table_cache(tmp_path_factory, monkeypatch) -> Path:
    """A fresh ``XDG_CACHE_HOME`` for each test, inherited by its subprocesses: every test
    starts with no parsed table cached.  Returns the directory lrnn caches tables in."""
    root = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "lrnn"


MNIST_TRAIN_NAMES = ("train-images-idx3-ubyte", "train-images.idx3-ubyte")


def find_mnist_train() -> Path | None:
    for name in MNIST_TRAIN_NAMES:
        path = local_data_dir() / name
        if path.exists():
            return path
    return None


def require_mnist_train() -> Path:
    path = find_mnist_train()
    if path is None:
        pytest.skip(
            f"MNIST training images (one of {', '.join(MNIST_TRAIN_NAMES)}) not found "
            f"under {local_data_dir()}; set LRNN_DATA_DIR or place the unzipped file there"
        )
    return path


def find_cifar_batches() -> list[Path]:
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
    for root in (local_data_dir(), local_data_dir() / "cifar-10-batches-bin"):
        paths = [root / n for n in names]
        if all(p.exists() for p in paths):
            return paths
    return []


def require_cifar_batches() -> list[Path]:
    paths = find_cifar_batches()
    if not paths:
        pytest.skip(
            f"CIFAR-10 binary batches not found under {local_data_dir()} "
            "(expected data_batch_1..5.bin and test_batch.bin, optionally inside "
            "cifar-10-batches-bin/)"
        )
    return paths


def make_idx_bytes(images: np.ndarray) -> bytes:
    """Serialize a (n, rows, cols) uint8 array as an IDX3 image file."""
    n, rows, cols = images.shape
    return struct.pack(">iiii", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()


def make_cifar_bytes(labels: np.ndarray, pixels: np.ndarray) -> bytes:
    """Serialize labels (n,) and pixels (n, 3072), both uint8, as a CIFAR-10 batch."""
    records = np.concatenate([labels.reshape(-1, 1), pixels], axis=1).astype(np.uint8)
    return records.tobytes()


@pytest.fixture
def idx_file(tmp_path):
    def build(images: np.ndarray, name: str = "images.idx") -> Path:
        path = tmp_path / name
        path.write_bytes(make_idx_bytes(images))
        return path

    return build


@pytest.fixture
def cifar_file(tmp_path):
    def build(labels, pixels, name: str = "batch.bin") -> Path:
        path = tmp_path / name
        path.write_bytes(make_cifar_bytes(np.asarray(labels), np.asarray(pixels)))
        return path

    return build


#: Manifest entries used by the smoke suite: real datasets bundled with
#: scikit-learn, written out as CSV files.  iris, wine, breast_cancer and
#: digits originate from the UCI repository.
BUNDLED_DATASETS = ("iris", "wine", "breast_cancer", "digits", "diabetes", "linnerud")


@pytest.fixture(scope="session")
def dataset_manifest(tmp_path_factory) -> Path:
    """Write the bundled datasets as CSVs plus a manifest; return the manifest path."""
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    root = tmp_path_factory.mktemp("uci")
    entries: dict[str, dict] = {}
    for name in BUNDLED_DATASETS:
        bunch = getattr(sklearn_datasets, f"load_{name}")()
        x = np.asarray(bunch.data, dtype=float)
        csv_path = root / f"{name}.csv"
        label_column = None
        if name == "iris":
            # exercise the label-column and header paths
            y = np.asarray(bunch.target).reshape(-1, 1)
            table = np.concatenate([x, y], axis=1)
            header = ",".join([f"a{i}" for i in range(x.shape[1])] + ["label"])
            lines = [header] + [",".join(f"{v:.10g}" for v in row) for row in table]
            label_column = x.shape[1]
            has_header = True
        else:
            lines = [",".join(f"{v:.10g}" for v in row) for row in x]
            has_header = False
        csv_path.write_text("\n".join(lines) + "\n")
        entries[name] = {
            "path": csv_path.name,
            "format": "csv",
            "delimiter": ",",
            "header": has_header,
            "label_column": label_column,
        }
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2))
    return manifest
