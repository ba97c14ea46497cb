"""Deterministic synthetic inputs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the
benchmark's ``--seed``, so one seed always yields byte-identical files.
No real dataset is needed: MNIST, CIFAR-10 and UCI tables are not
available offline, and the program only ever sees the generated files.

The low-rank structure of each set (image parts, table factors) is drawn
from the fixed ``STRUCTURE_SEED``; the seed draws the rows.  Different
seeds are thus samples of one distribution, and figures from runs with
different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
SIDE = 28

#: Seed of the structure shared by all runs of a workload.
STRUCTURE_SEED = 1609

#: Share of blank (all-zero) images, legal degenerate data.
BLANK_ROW_SHARE = 0.01


def mnist_like(rng: np.random.Generator, rows: int, parts: int = 24) -> np.ndarray:
    """Sparse, low-rank, MNIST-shaped uint8 images, ``rows`` x 784.

    Each image mixes a few of ``parts`` stroke-like Gaussian blobs with
    nonnegative gamma weights; faint pixels are cut to 0, so most pixels
    are exactly 0 as in MNIST.  About 1% of the rows are blank.
    """
    fixed = np.random.default_rng(STRUCTURE_SEED)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    basis = np.zeros((parts, SIDE * SIDE))
    for k in range(parts):
        img = np.zeros((SIDE, SIDE))
        for _ in range(3):
            cy, cx = fixed.uniform(6.0, 22.0, 2)
            sy, sx = fixed.uniform(1.0, 3.0, 2)
            img += np.exp(-((yy - cy) ** 2) / (2 * sy * sy) - ((xx - cx) ** 2) / (2 * sx * sx))
        basis[k] = img.ravel()
    weights = rng.gamma(1.5, 0.5, (rows, parts)) * (rng.random((rows, parts)) < 0.08)
    # Every image gets one strong part, so only the chosen rows are blank.
    weights[np.arange(rows), rng.integers(0, parts, rows)] += 1.0
    x = weights @ basis
    x[x < 0.3] = 0.0
    x = np.minimum(x, 1.0)
    blank = rng.choice(rows, size=max(1, round(rows * BLANK_ROW_SHARE)), replace=False)
    x[blank] = 0.0
    return np.round(x * 255.0).astype(np.uint8)


def write_idx(path: Path, pixels: np.ndarray) -> None:
    """Write uint8 images as a big-endian IDX3 file of 28x28 images."""
    header = struct.pack(">iiii", IDX_IMAGE_MAGIC, pixels.shape[0], SIDE, SIDE)
    path.write_bytes(header + np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def table(rng: np.random.Generator, rows: int, cols: int, rank: int = 8) -> np.ndarray:
    """A nonnegative low-rank-plus-noise numeric table, as a UCI set would be.

    Bounded draws keep each column's range, which ``lrnn`` normalizes
    away, about the same from seed to seed.
    """
    fixed = np.random.default_rng(STRUCTURE_SEED)
    factors = fixed.random((rank, cols)) * (fixed.random((rank, cols)) < 0.5)
    return rng.random((rows, rank)) @ factors + 0.1 * rng.random((rows, cols))


def write_csv(path: Path, x: np.ndarray) -> None:
    """Write a table as plain comma-separated values with 6 significant digits."""
    np.savetxt(path, x, fmt="%.6g", delimiter=",")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
