"""Small seeded MNIST-like data for the training tests.

The images are square, sparse and low-rank, as MNIST digits are: each
mixes a few blob-shaped parts drawn well inside the frame, and faint pixels
are cut to exactly 0.  So the border pixels, and some inner ones, are 0 in
every image: visible units the multiplicative rules kill in the first
minibatch, which is what puts training on its live-unit path.
"""

from __future__ import annotations

import numpy as np


def mnist_like(seed: int, rows: int, side: int = 8, parts: int = 6) -> np.ndarray:
    """``rows`` x ``side * side`` uint8 pixels, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side]
    basis = np.empty((parts, side * side))
    for k in range(parts):
        cy, cx = rng.uniform(2.0, side - 3.0, 2)
        sy, sx = rng.uniform(0.6, 1.4, 2)
        basis[k] = np.exp(-((yy - cy) ** 2) / (2 * sy * sy) - ((xx - cx) ** 2) / (2 * sx * sx)).ravel()
    weights = rng.gamma(1.5, 0.5, (rows, parts)) * (rng.random((rows, parts)) < 0.3)
    weights[np.arange(rows), rng.integers(0, parts, rows)] += 1.0  # no blank image
    x = weights @ basis
    x[x < 0.3] = 0.0
    return np.round(np.minimum(x, 1.0) * 255.0).astype(np.uint8)


def disjoint_halves(seed: int, batch: int, side: int = 8) -> np.ndarray:
    """Two ``batch``-row blocks of :func:`mnist_like` images, the first with
    its left half blanked and the second with its right half: every pixel is
    0 throughout one of two minibatches of ``batch`` rows, so training in
    that order kills every visible unit."""
    x = mnist_like(seed, 2 * batch, side).reshape(2 * batch, side, side)
    x[:batch, :, : side // 2] = 0
    x[batch:, :, side // 2 :] = 0
    return x.reshape(2 * batch, side * side)


def cifar_like(seed: int, rows: int) -> np.ndarray:
    """``rows`` x 3072 uint8 pixels of 32 x 32 colour images, laid out as a
    CIFAR-10 record holds them (1024 R, then G, then B), deterministic in
    ``seed``: a few small coloured blobs on black.  They are dark because a
    3072 -> 150 model gives back at most 150 in brightness summed over an
    image: each hidden unit's excitation is at most 1 and its decode row sums
    to at most 1."""
    rng = np.random.default_rng(seed)
    parts = 6
    yy, xx = np.mgrid[0:32, 0:32]
    basis = np.empty((parts, 1024))
    for k in range(parts):
        cy, cx = rng.uniform(4.0, 27.0, 2)
        s = rng.uniform(1.5, 3.0)
        basis[k] = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s)).ravel()
    colour = rng.random((parts, 3))
    weights = rng.gamma(1.5, 0.5, (rows, parts)) * (rng.random((rows, parts)) < 0.5)
    x = np.einsum("rp,pc,pi->rci", weights, colour, basis)
    return np.round(np.minimum(x, 1.0) * 255.0).astype(np.uint8).reshape(rows, 3 * 1024)
