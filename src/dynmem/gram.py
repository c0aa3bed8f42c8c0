"""Gram-matrix feature statistics and the gram distance between images.

For a tap layer with N feature maps of M = H*W elements each, the gram
matrix is G_ij = <f_i, f_j> / (N * M) over the vectorized maps. The distance
between two images sums, over tap layers, the mean squared difference of
their gram matrices (normalized by N^2 per layer).

An image's signature is a list with one (N, N) float64 gram matrix per tap
layer; the signatures of K images are one (K, N, N) stack per tap layer.
"""
from __future__ import annotations

import numpy as np

from .validation import ShapeError


def gram_matrix(feature_maps):
    """Gram matrix of one layer's feature maps (..., N, H, W) -> (..., N, N),
    float64; leading axes are batch axes."""
    f = np.asarray(feature_maps, dtype=np.float64)
    if f.ndim < 3:
        raise ShapeError(f"feature maps must be (..., N, H, W), got {f.shape}")
    *lead, n, h, w = f.shape
    flat = f.reshape(*lead, n, h * w)
    return flat @ np.swapaxes(flat, -1, -2) / (n * h * w)


def gram_distance(a, b):
    """Summed per-layer normalized squared gram difference; >= 0, symmetric.

    `a` is one signature; `b` is one signature (one distance) or per-tap
    (K, N, N) stacks (K distances)."""
    sizes_a, sizes_b = [x.shape[-1] for x in a], [y.shape[-1] for y in b]
    if sizes_a != sizes_b:
        raise ShapeError(f"signatures have mismatched layer structure: {sizes_a} vs {sizes_b}")
    total = 0.0
    for x, y in zip(a, b):
        n = x.shape[-1]
        total = total + np.sum((y - x) ** 2, axis=(-2, -1)) / (n * n)
    return total


def signatures(model, X):
    """Gram signatures of a batch of images, one (B, N, N) stack per tap,
    from a single eval-mode forward pass that keeps no backward caches."""
    _, taps = model.infer_with_taps(X)
    return [gram_matrix(t) for t in taps]
