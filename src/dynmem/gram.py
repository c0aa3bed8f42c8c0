"""Gram-matrix feature statistics and the gram distance between images.

For a tap layer with N feature maps of M = H*W elements each, the gram
matrix is G_ij = <f_i, f_j> / (N * M) over the vectorized maps. The distance
between two images sums, over tap layers, the mean squared difference of
their gram matrices (normalized by N^2 per layer).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import ShapeError


@dataclass
class GramSignature:
    """One gram matrix per tap layer, plus the model version it was computed under."""

    matrices: list
    model_version: int = 0

    def layer_sizes(self):
        return tuple(m.shape[0] for m in self.matrices)


def gram_matrix(feature_maps):
    """Gram matrix of one layer's feature maps (N, H, W) -> (N, N), float64."""
    f = np.asarray(feature_maps, dtype=np.float64)
    if f.ndim != 3:
        raise ShapeError(f"feature maps must be (N, H, W), got {f.shape}")
    n, h, w = f.shape
    flat = f.reshape(n, h * w)
    return flat @ flat.T / (n * h * w)


def gram_distance(a, b):
    """Summed per-layer normalized squared gram difference; >= 0, symmetric."""
    if a.layer_sizes() != b.layer_sizes():
        raise ShapeError(
            f"signatures have mismatched layer structure: {a.layer_sizes()} vs {b.layer_sizes()}"
        )
    total = 0.0
    for ga, gb in zip(a.matrices, b.matrices):
        n = ga.shape[0]
        diff = ga - gb
        total += float(np.sum(diff * diff)) / (n * n)
    return total


def signatures_from_taps(taps, model_version):
    """One signature per image from the tap list of a forward pass."""
    return [GramSignature([gram_matrix(t[i]) for t in taps], model_version)
            for i in range(taps[0].shape[0])]


def signatures(model, X):
    """Gram signatures for a batch of images from a single eval-mode forward pass."""
    _, taps = model.forward_with_taps(X, train=False)
    return signatures_from_taps(taps, model.version)


def signature(model, image):
    """Gram signature of one image under the model's current state."""
    return signatures(model, image[None] if image.ndim == 3 else image)[0]
