"""Sparse multi-scale regression: map candidate keypoint indices across pyramid
levels, gather features into a K x 3D embedding, and apply a shared linear head.

Feature grids are (H, W, D) arrays; the pyramid holds three of them at strides
4, 8 and 16 relative to the input image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heatmap import Keypoint

STRIDES = (4, 8, 16)


@dataclass(frozen=True)
class FeaturePyramid:
    """Three feature grids at 1/4, 1/8 and 1/16 of the input resolution."""

    levels: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        f4, f8, f16 = self.levels
        if not (f4.ndim == f8.ndim == f16.ndim == 3):
            raise ValueError("each level must be an (H, W, D) array")
        d = f4.shape[2]
        if f8.shape[2] != d or f16.shape[2] != d:
            raise ValueError("all levels must share the channel count")
        if f8.shape[:2] != (f4.shape[0] // 2, f4.shape[1] // 2):
            raise ValueError("1/8 level shape must be floor(1/4 shape / 2)")
        if f16.shape[:2] != (f4.shape[0] // 4, f4.shape[1] // 4):
            raise ValueError("1/16 level shape must be floor(1/4 shape / 4)")


@dataclass(frozen=True)
class RegressionHead:
    """Linear map applied per keypoint: a 1x1 convolution on K points."""

    weights: np.ndarray  # (in_features, R)
    bias: np.ndarray  # (R,)

    def __post_init__(self):
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ValueError("weights must be (in, R) with a matching R-vector bias")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("head parameters must be finite")


def _take(grid: np.ndarray, uv: np.ndarray, what: str) -> np.ndarray:
    """Rows grid[v, u] for a (2, K) index array, raising IndexError on any index
    outside the grid instead of letting negative indices wrap."""
    (u, v), (h, w) = uv, grid.shape[:2]
    try:
        np.ravel_multi_index((v, u), (h, w))  # bounds check only, done in C
    except ValueError:
        i = np.flatnonzero((u < 0) | (u >= w) | (v < 0) | (v >= h))[0]
        raise IndexError(f"{what} ({u[i]}, {v[i]}) out of bounds") from None
    return grid[v, u]


def _keypoint_uv(keypoints: list[Keypoint]) -> np.ndarray:
    """(2, K) integer array: keypoint u in row 0, v in row 1, on the 1/4 grid."""
    return np.array([[kp.u for kp in keypoints], [kp.v for kp in keypoints]], dtype=np.intp)


def gather_fuse(pyramid: FeaturePyramid, keypoints: list[Keypoint]) -> np.ndarray:
    """Concatenate per-keypoint features from the three levels, finest first.

    A 1/4-grid index (u, v) reads (u // 2, v // 2) at 1/8 and (u // 4, v // 4)
    at 1/16. Returns a (K, 3D) embedding; row order follows the keypoint order.
    """
    uv = _keypoint_uv(keypoints)
    blocks = [
        _take(level, uv // (stride // 4), f"stride-{stride} index")
        for level, stride in zip(pyramid.levels, STRIDES)
    ]
    return np.concatenate(blocks, axis=1, dtype=float)


def regress(embedding: np.ndarray, head: RegressionHead) -> np.ndarray:
    """Apply the shared linear head: row i -> embedding_i @ W + b."""
    if embedding.ndim != 2 or embedding.shape[1] != head.weights.shape[0]:
        raise ValueError(
            f"embedding has {embedding.shape[1] if embedding.ndim == 2 else '?'} columns, "
            f"head expects {head.weights.shape[0]}"
        )
    return embedding @ head.weights + head.bias


def dense_regress_then_gather(
    features: np.ndarray, head: RegressionHead, keypoints: list[Keypoint]
) -> np.ndarray:
    """Baseline path: apply the head at every pixel of a single-scale (H, W, D)
    grid, then sample the keypoint pixels. Equals gather-then-regress exactly."""
    h, w, d = features.shape
    if d != head.weights.shape[0]:
        raise ValueError(f"feature channels {d} do not match head input {head.weights.shape[0]}")
    dense = features.reshape(h * w, d) @ head.weights + head.bias
    return _take(dense.reshape(h, w, -1), _keypoint_uv(keypoints), "keypoint")
