"""Keypoint heatmaps: Gaussian ground-truth splatting and top-K extraction.

Heatmaps are (C, H, W) float arrays on the quarter-resolution grid, values in
[0, 1]. Pixel indices are (u, v) = (column, row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HeatmapShape:
    height: int
    width: int
    classes: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.classes < 1:
            raise ValueError("heatmap shape fields must be positive")


@dataclass(frozen=True)
class GaussianSpec:
    """One splat: integer center (u, v) on the grid, stddev in pixels, class id."""

    center: tuple[int, int]
    sigma: float
    cls: int

    def __post_init__(self):
        if not self.sigma > 0:  # NaN too
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class Keypoint:
    cls: int
    u: int
    v: int
    score: float


_MIN_OVERLAP = 0.7  # CenterNet's overlap for the splat radius


def gaussian_radius(box_height: float, box_width: float) -> float:
    """Splat radius guaranteeing at least 0.7 IoU between a box and any box
    whose corners are shifted by the radius: the minimum over the three
    corner-displacement quadratics."""
    if box_height <= 0 or box_width <= 0:
        raise ValueError("box size must be positive")
    h, w = box_height, box_width

    a1 = 1.0
    b1 = h + w
    c1 = w * h * (1 - _MIN_OVERLAP) / (1 + _MIN_OVERLAP)
    r1 = (b1 - math.sqrt(b1 * b1 - 4 * a1 * c1)) / (2 * a1)

    a2 = 4.0
    b2 = 2 * (h + w)
    c2 = (1 - _MIN_OVERLAP) * w * h
    r2 = (b2 - math.sqrt(b2 * b2 - 4 * a2 * c2)) / (2 * a2)

    a3 = 4.0 * _MIN_OVERLAP
    b3 = -2.0 * _MIN_OVERLAP * (h + w)
    c3 = (_MIN_OVERLAP - 1) * w * h
    r3 = (b3 + math.sqrt(b3 * b3 - 4 * a3 * c3)) / (2 * a3)

    return min(r1, r2, r3)


def sigma_from_radius(radius: float) -> float:
    return (2 * math.floor(radius) + 1) / 6.0


# exp(-x) is exactly 0.0 for x >= 745.14, so a Gaussian term vanishes where
# d^2 / (2 sigma^2) >= 746, that is beyond sigma * sqrt(2 * 746) pixels
_UNDERFLOW_REACH = math.sqrt(2 * 746)


def encode_heatmap(keypoints: list[GaussianSpec], shape: HeatmapShape) -> np.ndarray:
    """Build the ground-truth heatmap: per class channel, the element-wise max
    over all Gaussians of that class. Exactly 1 at every keypoint center.

    Each Gaussian is evaluated only inside the square of radius
    r = ceil(sigma * sqrt(2 * 746)) + 1 around its center, clipped to the grid.
    This is exact, not an approximation: every cell outside the square has
    d^2 >= (r + 1)^2 > 2 * 746 * sigma^2, where exp underflows to exactly 0.0
    and the max leaves the cell as it is. The result is byte-identical to
    evaluating every Gaussian over the whole grid."""
    out = np.zeros((shape.classes, shape.height, shape.width))
    for kp in keypoints:
        u, v = kp.center
        if not (0 <= u < shape.width and 0 <= v < shape.height):
            raise ValueError(f"keypoint {kp.center} outside {shape.width}x{shape.height} grid")
        if not 0 <= kp.cls < shape.classes:
            raise ValueError(f"class {kp.cls} out of range")
        # no wider than the grid, so that a huge sigma still gives an integer
        r = math.ceil(min(kp.sigma * _UNDERFLOW_REACH, shape.height + shape.width)) + 1
        v0, v1 = max(v - r, 0), min(v + r + 1, shape.height)
        u0, u1 = max(u - r, 0), min(u + r + 1, shape.width)
        ys = np.arange(v0, v1)[:, None]
        xs = np.arange(u0, u1)[None, :]
        g = np.exp(-((xs - u) ** 2 + (ys - v) ** 2) / (2.0 * kp.sigma**2))
        window = out[kp.cls, v0:v1, u0:u1]
        np.maximum(window, g, out=window)
    return out


def _local_maxima(heatmap: np.ndarray) -> np.ndarray:
    """(C, H, W) mask of pixels >= all 8 same-channel neighbors; neighbors
    outside the grid are ignored. The shifts update one buffer in place: a
    padded copy plus temporaries made run_pipeline page-fault on every scene."""
    _, h, w = heatmap.shape
    neighborhood = np.full_like(heatmap, -np.inf)
    for dv in (-1, 0, 1):
        for du in (-1, 0, 1):
            if dv or du:  # pixels (v, u) whose neighbor (v + dv, u + du) is on the grid
                dst = neighborhood[:, max(-dv, 0) : h - max(dv, 0), max(-du, 0) : w - max(du, 0)]
                src = heatmap[:, max(dv, 0) : h - max(-dv, 0), max(du, 0) : w - max(-du, 0)]
                np.maximum(dst, src, out=dst)
    return heatmap >= neighborhood


def topk(heatmap: np.ndarray, k: int) -> list[Keypoint]:
    """Top-K scoring 3x3 local maxima across all channels, descending score.

    Ties break on the lower flat index c*H*W + v*W + u for determinism. Returns
    fewer than K entries when fewer local maxima exist.
    """
    if k < 1:
        return []
    flat_idx = np.flatnonzero(_local_maxima(heatmap))  # ascending
    scores = heatmap.ravel()[flat_idx]
    order = np.argsort(-scores, kind="stable")[:k]  # stable: ties keep index order
    cls, v, u = np.unravel_index(flat_idx[order], heatmap.shape)
    rows = zip(cls.tolist(), u.tolist(), v.tolist(), scores[order].tolist())
    return [Keypoint(cls=c, u=x, v=y, score=s) for c, x, y, s in rows]
