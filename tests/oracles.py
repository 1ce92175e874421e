"""Independent reference implementations used to check the library code:
voxel-grid volume IoU, naive matrix multiplication, brute-force
threshold-enumeration average precision and per-pixel top-K local maxima.
Deliberately slow and simple.
"""

import numpy as np

from kp3d.geometry import Box3D


def point_in_box(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Boolean mask: which (n, 3) camera-frame points fall inside the box."""
    cx, cy, cz = box.center
    h, w, l = box.dims
    dx = points[:, 0] - cx
    dy = points[:, 1] - cy
    dz = points[:, 2] - cz
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    # rotate into the box frame (inverse of the corner rotation)
    local_l = dx * c - dz * s
    local_w = dx * s + dz * c
    return (
        (np.abs(local_l) <= l / 2) & (np.abs(local_w) <= w / 2) & (np.abs(dy) <= h / 2)
    )


def voxel_iou_3d(a: Box3D, b: Box3D, resolution: int = 200) -> float:
    """Volume IoU by counting voxel centers on a grid over the union's
    bounding volume."""
    corners = np.concatenate([a.bev_corners(), b.bev_corners()])
    ys = [*a.y_extent(), *b.y_extent()]
    lo = np.array([corners[:, 0].min(), min(ys), corners[:, 1].min()])
    hi = np.array([corners[:, 0].max(), max(ys), corners[:, 1].max()])
    axes = [np.linspace(lo[i], hi[i], resolution, endpoint=False) + (hi[i] - lo[i]) / (2 * resolution) for i in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    in_a = point_in_box(pts, a)
    in_b = point_in_box(pts, b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def sample_iou_bev(a: Box3D, b: Box3D, resolution: int = 400) -> float:
    """BEV IoU by area sampling in the x-z plane."""
    corners = np.concatenate([a.bev_corners(), b.bev_corners()])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    xs = np.linspace(lo[0], hi[0], resolution, endpoint=False) + (hi[0] - lo[0]) / (2 * resolution)
    zs = np.linspace(lo[1], hi[1], resolution, endpoint=False) + (hi[1] - lo[1]) / (2 * resolution)
    gx, gz = np.meshgrid(xs, zs, indexing="ij")
    pts = np.stack([gx.ravel(), np.zeros(gx.size), gz.ravel()], axis=1)
    tall_a = Box3D((a.center[0], 0.0, a.center[2]), (1000.0, a.dims[1], a.dims[2]), a.yaw)
    tall_b = Box3D((b.center[0], 0.0, b.center[2]), (1000.0, b.dims[1], b.dims[2]), b.yaw)
    in_a = point_in_box(pts, tall_a)
    in_b = point_in_box(pts, tall_b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def brute_force_ap_r11(tp_scores, fp_scores, n_gt: int) -> float:
    """R11 AP by enumerating every score threshold and explicitly maximizing
    precision over recall >= r."""
    scores = sorted(set(tp_scores) | set(fp_scores), reverse=True)
    points = []
    for thr in scores:
        tp = sum(1 for s in tp_scores if s >= thr)
        fp = sum(1 for s in fp_scores if s >= thr)
        if tp + fp:
            points.append((tp / n_gt, tp / (tp + fp)))
    total = 0.0
    for r in [i / 10 for i in range(11)]:
        total += max((p for rec, p in points if rec >= r - 1e-12), default=0.0)
    return 100.0 * total / 11.0


def brute_force_topk(heatmap: np.ndarray, k: int) -> list[tuple[int, int, int, float]]:
    """(cls, u, v, score) of the k best pixels that are >= every in-grid pixel
    of their 3x3 same-channel window, by descending score then flat index."""
    c, h, w = heatmap.shape
    found = []
    for cls in range(c):
        for v in range(h):
            for u in range(w):
                window = heatmap[cls, max(v - 1, 0) : v + 2, max(u - 1, 0) : u + 2]
                if heatmap[cls, v, u] >= window.max():
                    found.append((-heatmap[cls, v, u], (cls * h + v) * w + u, cls, u, v))
    found.sort()
    return [(cls, u, v, float(-neg)) for neg, _, cls, u, v in found[:k]]
