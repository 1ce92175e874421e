"""Oriented 3D boxes in camera coordinates, projection, box encoding/decoding,
and rotated-box IoU (bird's-eye view and full 3D).

`decode_rows` decodes K regression rows into (K, 7) box rows and a mask of the
usable ones, always clamping dimensions; `decode_box` is its one-row form. IoU
is one batched numpy kernel, `rotated_iou`, over (..., 7) box rows
(`box_array`): by Green's theorem, the overlap area of two rotated rectangles
is a sum over the part of each one's edges, built from two half-axis vectors
per box, that lies inside the other. Every tolerance is relative to the edge
lengths, so an IoU does not depend on the unit of length; equal rows score
exactly 1 and boxes that only touch exactly 0. Broadcasting gives a detection x
ground-truth matrix in one call; `iou_3d`, `iou_bev` and
`bev_intersection_area` are its one-pair forms.

Camera frame follows the KITTI convention: x right, y down, z forward.
Yaw is the rotation about the vertical (y) axis, stored normalized to (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Decoded dimensions are clamped to this range before any IoU computation so a
# wild exp() in the dimension decode cannot produce degenerate geometry.
DIM_CLAMP_MIN = 0.1
DIM_CLAMP_MAX = 40.0

# Keypoints live on the 1/4-resolution heatmap grid: pixel u is keypoint u // 4.
DOWNSAMPLE = 4

# edges whose angle has a smaller sine are parallel: rounding alone leaves
# about 2e-14 on edges that are parallel by construction
_PARALLEL_SIN = 1e-12
# a parallel edge nearer to the other edge's line than this fraction of its
# own length lies on that line
_ON_EDGE = 1e-9


def normalize_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(angle + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center (x, y, z) m, dims (h, w, l) m, yaw rad."""

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (*self.center, *self.dims, self.yaw)):
            raise ValueError(
                f"box center, dims and yaw must be finite, "
                f"got {self.center}, {self.dims}, {self.yaw}"
            )
        h, w, l = self.dims
        if h <= 0 or w <= 0 or l <= 0:
            raise ValueError(f"box dimensions must be positive, got {self.dims}")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))

    def bev_corners(self) -> np.ndarray:
        """4x2 corners (x, z) of the rotated rectangle in the ground plane,
        counter-clockwise. Length l runs along the heading direction."""
        cx, _, cz = self.center
        _, w, l = self.dims
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        local = np.array(
            [[l / 2, w / 2], [-l / 2, w / 2], [-l / 2, -w / 2], [l / 2, -w / 2]]
        )
        x = cx + local[:, 0] * c + local[:, 1] * s
        z = cz - local[:, 0] * s + local[:, 1] * c
        return np.stack([x, z], axis=1)

    def y_extent(self) -> tuple[float, float]:
        """Vertical span (y_min, y_max); y points down so min is the box top."""
        cy = self.center[1]
        h = self.dims[0]
        return cy - h / 2, cy + h / 2

    def translated(self, offset: tuple[float, float, float]) -> "Box3D":
        cx, cy, cz = self.center
        ox, oy, oz = offset
        return Box3D((cx + ox, cy + oy, cz + oz), self.dims, self.yaw)


@dataclass(frozen=True)
class CameraCalib:
    """Pinhole camera described by a 3x4 projection matrix (KITTI P2 semantics)."""

    projection: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.projection, dtype=float)
        if p.shape != (3, 4):
            raise ValueError(f"projection must be 3x4, got {p.shape}")
        if not np.allclose(p[2, :3], [0.0, 0.0, 1.0]):
            raise ValueError("bottom row of the intrinsic part must be (0, 0, 1)")
        if p[0, 0] <= 0 or p[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        object.__setattr__(self, "projection", p)

    @property
    def f_u(self) -> float:
        return self.projection[0, 0]

    @property
    def f_v(self) -> float:
        return self.projection[1, 1]


class DecodeStats:
    """Standardization constants used by the box encode/decode pair.

    Depth is standardized as z = depth_mean + dz * depth_std; dimensions are
    log-ratios against per-class mean dimensions. The values are the common
    KITTI car statistics; none of this is normative, only self-consistent.
    """

    depth_mean = 28.01
    depth_std = 16.32
    mean_dims = {"Car": (1.63, 1.53, 3.88)}

    def dims_for(self, cls: str) -> tuple[float, float, float]:
        try:
            return self.mean_dims[cls]
        except KeyError:
            raise KeyError(f"no mean dimensions configured for class {cls!r}")


def project_to_image(point, calib: CameraCalib) -> tuple[float, float]:
    """Project a camera-frame 3D point to pixel coordinates."""
    x, y, z = point
    if z <= 0:
        raise ValueError("point behind camera")
    p = calib.projection
    hom = p @ np.array([x, y, z, 1.0])
    return hom[0] / hom[2], hom[1] / hom[2]


def backproject(u: float, v: float, z: float, calib: CameraCalib):
    """Invert project_to_image for a pixel at known camera depth z."""
    p = calib.projection
    w = z + p[2, 3]
    x = (u * w - p[0, 2] * z - p[0, 3]) / p[0, 0]
    y = (v * w - p[1, 2] * z - p[1, 3]) / p[1, 1]
    return x, y, z


def encode_box(box: Box3D, cls: str, calib: CameraCalib, stats: DecodeStats):
    """Encode a box as (keypoint on the 1/4 grid, 8-tuple of regression values).

    Tuple layout: (dz, du, dv, dh, dw, dl, sin_alpha, cos_alpha).
    """
    x, y, z = box.center
    u, v = project_to_image(box.center, calib)
    ku, kv = math.floor(u / DOWNSAMPLE), math.floor(v / DOWNSAMPLE)
    du, dv = u / DOWNSAMPLE - ku, v / DOWNSAMPLE - kv
    dz = (z - stats.depth_mean) / stats.depth_std
    mean = stats.dims_for(cls)
    dh, dw, dl = (math.log(d / m) for d, m in zip(box.dims, mean))
    alpha = normalize_angle(box.yaw - math.atan2(x, z))
    tau = np.array([dz, du, dv, dh, dw, dl, math.sin(alpha), math.cos(alpha)])
    return (ku, kv), tau


# math's exp and atan2, element by element: numpy's differ in the last bit
_exp = np.frompyfunc(math.exp, 1, 1)
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def decode_rows(taus, uv, cls: str, calib: CameraCalib, stats: DecodeStats):
    """Decode (K, 8) regression rows at (K, 2) 1/4-grid keypoints (u, v).

    Returns (rows, ok): (K, 7) box rows (x, y, z, h, w, l, yaw) as `box_array`
    lays them out, and the (K,) mask of usable rows: not those with a depth <= 0
    or any non-finite value. Dimensions are clamped to [DIM_CLAMP_MIN,
    DIM_CLAMP_MAX]; an exp overflow clamps to the maximum."""
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 2 or taus.shape[1] != 8:
        raise ValueError(f"expected (K, 8) regression rows, got shape {taus.shape}")
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    dz, du, dv, _, _, _, sin_a, cos_a = taus.T
    with np.errstate(all="ignore"):
        z = stats.depth_mean + dz * stats.depth_std
        x, y, z = backproject(DOWNSAMPLE * (uv[:, 0] + du), DOWNSAMPLE * (uv[:, 1] + dv), z, calib)
        # exp overflows past 709.78, and any log-ratio past 709 clamps to the maximum
        dims = np.array(stats.dims_for(cls)) * _exp(np.minimum(taus[:, 3:6], 709.0)).astype(float)
        dims = np.clip(dims, DIM_CLAMP_MIN, DIM_CLAMP_MAX)
        # normalize_angle, step by step over the array
        yaw = np.fmod((_atan2(sin_a, cos_a) + _atan2(x, z)).astype(float) + math.pi, 2.0 * math.pi)
        yaw = np.where(yaw <= 0.0, yaw + 2.0 * math.pi, yaw) - math.pi
        rows = np.column_stack([x, y, z, dims, yaw])
    return rows, (z > 0) & np.isfinite(rows).all(axis=1)


def decode_box(
    tau,
    keypoint: tuple[int, int],
    cls: str,
    calib: CameraCalib,
    stats: DecodeStats,
    clamp_dims: bool = True,
) -> Box3D:
    """Decode an 8-tuple of regression values at a 1/4-grid keypoint to a Box3D,
    as the one-row form of `decode_rows`: a row it rejects raises ValueError."""
    if not clamp_dims:
        raise ValueError("decoded dimensions are always clamped; clamp_dims=False is not supported")
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (8,):
        raise ValueError(f"expected an 8-tuple of regression values, got shape {tau.shape}")
    rows, _ = decode_rows(tau[None], [keypoint], cls, calib, stats)
    x, y, z, h, w, l, yaw = rows[0].tolist()
    if z <= 0:
        raise ValueError("non-positive decoded depth")
    return Box3D((x, y, z), (h, w, l), yaw)  # a non-finite row raises here


def box_array(boxes) -> np.ndarray:
    """Stack boxes into an (N, 7) float array of (x, y, z, h, w, l, yaw) rows."""
    return np.array([(*b.center, *b.dims, b.yaw) for b in boxes], dtype=float).reshape(-1, 7)


def _overlap_area(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BEV intersection area of aligned (M, 7) row pairs, by Green's theorem:
    the overlap's boundary is the part of each box's edges inside the other
    box, so each edge p + t d, clipped by the other box's four half-planes to
    [t0, t1] within t in [0, 1], adds (t1 - t0) (p x d) / 2. A span no longer
    than _PARALLEL_SIN is empty, so boxes that only touch add exactly nothing.
    An edge on an edge of the other box counts only if it is a's and the two
    run the same way, so a shared edge counts once. A box is its center,
    relative to a's, and half-axis vectors hl = l/2 (cos, -sin) along the
    heading and hw = w/2 (sin, cos) across it: its corners are center +
    [hl + hw, hw - hl, -hl - hw, hl - hw], counter-clockwise as in
    `Box3D.bev_corners`, and its edges [-2 hl, -2 hw, 2 hl, 2 hw]."""
    rows = np.stack([a, b], axis=1)  # (M, 2, 7): a's row, then b's
    cos, sin = np.cos(rows[..., 6:7]), np.sin(rows[..., 6:7])
    hl = 0.5 * rows[..., 5:6] * np.concatenate([cos, -sin], axis=-1)
    hw = 0.5 * rows[..., 4:5] * np.concatenate([sin, cos], axis=-1)
    center = rows[..., 0:3:2] - a[:, None, 0:3:2]  # (x, z), relative to a's
    p = center[:, :, None] + np.stack([hl + hw, hw - hl, -hl - hw, hl - hw], axis=2)
    d = np.stack([-2.0 * hl, -2.0 * hw, 2.0 * hl, 2.0 * hw], axis=2)
    # edge i of a is p_ai + t r_i, edge j of b is p_bj + u s_j
    r, s = d[:, 0, :, None], d[:, 1, None]
    qp = p[:, 1, None] - p[:, 0, :, None]
    den = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    # edge i of a is inside edge j of b where side_a - t den >= 0, and
    # edge j of b is inside edge i of a where u den - side_b >= 0
    side_a = qp[..., 0] * s[..., 1] - qp[..., 1] * s[..., 0]
    side_b = qp[..., 0] * r[..., 1] - qp[..., 1] * r[..., 0]
    # edge lengths are l, w, l, w; both tolerances scale with them
    lengths = rows[..., [5, 4, 5, 4]]
    scale = lengths[:, 0, :, None] * lengths[:, 1, None]
    parallel = np.abs(den) <= _PARALLEL_SIN * scale
    on_edge = _ON_EDGE * scale
    # a parallel edge is inside the other edge's half-plane as a whole or not at
    # all; on that edge, only a's edge counts, and only if the two run the same way
    same_way = (r * s).sum(axis=-1) > 0
    in_a = ~parallel | (side_a > np.where(same_way, -on_edge, on_edge))
    in_b = ~parallel | (-side_b > on_edge)
    # den > 0 bounds t from above and u from below; den < 0 the other way round
    pos, neg = ~parallel & (den > 0), ~parallel & (den < 0)
    den = np.where(parallel, 1.0, den)
    t, u = side_a / den, side_b / den
    # an edge outside a parallel half-plane ends where it starts: t1 = in_a = 0
    t0, t1 = np.where(neg, t, 0.0).max(axis=2), np.where(pos, t, in_a).min(axis=2)
    u0, u1 = np.where(pos, u, 0.0).max(axis=1), np.where(neg, u, in_b).min(axis=1)
    spans = np.stack([t1 - t0, u1 - u0], axis=1)
    spans = np.where(spans > _PARALLEL_SIN, spans, 0.0)
    twice = (spans * (p[..., 0] * d[..., 1] - p[..., 1] * d[..., 0])).reshape(-1, 8).sum(axis=1)
    return np.maximum(0.5 * twice, 0.0)


def _bev_overlap(a: np.ndarray, b: np.ndarray, live=True) -> np.ndarray:
    """BEV intersection area of aligned (M, 7) row pairs. Pairs not `live`, or
    whose bounding circles in the ground plane do not overlap, are exactly 0.0
    and skip the edge clipping."""
    # centers too far apart overflow to inf, which the comparison rejects as it should
    with np.errstate(over="ignore"):
        reach = 0.5 * (np.hypot(a[:, 4], a[:, 5]) + np.hypot(b[:, 4], b[:, 5]))
        dx, dz = a[:, 0] - b[:, 0], a[:, 2] - b[:, 2]
        near = dx * dx + dz * dz < reach * reach
    rows = np.flatnonzero(live & near)
    area = np.zeros(len(a))
    if rows.size:
        area[rows] = _overlap_area(a[rows], b[rows])
    return area


def rotated_iou(a, b, criterion: str = "3d") -> np.ndarray:
    """IoU of box rows `a` and `b`, (..., 7) arrays of (x, y, z, h, w, l, yaw)
    broadcast against each other: `a[:, None]` against `b[None]` gives the
    D x G matrix, two (N, 7) arrays the N aligned pairs.

    `criterion` is "bev" (rotated footprint in the x-z plane) or "3d"
    (footprint overlap times vertical overlap). Equal rows score exactly 1.0.
    Boxes that only touch score exactly 0.0, as does any other pair with zero
    union, which takes two boxes of zero size.
    """
    if criterion not in ("3d", "bev"):
        raise ValueError(f"criterion must be '3d' or 'bev', got {criterion!r}")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if a.shape[-1:] != (7,):
        raise ValueError(f"box rows must have 7 columns, got shape {a.shape}")
    shape = a.shape[:-1]
    a, b = a.reshape(-1, 7), b.reshape(-1, 7)
    if criterion == "3d":
        y_overlap = np.minimum(a[:, 1] + a[:, 3] / 2, b[:, 1] + b[:, 3] / 2) - np.maximum(
            a[:, 1] - a[:, 3] / 2, b[:, 1] - b[:, 3] / 2
        )
        inter = _bev_overlap(a, b, y_overlap > 0) * np.maximum(y_overlap, 0.0)
        union = a[:, 3] * a[:, 4] * a[:, 5] + b[:, 3] * b[:, 4] * b[:, 5] - inter
    else:
        inter = _bev_overlap(a, b)
        union = a[:, 4] * a[:, 5] + b[:, 4] * b[:, 5] - inter
    iou = np.clip(np.divide(inter, union, out=np.zeros_like(union), where=union > 0), 0.0, 1.0)
    # equal rows share their x, so only those pairs need a whole-row comparison
    same_x = np.flatnonzero(a[:, 0] == b[:, 0])
    iou[same_x[(a[same_x] == b[same_x]).all(axis=1)]] = 1.0
    return iou.reshape(shape)


def bev_intersection_area(a: Box3D, b: Box3D) -> float:
    """Overlap area of the two box footprints in the x-z plane."""
    return float(_bev_overlap(box_array([a]), box_array([b]))[0])


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Intersection over union of the rotated box footprints in the x-z plane."""
    return float(rotated_iou(box_array([a]), box_array([b]), "bev")[0])


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU: BEV footprint overlap times vertical overlap."""
    return float(rotated_iou(box_array([a]), box_array([b]), "3d")[0])
