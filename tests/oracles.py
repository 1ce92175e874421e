"""Independent reference implementations used to check the library code:
voxel-grid volume IoU, scalar Sutherland-Hodgman polygon-clipping IoU, a
scalar box decoder, naive matrix multiplication, a per-detection PR-curve loop,
brute-force threshold-enumeration average precision, the KITTI difficulty rank
rule, per-pixel top-K local maxima, a whole-grid Gaussian heatmap and a
whole-grid oracle feature pyramid. Deliberately slow and simple.
"""

import math

import numpy as np

from kp3d import geometry, heatmap, litefpn, synth
from kp3d.geometry import DIM_CLAMP_MAX, DIM_CLAMP_MIN, DOWNSAMPLE, Box3D


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


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a polygon given as an (n, 2) vertex array, taken about
    its first vertex: about the camera origin, a 0.5 m box 50 m away loses
    about 1e-12 of its area to cancellation."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0] - poly[0, 0], poly[:, 1] - poly[0, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_convex(subject: np.ndarray, clip: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Sutherland-Hodgman clip of convex polygon `subject` by convex `clip`.

    Both polygons must be counter-clockwise. Returns the (possibly empty)
    intersection polygon.
    """
    output = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        if not output:
            break
        a = clip[i]
        b = clip[(i + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]
        inputs = output
        output = []
        sides = [ex * (p[1] - a[1]) - ey * (p[0] - a[0]) for p in inputs]
        for j, p in enumerate(inputs):
            q = inputs[(j + 1) % len(inputs)]
            sp, sq = sides[j], sides[(j + 1) % len(inputs)]
            inside_p = sp >= -eps
            inside_q = sq >= -eps
            if inside_p:
                output.append(p)
            if inside_p != inside_q:
                t = sp / (sp - sq)
                output.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return np.array(output) if output else np.empty((0, 2))


def clip_iou(a: Box3D, b: Box3D, criterion: str = "3d") -> float:
    """Rotated IoU of two boxes, one pair at a time, by polygon clipping."""
    inter = polygon_area(clip_convex(a.bev_corners(), b.bev_corners()))
    if criterion == "3d":
        (a_lo, a_hi), (b_lo, b_hi) = a.y_extent(), b.y_extent()
        inter *= max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))
        union = math.prod(a.dims) + math.prod(b.dims) - inter  # h * w * l each
    else:
        union = a.dims[1] * a.dims[2] + b.dims[1] * b.dims[2] - inter
    if union <= 0:
        return 1.0 if (a.center, a.dims, a.yaw) == (b.center, b.dims, b.yaw) else 0.0
    return min(max(inter / union, 0.0), 1.0)


def scalar_decode_box(tau, keypoint, cls, calib, stats) -> Box3D:
    """Decode one 8-tuple at a 1/4-grid keypoint with Python float arithmetic,
    clamping dimensions; raises ValueError on a non-positive depth or (through
    Box3D) a non-finite value."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (8,):
        raise ValueError(f"expected an 8-tuple of regression values, got shape {tau.shape}")
    dz, du, dv, dh, dw, dl, sin_a, cos_a = tau
    z = stats.depth_mean + dz * stats.depth_std
    if z <= 0:
        raise ValueError("non-positive decoded depth")
    u = DOWNSAMPLE * (keypoint[0] + du)
    v = DOWNSAMPLE * (keypoint[1] + dv)
    x, y, z = geometry.backproject(u, v, z, calib)
    dims = []
    for mean, log_ratio in zip(stats.dims_for(cls), (dh, dw, dl)):
        try:
            dim = mean * math.exp(log_ratio)
        except OverflowError:
            dim = DIM_CLAMP_MAX
        dims.append(min(max(dim, DIM_CLAMP_MIN), DIM_CLAMP_MAX))
    alpha = math.atan2(sin_a, cos_a)
    yaw = geometry.normalize_angle(alpha + math.atan2(x, z))
    return Box3D((x, y, z), tuple(dims), yaw)


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def loop_pr_curve(frames) -> list[tuple[float, float]]:
    """PR points, one per distinct score, by a sweep over the detections
    sorted by descending score (stable: TPs before FPs, in frame order)."""
    n_gt = sum(f.n_gt for f in frames)
    scored = [(s, True) for f in frames for s in f.tp_scores]
    scored += [(s, False) for f in frames for s in f.fp_scores]
    scored.sort(key=lambda x: -x[0])
    points = []
    tp = fp = 0
    for i, (score, is_tp) in enumerate(scored):
        if is_tp:
            tp += 1
        else:
            fp += 1
        if i + 1 < len(scored) and scored[i + 1][0] == score:
            continue
        points.append((tp / n_gt, tp / (tp + fp)))
    return points


def brute_force_ap_r11(tp_scores, fp_scores, n_gt: int) -> float:
    return brute_force_ap(tp_scores, fp_scores, n_gt, "r11")


def brute_force_ap(tp_scores, fp_scores, n_gt: int, mode: str) -> float:
    """R11 or R40 AP by enumerating every score threshold and explicitly
    maximizing precision over recall >= r."""
    scores = sorted(set(tp_scores) | set(fp_scores), reverse=True)
    points = []
    for thr in scores:
        tp = sum(1 for s in tp_scores if s >= thr)
        fp = sum(1 for s in fp_scores if s >= thr)
        if tp + fp:
            points.append((tp / n_gt, tp / (tp + fp)))
    recalls = [i / 10 for i in range(11)] if mode == "r11" else [i / 40 for i in range(1, 41)]
    total = 0.0
    for r in recalls:
        total += max((p for rec, p in points if rec >= r - 1e-12), default=0.0)
    return 100.0 * total / len(recalls)


# KITTI devkit strata, easiest first: (level, min 2D box height px, max
# occlusion, max truncation)
_STRATA = [("easy", 40.0, 0, 0.15), ("moderate", 25.0, 1, 0.30), ("hard", 25.0, 2, 0.50)]


def counts_at(level: str, bbox_height: float, occlusion: int, truncation: float) -> bool:
    """Whether a GT counts at `level` by the stratum rank rule: its stratum is
    the first level whose limits it meets, and it counts at that level and every
    later one. A GT that meets no level's limits is ignored at every level."""
    levels = [name for name, *_ in _STRATA]
    for rank, (_, min_height, max_occ, max_trunc) in enumerate(_STRATA):
        if bbox_height >= min_height and occlusion <= max_occ and truncation <= max_trunc:
            return rank <= levels.index(level)
    return False


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


def full_grid_heatmap(keypoints, shape) -> np.ndarray:
    """Ground-truth heatmap with every Gaussian evaluated over the whole grid:
    per class channel, the element-wise max over that class's Gaussians."""
    out = np.zeros((shape.classes, shape.height, shape.width))
    ys = np.arange(shape.height)[:, None]
    xs = np.arange(shape.width)[None, :]
    for kp in keypoints:
        u, v = kp.center
        g = np.exp(-((xs - u) ** 2 + (ys - v) ** 2) / (2.0 * kp.sigma**2))
        np.maximum(out[kp.cls], g, out=out[kp.cls])
    return out


def dense_oracle_pyramid(scene, model):
    """`synth.oracle_pyramid` with features computed at every cell of every
    level: the per-cell background and noise over whole grids, then the same
    keypoint solve on the noise-free coarse cells and the same scoring."""
    seed, d = scene.spec.seed, synth.R_TUPLE
    h4, w4 = (side // DOWNSAMPLE for side in synth.IMAGE_SIZE)
    shapes = [(h4 // (stride // 4), w4 // (stride // 4)) for stride in litefpn.STRIDES]
    cells = [tuple(a.ravel() for a in np.indices(shape)) for shape in shapes]
    background, noise = (
        [a.reshape(*shape, d) for a, shape in zip(synth._normals(seed, stream, cells), shapes)]
        for stream in (synth._BACKGROUND, synth._NOISE)
    )
    keypoints, taus, boxes = synth.encode_objects(scene)
    kps = [heatmap.Keypoint(cls=0, u=u, v=v, score=1.0) for u, v in keypoints]
    u, v = np.array(keypoints, dtype=np.intp).reshape(-1, 2).T
    head = model.head
    coarse = litefpn.gather_fuse(litefpn.FeaturePyramid(tuple(background)), kps)[:, d:]
    rhs = taus - head.bias - coarse @ head.weights[d:]
    solved = np.linalg.solve(head.weights[:d].T, rhs.T).T
    levels = [bg + model.feature_noise * n for bg, n in zip(background, noise)]
    levels[0][v, u] = solved + model.feature_noise * noise[0][v, u]
    pyramid = litefpn.FeaturePyramid(tuple(levels))
    specs = [
        heatmap.GaussianSpec(center=kp, sigma=synth._splat_sigma(box), cls=0)
        for kp, (box, _) in zip(keypoints, boxes)
    ]
    pred_hm = heatmap.encode_heatmap(specs, heatmap.HeatmapShape(h4, w4, 1))
    if model.feature_noise > 0:
        err = np.abs(litefpn.regress(litefpn.gather_fuse(pyramid, kps), head) - taus).sum(axis=1)
        pred_hm[0, v, u] = np.clip(1.0 - err, 0.0, 1.0)
    return pred_hm, pyramid
