"""Synthetic scenes and an oracle feature backbone.

Stands in for a trained network at desk scale: scenes are generated
deterministically from a seed, and pyramid features are constructed so that the
planted regression head recovers every object's encoded parameters exactly when
feature noise is zero. This lets the whole encode -> gather -> regress ->
decode -> evaluate chain be exercised end to end with controllable error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import evaluation, geometry, heatmap, litefpn
from .evaluation import Detection, GroundTruth
from .geometry import DOWNSAMPLE, Box3D, CameraCalib, DecodeStats
from .heatmap import GaussianSpec, HeatmapShape, Keypoint
from .litefpn import FeaturePyramid, RegressionHead

R_TUPLE = 8
_MAX_RESAMPLE = 1000

# The one synthetic camera: a KITTI-like 1280x384 image, f = 700 px, principal
# point at the image center. Keypoints sit on its 1/4-resolution grid.
IMAGE_SIZE = (384, 1280)  # (height, width) px
_H, _W = IMAGE_SIZE
CALIB = CameraCalib(
    np.array([[700.0, 0.0, _W / 2, 0.0], [0.0, 700.0, _H / 2, 0.0], [0.0, 0.0, 1.0, 0.0]])
)
CALIB.projection.setflags(write=False)  # shared by every scene
_HEATMAP_SHAPE = HeatmapShape(height=_H // DOWNSAMPLE, width=_W // DOWNSAMPLE, classes=1)

# object placement: uniform center ranges (m; camera y is down) and a relative
# jitter of each dimension around the mean car
_DEPTH_RANGE = (8.0, 55.0)
_LATERAL_RANGE = (-18.0, 18.0)
_HEIGHT_RANGE = (0.5, 1.8)
_DIMS_JITTER = 0.15
_STATS = DecodeStats()


@dataclass(frozen=True)
class SceneSpec:
    seed: int = 0
    n_objects: int = 5

    def __post_init__(self):
        if self.n_objects < 0:
            raise ValueError("n_objects must be non-negative")


@dataclass(frozen=True)
class Scene:
    objects: tuple[tuple[Box3D, str], ...]
    spec: SceneSpec
    calib: ClassVar[CameraCalib] = CALIB


def _planted_head() -> RegressionHead:
    """A fixed random head whose fine-level block has full column rank, so the
    feature construction can always solve for exactness."""
    rng = np.random.default_rng(7)
    weights = rng.normal(size=(3 * R_TUPLE, R_TUPLE)) / math.sqrt(R_TUPLE)
    bias = rng.normal(size=R_TUPLE) * 0.1
    for a in (weights, bias):
        a.setflags(write=False)  # one head, shared by every OracleModel
    return RegressionHead(weights=weights, bias=bias)


@dataclass(frozen=True)
class OracleModel:
    """Feature noise over a fixed pyramid and the planted readout head.

    Features are pseudorandom at every cell the head reads except the
    fine-level cell under each keypoint, which is solved so gather_fuse
    followed by `head` reproduces the object's encoded parameters exactly at
    zero feature noise. The predicted heatmap degrades keypoint scores with the
    local regression error (score = clamp(1 - |tau error|_1, 0, 1)).
    """

    feature_noise: float = 0.0
    head: ClassVar[RegressionHead] = _planted_head()
    stats: ClassVar[DecodeStats] = _STATS

    def __post_init__(self):
        if not (math.isfinite(self.feature_noise) and self.feature_noise >= 0):
            raise ValueError(f"feature_noise must be finite and >= 0, got {self.feature_noise!r}")


def generate_scene(spec: SceneSpec) -> Scene:
    """Deterministically sample boxes whose projected centers land inside the
    image on distinct quarter-resolution keypoints."""
    rng = np.random.default_rng(spec.seed)
    mean = _STATS.dims_for("Car")
    used = set()
    objects = []
    for _ in range(spec.n_objects):
        for attempt in range(_MAX_RESAMPLE):
            z = rng.uniform(*_DEPTH_RANGE)
            x = rng.uniform(*_LATERAL_RANGE)
            y = rng.uniform(*_HEIGHT_RANGE)
            dims = tuple(m * (1.0 + _DIMS_JITTER * rng.uniform(-1, 1)) for m in mean)
            yaw = rng.uniform(-math.pi, math.pi)
            box = Box3D((x, y, z), dims, yaw)
            u, v = geometry.project_to_image(box.center, CALIB)
            if not (0 <= u < _W and 0 <= v < _H):
                continue
            kp = (math.floor(u / DOWNSAMPLE), math.floor(v / DOWNSAMPLE))
            if kp in used:
                continue
            used.add(kp)
            objects.append((box, "Car"))
            break
        else:
            raise RuntimeError("could not place object inside the image after 1000 resamples")
    return Scene(objects=tuple(objects), spec=spec)


def _splat_sigma(box: Box3D) -> float:
    """Gaussian stddev from the object's approximate projected size."""
    h_px = CALIB.f_v * box.dims[0] / box.center[2] / DOWNSAMPLE
    w_px = CALIB.f_u * box.dims[1] / box.center[2] / DOWNSAMPLE
    radius = heatmap.gaussian_radius(max(h_px, 1e-3), max(w_px, 1e-3))
    return heatmap.sigma_from_radius(max(radius, 0.0))


def encode_objects(scene: Scene):
    """Encode every object; on a quarter-grid keypoint collision the nearer
    object wins and a warning is recorded. Returns (keypoints, taus, boxes)."""
    by_kp = {}
    for box, cls in scene.objects:
        kp, tau = geometry.encode_box(box, cls, CALIB, _STATS)
        if kp in by_kp:
            warnings.warn(f"keypoint collision at {kp}; keeping nearer object")
            if by_kp[kp][2].center[2] <= box.center[2]:
                continue
        by_kp[kp] = (kp, tau, box, cls)
    entries = sorted(by_kp.values(), key=lambda e: (e[0][1], e[0][0]))
    keypoints = [e[0] for e in entries]
    taus = np.array([e[1] for e in entries]).reshape(len(entries), R_TUPLE)
    boxes = [(e[2], e[3]) for e in entries]
    return keypoints, taus, boxes


def _keypoint_index(keypoints):
    """The (u, v) cells as `Keypoint`s for `gather_fuse`, plus their u and v index arrays."""
    u, v = np.array(keypoints, dtype=np.intp).reshape(-1, 2).T
    return [Keypoint(cls=0, u=a, v=b, score=1.0) for a, b in keypoints], u, v


# feature streams: SeedSequence([stream, seed]) keys each one. The stream goes
# first because SeedSequence pads its entropy with zero words: as [seed, stream],
# seed 0's noise stream would be seed 2**32's background stream
_BACKGROUND, _NOISE = 0, 1
# splitmix64: its n-th output from key k is _mix(k + n * _GAMMA)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's output function, in place on a uint64 array (wrapping)."""
    x ^= x >> np.uint64(30)
    x *= _MIX[0]
    x ^= x >> np.uint64(27)
    x *= _MIX[1]
    x ^= x >> np.uint64(31)
    return x


def _level_cells(u: np.ndarray, v: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (v, u) cell that `gather_fuse` reads at each level for 1/4-grid cells (u, v)."""
    return [(v // (stride // 4), u // (stride // 4)) for stride in litefpn.STRIDES]


def _normals(seed: int, stream: int, cells) -> list[np.ndarray]:
    """Standard normals at each level's cells: for level i, an (n_i, R_TUPLE)
    array with one row per (v, u) pair in cells[i].

    Each value is a pure function of (seed, stream, level, v, u, channel): it
    takes splitmix64 outputs 2c + 1 and 2c + 2 from the stream's key, where c
    packs (level, v, u, channel) into one counter (v and u below 2**20), as two
    uniforms, then Box-Muller. So a cell reads the same bits whatever else is
    drawn with it, and in whatever order."""
    key = np.random.SeedSequence([stream, seed]).generate_state(1, np.uint64)
    cell = np.concatenate([
        (np.uint64(level) << np.uint64(48)) | (v.astype(np.uint64) << np.uint64(28))
        | (u.astype(np.uint64) << np.uint64(8))
        for level, (v, u) in enumerate(cells)
    ])
    counter = cell[:, None] | np.arange(R_TUPLE, dtype=np.uint64)
    n = (counter[..., None] << np.uint64(1)) + np.array([1, 2], dtype=np.uint64)
    bits = _mix(key + n * _GAMMA) >> np.uint64(11)  # 53 bits each
    u1 = (bits[..., 0] + 1.0) * 2.0**-53  # in (0, 1], so the log is finite
    u2 = bits[..., 1] * 2.0**-53
    values = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    return np.split(values, np.cumsum([len(v) for v, _ in cells])[:-1])


def _assign(pyramid: FeaturePyramid, seed: int, cells, blocks, feature_noise: float):
    """Give each level's cells their final features: the level's block plus
    feature_noise times the noise stream. An assignment, not an increment, so
    a coarse cell written twice keeps one value."""
    if feature_noise > 0:
        noise = _normals(seed, _NOISE, cells)
        blocks = [block + feature_noise * n for block, n in zip(blocks, noise)]
    for level, (v, u), block in zip(pyramid.levels, cells, blocks):
        level[v, u] = block


def oracle_pyramid(scene: Scene, model: OracleModel):
    """Build (predicted heatmap, feature pyramid) for a scene.

    Features are computed only at the cells the head reads; every other cell
    of the three levels is zero. Here those are the keypoints' cells:
    background at 1/8 and 1/16, and at 1/4 the cell solved so the planted head
    reads the object's exact encoded parameters; feature noise is then layered
    on all three. `run_pipeline` fills its other top-K candidates' cells.
    """
    shape = _HEATMAP_SHAPE
    d = R_TUPLE
    seed = scene.spec.seed
    pyramid = FeaturePyramid(levels=tuple(
        np.zeros((shape.height // (stride // 4), shape.width // (stride // 4), d))
        for stride in litefpn.STRIDES
    ))

    keypoints, taus, boxes = encode_objects(scene)
    kp_objs, u, v = _keypoint_index(keypoints)
    # every keypoint's 1/4 cell x in one solve, W4 being 8 x 8 and full rank:
    # x @ W4 = tau - b - [f8 f16] @ [W8; W16], on the noise-free coarse cells
    head = model.head
    cells = _level_cells(u, v)
    blocks = _normals(seed, _BACKGROUND, cells)
    rhs = taus - head.bias - np.concatenate(blocks[1:], axis=1) @ head.weights[d:]
    blocks[0] = np.linalg.solve(head.weights[:d].T, rhs.T).T
    _assign(pyramid, seed, cells, blocks, model.feature_noise)

    specs = [
        GaussianSpec(center=kp, sigma=_splat_sigma(box), cls=0)
        for kp, (box, _) in zip(keypoints, boxes)
    ]
    pred_hm = heatmap.encode_heatmap(specs, shape)
    if model.feature_noise == 0:
        return pred_hm, pyramid  # nothing degrades the scores
    err = np.abs(litefpn.regress(litefpn.gather_fuse(pyramid, kp_objs), head) - taus).sum(axis=1)
    pred_hm[0, v, u] = np.clip(1.0 - err, 0.0, 1.0)
    return pred_hm, pyramid


def run_pipeline(
    scene: Scene,
    model: OracleModel,
    k: int = 100,
    criterion: str = "3d",
    threshold: float = 0.7,
    mode: str = "r11",
    regress_head: RegressionHead | None = None,
):
    """Full head-side pipeline on one scene: top-K keypoint proposal, sparse
    multi-scale regression, box decode, KITTI-style evaluation.

    Features are always planted for `model.head`; `regress_head` (e.g. one from
    toy_train) may replace it for the regression step. Returns (detections,
    evaluation report dict).
    """
    head = regress_head if regress_head is not None else model.head
    pred_hm, pyramid = oracle_pyramid(scene, model)
    candidates = heatmap.topk(pred_hm, k)
    uv = [(kp.u, kp.v) for kp in candidates]
    # fill the candidates that are not keypoints: their 1/4 cells are still all
    # zero, while a solved keypoint cell, which must stay as it is, is zero in
    # all channels only where the solve returns exactly 0 (probability 0)
    u, v = np.array(uv, dtype=np.intp).reshape(-1, 2).T
    new = ~pyramid.levels[0][v, u].any(axis=1)
    cells = _level_cells(u[new], v[new])
    background = _normals(scene.spec.seed, _BACKGROUND, cells)
    _assign(pyramid, scene.spec.seed, cells, background, model.feature_noise)
    taus = litefpn.regress(litefpn.gather_fuse(pyramid, candidates), head)
    rows, ok = geometry.decode_rows(taus, uv, "Car", CALIB, model.stats)
    dets = [
        Detection(Box3D(tuple(r[:3]), tuple(r[3:6]), r[6]), "Car", candidates[i].score)
        for i, r in zip(np.flatnonzero(ok).tolist(), rows[ok].tolist())
    ]
    gts = [GroundTruth(box=box, cls=cls) for box, cls in scene.objects]
    report = evaluation.evaluate(
        {0: dets}, {0: gts}, cls="Car",
        difficulty=evaluation.Difficulty.HARD,
        criterion=criterion, threshold=threshold, mode=mode,
    )
    return dets, report


def training_data(scenes: list[Scene], model: OracleModel):
    """Gather per-keypoint (embedding, target, gt box, keypoint, score) rows
    from every scene, in scene order."""
    embeddings, targets, boxes, kps, scores = [], [], [], [], []
    for scene in scenes:
        pred_hm, pyramid = oracle_pyramid(scene, model)
        keypoints, taus, kept = encode_objects(scene)
        kp_objs, u, v = _keypoint_index(keypoints)
        embeddings.append(litefpn.gather_fuse(pyramid, kp_objs))
        targets.append(taus)
        boxes.extend(b for b, _ in kept)
        kps.extend(keypoints)
        scores.append(pred_hm[0, v, u])
        del pred_hm, pyramid  # free this scene's grids before the next is built
    if not kps:
        raise ValueError("no training keypoints")
    return (
        np.concatenate(embeddings),
        np.concatenate(targets),
        boxes,
        kps,
        np.concatenate(scores),
    )


def toy_train(
    scenes: list[Scene],
    model: OracleModel,
    loss: str = "l1",
    epochs: int = 200,
    attention_params=None,
):
    """Fit a fresh regression head by full-batch subgradient descent from zero.

    Only the linear head is trained; features stay fixed. Descent runs in an
    SVD-whitened parameterization of the embedding (a fixed linear
    preconditioner, computed once) with a Polyak step (loss over squared
    gradient norm); on the zero-noise interpolation problem this converges
    linearly.

    Returns (learned RegressionHead, loss trace).
    """
    from . import losses

    if loss not in ("l1", "attention"):
        raise ValueError("loss must be 'l1' or 'attention'")
    if attention_params is None:
        attention_params = losses.AttentionParams()
    emb, targets, gt_boxes, kps, scores = training_data(scenes, model)
    n, d3 = emb.shape
    design = np.concatenate([emb, np.ones((n, 1))], axis=1)  # bias column last
    # descend in SVD-whitened coordinates: pred = U w_white, a fixed linear
    # preconditioner that leaves the objective itself unchanged
    u_mat, sing, vt = np.linalg.svd(design, full_matrices=False)
    keep = sing > sing[0] * 1e-12
    u_mat, sing, vt = u_mat[:, keep], sing[keep], vt[keep]
    w = np.zeros((sing.size, R_TUPLE))
    gt_rows = geometry.box_array(gt_boxes)
    trace = []
    for _ in range(epochs):
        pred = u_mat @ w
        if loss == "attention":
            rows, ok = geometry.decode_rows(pred, kps, "Car", CALIB, model.stats)
            ious = np.zeros(n)  # an undecodable prediction keeps IoU 0
            ious[ok] = geometry.rotated_iou(rows[ok], gt_rows[ok], "3d")
            batch = losses.LossBatch(pred, targets, scores=scores, ious=ious)
            weights = losses.attention_weights(batch, attention_params)
        else:
            batch = losses.LossBatch(pred, targets)
            weights = np.ones(n)
        value, grad = losses.attention_loss(batch, weights)
        trace.append(value)
        if value > 1e6:
            raise RuntimeError("training diverged: loss above 1e6")
        gw = u_mat.T @ grad
        norm_sq = float((gw**2).sum())
        if norm_sq == 0.0:
            break  # at a planted optimum
        w -= value / norm_sq * gw
    full = vt.T @ (w / sing[:, None])
    return RegressionHead(weights=full[:-1], bias=full[-1]), trace
