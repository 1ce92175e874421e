"""KITTI-protocol evaluation: difficulty limits, greedy score-ordered
detection/ground-truth matching over one rotated-box IoU matrix per frame, and
interpolated average precision at 11 or 40 recall points over a cumulative PR curve.

Matching runs on per-frame rows, (D, 7) detections with scores against (G, 7)
ground truths with ignored flags; `evaluate` is where `Detection` and
`GroundTruth` objects become those rows, one `box_array` per side per frame.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import Box3D


class Difficulty(enum.Enum):
    EASY = "easy"
    MODERATE = "moderate"
    HARD = "hard"


# KITTI devkit strata: (min 2D box height px, max occlusion, max truncation).
# They nest, so a GT that counts at one level counts at every harder one.
_DIFFICULTY_LIMITS = {
    Difficulty.EASY: (40.0, 0, 0.15),
    Difficulty.MODERATE: (25.0, 1, 0.30),
    Difficulty.HARD: (25.0, 2, 0.50),
}


class EmptyStratumError(ValueError):
    """No ground truth of the evaluated class counts at the evaluated
    difficulty, so recall, and with it AP, is undefined."""


@dataclass(frozen=True)
class Detection:
    box: Box3D
    cls: str
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class GroundTruth:
    box: Box3D
    cls: str
    bbox_height: float = 100.0
    occlusion: int = 0
    truncation: float = 0.0

    def __post_init__(self):
        if self.bbox_height < 0:
            raise ValueError(f"bbox_height must be non-negative, got {self.bbox_height}")
        if not 0.0 <= self.truncation <= 1.0:
            raise ValueError(f"truncation must be in [0, 1], got {self.truncation}")


@dataclass
class FrameMatches:
    """Match outcome for one frame: per-detection scores of TPs and FPs (dets
    matched to ignored GTs are dropped), and the count of valid GTs."""

    tp_scores: list[float] = field(default_factory=list)
    fp_scores: list[float] = field(default_factory=list)
    n_gt: int = 0


def match_frame(
    det_rows, det_scores, gt_rows, ignored, criterion: str, threshold: float
) -> FrameMatches:
    """Greedy one-to-one matching for a single frame and class.

    Detection rows (D, 7) go in descending score (ties: lower row first); each
    claims the highest-IoU free GT row (G, 7) with IoU >= threshold (ties: lower
    GT index). GTs flagged `ignored` never count as missed, and a detection
    that finds no free GT but reaches an ignored one is dropped rather than
    counted as a false positive. The D x G IoU matrix is computed once up front.
    """
    ignored = np.asarray(ignored, dtype=bool)
    if ignored.shape != (len(gt_rows),):
        raise ValueError("ignored flags must align with gt rows")
    iou = geometry.rotated_iou(np.asarray(det_rows)[:, None], np.asarray(gt_rows)[None], criterion)
    reach = iou >= threshold  # a NaN IoU reaches nothing
    hit = reach.any(axis=1).tolist()
    scores = np.asarray(det_scores, dtype=float)
    order = np.argsort(-scores, kind="stable")
    free = ~ignored
    result = FrameMatches(n_gt=int(free.sum()))
    for di, score in zip(order.tolist(), scores[order].tolist()):
        if not hit[di]:
            result.fp_scores.append(score)
            continue
        row = np.where(free & reach[di], iou[di], -1.0)
        best = int(row.argmax())  # the first of equal IoUs: the lower GT index
        if row[best] >= 0.0:
            free[best] = False
            result.tp_scores.append(score)
        elif not (reach[di] & ignored).any():
            result.fp_scores.append(score)
    return result


def pr_curve(frames: list[FrameMatches]) -> list[tuple[float, float]]:
    """Exact precision/recall points, one per distinct detection score.

    Scores sweep from high to low, counting TPs cumulatively; every distinct
    score is a threshold, so the curve is exact rather than subsampled.
    """
    n_gt = sum(f.n_gt for f in frames)
    if n_gt == 0:
        raise EmptyStratumError("empty stratum")
    tp_scores = [s for f in frames for s in f.tp_scores]
    scores = np.array(tp_scores + [s for f in frames for s in f.fp_scores], dtype=float)
    order = np.argsort(-scores, kind="stable")
    tp = np.cumsum(order < len(tp_scores))
    # a point at the last detection of each score; scores are never below 0
    last = np.diff(scores[order], append=-1.0) != 0.0
    tp, seen = tp[last], np.flatnonzero(last) + 1
    return list(zip((tp / n_gt).tolist(), (tp / seen).tolist()))


def _interpolated_ap(points: list[tuple[float, float]], mode: str) -> float:
    """Interpolated AP in percent: p(r) = max precision at recall >= r,
    averaged over 11 recall points including 0 (r11) or 40 excluding 0 (r40)."""
    if mode == "r11":
        recalls = np.linspace(0.0, 1.0, 11)
    elif mode == "r40":
        recalls = np.arange(1, 41) / 40.0
    else:
        raise ValueError(f"mode must be 'r11' or 'r40', got {mode!r}")
    recall, precision = np.array(points, dtype=float).reshape(-1, 2).T
    # recall never falls along the curve, so p(r) is the best precision from
    # the first point at r - 1e-12 on, and 0.0 past the last point
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    p_at = best[np.searchsorted(recall, recalls - 1e-12)]
    # a running sum, value after value: np.sum adds pairwise
    return 100.0 * float(np.cumsum(p_at)[-1]) / len(recalls)


def average_precision(frames: list[FrameMatches], mode: str = "r11") -> float:
    """Interpolated AP in percent of the frames' PR curve."""
    return _interpolated_ap(pr_curve(frames), mode)


def evaluate(
    det_frames: dict[int, list[Detection]],
    gt_frames: dict[int, list[GroundTruth]],
    cls: str = "Car",
    difficulty: Difficulty = Difficulty.MODERATE,
    criterion: str = "3d",
    threshold: float = 0.7,
    mode: str = "r11",
) -> dict:
    """Full evaluation over frames; returns the report as a plain dict. Each
    frame's objects of class `cls` become box rows once; the PR curve is built once.
    A GT outside the evaluated level's limits is ignored, as in the KITTI devkit
    (a NaN box height is outside every level's)."""
    min_height, max_occ, max_trunc = _DIFFICULTY_LIMITS[difficulty]
    frames = []
    for frame_id in sorted(gt_frames):
        gts = [g for g in gt_frames[frame_id] if g.cls == cls]
        dets = [d for d in det_frames.get(frame_id, []) if d.cls == cls]
        ignored = [
            not (g.bbox_height >= min_height and g.occlusion <= max_occ and g.truncation <= max_trunc)
            for g in gts
        ]
        frames.append(match_frame(
            geometry.box_array([d.box for d in dets]), [d.score for d in dets],
            geometry.box_array([g.box for g in gts]), ignored, criterion, threshold,
        ))
    points = pr_curve(frames)
    return {
        "class": cls,
        "difficulty": difficulty.value,
        "criterion": criterion,
        "iou_threshold": threshold,
        "mode": mode,
        "ap": _interpolated_ap(points, mode),
        "pr_curve": [list(p) for p in points],
    }
