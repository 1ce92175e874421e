"""Parsers and serializers for KITTI object labels and train/val split lists,
plus directory-level dataset loading.

Label lines are 15 whitespace-separated fields (ground truth) or 16 (detections
carrying a trailing score). All numeric parsing is locale-independent.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from pathlib import Path

from .evaluation import Detection, GroundTruth
from .geometry import Box3D, normalize_angle

_FIELD_NAMES = [
    "type", "truncated", "occluded", "alpha",
    "bbox_left", "bbox_top", "bbox_right", "bbox_bottom",
    "height", "width", "length", "x", "y", "z", "rotation_y", "score",
]

# the label dimension range (m): a product of three lengths in [1e-100, 1e100]
# stays a normal float (between 2.2e-308 and 1.8e308), so box areas, volumes and
# IoUs keep full precision and stay finite, and a finite y - h / 2 cannot overflow
_MIN_DIM, _MAX_DIM = 1e-100, 1e100
# the largest location coordinate, in units of the box's smallest dimension:
# y - h / 2 and y + h / 2 each round by up to |y| * 2^-53, so within the ratio
# the height they span is off by at most 2.2e-10 of itself and a box's 3D IoU
# with itself stays within 1e-9 of 1. At y = 1e16 m and h = 1.5 m both round
# to one value and the IoU reads 0.
_MAX_LOCATION_RATIO = 1e6

TRAIN_SPLIT_SIZE = 3712
VAL_SPLIT_SIZE = 3769


class KittiFormatError(ValueError):
    pass


@dataclass(frozen=True)
class KittiLabel:
    """One object annotation in the KITTI label format.

    `location` is the bottom-center of the box in the camera frame; dimensions
    are (h, w, l). DontCare rows keep their -1 sentinels verbatim.
    """

    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox: tuple[float, float, float, float]  # left, top, right, bottom
    dimensions: tuple[float, float, float]  # h, w, l
    location: tuple[float, float, float]  # x, y, z (bottom-center)
    rotation_y: float
    score: float | None = None

    @property
    def bbox_height(self) -> float:
        return self.bbox[3] - self.bbox[1]

    def to_box3d(self) -> Box3D:
        """Convert to a center-based Box3D; camera y points down, so the center
        sits h/2 above (smaller y than) the bottom-center location."""
        h, w, l = self.dimensions
        for name, value in zip(("height", "width", "length"), self.dimensions):
            if not _MIN_DIM <= value <= _MAX_DIM:
                raise KittiFormatError(
                    f"field {name!r} must be in [{_MIN_DIM:g}, {_MAX_DIM:g}], got {value}"
                )
        x, y, z = self.location
        limit = _MAX_LOCATION_RATIO * min(self.dimensions)
        if max(abs(x), abs(y), abs(z)) > limit:
            raise KittiFormatError(
                f"field 'location' {self.location} must lie within {limit:g} of the origin"
                f" ({_MAX_LOCATION_RATIO:g} times the smallest dimension)"
            )
        return Box3D((x, y - h / 2, z), (h, w, l), self.rotation_y)

    def to_ground_truth(self) -> GroundTruth:
        box = self.to_box3d()
        try:
            return GroundTruth(
                box=box,
                cls=self.type,
                bbox_height=self.bbox_height,
                occlusion=self.occluded,
                truncation=self.truncated,
            )
        except ValueError as e:  # a truncation outside [0, 1] or a negative box height
            raise KittiFormatError(str(e)) from None

    def to_detection(self) -> Detection:
        if self.score is None:
            raise KittiFormatError("label has no score field; not a detection")
        if not 0.0 <= self.score <= 1.0:
            raise KittiFormatError(f"field 'score' must be in [0, 1], got {self.score}")
        return Detection(box=self.to_box3d(), cls=self.type, score=self.score)


def parse_label_line(line: str, lineno: int | None = None) -> KittiLabel:
    where = f" at line {lineno}" if lineno is not None else ""
    fields = line.split()
    if len(fields) not in (15, 16):
        raise KittiFormatError(f"expected 15 or 16 fields, got {len(fields)}{where}")
    values = [fields[0]]
    for name, raw in zip(_FIELD_NAMES[1:], fields[1:]):
        try:
            values.append(float(raw))
        except ValueError:
            raise KittiFormatError(f"non-numeric value {raw!r} for field {name!r}{where}")
        if not math.isfinite(values[-1]):  # KITTI's sentinels (-1, -10, -1000) are finite
            raise KittiFormatError(f"non-finite value {raw!r} for field {name!r}{where}")
    if not values[2].is_integer():
        raise KittiFormatError(f"non-integer value {fields[2]!r} for field 'occluded'{where}")
    return KittiLabel(
        type=values[0],
        truncated=values[1],
        occluded=int(values[2]),
        alpha=values[3],
        bbox=(values[4], values[5], values[6], values[7]),
        dimensions=(values[8], values[9], values[10]),
        location=(values[11], values[12], values[13]),
        rotation_y=values[14],
        score=values[15] if len(values) == 16 else None,
    )


def parse_label_file(text: str) -> list[KittiLabel]:
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            labels.append(parse_label_line(line, lineno))
    return labels


def serialize_label(label: KittiLabel) -> str:
    """Emit one label line; geometry fields use 2-decimal fixed formatting,
    score (when present) uses 6 decimals."""
    parts = [
        label.type,
        f"{label.truncated:.2f}",
        str(label.occluded),
        f"{label.alpha:.2f}",
        *(f"{v:.2f}" for v in label.bbox),
        *(f"{v:.2f}" for v in label.dimensions),
        *(f"{v:.2f}" for v in label.location),
        f"{label.rotation_y:.2f}",
    ]
    if label.score is not None:
        parts.append(f"{label.score:.6f}")
    return " ".join(parts)


def box_label(box: Box3D, cls: str, score: float | None = None) -> KittiLabel:
    """The KITTI label of a center-based box: a ground-truth label, or a
    detection label when `score` is given.

    The 2D bbox is not part of the 3D pipeline and is written as a zero box;
    alpha is yaw - atan2(x, z), wrapped to KITTI's (-pi, pi].
    """
    x, cy, z = box.center
    h, w, l = box.dims
    return KittiLabel(
        type=cls,
        truncated=0.0,
        occluded=0,
        alpha=normalize_angle(box.yaw - math.atan2(x, z)),
        bbox=(0.0, 0.0, 0.0, 0.0),
        dimensions=(h, w, l),
        location=(x, cy + h / 2, z),
        rotation_y=box.yaw,
        score=score,
    )


def serialize_detection(det: Detection) -> str:
    """Serialize a Detection in the 16-field KITTI detection format."""
    return serialize_label(box_label(det.box, det.cls, det.score))


def load_label_dir(path: str | Path) -> dict[int, list[KittiLabel]]:
    """Load every NNNNNN.txt label file (UTF-8 text) in a directory, keyed and
    sorted by frame id."""
    path = Path(path)
    if not path.is_dir():
        raise FileNotFoundError(f"not a directory: {path}")
    frames, names = {}, {}
    for f in sorted(path.glob("*.txt")):
        if not f.stem.isdecimal():
            raise KittiFormatError(f"label file {f.name!r} is not named by a numeric frame id")
        frame = int(f.stem)
        if frame in names:
            raise KittiFormatError(
                f"label files {names[frame]!r} and {f.name!r} both name frame {frame}"
            )
        names[frame] = f.name
        if not f.is_file():
            raise KittiFormatError(f"label file {f.name!r} is not a regular file")
        try:
            frames[frame] = parse_label_file(f.read_text(encoding="utf-8"))
        except UnicodeDecodeError as e:
            raise KittiFormatError(f"label file {f.name!r} is not UTF-8 text: {e}") from None
        except KittiFormatError as e:
            raise KittiFormatError(f"{f}: {e}") from None
    return frames


def parse_split(text: str) -> list[int]:
    return [int(line) for line in text.splitlines() if line.strip()]


def load_train_val_split() -> tuple[list[int], list[int]]:
    """Load the bundled train/val frame-id split and validate the 3712/3769
    sizes and disjointness."""
    data = importlib.resources.files("kp3d") / "data"
    train = parse_split((data / "train.txt").read_text())
    val = parse_split((data / "val.txt").read_text())
    if len(train) != TRAIN_SPLIT_SIZE:
        raise KittiFormatError(f"train split must have {TRAIN_SPLIT_SIZE} ids, got {len(train)}")
    if len(val) != VAL_SPLIT_SIZE:
        raise KittiFormatError(f"val split must have {VAL_SPLIT_SIZE} ids, got {len(val)}")
    if set(train) & set(val):
        raise KittiFormatError("train and val splits overlap")
    return train, val
