"""Head-side numerics for keypoint-based monocular 3D object detection:
heatmap encoding and top-K extraction, sparse multi-scale feature regression,
training losses with analytic gradients, rotated-box IoU, KITTI-format I/O and
KITTI-protocol average precision, plus a synthetic end-to-end pipeline and a
dense-vs-sparse efficiency benchmark.
"""

from .geometry import (
    Box3D,
    CameraCalib,
    DecodeStats,
    decode_box,
    encode_box,
    iou_3d,
    iou_bev,
    project_to_image,
)
from .heatmap import GaussianSpec, HeatmapShape, Keypoint, encode_heatmap, gaussian_radius, topk
from .litefpn import FeaturePyramid, RegressionHead, gather_fuse, regress

__version__ = "0.1.0"

__all__ = [
    "Box3D",
    "CameraCalib",
    "DecodeStats",
    "decode_box",
    "encode_box",
    "iou_3d",
    "iou_bev",
    "project_to_image",
    "GaussianSpec",
    "HeatmapShape",
    "Keypoint",
    "encode_heatmap",
    "gaussian_radius",
    "topk",
    "FeaturePyramid",
    "RegressionHead",
    "gather_fuse",
    "regress",
]
