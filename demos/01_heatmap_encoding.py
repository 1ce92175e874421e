"""Keypoint heatmaps from the ground up.

Walks through the encoding used for detection targets: pick an adaptive
Gaussian radius from the projected box footprint, splat one Gaussian per
object with max composition, then recover the keypoints with 3x3 local-max
suppression and top-K selection.
"""

import numpy as np

from kp3d import heatmap
from kp3d.heatmap import GaussianSpec, HeatmapShape

rng = np.random.default_rng(0)

# The radius (at CenterNet's 0.7 overlap) grows with the footprint.
for wh in [(24, 24), (60, 30), (120, 80)]:
    r = heatmap.gaussian_radius(wh[0], wh[1])
    print(f"footprint {wh}: radius {r:.2f}, sigma {heatmap.sigma_from_radius(r):.3f}")

shape = HeatmapShape(height=24, width=32, classes=2)
splats = [
    GaussianSpec(center=(5, 7), sigma=1.2, cls=0),
    GaussianSpec(center=(20, 10), sigma=2.0, cls=0),
    GaussianSpec(center=(20, 10), sigma=1.0, cls=1),  # same cell, other class
]
hm = heatmap.encode_heatmap(splats, shape)
print(f"\nheatmap shape {hm.shape}, peak value {hm.max()} (exactly 1 at each center)")

# Overlapping Gaussians compose by max, so nearby objects never wash out.
kps = heatmap.topk(hm, k=5)
for kp in kps:
    print(f"  class {kp.cls} at (u={kp.u}, v={kp.v}) score {kp.score:.3f}")
print("top-3 recovers every planted center:",
      sorted((k.cls, k.u, k.v) for k in kps[:3])
      == sorted((s.cls, *s.center) for s in splats))
