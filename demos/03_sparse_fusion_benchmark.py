"""Why regress only at keypoints: sparse multi-scale fusion vs a dense head.

Gathers K embeddings across three pyramid strides (channel concatenation with
floor-divided index mapping), confirms the sparse path matches a dense
1x1-conv head followed by gathering, then counts FLOPs and wall-clock time.
"""

import numpy as np

from kp3d import bench, litefpn
from kp3d.bench import BenchConfig
from kp3d.heatmap import Keypoint
from kp3d.litefpn import FeaturePyramid, RegressionHead

rng = np.random.default_rng(2)
h, w, d = 48, 160, 16
pyramid = FeaturePyramid(levels=(
    rng.normal(size=(h, w, d)),
    rng.normal(size=(h // 2, w // 2, d)),
    rng.normal(size=(h // 4, w // 4, d)),
))
kps = [Keypoint(cls=0, u=int(rng.integers(w)), v=int(rng.integers(h)), score=1.0)
       for _ in range(20)]

emb = litefpn.gather_fuse(pyramid, kps)
print(f"fused embedding: {emb.shape} (K x 3D, finest level first)")

head = RegressionHead(weights=rng.normal(size=(3 * d, 8)), bias=rng.normal(size=8))
sparse = litefpn.regress(emb, head)
print(f"regressed outputs: {sparse.shape} (one 8-tuple per keypoint)")

# Gather-then-regress equals regress-everywhere-then-gather, shown here on the
# fine-level block of the embedding with a matching single-scale head.
fine_head = RegressionHead(weights=rng.normal(size=(d, 8)), bias=rng.normal(size=8))
fine_sparse = litefpn.regress(emb[:, :d], fine_head)
fine_dense = litefpn.dense_regress_then_gather(pyramid.levels[0], fine_head, kps)
print("sparse equals dense-then-gather:", np.abs(fine_sparse - fine_dense).max() < 1e-12)

cfg = BenchConfig(height=384, width=1280, channels=64, outputs=8, k=100, repetitions=30)
report = bench.time_compare(cfg)
print(f"\nFLOPs dense {bench.flops_dense(cfg):,} vs sparse {bench.flops_sparse(cfg):,}"
      f" -> ratio {report.flop_ratio}")
print(bench.report_summary(cfg, report))
