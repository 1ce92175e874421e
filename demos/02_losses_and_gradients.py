"""The training objective and its analytic gradients.

Shows the penalty-reduced focal loss on heatmaps, the plain L1 regression
loss, and the attention-weighted variant where low-IoU / high-score keypoints
receive larger weights. Every gradient is verified against central finite
differences.
"""

import numpy as np

from kp3d import losses
from kp3d.losses import AttentionParams, LossBatch

rng = np.random.default_rng(1)

gt = np.zeros((1, 8, 8))
gt[0, 3, 4] = 1.0
pred = rng.uniform(0.05, 0.95, size=gt.shape)
value, grad = losses.focal_loss(pred, gt, n=1)
err = losses.gradcheck(lambda p: losses.focal_loss(p, gt, n=1), pred)
print(f"focal loss {value:.4f}; finite-difference gradient error {err:.2e}")

batch = LossBatch(
    tau_pred=rng.normal(size=(4, 8)),
    tau_gt=rng.normal(size=(4, 8)),
    scores=np.array([0.9, 0.8, 0.8, 0.3]),
    ious=np.array([0.9, 0.7, 0.2, 0.2]),
)
l1, _ = losses.l1_reg_loss(batch)
weights = losses.attention_weights(batch, AttentionParams(beta=0.5))
attn, _ = losses.attention_loss(batch, weights)
print(f"\nL1 loss {l1:.4f}; attention-weighted loss {attn:.4f}")
print("weights (sum to N):", np.round(weights, 4), "->", weights.sum())
print("hard keypoint (high score, low IoU) gets the largest weight:",
      int(np.argmax(weights)) == 2)

# With unit weights the attention loss is the L1 loss exactly.
uniform, _ = losses.attention_loss(batch, np.ones(batch.n))
print("unit weights reduce to L1:", uniform == l1)

# The combined objective is the keypoint loss plus lambda times the
# regression loss; lambda = 1 here.
lam = 1.0
print("\ntotal objective:", value + lam * attn)
