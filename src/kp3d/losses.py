"""Training losses with analytic gradients: penalty-reduced focal loss on
heatmaps, L1 regression loss, softmax attention weights and the attention-
weighted regression loss, plus a finite-difference gradient checker.

Every loss returns (value, gradient). Gradients are exact derivatives of the
implemented (clamped) expressions; reductions run in a fixed order so results
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PRED_CLAMP = 1e-7
_ALPHA, _BETA = 2.0, 4.0  # CenterNet's focal exponents


@dataclass(frozen=True)
class AttentionParams:
    """beta weights the (1 - IoU) term against the heatmap score in the softmax.

    0.5 suits pipelines keyed on the projected 3D center, 0.25 ones keyed on
    the 2D box center.
    """

    beta: float = 0.5

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


@dataclass(frozen=True)
class LossBatch:
    """Per-keypoint regression data for one batch: predictions tau_pred and
    targets tau_gt are (N, R); scores and ious are length-N in [0, 1]."""

    tau_pred: np.ndarray
    tau_gt: np.ndarray
    scores: np.ndarray = field(default=None)
    ious: np.ndarray = field(default=None)

    def __post_init__(self):
        pred = np.asarray(self.tau_pred, dtype=float)
        gt = np.asarray(self.tau_gt, dtype=float)
        if pred.ndim != 2 or pred.shape != gt.shape or pred.shape[0] < 1:
            raise ValueError("tau_pred and tau_gt must be equal-shape (N, R), N >= 1")
        object.__setattr__(self, "tau_pred", pred)
        object.__setattr__(self, "tau_gt", gt)
        for name in ("scores", "ious"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if v.shape != (pred.shape[0],):
                    raise ValueError(f"{name} must be length N")
                if (v < 0).any() or (v > 1).any():
                    raise ValueError(f"{name} values must lie in [0, 1]")
                object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return self.tau_pred.shape[0]


def focal_loss(pred: np.ndarray, gt: np.ndarray, n: int = 1):
    """Penalty-reduced pixel-wise focal loss over a full heatmap.

    Positive pixels (gt == 1) contribute -(1-p)^alpha log p; all others
    contribute -(1-gt)^beta p^alpha log(1-p), with alpha = 2 and beta = 4.
    The sum is divided by the keypoint count n. Predictions are clamped to
    [1e-7, 1 - 1e-7] before the logs; the returned gradient is w.r.t. the
    clamped prediction.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if n < 1:
        raise ValueError("n must be >= 1")
    p = np.clip(pred, PRED_CLAMP, 1.0 - PRED_CLAMP)
    pos = gt == 1.0
    a, b = _ALPHA, _BETA

    grad = np.empty_like(p)
    log_p = np.log(p, where=pos, out=np.zeros_like(p))
    pos_terms = -((1.0 - p) ** a) * log_p
    grad_pos = a * (1.0 - p) ** (a - 1.0) * log_p - (1.0 - p) ** a / p

    log_1mp = np.log(1.0 - p, where=~pos, out=np.zeros_like(p))
    neg_w = (1.0 - gt) ** b
    neg_terms = -neg_w * p**a * log_1mp
    grad_neg = neg_w * (p**a / (1.0 - p) - a * p ** (a - 1.0) * log_1mp)

    value = (np.sum(pos_terms, where=pos) + np.sum(neg_terms, where=~pos)) / n
    np.copyto(grad, grad_neg)
    grad[pos] = grad_pos[pos]
    return value, grad / n


def l1_reg_loss(batch: LossBatch):
    """Mean L1 distance between predicted and target regression tuples.

    Gradient per coordinate is sign(residual) / N (zero at exact zeros).
    """
    residual = batch.tau_pred - batch.tau_gt
    value = np.abs(residual).sum() / batch.n
    grad = np.sign(residual) / batch.n
    return value, grad


def attention_weights(batch: LossBatch, params: AttentionParams = AttentionParams()) -> np.ndarray:
    """Per-keypoint weights: softmax of score + beta * (1 - IoU), scaled by N so
    the weights sum to N and uniform inputs give all-ones."""
    if batch.scores is None or batch.ious is None:
        raise ValueError("batch must carry scores and ious")
    logits = batch.scores + params.beta * (1.0 - batch.ious)
    e = np.exp(logits - logits.max())
    return e / e.sum() * batch.n


def attention_loss(batch: LossBatch, weights: np.ndarray):
    """Attention-weighted L1 regression loss: (1/N) sum_i w_i |residual_i|_1.

    Weights are constants here: no gradient flows into the scores or IoUs.
    With all weights 1 this reduces to l1_reg_loss exactly.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (batch.n,):
        raise ValueError("weights length must equal batch size")
    residual = batch.tau_pred - batch.tau_gt
    per_kp = np.abs(residual).sum(axis=1)
    value = float(weights @ per_kp) / batch.n
    grad = weights[:, None] * np.sign(residual) / batch.n
    return value, grad


def gradcheck(fn, point: np.ndarray, step: float = 1e-5) -> float:
    """Compare fn's analytic gradient against central differences.

    `fn` maps a flat parameter vector to (value, gradient). Returns the max
    over coordinates of |g_fd - g| / max(1, |g|).
    """
    point = np.asarray(point, dtype=float)
    _, grad = fn(point)
    grad = np.asarray(grad, dtype=float).ravel()
    worst = 0.0
    flat = point.ravel()
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] = flat[i] + step
        up, _ = fn(probe.reshape(point.shape))
        probe[i] = flat[i] - step
        down, _ = fn(probe.reshape(point.shape))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError("non-finite loss at finite-difference probe point")
        fd = (up - down) / (2.0 * step)
        err = abs(fd - grad[i]) / max(1.0, abs(grad[i]))
        worst = max(worst, err)
    return worst
