import math

import numpy as np
import pytest

from kp3d import losses
from kp3d.losses import AttentionParams, LossBatch


def random_smooth_batch(rng, n=None, r=8):
    """A batch whose residuals stay well away from the L1 kinks."""
    n = n or int(rng.integers(1, 9))
    target = rng.normal(size=(n, r))
    signs = np.where(rng.random((n, r)) < 0.5, -1.0, 1.0)
    pred = target + signs * rng.uniform(0.1, 1.0, size=(n, r))
    return LossBatch(pred, target, scores=rng.random(n), ious=rng.random(n))


class TestFocalLoss:
    def test_perfect_prediction_limit(self):
        gt = np.zeros((1, 4, 4))
        gt[0, 1, 2] = 1.0
        for eps in (1e-3, 1e-5, 1e-7):
            pred = np.where(gt == 1.0, 1.0 - eps, eps)
            value, _ = losses.focal_loss(pred, gt, n=1)
            assert value < 10 * eps

    def test_positive_pixel_value(self):
        gt = np.ones((1, 1, 1))
        pred = np.full((1, 1, 1), 0.5)
        value, _ = losses.focal_loss(pred, gt, n=1)
        assert value == pytest.approx(0.25 * math.log(2))
        assert value == pytest.approx(0.173287, abs=1e-6)

    def test_background_pixel_value(self):
        # one perfect keypoint pixel plus one pure background pixel at 0.5
        gt = np.array([[[1.0, 0.0]]])
        pred = np.array([[[1.0 - 1e-7, 0.5]]])
        value, _ = losses.focal_loss(pred, gt, n=1)
        assert value == pytest.approx(0.25 * math.log(2), abs=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            losses.focal_loss(np.zeros((1, 2, 2)), np.zeros((1, 3, 3)))

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gt = np.zeros((2, 6, 6))
            gt[0, 2, 3] = 1.0
            soft = np.exp(-rng.uniform(0, 4, size=gt.shape))
            gt = np.maximum(gt, np.where(gt == 1.0, gt, soft * 0.9))
            pred = rng.uniform(0.01, 0.99, size=gt.shape)
            value, _ = losses.focal_loss(pred, gt, n=1)
            assert value >= 0.0

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        gt = np.zeros((1, 5, 5))
        gt[0, 2, 2] = 1.0
        gt[0, 1, 1] = 0.6  # soft background weighting
        for _ in range(20):
            point = rng.uniform(0.05, 0.95, size=gt.shape)
            err = losses.gradcheck(lambda p: losses.focal_loss(p, gt, n=2), point)
            assert err < 1e-5


class TestL1RegLoss:
    def test_zero_at_target(self):
        batch = LossBatch(np.ones((3, 8)), np.ones((3, 8)))
        value, grad = losses.l1_reg_loss(batch)
        assert value == 0.0
        assert np.array_equal(grad, np.zeros((3, 8)))

    def test_single_difference(self):
        batch = LossBatch(np.array([[1.5]]), np.array([[1.0]]))
        value, grad = losses.l1_reg_loss(batch)
        assert value == pytest.approx(0.5)
        assert grad[0, 0] == 1.0

    def test_two_keypoint_mean(self):
        pred = np.array([[0.2, 0.0], [0.0, 0.3]])
        gt = np.zeros((2, 2))
        value, _ = losses.l1_reg_loss(batch=LossBatch(pred, gt))
        assert value == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LossBatch(np.zeros((2, 8)), np.zeros((3, 8)))


class TestAttentionWeights:
    def test_singleton(self):
        batch = LossBatch(np.zeros((1, 8)), np.zeros((1, 8)), scores=[0.4], ious=[0.6])
        assert losses.attention_weights(batch) == pytest.approx([1.0])

    def test_uniform_inputs_give_unit_weights(self):
        batch = LossBatch(
            np.zeros((4, 8)), np.zeros((4, 8)), scores=[0.3] * 4, ious=[0.1, 0.9, 0.5, 0.0]
        )
        w = losses.attention_weights(batch, AttentionParams(beta=0.0))
        assert np.allclose(w, 1.0, atol=1e-12)

    def test_worked_example(self):
        batch = LossBatch(
            np.zeros((2, 8)), np.zeros((2, 8)), scores=[0.9, 0.1], ious=[0.8, 0.2]
        )
        w = losses.attention_weights(batch, AttentionParams(beta=0.5))
        # exponents are (1.0, 0.5); exact softmax value is 2e/(e + sqrt(e))
        exact = 2 * math.e / (math.e + math.sqrt(math.e))
        assert w == pytest.approx([exact, 2 - exact], abs=1e-12)
        assert w == pytest.approx([1.24489, 0.75511], abs=5e-5)

    def test_sum_equals_n(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            batch = random_smooth_batch(rng)
            w = losses.attention_weights(batch, AttentionParams(beta=rng.uniform(0, 2)))
            assert w.sum() == pytest.approx(batch.n, abs=1e-9)
            assert (w > 0).all()

    def test_shift_invariance(self):
        batch = LossBatch(
            np.zeros((3, 8)), np.zeros((3, 8)), scores=[0.1, 0.5, 0.9], ious=[0.2, 0.4, 0.8]
        )
        w1 = losses.attention_weights(batch, AttentionParams(beta=0.5))
        shifted = LossBatch(
            np.zeros((3, 8)),
            np.zeros((3, 8)),
            scores=[0.1 + 0.05, 0.5 + 0.05, 0.9 + 0.05],
            ious=[0.2, 0.4, 0.8],
        )
        w2 = losses.attention_weights(shifted, AttentionParams(beta=0.5))
        assert np.allclose(w1, w2, atol=1e-12)

    def test_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            batch = random_smooth_batch(rng, n=4)
            params = AttentionParams(beta=rng.uniform(0.1, 1.5))
            w = losses.attention_weights(batch, params)
            up_score = LossBatch(
                batch.tau_pred,
                batch.tau_gt,
                scores=np.minimum(batch.scores + np.eye(4)[0] * 0.05, 1.0),
                ious=batch.ious,
            )
            assert losses.attention_weights(up_score, params)[0] > w[0] or batch.scores[0] > 0.95
            up_iou = LossBatch(
                batch.tau_pred,
                batch.tau_gt,
                scores=batch.scores,
                ious=np.minimum(batch.ious + np.eye(4)[0] * 0.05, 1.0),
            )
            assert losses.attention_weights(up_iou, params)[0] < w[0] or batch.ious[0] > 0.95


class TestAttentionLoss:
    def test_unit_weights_reduce_to_l1(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            batch = random_smooth_batch(rng)
            l1_value, l1_grad = losses.l1_reg_loss(batch)
            a_value, a_grad = losses.attention_loss(batch, np.ones(batch.n))
            assert a_value == pytest.approx(l1_value, rel=1e-15)
            assert np.array_equal(a_grad, l1_grad)

    def test_worked_example(self):
        pred = np.array([[0.4, 0.0], [0.2, 0.0]])
        gt = np.zeros((2, 2))
        batch = LossBatch(pred, gt)
        value, _ = losses.attention_loss(batch, np.array([1.24489, 0.75511]))
        assert value == pytest.approx(0.324489, abs=1e-6)

    def test_zero_at_target_for_any_weights(self):
        batch = LossBatch(np.ones((3, 8)), np.ones((3, 8)))
        value, _ = losses.attention_loss(batch, np.array([0.5, 1.5, 1.0]))
        assert value == 0.0

    def test_weight_length_mismatch(self):
        batch = LossBatch(np.zeros((2, 8)), np.zeros((2, 8)))
        with pytest.raises(ValueError):
            losses.attention_loss(batch, np.ones(3))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            batch = random_smooth_batch(rng)
            weights = rng.uniform(0.2, 2.0, size=batch.n)

            def fn(p):
                return losses.attention_loss(LossBatch(p, batch.tau_gt), weights)

            assert losses.gradcheck(fn, batch.tau_pred) < 1e-6


class TestGradcheck:
    def test_quadratic_exact(self):
        def quadratic(x):
            return float((x**2).sum()), 2 * x

        rng = np.random.default_rng(6)
        assert losses.gradcheck(quadratic, rng.normal(size=10)) < 1e-8

    def test_detects_wrong_gradient(self):
        def broken(x):
            return float((x**2).sum()), -2 * x

        assert losses.gradcheck(broken, np.ones(3)) > 0.1

    def test_non_finite_probe_rejected(self):
        def bad(x):
            return float("nan"), np.zeros_like(x)

        with pytest.raises(ValueError):
            losses.gradcheck(bad, np.ones(2))
