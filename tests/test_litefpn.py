import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kp3d import litefpn
from kp3d.heatmap import Keypoint
from kp3d.litefpn import FeaturePyramid, RegressionHead

from oracles import naive_matmul


def make_pyramid(rng, h4=16, w4=24, d=6):
    return FeaturePyramid(
        levels=(
            rng.normal(size=(h4, w4, d)),
            rng.normal(size=(h4 // 2, w4 // 2, d)),
            rng.normal(size=(h4 // 4, w4 // 4, d)),
        )
    )


def kp(u, v, score=1.0):
    return Keypoint(cls=0, u=u, v=v, score=score)


@given(st.integers(min_value=0, max_value=10**9))
def test_scale_composition_coherence(u):
    assert (u // 2) // 2 == u // 4


def test_gather_constant_levels():
    levels = tuple(np.full((s, s, 2), v) for s, v in [(8, 1.0), (4, 2.0), (2, 3.0)])
    pyr = FeaturePyramid(levels=levels)
    emb = litefpn.gather_fuse(pyr, [kp(3, 5)])
    assert np.array_equal(emb, [[1, 1, 2, 2, 3, 3]])


def test_gather_empty_keypoints():
    pyr = make_pyramid(np.random.default_rng(0))
    emb = litefpn.gather_fuse(pyr, [])
    assert emb.shape == (0, 18)


def test_gather_first_block_is_fine_level_pixel():
    rng = np.random.default_rng(1)
    pyr = make_pyramid(rng)
    kps = [kp(5, 3), kp(20, 11), kp(0, 0)]
    emb = litefpn.gather_fuse(pyr, kps)
    for row, k in zip(emb, kps):
        assert np.array_equal(row[:6], pyr.levels[0][k.v, k.u])
        assert np.array_equal(row[6:12], pyr.levels[1][k.v // 2, k.u // 2])
        assert np.array_equal(row[12:], pyr.levels[2][k.v // 4, k.u // 4])


def assert_gathers_cells(uv, uv8, uv16):
    """The keypoint at 1/4-grid `uv` reads the 1/8 cell `uv8` and the 1/16 cell `uv16`."""
    (u, v), (u8, v8), (u16, v16) = uv, uv8, uv16
    pyr = make_pyramid(np.random.default_rng(1), h4=64, w4=104)
    (row,) = litefpn.gather_fuse(pyr, [kp(u, v)])
    assert np.array_equal(row[:6], pyr.levels[0][v, u])
    assert np.array_equal(row[6:12], pyr.levels[1][v8, u8])
    assert np.array_equal(row[12:], pyr.levels[2][v16, u16])


def test_map_indices_paper_example():
    assert_gathers_cells((100, 60), (50, 30), (25, 15))


def test_map_indices_floor_rounding():
    assert_gathers_cells((101, 61), (50, 30), (25, 15))


def test_map_indices_origin_and_identity():
    assert_gathers_cells((0, 0), (0, 0), (0, 0))
    assert_gathers_cells((7, 9), (3, 4), (1, 2))


def test_gather_order_equivariant():
    rng = np.random.default_rng(2)
    pyr = make_pyramid(rng)
    kps = [kp(5, 3), kp(20, 11), kp(1, 14)]
    perm = [2, 0, 1]
    a = litefpn.gather_fuse(pyr, kps)
    b = litefpn.gather_fuse(pyr, [kps[i] for i in perm])
    assert np.array_equal(a[perm], b)


# (u, v) on a 24 x 16 fine grid: negative indices must not wrap to the far edge
OUT_OF_BOUNDS = [(-1, 3), (3, -1), (24, 3), (3, 16)]


@pytest.mark.parametrize("u, v", OUT_OF_BOUNDS)
def test_gather_out_of_bounds_raises(u, v):
    pyr = make_pyramid(np.random.default_rng(8))
    with pytest.raises(IndexError, match=re.escape(f"({u}, {v})")):
        litefpn.gather_fuse(pyr, [kp(2, 2), kp(u, v)])


@pytest.mark.parametrize("u, v", OUT_OF_BOUNDS)
def test_dense_out_of_bounds_raises(u, v):
    rng = np.random.default_rng(9)
    head = RegressionHead(weights=rng.normal(size=(6, 8)), bias=np.zeros(8))
    with pytest.raises(IndexError, match=re.escape(f"({u}, {v})")):
        litefpn.dense_regress_then_gather(rng.normal(size=(16, 24, 6)), head, [kp(2, 2), kp(u, v)])


def test_regress_zero_weights_gives_bias():
    head = RegressionHead(weights=np.zeros((18, 8)), bias=np.arange(8.0))
    out = litefpn.regress(np.random.default_rng(0).normal(size=(5, 18)), head)
    assert np.array_equal(out, np.tile(np.arange(8.0), (5, 1)))


def test_regress_selection_matrix():
    w = np.zeros((18, 8))
    w[:8, :8] = np.eye(8)
    head = RegressionHead(weights=w, bias=np.zeros(8))
    emb = np.random.default_rng(1).normal(size=(4, 18))
    assert np.allclose(litefpn.regress(emb, head), emb[:, :8], atol=1e-15)


def test_regress_matches_naive_matmul():
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(7, 18))
    head = RegressionHead(weights=rng.normal(size=(18, 8)), bias=rng.normal(size=8))
    expected = naive_matmul(emb, head.weights) + head.bias
    assert np.allclose(litefpn.regress(emb, head), expected, atol=1e-12)


def test_regress_dimension_mismatch():
    head = RegressionHead(weights=np.zeros((18, 8)), bias=np.zeros(8))
    with pytest.raises(ValueError):
        litefpn.regress(np.zeros((3, 12)), head)


def test_regress_linearity():
    rng = np.random.default_rng(4)
    head = RegressionHead(weights=rng.normal(size=(18, 8)), bias=rng.normal(size=8))
    e1, e2 = rng.normal(size=(2, 5, 18))
    alpha, beta = 0.7, -1.3
    lhs = litefpn.regress(alpha * e1 + beta * e2, head)
    rhs = (
        alpha * litefpn.regress(e1, head)
        + beta * litefpn.regress(e2, head)
        - (alpha + beta - 1) * head.bias
    )
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_sparse_dense_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(100):
        h, w, d, r = rng.integers(2, 12), rng.integers(2, 16), rng.integers(1, 10), rng.integers(1, 9)
        features = rng.normal(size=(h, w, d))
        head = RegressionHead(weights=rng.normal(size=(d, r)), bias=rng.normal(size=r))
        kps = [kp(int(rng.integers(w)), int(rng.integers(h))) for _ in range(int(rng.integers(1, 20)))]
        gathered = np.stack([features[k.v, k.u] for k in kps])
        sparse = litefpn.regress(gathered, head)
        dense = litefpn.dense_regress_then_gather(features, head, kps)
        assert np.allclose(sparse, dense, rtol=0, atol=1e-12)


def test_dense_zero_features_give_bias():
    head = RegressionHead(weights=np.ones((4, 3)), bias=np.array([1.0, 2.0, 3.0]))
    out = litefpn.dense_regress_then_gather(np.zeros((5, 5, 4)), head, [kp(2, 2)])
    assert np.array_equal(out, [[1.0, 2.0, 3.0]])


def test_dense_single_pixel_grid():
    rng = np.random.default_rng(6)
    features = rng.normal(size=(1, 1, 4))
    head = RegressionHead(weights=rng.normal(size=(4, 3)), bias=rng.normal(size=3))
    out = litefpn.dense_regress_then_gather(features, head, [kp(0, 0)])
    assert np.allclose(out[0], features[0, 0] @ head.weights + head.bias, atol=1e-15)


def test_pyramid_shape_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        FeaturePyramid(levels=(rng.normal(size=(8, 8, 2)), rng.normal(size=(5, 4, 2)), rng.normal(size=(2, 2, 2))))
