import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kp3d import heatmap
from kp3d.heatmap import GaussianSpec, HeatmapShape

from oracles import brute_force_topk, full_grid_heatmap


SHAPE = HeatmapShape(height=48, width=80, classes=2)


def test_gaussian_radius_example():
    # minimum of the three corner-displacement quadratics
    assert heatmap.gaussian_radius(24, 24) == pytest.approx(1.96, abs=0.005)


def test_gaussian_radius_monotone_in_size():
    radii = [heatmap.gaussian_radius(s, s) for s in np.linspace(4, 120, 20)]
    assert all(b >= a for a, b in zip(radii, radii[1:]))


def test_encode_peak_is_one():
    hm = heatmap.encode_heatmap([GaussianSpec((10, 20), 2.0, 0)], SHAPE)
    assert hm[0, 20, 10] == 1.0
    assert hm.min() >= 0.0 and hm.max() <= 1.0


def test_encode_kernel_value_at_distance_two():
    hm = heatmap.encode_heatmap([GaussianSpec((10, 20), 2.0, 0)], SHAPE)
    assert hm[0, 20, 12] == pytest.approx(math.exp(-0.5))
    assert hm[0, 20, 12] == pytest.approx(0.60653, abs=1e-5)


def test_encode_overlap_takes_max_not_sum():
    specs = [GaussianSpec((10, 20), 3.0, 0), GaussianSpec((16, 20), 3.0, 0)]
    hm = heatmap.encode_heatmap(specs, SHAPE)
    contributions = [math.exp(-((13 - u) ** 2) / (2 * 9.0)) for u in (10, 16)]
    assert hm[0, 20, 13] == pytest.approx(max(contributions))


def test_encode_permutation_invariant():
    specs = [GaussianSpec((10, 20), 3.0, 0), GaussianSpec((16, 22), 2.0, 0), GaussianSpec((40, 5), 1.0, 1)]
    a = heatmap.encode_heatmap(specs, SHAPE)
    b = heatmap.encode_heatmap(specs[::-1], SHAPE)
    assert np.array_equal(a, b)


def test_encode_decreases_with_distance():
    hm = heatmap.encode_heatmap([GaussianSpec((40, 24), 2.5, 0)], SHAPE)
    row = hm[0, 24, 40:60]
    assert all(b < a for a, b in zip(row, row[1:]))


def test_encode_rejects_out_of_grid():
    with pytest.raises(ValueError):
        heatmap.encode_heatmap([GaussianSpec((100, 20), 2.0, 0)], SHAPE)


# the synthetic scenes' grid, and the smallest and largest splat sigmas they use
GRID = HeatmapShape(height=96, width=320, classes=1)
SIGMA_MIN, SIGMA_MAX = 1 / 6, 5 / 6


@st.composite
def _splats(draw):
    shape = HeatmapShape(draw(st.integers(1, 96)), draw(st.integers(1, 320)), draw(st.integers(1, 2)))
    spec = st.builds(
        GaussianSpec,
        center=st.tuples(st.integers(0, shape.width - 1), st.integers(0, shape.height - 1)),
        sigma=st.one_of(st.sampled_from([SIGMA_MIN, SIGMA_MAX]), st.floats(0.01, 60.0)),
        cls=st.integers(0, shape.classes - 1),
    )
    return shape, draw(st.lists(spec, max_size=6))


def _corner_and_edge_splats(sigma):
    corners = [(0, 0), (319, 0), (0, 95), (319, 95)]
    edges = [(160, 0), (160, 95), (0, 48), (319, 48)]
    return [GaussianSpec(c, sigma, 0) for c in corners + edges]


@given(_splats())
@example((GRID, _corner_and_edge_splats(SIGMA_MIN)))
@example((GRID, _corner_and_edge_splats(SIGMA_MAX)))
@example((GRID, _corner_and_edge_splats(50.0)))  # each window covers the whole grid
@example((GRID, [GaussianSpec((7, 90), SIGMA_MIN, 0), GaussianSpec((300, 3), SIGMA_MAX, 0)]))
@example((  # two classes, and overlapping splats whose windows cross
    HeatmapShape(96, 320, 2),
    [GaussianSpec((100, 40), SIGMA_MAX, 0), GaussianSpec((104, 42), SIGMA_MIN, 0),
     GaussianSpec((110, 40), 3.0, 0), GaussianSpec((100, 40), SIGMA_MAX, 1),
     GaussianSpec((101, 41), 50.0, 1)],
))
def test_windowed_splat_matches_full_grid(case):
    shape, specs = case
    assert heatmap.encode_heatmap(specs, shape).tobytes() == full_grid_heatmap(specs, shape).tobytes()


def test_topk_ordering():
    hm = np.zeros((1, 48, 80))
    hm[0, 10, 10] = 0.9
    hm[0, 30, 40] = 0.7
    hm[0, 40, 70] = 0.5
    kps = heatmap.topk(hm, 2)
    assert [(kp.u, kp.v, kp.score) for kp in kps] == [(10, 10, 0.9), (40, 30, 0.7)]


def test_topk_suppresses_adjacent_non_maximum():
    hm = np.zeros((1, 48, 80))
    hm[0, 10, 10] = 0.9
    hm[0, 10, 11] = 0.89
    kps = heatmap.topk(hm, 10)
    positions = [(kp.u, kp.v) for kp in kps if kp.score > 0]
    assert positions == [(10, 10)]


def test_topk_returns_all_when_k_exceeds_survivors():
    hm = np.zeros((1, 48, 80))
    hm[0, 10, 10] = 0.9
    hm[0, 30, 40] = 0.7
    kps = [kp for kp in heatmap.topk(hm, 1000) if kp.score > 0]
    assert len(kps) == 2
    assert [kp.score for kp in kps] == [0.9, 0.7]


def test_topk_scores_non_increasing_and_local_maxima():
    rng = np.random.default_rng(5)
    hm = rng.random((2, 24, 32))
    kps = heatmap.topk(hm, 50)
    scores = [kp.score for kp in kps]
    assert scores == sorted(scores, reverse=True)
    for kp in kps:
        patch = hm[kp.cls, max(kp.v - 1, 0) : kp.v + 2, max(kp.u - 1, 0) : kp.u + 2]
        assert hm[kp.cls, kp.v, kp.u] >= patch.max()


def test_topk_tie_break_lower_flat_index():
    hm = np.zeros((1, 8, 8))
    hm[0, 2, 2] = 0.5
    hm[0, 5, 5] = 0.5
    kps = heatmap.topk(hm, 2)
    assert (kps[0].u, kps[0].v) == (2, 2)
    assert (kps[1].u, kps[1].v) == (5, 5)


def test_topk_matches_per_pixel_oracle():
    rng = np.random.default_rng(12)
    for trial in range(60):
        c, h, w = rng.integers(1, 4), rng.integers(1, 12), rng.integers(1, 12)
        hm = rng.random((c, h, w))
        if trial % 2:
            hm = np.round(hm * 3) / 3  # plateaus and ties
        k = int(rng.integers(1, 40))
        kps = heatmap.topk(hm, k)
        assert [(kp.cls, kp.u, kp.v, kp.score) for kp in kps] == brute_force_topk(hm, k)
        assert all(type(kp.u) is int and type(kp.score) is float for kp in kps)
