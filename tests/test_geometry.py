import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kp3d import geometry, synth
from kp3d.geometry import Box3D, CameraCalib, DecodeStats

from oracles import clip_iou, sample_iou_bev, scalar_decode_box, voxel_iou_3d


@pytest.fixture
def calib():
    return CameraCalib(
        np.array([[700.0, 0, 600.0, 0], [0, 700.0, 180.0, 0], [0, 0, 1.0, 0]])
    )


STATS = DecodeStats()


def random_box(rng):
    return Box3D(
        center=(rng.uniform(-15, 15), rng.uniform(-1, 2), rng.uniform(5, 55)),
        dims=(rng.uniform(1.0, 2.2), rng.uniform(1.2, 2.0), rng.uniform(3.0, 5.0)),
        yaw=rng.uniform(-math.pi, math.pi),
    )


class TestProjection:
    def test_optical_axis_hits_principal_point(self, calib):
        assert geometry.project_to_image((0, 0, 17.3), calib) == (600.0, 180.0)

    def test_direct_projection(self, calib):
        u, v = geometry.project_to_image((2, 1, 10), calib)
        assert u == pytest.approx(740.0)
        assert v == pytest.approx(250.0)

    def test_behind_camera_rejected(self, calib):
        with pytest.raises(ValueError, match="behind camera"):
            geometry.project_to_image((0, 0, -1), calib)

    def test_backproject_inverts(self, calib):
        point = (3.2, -0.7, 24.0)
        u, v = geometry.project_to_image(point, calib)
        assert geometry.backproject(u, v, 24.0, calib) == pytest.approx(point)


class TestEncodeDecode:
    def test_round_trip_single(self, calib):
        box = Box3D((3.0, 1.2, 25.0), (1.5, 1.6, 3.9), 0.8)
        kp, tau = geometry.encode_box(box, "Car", calib, STATS)
        out = geometry.decode_box(tau, kp, "Car", calib, STATS)
        assert out.center == pytest.approx(box.center, abs=1e-6)
        assert out.dims == pytest.approx(box.dims, abs=1e-6)
        assert out.yaw == pytest.approx(box.yaw, abs=1e-6)

    def test_round_trip_corpus(self, calib):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            box = random_box(rng)
            try:
                kp, tau = geometry.encode_box(box, "Car", calib, STATS)
            except ValueError:
                continue  # projected center outside any constraint; irrelevant here
            out = geometry.decode_box(tau, kp, "Car", calib, STATS)
            worst = max(
                worst,
                max(abs(a - b) for a, b in zip(out.center, box.center)),
                max(abs(a - b) for a, b in zip(out.dims, box.dims)),
                abs(geometry.normalize_angle(out.yaw - box.yaw)),
            )
        assert worst < 1e-6

    def test_mean_depth_gives_zero_offset(self, calib):
        box = Box3D((0.0, 0.5, STATS.depth_mean), (1.63, 1.53, 3.88), 0.0)
        _, tau = geometry.encode_box(box, "Car", calib, STATS)
        assert tau[0] == pytest.approx(0.0, abs=1e-12)
        assert tau[3:6] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    def test_zero_depth_offset_decodes_to_mean_depth(self, calib):
        tau = np.array([0.0, 0.5, 0.5, 0, 0, 0, 0.0, 1.0])
        box = geometry.decode_box(tau, (150, 45), "Car", calib, STATS)
        assert box.center[2] == pytest.approx(28.01)

    def test_forward_facing_centered_box_has_zero_yaw(self, calib):
        # sin/cos = (0, 1) means zero observation angle; x = 0 adds no ray angle
        tau = np.array([0.0, 0.0, 0.0, 0, 0, 0, 0.0, 1.0])
        box = geometry.decode_box(tau, (150, 45), "Car", calib, STATS)
        assert box.center[0] == pytest.approx(0.0)
        assert box.yaw == pytest.approx(0.0)

    def test_non_positive_decoded_depth_rejected(self, calib):
        tau = np.zeros(8)
        tau[0] = -(STATS.depth_mean / STATS.depth_std) - 0.1
        tau[7] = 1.0
        with pytest.raises(ValueError, match="non-positive decoded depth"):
            geometry.decode_box(tau, (10, 10), "Car", calib, STATS)

    def test_encode_behind_camera_rejected(self, calib):
        with pytest.raises(ValueError, match="behind camera"):
            geometry.encode_box(Box3D((0, 0, -5), (1, 1, 1)), "Car", calib, STATS)

    def test_dims_clamped_on_request(self, calib):
        tau = np.zeros(8)
        tau[3] = 10.0  # exp blowup
        tau[7] = 1.0
        box = geometry.decode_box(tau, (10, 10), "Car", calib, STATS, clamp_dims=True)
        assert box.dims[0] == geometry.DIM_CLAMP_MAX

    def test_overflowing_dim_clamps_to_max(self, calib):
        tau = np.array([0.0, 0.5, 0.5, 720.0, 0.0, 0.0, 0.0, 1.0])  # exp(720) overflows
        box = geometry.decode_box(tau, (10, 10), "Car", calib, STATS, clamp_dims=True)
        assert box.dims == (geometry.DIM_CLAMP_MAX, *STATS.dims_for("Car")[1:])

    def test_clamp_dims_false_rejected(self, calib):
        tau = np.array([0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="always clamped"):
            geometry.decode_box(tau, (10, 10), "Car", calib, STATS, clamp_dims=False)

    def test_largest_finite_exp_clamps_to_max(self, calib):
        # exp(709) is finite; the product with the mean length overflows to inf
        tau = np.array([0.0, 0.5, 0.5, 0.0, 0.0, 709.0, 0.0, 1.0])
        box = geometry.decode_box(tau, (10, 10), "Car", calib, STATS, clamp_dims=True)
        assert box.dims[2] == geometry.DIM_CLAMP_MAX

    @pytest.mark.parametrize("index", range(8))
    def test_nan_tau_rejected(self, calib, index):
        tau = np.array([0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0])
        tau[index] = math.nan
        with pytest.raises(ValueError):
            geometry.decode_box(tau, (10, 10), "Car", calib, STATS, clamp_dims=True)


class TestIoU:
    def test_identical(self):
        box = Box3D((1, 0, 10), (1.5, 1.6, 4.0), 0.3)
        assert geometry.iou_bev(box, box) == pytest.approx(1.0)
        assert geometry.iou_3d(box, box) == pytest.approx(1.0)

    def test_offset_unit_squares(self):
        a = Box3D((0, 0, 10), (1, 1, 1), 0.0)
        b = Box3D((0.5, 0, 10), (1, 1, 1), 0.0)
        assert geometry.iou_bev(a, b) == pytest.approx(1 / 3)
        assert geometry.iou_3d(a, b) == pytest.approx(1 / 3)
        assert sample_iou_bev(a, b) == pytest.approx(1 / 3, abs=0.01)

    def test_rotated_square_octagon(self):
        a = Box3D((0, 0, 10), (1, 1, 1), 0.0)
        b = Box3D((0, 0, 10), (1, 1, 1), math.pi / 4)
        inter = 2 * (math.sqrt(2) - 1)
        assert geometry.iou_bev(a, b) == pytest.approx(inter / (2 - inter), abs=1e-9)
        assert geometry.iou_bev(a, b) == pytest.approx(0.7071, abs=1e-4)

    def test_disjoint_vertical_extents(self):
        a = Box3D((0, 0, 10), (1, 1, 1), 0.0)
        b = Box3D((0, 5, 10), (1, 1, 1), 0.0)
        assert geometry.iou_3d(a, b) == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            iou_ab = geometry.iou_3d(a, b)
            assert abs(iou_ab - geometry.iou_3d(b, a)) < 1e-12
            assert abs(geometry.iou_bev(a, b) - geometry.iou_bev(b, a)) < 1e-12
            assert 0.0 <= iou_ab <= 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            offset = tuple(rng.uniform(-5, 5, 3))
            before = geometry.iou_3d(a, b)
            after = geometry.iou_3d(a.translated(offset), b.translated(offset))
            assert abs(before - after) < 1e-9

    def test_yaw_periodicity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = random_box(rng)
            b = Box3D(a.center, tuple(rng.uniform(0.8, 1.5, 3)), rng.uniform(-3, 3))
            delta = rng.uniform(-math.pi, math.pi)
            before = geometry.iou_bev(a, b)
            # rotate both boxes about the shared center by the same angle
            a2 = Box3D(a.center, a.dims, a.yaw + delta)
            b2 = Box3D(b.center, b.dims, b.yaw + delta)
            assert abs(before - geometry.iou_bev(a2, b2)) < 1e-6

    def test_voxel_oracle_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = random_box(rng)
            b = a.translated(tuple(rng.uniform(-2, 2, 3)))
            b = Box3D(b.center, tuple(rng.uniform(1.0, 4.0, 3)), rng.uniform(-math.pi, math.pi))
            assert geometry.iou_3d(a, b) == pytest.approx(voxel_iou_3d(a, b, 100), abs=0.02)


class TestBoxValidation:
    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            Box3D((0, 0, 10), (0.0, 1, 1))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("index", range(7))
    def test_non_finite_rejected(self, bad, index):
        values = [0.0, 0.5, 10.0, 1.5, 1.6, 3.9, 0.2]
        values[index] = bad
        with pytest.raises(ValueError, match="finite"):
            Box3D(tuple(values[:3]), tuple(values[3:6]), values[6])

    def test_yaw_normalized_at_construction(self):
        assert Box3D((0, 0, 10), (1, 1, 1), 3 * math.pi).yaw == pytest.approx(math.pi)
        assert Box3D((0, 0, 10), (1, 1, 1), -math.pi).yaw == pytest.approx(math.pi)

    def test_calib_bottom_row_checked(self):
        with pytest.raises(ValueError):
            CameraCalib(np.array([[700, 0, 600, 0], [0, 700, 180, 0], [0, 1, 1, 0]], float))


def _box(x, y, z, h, w, l, yaw) -> Box3D:
    return Box3D((x, y, z), (h, w, l), yaw)


_BOXES = st.builds(
    _box,
    st.floats(-20, 20), st.floats(-2, 2), st.floats(5, 60),
    st.floats(0.5, 3), st.floats(0.5, 3), st.floats(0.5, 6),
    st.floats(-math.pi, math.pi),
)


# a KITTI P2 matrix, whose last column shifts the camera center
_KITTI_P2 = CameraCalib(np.array([
    [721.5377, 0.0, 609.5593, 44.85728],
    [0.0, 721.5377, 172.854, 0.2163791],
    [0.0, 0.0, 1.0, 0.002745884],
]))


@given(_BOXES)
def test_encode_decode_round_trip_property(box):
    kp, tau = geometry.encode_box(box, "Car", _KITTI_P2, STATS)
    out = geometry.decode_box(tau, kp, "Car", _KITTI_P2, STATS)
    assert out.center == pytest.approx(box.center, abs=1e-6)
    assert out.dims == pytest.approx(box.dims, abs=1e-6)
    assert abs(geometry.normalize_angle(out.yaw - box.yaw)) <= 1e-6


_TAU_VALUES = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([709.0, 720.0, math.nan, math.inf, -math.inf]),
)
_CANDIDATES = st.lists(
    st.tuples(
        st.integers(0, 319), st.integers(0, 95), st.lists(_TAU_VALUES, min_size=8, max_size=8)
    ),
    min_size=1,
    max_size=8,
)


def _wild_candidates():
    """A depth below zero; NaN and +-inf at each index; log-ratios past the
    exp overflow and at its edge for each dimension."""
    base = [0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0]
    rows = [[-(STATS.depth_mean / STATS.depth_std) - 0.1, *base[1:]]]
    for index in range(8):
        for value in (math.nan, math.inf, -math.inf):
            rows.append([value if i == index else v for i, v in enumerate(base)])
    for index in (3, 4, 5):
        for value in (709.0, 720.0):
            rows.append([value if i == index else v for i, v in enumerate(base)])
    return [(10 + i, 20, tau) for i, tau in enumerate(rows)]


def _seeded_candidates():
    """Rows of non-round values: numpy's exp and arctan2 differ from math's in
    the last bit on a few percent of them."""
    taus = np.random.default_rng(0).uniform(-1.0, 1.0, size=(48, 8))
    return [(100 + i, 30 + i, tau.tolist()) for i, tau in enumerate(taus)]


@given(st.sampled_from([synth.CALIB, _KITTI_P2]), _CANDIDATES)
@example(synth.CALIB, _wild_candidates())
@example(_KITTI_P2, _wild_candidates())
@example(synth.CALIB, _seeded_candidates())
def test_decode_rows_equal_scalar_decoder_property(calib, candidates):
    uv = [(u, v) for u, v, _ in candidates]
    taus = np.array([tau for _, _, tau in candidates])
    rows, ok = geometry.decode_rows(taus, uv, "Car", calib, STATS)
    for row, good, keypoint, tau in zip(rows, ok, uv, taus):
        try:
            with np.errstate(invalid="ignore"):  # the scalar steps on inf - inf
                box = scalar_decode_box(tau, keypoint, "Car", calib, STATS)
        except ValueError:
            assert not good
            with pytest.raises(ValueError):
                geometry.decode_box(tau, keypoint, "Car", calib, STATS)
            continue
        assert good
        assert row.tobytes() == geometry.box_array([box])[0].tobytes()
        assert geometry.decode_box(tau, keypoint, "Car", calib, STATS) == box


def _shifted(box: Box3D, along: float, across: float, dims=None, yaw_offset=0.0) -> Box3D:
    """A box moved `along` its heading and `across` it, in the ground plane."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    x, y, z = box.center
    return Box3D(
        (x + along * c + across * s, y, z - along * s + across * c),
        dims if dims is not None else box.dims,
        box.yaw + yaw_offset,
    )


_PAIR_KINDS = (
    "independent", "identical", "nested", "collinear", "edge", "corner", "disjoint", "rot90", "near"
)


@st.composite
def box_pairs(draw, kinds=_PAIR_KINDS):
    """Pairs of boxes of one of `kinds`: independent, identical, nested,
    overlapping along the same long edges, sharing an edge, touching at a
    corner, disjoint, rotated by 90 degrees about a shared center, or
    overlapping at random."""
    a = draw(_BOXES)
    h, w, l = a.dims
    kind = draw(st.sampled_from(kinds))
    if kind == "independent":
        b = draw(_BOXES)
    elif kind == "identical":
        b = a
    elif kind == "nested":
        scale = draw(st.floats(0.2, 0.9))
        b = _shifted(a, 0.0, 0.0, dims=(h * scale, w * scale, l * scale))
    elif kind == "collinear":
        b = _shifted(a, draw(st.floats(-l, l)), 0.0, dims=(h, w, l * draw(st.floats(0.1, 1.5))))
    elif kind == "edge":
        b = _shifted(a, l, 0.0)
    elif kind == "corner":
        b = _shifted(a, l, w)
    elif kind == "disjoint":
        b = _shifted(a, 2 * (l + w), draw(st.floats(-5, 5)))
    elif kind == "rot90":
        b = _shifted(a, 0.0, 0.0, dims=draw(_BOXES).dims, yaw_offset=math.pi / 2)
    else:
        other = draw(_BOXES)
        along, across = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
        b = _shifted(a, along, across, dims=other.dims, yaw_offset=other.yaw)
    return a, b


def _iou(a: Box3D, b: Box3D, criterion: str) -> float:
    return geometry.iou_3d(a, b) if criterion == "3d" else geometry.iou_bev(a, b)


def _moved(box: Box3D, angle: float, offset) -> Box3D:
    """The box rotated by `angle` about the camera y axis, then translated."""
    c, s = math.cos(angle), math.sin(angle)
    x, y, z = box.center
    ox, oy, oz = offset
    return Box3D((x * c + z * s + ox, y + oy, -x * s + z * c + oz), box.dims, box.yaw + angle)


def _kind_pairs() -> dict[str, tuple[Box3D, Box3D]]:
    """One fixed pair of each `box_pairs` kind but the random ones."""
    a = Box3D((3.17, 0.41, 23.9), (1.53, 1.71, 4.13), 0.731)
    h, w, l = a.dims
    return {
        "identical": (a, a),
        "nested": (a, _shifted(a, 0.0, 0.0, dims=(0.6 * h, 0.6 * w, 0.6 * l))),
        "collinear": (a, _shifted(a, 0.2 * l, 0.0, dims=(h, w, 0.5 * l))),
        "edge": (a, _shifted(a, l, 0.0)),
        "corner": (a, _shifted(a, l, w)),
        "disjoint": (a, _shifted(a, 2 * (l + w), 1.7)),
        "rot90": (a, _shifted(a, 0.0, 0.0, dims=(1.2, 2.3, 3.1), yaw_offset=math.pi / 2)),
    }


_KIND_PAIRS = _kind_pairs()


# (a, shift of b along a's heading, length of b), in units of a's length:
# collinear pairs whose parallel edges' `den` rounds to a nonzero value, so that
# only the kernel's parallel test keeps them on the clipping oracle
_ROUNDED_COLLINEAR = [
    (Box3D((15.58, 1.51, 59.45), (0.86, 2.51, 3.92), -2.828), 0.0, 1.3),
    (Box3D((-12.51, 0.99, 19.36), (1.16, 2.01, 5.93), -2.766), -0.03, 0.6),
    (Box3D((-10.27, -1.21, 30.73), (2.35, 2.44, 2.51), -2.48), -0.48, 0.96),
]


def _scaled(box: Box3D, k: float) -> Box3D:
    """The box with every length, center included, times k."""
    return Box3D(tuple(k * c for c in box.center), tuple(k * d for d in box.dims), box.yaw)


def _assert_matrix_matches_clipping_oracle(pairs, criterion: str) -> None:
    dets = [a for a, _ in pairs]
    gts = [b for _, b in pairs] + [dets[0]]
    matrix = geometry.rotated_iou(
        geometry.box_array(dets)[:, None], geometry.box_array(gts)[None], criterion
    )
    oracle = np.array([[clip_iou(d, g, criterion) for g in gts] for d in dets])
    assert matrix.shape == (len(dets), len(gts))
    np.testing.assert_allclose(matrix, oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("criterion", ["3d", "bev"])
class TestRotatedIoUProperties:
    @given(box_pairs())
    def test_symmetric_and_in_unit_interval(self, criterion, pair):
        a, b = pair
        iou_ab, iou_ba = _iou(a, b, criterion), _iou(b, a, criterion)
        assert 0.0 <= iou_ab <= 1.0
        assert abs(iou_ab - iou_ba) <= 1e-12

    @given(_BOXES)
    # a box whose clipped overlap with itself rounds below its own area, to an
    # IoU of 1 - 1e-15 (3d) and 1 - 7e-16 (bev)
    @example(box=Box3D((9.64, 1.39, 28.4), (1.36, 1.42, 3.51), -0.341))
    def test_self_iou_is_one(self, criterion, box):
        assert _iou(box, box, criterion) == 1.0

    @given(box_pairs(kinds=("edge", "corner")))
    # clipped spans of rounding size would give the edge pair an IoU of about 2e-17
    @example(pair=_KIND_PAIRS["edge"])
    @example(pair=_KIND_PAIRS["corner"])
    def test_touching_boxes_are_exactly_zero(self, criterion, pair):
        a, b = pair
        assert _iou(a, b, criterion) == 0.0
        assert _iou(b, a, criterion) == 0.0

    @given(
        box_pairs(),
        st.floats(-math.pi, math.pi),
        st.tuples(st.floats(-10, 10), st.floats(-2, 2), st.floats(-10, 10)),
    )
    def test_invariant_under_shared_yaw_rotation_and_translation(
        self, criterion, pair, angle, offset
    ):
        a, b = pair
        moved = _iou(_moved(a, angle, offset), _moved(b, angle, offset), criterion)
        assert moved == pytest.approx(_iou(a, b, criterion), abs=1e-9)

    @given(st.lists(box_pairs(), min_size=1, max_size=5))
    # a small box 50 m away: the oracle's shoelace has to work about a local origin
    @example(pairs=[(Box3D((20.0, 0.0, 51.09602413107627), (1.0, 0.5, 0.5), 1.0),) * 2])
    def test_matrix_matches_clipping_oracle(self, criterion, pairs):
        _assert_matrix_matches_clipping_oracle(pairs, criterion)

    # corners on or near the other box's edges decide these kinds, whatever hypothesis draws
    @pytest.mark.parametrize("kind", sorted(_KIND_PAIRS))
    def test_degenerate_kind_matches_clipping_oracle(self, criterion, kind):
        a, b = _KIND_PAIRS[kind]
        _assert_matrix_matches_clipping_oracle([(a, b), (b, a)], criterion)

    def test_rounded_collinear_pairs_match_clipping_oracle(self, criterion):
        pairs = []
        for a, along, length in _ROUNDED_COLLINEAR:
            h, w, l = a.dims
            b = _shifted(a, along * l, 0.0, dims=(h, w, length * l))
            pairs += [(a, b), (b, a)]
        _assert_matrix_matches_clipping_oracle(pairs, criterion)

    @pytest.mark.parametrize("k", [1e-100, 1e-5, 1e3, 1e100])
    def test_iou_does_not_depend_on_the_unit_of_length(self, criterion, k):
        for kind, (a, b) in _KIND_PAIRS.items():
            scaled = _iou(_scaled(a, k), _scaled(b, k), criterion)
            assert scaled == pytest.approx(_iou(a, b, criterion), abs=1e-12), kind


class TestRotatedIoUKernel:
    def test_scalar_forms_are_one_row_calls(self):
        a = Box3D((0, 0, 10), (1, 2, 4), 0.3)
        b = Box3D((0.5, 0.2, 10.5), (1.2, 1.8, 3.5), -0.4)
        rows_ab, rows_ba = geometry.box_array([a, b]), geometry.box_array([b, a])
        assert isinstance(geometry.iou_3d(a, b), float)
        assert geometry.rotated_iou(rows_ab, rows_ba, "3d").tolist() == [
            geometry.iou_3d(a, b), geometry.iou_3d(b, a)
        ]
        assert geometry.rotated_iou(rows_ab, rows_ba, "bev").tolist() == [
            geometry.iou_bev(a, b), geometry.iou_bev(b, a)
        ]
        inter = geometry.bev_intersection_area(a, b)
        assert geometry.iou_bev(a, b) == inter / (2 * 4 + 1.8 * 3.5 - inter)

    def test_far_apart_pairs_are_exactly_zero(self):
        a = Box3D((0, 0, 10), (1, 2, 4), 0.3)
        assert geometry.bev_intersection_area(a, Box3D((5, 0, 10), (1, 2, 4), 0.3)) == 0.0
        assert geometry.iou_3d(a, Box3D((0, 3, 10), (1, 2, 4), 0.3)) == 0.0

    @pytest.mark.parametrize("criterion", ["3d", "bev"])
    @pytest.mark.parametrize("far", [1e200, 1.7e308])
    @pytest.mark.parametrize("axis", [0, 2], ids=["x", "z"])
    def test_huge_center_offsets_are_zero_without_warning(self, criterion, far, axis):
        a = np.array([0.0, 1.0, 30.0, 1.5, 1.6, 4.0, 0.2])
        b = a.copy()
        a[axis], b[axis] = far, -far
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geometry.rotated_iou(a, b, criterion) == 0.0
            assert geometry.rotated_iou(b, a, criterion) == 0.0

    def test_broadcast_shapes(self):
        rows = geometry.box_array([Box3D((i, 0, 10), (1, 1, 1), 0.0) for i in range(3)])
        assert geometry.rotated_iou(rows[:, None], rows[None, :2]).shape == (3, 2)
        assert geometry.rotated_iou(rows, rows, "bev").tolist() == [1.0, 1.0, 1.0]
        assert geometry.rotated_iou(rows[:0, None], rows[None]).shape == (0, 3)
        assert geometry.box_array([]).shape == (0, 7)

    def test_zero_union_rule(self):
        tiny = np.array([0.0, 0.0, 10.0, 1e-200, 1e-200, 1e-200, 0.0])
        other = tiny + [1e-201, 0, 0, 0, 0, 0, 0]
        assert geometry.rotated_iou(tiny, tiny, "3d") == 1.0
        assert geometry.rotated_iou(tiny, other, "3d") == 0.0

    def test_bad_input_rejected(self):
        rows = np.zeros((2, 7))
        with pytest.raises(ValueError, match="criterion"):
            geometry.rotated_iou(rows, rows, "2d")
        with pytest.raises(ValueError, match="7 columns"):
            geometry.rotated_iou(np.zeros((2, 6)), np.zeros((2, 6)))
