import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kp3d import geometry, kitti_io
from kp3d.evaluation import Detection
from kp3d.geometry import Box3D
from kp3d.kitti_io import KittiFormatError

GT_LINE = "Car 0.00 0 -1.57 100.0 120.0 200.0 180.0 1.50 1.60 3.80 -2.0 1.7 30.0 -1.64"
# finite dimensions whose box volume overflows: 3D and BEV IoU of the box with
# itself would be NaN
HUGE_LINE = "Car 0.00 0 0.00 0 0 50 100 1e200 1e200 1e200 0 1.5 30 0"
# a location so large that y - h / 2 and y + h / 2 round to one value: the 3D
# IoU of the box with itself would read 0
FAR_LINE = "Car 0.00 0 0.00 0 0 50 100 1.5 1.6 4.0 0 1e16 30 0"
# dimensions whose footprint area is a subnormal float: the BEV IoU of the box
# with itself would read 2/3
TINY_LINE = "Car 0.00 0 0.00 0 0 50 100 5e-162 5e-162 5e-162 0 0 0 0"


def _line(field: int, value: str, score: str = "") -> str:
    fields = GT_LINE.split()
    fields[field] = value
    return " ".join(fields) + score


class TestParseLabelLine:
    def test_ground_truth_line(self):
        label = kitti_io.parse_label_line(GT_LINE)
        assert label.type == "Car"
        assert label.location == (-2.0, 1.7, 30.0)
        assert label.rotation_y == -1.64
        assert label.dimensions == (1.50, 1.60, 3.80)
        assert label.bbox == (100.0, 120.0, 200.0, 180.0)
        assert label.score is None

    def test_detection_line_with_score(self):
        label = kitti_io.parse_label_line(GT_LINE + " 0.95")
        assert label.score == 0.95

    def test_wrong_field_count(self):
        with pytest.raises(KittiFormatError, match="expected 15 or 16 fields"):
            kitti_io.parse_label_line("Car 0.00 0 -1.57 100 120 200 180 1.5 1.6 3.8 -2 1.7 30")

    def test_non_numeric_field_named(self):
        bad = GT_LINE.replace("30.0", "abc")
        with pytest.raises(KittiFormatError, match="'z'"):
            kitti_io.parse_label_line(bad)

    def test_error_carries_line_number(self):
        with pytest.raises(KittiFormatError, match="line 3"):
            kitti_io.parse_label_file(f"{GT_LINE}\n{GT_LINE}\nCar 1\n")

    def test_dontcare_sentinels_preserved(self):
        line = "DontCare -1 -1 -10 500.0 150.0 520.0 160.0 -1 -1 -1 -1000 -1000 -1000 -10"
        label = kitti_io.parse_label_line(line)
        assert label.dimensions == (-1.0, -1.0, -1.0)
        assert label.location == (-1000.0, -1000.0, -1000.0)

    def test_integral_float_occlusion_accepted(self):
        assert kitti_io.parse_label_line(_line(2, "2.0")).occluded == 2


# field values a label file may hold: valid numbers, sentinels, overflow,
# non-finite and non-numeric text
_FIELD_VALUES = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e400", "2.7", "5.0", "0", "1", "-1", "-10", "x"]),
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
)


@given(
    st.sampled_from(["Car", "DontCare", "Van"]),
    st.lists(_FIELD_VALUES, min_size=14, max_size=15),
)
@example("Car", _line(2, "inf").split()[1:])
@example("Car", _line(2, "nan").split()[1:])
@example("Car", _line(2, "1e400").split()[1:])
@example("Car", _line(2, "2.7").split()[1:])
@example("Car", _line(1, "5.0").split()[1:])
@example("Car", _line(1, "5.0", " 0.5").split()[1:])
@example("Car", _line(7, "nan").split()[1:])
@example("Car", _line(4, "inf", " 0.5").split()[1:])
@example("Car", _line(3, "nan").split()[1:])
@example("Car", _line(8, "1e308").replace(" 1.7 ", " -1.5e308 ").split()[1:])
@example("Car", HUGE_LINE.split()[1:])
@example("Car", FAR_LINE.split()[1:])
@example("Car", (FAR_LINE + " 0.9").split()[1:])
@example("Car", TINY_LINE.split()[1:])
def test_fuzzed_lines_raise_only_format_errors(cls, values):
    try:
        label = kitti_io.parse_label_line(" ".join([cls, *values]))
    except KittiFormatError:
        return
    assert all(math.isfinite(float(v)) for v in values)
    for convert in (label.to_ground_truth, label.to_detection):
        try:
            box = convert().box
        except KittiFormatError:
            continue
        # a box that converts has a self-IoU of 1, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(geometry.iou_3d(box, box) - 1.0) <= 1e-9
            assert abs(geometry.iou_bev(box, box) - 1.0) <= 1e-9


class TestBoxConversion:
    def test_bottom_center_to_box_center(self):
        label = kitti_io.parse_label_line(GT_LINE)
        box = label.to_box3d()
        # camera y is down: geometric center is h/2 above the bottom-center
        assert box.center == (-2.0, 1.7 - 0.75, 30.0)
        assert box.dims == (1.50, 1.60, 3.80)

    @pytest.mark.parametrize("field, value", [(1, "5.0"), (1, "-0.1"), (7, "50.0")])
    def test_ground_truth_field_out_of_range_rejected(self, field, value):
        # truncation outside [0, 1]; a bbox bottom above its top
        label = kitti_io.parse_label_line(_line(field, value))
        with pytest.raises(KittiFormatError):
            label.to_ground_truth()

    def test_ground_truth_carries_difficulty_inputs(self):
        g = kitti_io.parse_label_line(GT_LINE).to_ground_truth()
        assert g.bbox_height == 60.0

    def test_overflowing_center_rejected(self):
        # finite fields whose box center y - h / 2 would overflow to -inf: the
        # height is past the dimension bound
        label = kitti_io.parse_label_line(_line(8, "1e308").replace(" 1.7 ", " -1.5e308 "))
        with pytest.raises(KittiFormatError, match="'height'"):
            label.to_box3d()

    @pytest.mark.parametrize("field, name", [(8, "'height'"), (9, "'width'"), (10, "'length'")])
    def test_dimension_above_bound_rejected(self, field, name):
        assert kitti_io.parse_label_line(_line(field, "1e100")).to_box3d().dims[field - 8] == 1e100
        above = kitti_io.parse_label_line(_line(field, repr(math.nextafter(1e100, math.inf))))
        with pytest.raises(KittiFormatError, match=name):
            above.to_box3d()

    @pytest.mark.parametrize("field, name", [(8, "'height'"), (9, "'width'"), (10, "'length'")])
    def test_dimension_below_bound_rejected(self, field, name):
        def at_origin(value):  # no location is too far for the smallest dimension
            return kitti_io.parse_label_line(_line(field, value).replace(" -2.0 1.7 30.0 ", " 0 0 0 "))

        assert at_origin("1e-100").to_box3d().dims[field - 8] == 1e-100
        with pytest.raises(KittiFormatError, match=name):
            at_origin(repr(math.nextafter(1e-100, 0.0))).to_box3d()

    @pytest.mark.parametrize("field", [11, 12, 13])
    def test_location_beyond_dimensions_rejected(self, field):
        # the smallest dimension is 1.5 m, so a coordinate may reach 1.5e6 m
        limit = 1.5e6
        for value in (limit, -limit, -1000.0):  # KITTI's -1000 sentinel among them
            kitti_io.parse_label_line(_line(field, repr(value))).to_box3d()
        for value in (math.nextafter(limit, math.inf), -1e16):
            with pytest.raises(KittiFormatError, match="'location'"):
                kitti_io.parse_label_line(_line(field, repr(value))).to_box3d()

    @pytest.mark.parametrize("field, value", [(11, "inf"), (9, "nan"), (14, "-inf")])
    def test_non_finite_field_rejected(self, field, value):
        fields = GT_LINE.split()
        fields[field] = value
        with pytest.raises(kitti_io.KittiFormatError, match="finite"):
            kitti_io.parse_label_line(" ".join(fields)).to_box3d()


class TestSerialization:
    def test_round_trip_geometry_precision(self):
        det = Detection(box=Box3D((-2.0, 0.95, 30.0), (1.5, 1.6, 3.8), -1.64), cls="Car", score=0.953125)
        line = kitti_io.serialize_detection(det)
        back = kitti_io.parse_label_line(line)
        assert back.type == "Car"
        assert back.score == 0.953125
        out = back.to_box3d()
        assert out.center == pytest.approx(det.box.center, abs=0.005)
        assert out.dims == pytest.approx(det.box.dims, abs=0.005)

    def test_score_formatting_six_decimals(self):
        det = Detection(box=Box3D((0, 0, 10), (1, 1, 1)), cls="Car", score=0.953125)
        assert kitti_io.serialize_detection(det).endswith(" 0.953125")

    def test_class_name_verbatim(self):
        det = Detection(box=Box3D((0, 0, 10), (1, 1, 1)), cls="Cyclist", score=0.5)
        assert kitti_io.serialize_detection(det).startswith("Cyclist ")

    def test_box_label_without_score_is_ground_truth(self):
        box = Box3D((-2.0, 0.95, 30.0), (1.5, 1.6, 3.8), -1.64)
        line = kitti_io.serialize_label(kitti_io.box_label(box, "Car"))
        assert len(line.split()) == 15
        back = kitti_io.parse_label_line(line)
        assert back.score is None
        assert back.to_ground_truth().box.center == pytest.approx(box.center, abs=0.005)

    @pytest.mark.parametrize("x, yaw", [(-5.0, 3.0), (5.0, -3.0), (0.0, math.pi)])
    def test_box_label_alpha_in_kitti_range(self, x, yaw):
        # yaw - atan2(x, z) is 3.46 at yaw 3.0, x = -5, z = 10: one turn out of range
        label = kitti_io.box_label(Box3D((x, 1.0, 10.0), (1.5, 1.6, 3.8), yaw), "Car")
        assert -math.pi < label.alpha <= math.pi
        turns = (label.alpha - (label.rotation_y - math.atan2(x, 10.0))) / (2 * math.pi)
        assert turns == pytest.approx(round(turns), abs=1e-12)

    def test_parse_serialize_parse_idempotent(self):
        label = kitti_io.parse_label_line(GT_LINE + " 0.95")
        once = kitti_io.serialize_label(label)
        twice = kitti_io.serialize_label(kitti_io.parse_label_line(once))
        assert once == twice


class TestDirectoryLoading:
    def test_sorted_by_frame_id(self, tmp_path):
        for fid in (7, 1, 3):
            (tmp_path / f"{fid:06d}.txt").write_text(GT_LINE + "\n")
        frames = kitti_io.load_label_dir(tmp_path)
        assert list(frames) == [1, 3, 7]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            kitti_io.load_label_dir(tmp_path / "nope")

    def test_corpus_round_trip_idempotent(self, tmp_path):
        rng = np.random.default_rng(11)
        for fid in range(200):
            lines = []
            for _ in range(int(rng.integers(1, 5))):
                det = Detection(
                    box=Box3D(
                        (rng.uniform(-20, 20), rng.uniform(-1, 2), rng.uniform(5, 60)),
                        tuple(rng.uniform(0.5, 4.5, 3)),
                        rng.uniform(-3.1, 3.1),
                    ),
                    cls=str(rng.choice(["Car", "Pedestrian", "Cyclist"])),
                    score=float(rng.random()),
                )
                lines.append(kitti_io.serialize_detection(det))
            (tmp_path / f"{fid:06d}.txt").write_text("\n".join(lines) + "\n")
        frames = kitti_io.load_label_dir(tmp_path)
        assert len(frames) == 200
        for fid, labels in frames.items():
            once = "\n".join(kitti_io.serialize_label(l) for l in labels) + "\n"
            reparsed = kitti_io.parse_label_file(once)
            twice = "\n".join(kitti_io.serialize_label(l) for l in reparsed) + "\n"
            assert once == twice
            assert reparsed == labels


class TestSplit:
    def test_sizes_and_disjointness(self):
        train, val = kitti_io.load_train_val_split()
        assert len(train) == 3712
        assert len(val) == 3769
        assert not set(train) & set(val)
        assert len(set(train) | set(val)) == 7481
