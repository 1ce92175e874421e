import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from kp3d import cli, kitti_io
from kp3d.evaluation import Detection
from kp3d.geometry import Box3D

GT_LINE = "Car 0.00 0 -1.57 100.0 120.0 200.0 180.0 1.50 1.60 3.80 -2.0 1.7 30.0 -1.64"
# finite dimensions whose box volume overflows, so IoU would be NaN
HUGE_LINE = "Car 0.00 0 0.00 0 0 50 100 1e200 1e200 1e200 0 1.5 30 0"


def write_fixture(tmp_path, dets_equal_gt=True):
    gt_dir = tmp_path / "gt"
    det_dir = tmp_path / "det"
    gt_dir.mkdir()
    det_dir.mkdir()
    (gt_dir / "000000.txt").write_text(GT_LINE + "\n")
    if dets_equal_gt:
        (det_dir / "000000.txt").write_text(GT_LINE + " 0.95\n")
    else:
        # one FP at higher score, then the TP
        fp = Detection(box=Box3D((15.0, 0.95, 30.0), (1.5, 1.6, 3.8), 0.0), cls="Car", score=0.9)
        lines = [kitti_io.serialize_detection(fp), GT_LINE + " 0.80"]
        (det_dir / "000000.txt").write_text("\n".join(lines) + "\n")
    return gt_dir, det_dir


class TestEvalCommand:
    def test_self_evaluation_ap_100(self, tmp_path):
        gt_dir, det_dir = write_fixture(tmp_path)
        out = tmp_path / "report.json"
        code = cli.main(
            ["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir),
             "--criterion", "3d", "--iou", "0.7", "--mode", "r11", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ap"] == 100.0

    def test_fp_tp_fixture_ap_50(self, tmp_path):
        gt_dir, det_dir = write_fixture(tmp_path, dets_equal_gt=False)
        out = tmp_path / "report.json"
        code = cli.main(
            ["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir), "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["ap"] == 50.0

    def test_missing_directory_exit_2(self, tmp_path):
        assert cli.main(["eval", "--gt-dir", str(tmp_path / "nope"), "--det-dir", str(tmp_path)]) == 2

    def test_missing_detection_frame_exit_2(self, tmp_path):
        gt_dir, det_dir = write_fixture(tmp_path)
        (gt_dir / "000001.txt").write_text(GT_LINE + "\n")
        assert cli.main(["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir)]) == 2

    def test_parse_error_exit_3(self, tmp_path):
        gt_dir, det_dir = write_fixture(tmp_path)
        (det_dir / "000000.txt").write_text("Car 1 2\n")
        out = tmp_path / "report.json"
        assert cli.main(
            ["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir), "--out", str(out)]
        ) == 3

    def test_score_above_one_exit_3(self, tmp_path, capsys):
        gt_dir, det_dir = write_fixture(tmp_path)
        (det_dir / "000000.txt").write_text(GT_LINE + " 1.5\n")
        assert cli.main(["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir),
                         "--out", str(tmp_path / "report.json")]) == 3
        assert "'score'" in capsys.readouterr().err

    @pytest.mark.parametrize("where, text, named", [
        ("det", "Car 1 2\n", "{file}: expected 15 or 16 fields, got 3 at line 1"),
        ("det", GT_LINE + " 1.5\n", "{dir}, frame 0: field 'score' must be in [0, 1], got 1.5"),
        ("gt", GT_LINE.replace(" 180.0 ", " 118.5 ") + "\n",
         "{dir}, frame 0: bbox_height must be non-negative, got -1.5"),
    ], ids=["field_count", "score", "bbox_height"])
    def test_label_error_names_its_file_or_frame(self, tmp_path, capsys, where, text, named):
        dirs = dict(zip(("gt", "det"), write_fixture(tmp_path)))
        (dirs[where] / "000000.txt").write_text(text)
        assert cli.main(["eval", "--gt-dir", str(dirs["gt"]), "--det-dir", str(dirs["det"]),
                         "--out", str(tmp_path / "report.json")]) == 3
        err = capsys.readouterr().err
        assert named.format(file=dirs[where] / "000000.txt", dir=dirs[where]) in err
        assert "Traceback" not in err

    def test_zero_dimension_label_exit_3(self, tmp_path, capsys):
        gt_dir, det_dir = write_fixture(tmp_path)
        (gt_dir / "000000.txt").write_text(GT_LINE.replace(" 1.60 ", " 0.00 ") + "\n")
        assert cli.main(["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir),
                         "--out", str(tmp_path / "report.json")]) == 3
        assert "'width'" in capsys.readouterr().err

    def test_non_numeric_file_stem_exit_3(self, tmp_path, capsys):
        gt_dir, det_dir = write_fixture(tmp_path)
        (det_dir / "abc.txt").write_text(GT_LINE + " 0.95\n")
        assert cli.main(["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir),
                         "--out", str(tmp_path / "report.json")]) == 3
        assert "abc.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["utf16", "directory"])
    def test_unreadable_label_file_exit_3(self, tmp_path, capsys, entry):
        gt_dir, det_dir = write_fixture(tmp_path)
        if entry == "utf16":  # starts with the bytes ff fe
            (det_dir / "000000.txt").write_bytes((GT_LINE + " 0.95\n").encode("utf-16"))
            named = "'000000.txt' is not UTF-8 text"
        else:
            (gt_dir / "000001.txt").mkdir()
            named = "'000001.txt' is not a regular file"
        assert cli.main(["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir),
                         "--out", str(tmp_path / "report.json")]) == 3
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_duplicate_frame_id_exit_3(self, tmp_path, capsys):
        gt_dir, det_dir = write_fixture(tmp_path)
        (gt_dir / "0.txt").write_text(GT_LINE + "\n")
        assert cli.main(["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir),
                         "--out", str(tmp_path / "report.json")]) == 3
        err = capsys.readouterr().err
        assert "0.txt" in err and "000000.txt" in err

    @pytest.mark.parametrize(
        "where, field, value, named",
        [
            ("gt", 2, "inf", "'occluded'"),
            ("gt", 2, "nan", "'occluded'"),
            ("gt", 2, "1e400", "'occluded'"),
            ("gt", 2, "2.7", "'occluded'"),
            ("det", 2, "inf", "'occluded'"),
            ("gt", 1, "5.0", "truncation"),
        ],
    )
    def test_bad_occlusion_or_truncation_exit_3(self, tmp_path, capsys, where, field, value, named):
        dirs = dict(zip(("gt", "det"), write_fixture(tmp_path)))
        fields = GT_LINE.split()
        fields[field] = value
        score = " 0.95" if where == "det" else ""
        (dirs[where] / "000000.txt").write_text(" ".join(fields) + score + "\n")
        assert cli.main(["eval", "--gt-dir", str(dirs["gt"]), "--det-dir", str(dirs["det"]),
                         "--out", str(tmp_path / "report.json")]) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, field, value, named",
        [
            ("gt", 7, "nan", "'bbox_bottom'"),
            ("det", 4, "inf", "'bbox_left'"),
            ("gt", 3, "nan", "'alpha'"),
        ],
    )
    def test_non_finite_field_exit_3(self, tmp_path, capsys, where, field, value, named):
        # a NaN bbox height would fail every difficulty's limits, dropping a TP
        dirs = dict(zip(("gt", "det"), write_fixture(tmp_path)))
        fields = GT_LINE.split()
        fields[field] = value
        score = " 0.95" if where == "det" else ""
        (dirs[where] / "000000.txt").write_text(" ".join(fields) + score + "\n")
        out = tmp_path / "report.json"
        assert cli.main(["eval", "--gt-dir", str(dirs["gt"]), "--det-dir", str(dirs["det"]),
                         "--out", str(out)]) == 3
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_huge_dimension_label_exit_3(self, tmp_path, capsys):
        # a detection identical to its GT used to score as an FP (AP 0.0, exit
        # 0) behind a stream of numpy RuntimeWarnings
        gt_dir, det_dir = write_fixture(tmp_path)
        (gt_dir / "000000.txt").write_text(HUGE_LINE + "\n")
        (det_dir / "000000.txt").write_text(HUGE_LINE + " 0.9\n")
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir),
                             "--out", str(out)])
        assert code == 3
        assert "'height'" in capsys.readouterr().err
        assert not out.exists()

    def test_far_location_label_exit_3(self, tmp_path, capsys):
        # at y = 1e16 the box height rounds away, and a detection identical to
        # its GT used to score as an FP (3D AP 0.0, exit 0)
        far_line = "Car 0.00 0 0.00 0 0 50 100 1.5 1.6 4.0 0 1e16 30 0"
        gt_dir, det_dir = write_fixture(tmp_path)
        (gt_dir / "000000.txt").write_text(far_line + "\n")
        (det_dir / "000000.txt").write_text(far_line + " 0.9\n")
        out = tmp_path / "report.json"
        code = cli.main(["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir),
                         "--criterion", "3d", "--out", str(out)])
        assert code == 3
        assert "'location'" in capsys.readouterr().err
        assert not out.exists()

    def test_report_does_not_depend_on_the_unit_of_length(self, tmp_path):
        # a detection touching the GT end to end outscores one equal to it; with
        # an absolute tolerance the touching one matched at 1e-5 m (AP 100.0)
        def line(unit, x, score=""):
            lengths = " ".join(repr(unit * v) for v in (1.5, 1.6, 3.8, x, 1.7, 30.0))
            return f"Car 0.00 0 0.00 100.0 120.0 200.0 180.0 {lengths} 0.0 {score}".strip()

        reports = []
        for unit in (1.0, 1e-5):
            gt_dir, det_dir = tmp_path / f"{unit}" / "gt", tmp_path / f"{unit}" / "det"
            gt_dir.mkdir(parents=True)
            det_dir.mkdir()
            (gt_dir / "000000.txt").write_text(line(unit, 0.0) + "\n")
            (det_dir / "000000.txt").write_text(f"{line(unit, 3.8, 0.9)}\n{line(unit, 0.0, 0.8)}\n")
            out = tmp_path / f"{unit}" / "report.json"
            code = cli.main(["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir),
                             "--criterion", "bev", "--iou", "0.5", "--mode", "r40",
                             "--out", str(out)])
            assert code == 0
            reports.append(out.read_text())
        assert json.loads(reports[0])["ap"] == 50.0
        assert reports[1] == reports[0]

    @pytest.mark.parametrize(
        "gt_text, difficulty",
        [
            ("DontCare -1 -1 -10 500.0 150.0 520.0 160.0 -1 -1 -1 -1000 -1000 -1000 -10\n", "hard"),
            (GT_LINE.replace("Car 0.00 0 ", "Car 0.00 2 ") + "\n", "moderate"),
        ],
        ids=["only_dontcare", "all_ignored"],
    )
    def test_empty_stratum_exit_2(self, tmp_path, capsys, gt_text, difficulty):
        gt_dir, det_dir = write_fixture(tmp_path)
        (gt_dir / "000000.txt").write_text(gt_text)
        out = tmp_path / "report.json"
        assert cli.main(["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir),
                         "--difficulty", difficulty, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'Car'" in err and repr(difficulty) in err
        assert not out.exists()

    def test_demo_labels_empty_stratum_exit_2(self, tmp_path, capsys):
        # the demo writes zero-height 2D boxes, so every GT is ignored
        demo = tmp_path / "demo"
        cli.main(["demo", "--n-scenes", "1", "--n-objects", "2", "--epochs", "5",
                  "--out-dir", str(demo)])
        assert cli.main(["eval", "--gt-dir", str(demo / "label_gt"),
                         "--det-dir", str(demo / "label_det"),
                         "--out", str(tmp_path / "report.json")]) == 2
        assert "'Car'" in capsys.readouterr().err


def _with_field(line: str, field: int, value: str) -> str:
    fields = line.split()
    fields[field] = value
    return " ".join(fields)


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


# numeric field texts: valid values, KITTI sentinels, non-finite, overflowing
# and non-numeric text
_NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e200", "-1", "0", "0.5", "2", "x"]),
    st.floats().map(repr),
    st.floats(-50.0, 50.0).map(repr),
)


@st.composite
def _label_line(draw, score: bool) -> str:
    """GT_LINE with a drawn class and at most one numeric field replaced, plus
    a trailing score for a detection."""
    line = _with_field(GT_LINE, 0, draw(st.sampled_from(["Car", "DontCare", "Van"])))
    for field in draw(st.lists(st.integers(1, 14), max_size=1)):
        line = _with_field(line, field, draw(_NUMBER))
    if score:
        line += " " + draw(st.one_of(st.floats(0.0, 1.0).map(repr), _NUMBER))
    return line


@given(st.lists(
    st.tuples(st.lists(_label_line(False), max_size=2), st.lists(_label_line(True), max_size=2)),
    min_size=1, max_size=3,
))
@example([([_with_field(GT_LINE, 13, "nan")], [GT_LINE + " 0.9"])])
@example([([GT_LINE], [_with_field(GT_LINE, 9, "inf") + " 0.9"])])
@example([([_with_field(GT_LINE, 11, "1e400")], [GT_LINE + " 0.9"])])
@example([([GT_LINE], [GT_LINE + " nan"])])
@example([([HUGE_LINE], [HUGE_LINE + " 0.9"])])
def test_eval_exit_codes_on_fuzzed_label_dirs(frames):
    """`kp3d eval` over one (GT lines, detection lines) file pair per frame
    exits 0, 2 or 3 without a traceback, and 0 only when every numeric field
    is finite."""
    with tempfile.TemporaryDirectory() as tmp:
        gt_dir, det_dir = Path(tmp, "gt"), Path(tmp, "det")
        gt_dir.mkdir()
        det_dir.mkdir()
        for frame, (gt_lines, det_lines) in enumerate(frames):
            (gt_dir / f"{frame:06d}.txt").write_text("".join(l + "\n" for l in gt_lines))
            (det_dir / f"{frame:06d}.txt").write_text("".join(l + "\n" for l in det_lines))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["eval", "--gt-dir", str(gt_dir), "--det-dir", str(det_dir),
                             "--out", str(Path(tmp, "report.json"))])
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        lines = [l for gt_lines, det_lines in frames for l in gt_lines + det_lines]
        assert all(_finite(f) for l in lines for f in l.split()[1:])


class TestBenchCommand:
    def test_default_flop_ratio(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = cli.main(["bench", "--reps", "12", "--min-speedup", "0", "--out", str(out)])
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[7]) == 102.4

    def test_k_zero_row(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.main(
            ["bench", "--reps", "12", "--k", "0", "--min-speedup", "0", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines()[1].split(",")[6] == "0"

    def test_no_assert_never_fails_on_slow_measurement(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.main(
            ["bench", "--reps", "12", "--min-speedup", "0", "--out", str(out)]
        )
        assert code == 0

    def test_grid_too_small_for_coarsest_level_exits_64(self, tmp_path, capsys):
        code = cli.main(["bench", "--height", "8", "--reps", "12", "--out", str(tmp_path / "b.csv")])
        assert code == 64
        assert ">= 16" in capsys.readouterr().err

    # each is rejected before the pyramid is built, so none of them allocates
    @pytest.mark.parametrize("flags, named", [
        (["--k", "100000000"], "--k must be <= 30720"),
        (["--height", "32", "--width", "32", "--k", "65"], "--k must be <= 64"),
        (["--height", "16388", "--width", "16388", "--channels", "1", "--outputs", "1"],
         "--height/4 x --width/4 x max(--channels, --outputs)"),
        (["--outputs", "1000"], "max(--channels, --outputs)"),
    ])
    def test_bench_sizes_past_their_bounds_exit_64(self, tmp_path, capsys, flags, named):
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", *flags, "--reps", "10", "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()


class TestDemoCommand:
    def test_zero_noise_perfect_ap(self, tmp_path):
        out_dir = tmp_path / "demo"
        code = cli.main(
            ["demo", "--seed", "1", "--n-scenes", "2", "--n-objects", "4",
             "--noise", "0", "--epochs", "60", "--out-dir", str(out_dir)]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["mean_ap"] == 100.0
        assert (out_dir / "bev" / "000000.svg").exists()
        assert (out_dir / "label_det" / "000001.txt").exists()

    def test_gt_labels_are_15_field_ground_truth_lines(self, tmp_path):
        out_dir = tmp_path / "demo"
        cli.main(["demo", "--n-scenes", "1", "--n-objects", "3", "--epochs", "5",
                  "--out-dir", str(out_dir)])
        lines = (out_dir / "label_gt" / "000000.txt").read_text().splitlines()
        assert len(lines) == 3
        assert all(len(line.split()) == 15 for line in lines)
        assert all(label.score is None for label in kitti_io.parse_label_file("\n".join(lines)))

    def test_same_seed_byte_identical_svg(self, tmp_path):
        svgs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            cli.main(
                ["demo", "--seed", "3", "--n-scenes", "1", "--n-objects", "3",
                 "--noise", "0", "--epochs", "20", "--out-dir", str(out_dir)]
            )
            svgs.append((out_dir / "bev" / "000000.svg").read_bytes())
        assert svgs[0] == svgs[1]

    def test_attention_beta_zero_matches_l1(self, tmp_path):
        outputs = []
        for name, flags in [("l1", ["--loss", "l1"]), ("attn", ["--loss", "attention", "--beta-attn", "0"])]:
            out_dir = tmp_path / name
            cli.main(
                ["demo", "--seed", "2", "--n-scenes", "1", "--n-objects", "3",
                 "--noise", "0", "--epochs", "30", "--out-dir", str(out_dir), *flags]
            )
            outputs.append((out_dir / "label_det" / "000000.txt").read_bytes())
        assert outputs[0] == outputs[1]


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert cli.main(["gradcheck", "--trials", "5"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_detects_injected_wrong_sign(self, monkeypatch):
        from kp3d import losses

        focal = losses.focal_loss

        def wrong_sign(*args, **kwargs):
            value, grad = focal(*args, **kwargs)
            return value, -grad

        monkeypatch.setattr(losses, "focal_loss", wrong_sign)
        assert cli.main(["gradcheck", "--trials", "2"]) == 5

    def test_step_echoed(self, capsys):
        cli.main(["gradcheck", "--trials", "1", "--step", "1e-5"])
        assert "1e-05" in capsys.readouterr().out

    def test_unknown_flag_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", "--bogus"])
        assert exc.value.code == 64

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0


class TestNumericFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["demo", "--n-scenes", "0"], "--n-scenes"),
        (["demo", "--n-objects", "0"], "--n-objects"),
        (["demo", "--n-objects", "-2"], "--n-objects"),
        (["demo", "--beta-attn", "-1"], "--beta-attn"),
        (["demo", "--noise", "-1"], "--noise"),
        (["demo", "--noise", "nan"], "--noise"),
        (["demo", "--noise", "inf"], "--noise"),
        (["demo", "--k", "-5"], "--k"),
        (["demo", "--epochs", "-1"], "--epochs"),
        (["demo", "--iou", "1.5"], "--iou"),
        (["demo", "--seed", "-1"], "--seed"),
        (["demo", "--n-scenes", "2.5"], "--n-scenes"),
        (["gradcheck", "--step", "0"], "--step"),
        (["gradcheck", "--trials", "-1"], "--trials"),
        (["gradcheck", "--trials", "0"], "--trials"),
        (["eval", "--gt-dir", "gt", "--det-dir", "det", "--iou", "0"], "--iou"),
        (["eval", "--gt-dir", "gt", "--det-dir", "det", "--iou", "nan"], "--iou"),
        (["bench", "--min-speedup", "nan"], "--min-speedup"),
        (["bench", "--height", "0"], "--height"),
        (["bench", "--width", "-16"], "--width"),
        (["bench", "--channels", "0"], "--channels"),
        (["bench", "--outputs", "0"], "--outputs"),
        (["bench", "--k", "-1"], "--k"),
        (["bench", "--reps", "9"], "--reps"),
    ])
    def test_bad_numeric_flag_exits_64_naming_it(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag, existing", [
    (["eval", "--gt-dir", "gt", "--det-dir", "det", "--out"], "--out", "directory"),
    (["eval", "--gt-dir", "gt", "--det-dir", "det", "--pr-csv"], "--pr-csv", "directory"),
    (["bench", "--out"], "--out", "directory"),
    (["demo", "--out-dir"], "--out-dir", "file"),
    # the output path lies under a regular file: writing it used to fail with a
    # traceback after the whole run
    (["eval", "--gt-dir", "gt", "--det-dir", "det", "--out"], "--out", "parent file"),
    (["eval", "--gt-dir", "gt", "--det-dir", "det", "--pr-csv"], "--pr-csv", "parent file"),
    (["bench", "--out"], "--out", "parent file"),
    (["demo", "--out-dir"], "--out-dir", "parent file"),
])
def test_output_path_of_the_wrong_kind_exits_64_before_any_work(tmp_path, capsys, argv, flag, existing):
    target = tmp_path / "taken"
    if existing == "directory":
        target.mkdir()
    else:
        target.write_text("keep me\n")
    path, wrong = target, "exists and is not a"
    if existing == "parent file":
        path, wrong = target / "sub" / "out", f"lies under {str(target)!r}, which is not a directory"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, str(path)])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert f"argument {flag}: {str(path)!r} {wrong}" in err
    assert "Traceback" not in err
    assert existing == "directory" or target.read_text() == "keep me\n"
