import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from kp3d import evaluation
from kp3d.evaluation import Detection, Difficulty, FrameMatches, GroundTruth
from kp3d.geometry import Box3D, box_array

from oracles import brute_force_ap, brute_force_ap_r11, clip_iou, counts_at, loop_pr_curve


def box(x=0.0, z=10.0, yaw=0.0, dims=(1.5, 1.6, 4.0)):
    return Box3D((x, 0.0, z), dims, yaw)


def det(b, score, cls="Car"):
    return Detection(box=b, cls=cls, score=score)


def gt(b, cls="Car", **kwargs):
    return GroundTruth(box=b, cls=cls, **kwargs)


# probe GT limits on each side of every stratum boundary
_HEIGHTS = [0.0, 24.999999, 25.0, 25.000001, 39.999999, 40.0, 40.000001, 1e9, math.nan]
_OCCLUSIONS = [-1, 0, 1, 2, 3]
_TRUNCATIONS = [0.0, 0.15, 0.1500001, 0.3, 0.3000001, 0.5, 0.5000001, 1.0]


@pytest.mark.parametrize("difficulty", list(Difficulty), ids=lambda d: d.value)
@pytest.mark.parametrize("bbox_height", _HEIGHTS)
def test_gt_counts_as_the_stratum_rank_rule_says(difficulty, bbox_height):
    # a far anchor GT that always counts, a probe GT and a detection equal to
    # the probe: a TP at recall 0.5 if the probe counts, dropped if it is ignored
    anchor = gt(box(x=20.0))
    for occlusion, truncation in itertools.product(_OCCLUSIONS, _TRUNCATIONS):
        probe = gt(box(), bbox_height=bbox_height, occlusion=occlusion, truncation=truncation)
        report = evaluation.evaluate(
            {0: [det(box(), 0.5)]}, {0: [anchor, probe]}, difficulty=difficulty
        )
        counts = counts_at(difficulty.value, bbox_height, occlusion, truncation)
        assert report["pr_curve"] == ([[0.5, 1.0]] if counts else []), (occlusion, truncation)


def match(dets, gts, criterion, threshold, ignored=None):
    """`match_frame` on Detection and GroundTruth lists, stacked into box rows
    the way `evaluate` stacks them."""
    return evaluation.match_frame(
        box_array([d.box for d in dets]), [d.score for d in dets],
        box_array([g.box for g in gts]),
        [False] * len(gts) if ignored is None else ignored, criterion, threshold,
    )


class TestMatchFrame:
    def test_perfect_match(self):
        m = match([det(box(), 0.9)], [gt(box())], "3d", 0.7)
        assert m.tp_scores == [0.9]
        assert m.fp_scores == []
        assert m.n_gt == 1

    def test_greedy_one_to_one(self):
        dets = [det(box(), 0.8), det(box(), 0.9)]
        m = match(dets, [gt(box())], "3d", 0.7)
        assert m.tp_scores == [0.9]
        assert m.fp_scores == [0.8]

    def test_low_iou_is_fp_and_miss(self):
        m = match([det(box(x=2.0), 0.9)], [gt(box())], "3d", 0.7)
        assert m.tp_scores == []
        assert m.fp_scores == [0.9]
        assert m.n_gt == 1

    def test_ignored_gt_absorbs_detection(self):
        m = match([det(box(), 0.9)], [gt(box())], "3d", 0.7, ignored=[True])
        assert m.tp_scores == []
        assert m.fp_scores == []
        assert m.n_gt == 0

    def test_equal_score_tie_break_by_index(self):
        dets = [det(box(), 0.9), det(box(x=20), 0.9)]
        m = match(dets, [gt(box())], "3d", 0.7)
        assert m.tp_scores == [0.9]
        assert m.fp_scores == [0.9]

    def test_bev_criterion(self):
        # disjoint vertical extents: BEV still matches, 3D does not
        a = Box3D((0, 0, 10), (1.5, 1.6, 4.0), 0.0)
        b = Box3D((0, 5, 10), (1.5, 1.6, 4.0), 0.0)
        assert match([det(a, 0.9)], [gt(b)], "bev", 0.7).tp_scores == [0.9]
        assert match([det(a, 0.9)], [gt(b)], "3d", 0.7).tp_scores == []

    @pytest.mark.parametrize("criterion", ["3d", "bev"])
    def test_gt_iou_tie_goes_to_lower_gt_index(self, criterion):
        # the detection at x = 0 has IoU 7/9 with both GTs; the one at x = 1
        # reaches only the GT at x = +0.5
        dets = [det(box(x=0.0), 0.9), det(box(x=1.0), 0.8)]
        gts = [gt(box(x=-0.5)), gt(box(x=0.5))]
        assert match(dets, gts, criterion, 0.7) == FrameMatches([0.9, 0.8], [], n_gt=2)
        assert match(dets, gts[::-1], criterion, 0.7) == FrameMatches([0.9], [0.8], n_gt=2)

    def test_nan_iou_row_matches_nothing(self):
        # a NaN height makes the detection's IoU NaN against every GT: it
        # takes no GT, and the ignored GT does not absorb it
        rows = box_array([box(), box()])
        rows[0, 3] = np.nan
        with np.errstate(invalid="ignore"):
            m = evaluation.match_frame(rows, [0.9, 0.8], rows[[1, 1]], [False, True], "3d", 0.7)
        assert m == FrameMatches(tp_scores=[0.8], fp_scores=[0.9], n_gt=1)

    def test_detection_reaching_only_a_taken_gt_is_fp(self):
        dets = [det(box(), 0.9), det(box(x=0.3), 0.8)]
        m = match(dets, [gt(box()), gt(box(x=20.0))], "3d", 0.7)
        assert m == FrameMatches(tp_scores=[0.9], fp_scores=[0.8], n_gt=2)

    @pytest.mark.parametrize("criterion, threshold", [("3d", 0.7), ("bev", 0.5), ("3d", 0.25)])
    def test_matches_per_pair_greedy_oracle(self, criterion, threshold):
        # the greedy rule over one IoU per (detection, GT) pair, from the clipping oracle
        rng = np.random.default_rng(7)
        for _ in range(30):
            gts = [gt(box(rng.uniform(-4, 4), rng.uniform(8, 16), rng.uniform(-3, 3)))
                   for _ in range(rng.integers(0, 6))]
            dets = [det(box(rng.uniform(-4, 4), rng.uniform(8, 16), rng.uniform(-3, 3)),
                        float(rng.choice([0.3, 0.5, 0.9]))) for _ in range(rng.integers(0, 8))]
            dets += [det(g.box, 0.7) for g in gts[:2]]
            ignored = [bool(rng.random() < 0.3) for _ in gts]
            expected = FrameMatches(n_gt=ignored.count(False))
            taken = [False] * len(gts)
            for di in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)):
                ious = [clip_iou(dets[di].box, g.box, criterion) for g in gts]
                free = [j for j in range(len(gts)) if not taken[j] and not ignored[j]
                        and ious[j] >= threshold]
                if free:
                    taken[max(free, key=lambda j: (ious[j], -j))] = True
                    expected.tp_scores.append(dets[di].score)
                elif not any(ig and v >= threshold for ig, v in zip(ignored, ious)):
                    expected.fp_scores.append(dets[di].score)
            assert match(dets, gts, criterion, threshold, ignored) == expected

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError, match="criterion"):
            match([], [], "2d", 0.7)


class TestAveragePrecision:
    def test_all_detected_no_fp(self):
        frames = [FrameMatches(tp_scores=[0.9, 0.8], fp_scores=[], n_gt=2)]
        assert evaluation.average_precision(frames, "r11") == 100.0
        assert evaluation.average_precision(frames, "r40") == 100.0

    def test_fp_then_tp_fixture(self):
        frames = [FrameMatches(tp_scores=[0.8], fp_scores=[0.9], n_gt=1)]
        assert evaluation.average_precision(frames, "r11") == 50.0

    def test_no_tp(self):
        frames = [FrameMatches(tp_scores=[], fp_scores=[0.9, 0.5], n_gt=3)]
        assert evaluation.average_precision(frames, "r11") == 0.0
        assert evaluation.average_precision(frames, "r40") == 0.0

    def test_empty_stratum_rejected(self):
        with pytest.raises(ValueError, match="empty stratum"):
            evaluation.average_precision([FrameMatches(n_gt=0)], "r11")

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_gt = int(rng.integers(1, 10))
            n_det = int(rng.integers(0, 21))
            scores = rng.random(n_det)
            is_tp = rng.random(n_det) < 0.6
            tp_scores = list(scores[is_tp])[:n_gt]
            fp_scores = list(scores[~is_tp]) + list(scores[is_tp])[n_gt:]
            frames = [FrameMatches(tp_scores=tp_scores, fp_scores=fp_scores, n_gt=n_gt)]
            expected = brute_force_ap_r11(tp_scores, fp_scores, n_gt)
            assert evaluation.average_precision(frames, "r11") == pytest.approx(expected, abs=1e-12)

    def test_adding_fp_never_increases_ap(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            tp = list(rng.random(int(rng.integers(1, 6))))
            fp = list(rng.random(int(rng.integers(0, 6))))
            base = evaluation.average_precision([FrameMatches(tp, fp, n_gt=len(tp) + 1)], "r11")
            more = evaluation.average_precision(
                [FrameMatches(tp, fp + [float(rng.random())], n_gt=len(tp) + 1)], "r11"
            )
            assert more <= base + 1e-12

    def test_adding_tp_for_missed_gt_never_decreases_ap(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            tp = list(rng.random(int(rng.integers(1, 6))))
            fp = list(rng.random(int(rng.integers(0, 6))))
            n_gt = len(tp) + 2
            base = evaluation.average_precision([FrameMatches(tp, fp, n_gt=n_gt)], "r11")
            more = evaluation.average_precision(
                [FrameMatches(tp + [float(rng.random())], fp, n_gt=n_gt)], "r11"
            )
            assert more >= base - 1e-12


class TestEvaluate:
    def _frames(self):
        gts = {0: [gt(box()), gt(box(x=8.0))], 1: [gt(box(z=20.0))]}
        dets = {
            0: [det(box(), 0.95), det(box(x=8.0), 0.9)],
            1: [det(box(z=20.0), 0.85)],
        }
        return dets, gts

    def test_self_evaluation_is_perfect(self):
        dets, gts = self._frames()
        for criterion in ("3d", "bev"):
            for mode in ("r11", "r40"):
                report = evaluation.evaluate(
                    dets, gts, criterion=criterion, threshold=0.99, mode=mode
                )
                assert report["ap"] == 100.0

    def test_report_fields(self):
        dets, gts = self._frames()
        report = evaluation.evaluate(dets, gts)
        assert report["class"] == "Car"
        assert report["criterion"] == "3d"
        assert report["iou_threshold"] == 0.7
        assert report["mode"] == "r11"
        assert 0.0 <= report["ap"] <= 100.0
        assert all(len(p) == 2 for p in report["pr_curve"])

    def test_harder_gts_ignored_at_easier_difficulty(self):
        gts = {0: [gt(box(), bbox_height=50), gt(box(x=8.0), bbox_height=26, occlusion=2, truncation=0.4)]}
        dets = {0: [det(box(), 0.95), det(box(x=8.0), 0.9)]}
        report = evaluation.evaluate(dets, gts, difficulty=Difficulty.EASY)
        assert report["ap"] == 100.0  # hard GT ignored, its detection absorbed


# GT boxes on a coarse x grid (no two overlap) and detections near grid points,
# so a frame mixes hits, misses, ties and ignored GTs
_GRID = [-16.0, -8.0, 0.0, 8.0, 16.0]


@st.composite
def _frame(draw):
    gts = [
        gt(box(x=x), bbox_height=draw(st.sampled_from([10.0, 30.0, 50.0])))
        for x in draw(st.lists(st.sampled_from(_GRID), max_size=4, unique=True))
    ]
    dets = [
        det(box(x=x + draw(st.floats(-1.0, 1.0))), draw(st.sampled_from([0.2, 0.5, 0.9])))
        for x in draw(st.lists(st.sampled_from(_GRID), max_size=5))
    ]
    return dets, gts


def _ap(dets, gts):
    try:
        report = evaluation.evaluate(
            dets, gts, difficulty=Difficulty.MODERATE, criterion="bev", threshold=0.7, mode="r40"
        )
    except evaluation.EmptyStratumError:
        return None
    return report["ap"], report["pr_curve"]


@given(
    st.lists(_frame(), min_size=1, max_size=5).flatmap(
        lambda frames: st.tuples(
            st.just(frames),
            st.lists(
                st.integers(0, 999_999), min_size=len(frames), max_size=len(frames), unique=True
            ),
            st.permutations(range(len(frames))),
        )
    )
)
def test_ap_independent_of_frame_id_order(case):
    frames, ids, perm = case
    as_given = _ap({ids[i]: d for i, (d, _) in enumerate(frames)},
                   {ids[i]: g for i, (_, g) in enumerate(frames)})
    permuted = _ap({ids[perm[i]]: d for i, (d, _) in enumerate(frames)},
                   {ids[perm[i]]: g for i, (_, g) in enumerate(frames)})
    assert as_given == permuted


# most pipeline detections score exactly 0, so scores tie often
_SCORES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _frame_matches(draw):
    tp = draw(st.lists(_SCORES, max_size=8))
    fp = draw(st.lists(_SCORES, max_size=8))
    return FrameMatches(tp_scores=tp, fp_scores=fp, n_gt=len(tp) + draw(st.integers(0, 3)))


@given(st.lists(_frame_matches(), min_size=1, max_size=4))
@example([FrameMatches([0.0, 0.5, 0.0], [0.0, 0.5, 1.0], n_gt=4), FrameMatches([0.0], [0.0], 1)])
@example([FrameMatches([], [0.0, 0.0], n_gt=2)])
def test_pr_curve_and_ap_with_score_ties(frames):
    assume(sum(f.n_gt for f in frames) > 0)
    assert evaluation.pr_curve(frames) == loop_pr_curve(frames)
    tp = [s for f in frames for s in f.tp_scores]
    fp = [s for f in frames for s in f.fp_scores]
    n_gt = sum(f.n_gt for f in frames)
    for mode in ("r11", "r40"):
        assert evaluation.average_precision(frames, mode) == brute_force_ap(tp, fp, n_gt, mode)
