"""Hash the observable outputs of a kp3d checkout, so that two checkouts can be
compared for byte identity.

    python tools/output_digest.py <checkout> <out.json>
    python tools/output_digest.py compare <parent.json> <change.json>

The first form imports `kp3d` from `<checkout>/src` and writes a JSON object that
maps each entry name to the sha256 of one output:

- `pipeline/...`: `synth.run_pipeline` on 180 seeded scenes (seeds 0-44 x
  feature noise 0 and 0.05 x 5 and 20 objects), each at `3d 0.7` and
  `bev 0.5`: the detections (class, then score, center, dims and yaw as
  `float.hex`), the AP report (`json.dumps`) and the PR curve (`float.hex`);
- `scene/...`: the bytes of `synth.oracle_pyramid`'s predicted heatmap and of
  each feature pyramid level on 80 seeded scenes (seeds 0-19 x feature noise
  0 and 0.05 x 5 and 20 objects). Detections only show the heatmap cells that
  reach top-K; these entries show every cell, tails included. The levels are
  zero except at the cells the head reads at the keypoints;
- `train/...`: `synth.toy_train` loss traces (`float.hex`) and learned heads
  (array bytes) with the L1 and the attention loss, at noise 0 and 0.05;
- `eval/pair...`: the exit code, stdout and `report.json` bytes of `kp3d eval`
  on generated KITTI-style label directory pairs, under three settings;
- `eval/case/...`: `evaluation.evaluate` reports (`json.dumps`) on small
  constructed frames that take the matcher's tie and absorb paths: two GTs
  tied on IoU (in both GT orders), a detection that reaches only a GT already
  taken, an ignored GT that absorbs a detection, and equal detection scores;
- `eval/strata/...`: `evaluation.evaluate` reports (`json.dumps`) at each
  difficulty on frames of a far anchor GT, a probe GT and a detection equal
  to the probe, with the probe's 2D box height (one entry each), occlusion and
  truncation on each side of every KITTI stratum limit;
- `iou/...`: `geometry.rotated_iou` (`float.hex`) at `3d` and `bev` on 40
  seeded `box_array` pairs of each kind (independent random boxes, identical,
  nested, overlapping along the same long edges, sharing an edge, touching at
  a corner, disjoint, rotated 90 degrees about a shared center, and near
  each other at random), as aligned pairs and as the 40 x 40 matrix; the
  aligned pairs also with every length (centers and dimensions) times 1e-5
  and times 1e3 (`pairs_x1e-05`, `pairs_x1000`), since an IoU does not depend
  on the unit of length.

Only the public API is used, so the script runs on older checkouts too. To
check that a change leaves every output as it was, run it on a clone of the
parent commit and on the change, then compare the two files:

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python tools/output_digest.py ../parent parent.json
    python tools/output_digest.py . change.json
    python tools/output_digest.py compare parent.json change.json

`compare` reads the two files with `json` alone, so they may come from any
checkouts. It prints how many entries changed of each family's total, per
top-level family (`iou`) and per second-level key (`iou/edge`), then the name
of every changed entry; an entry in only one file counts as changed. It exits
0 only if the two files are identical, and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hex(values) -> str:
    return " ".join(float.hex(float(v)) for v in values)


def pipeline_entries(synth) -> dict[str, str]:
    out = {}
    for seed in range(45):
        for noise in (0.0, 0.05):
            for n_objects in (5, 20):
                scene = synth.generate_scene(synth.SceneSpec(seed=seed, n_objects=n_objects))
                model = synth.OracleModel(feature_noise=noise)
                for criterion, threshold in (("3d", 0.7), ("bev", 0.5)):
                    dets, report = synth.run_pipeline(
                        scene, model, criterion=criterion, threshold=threshold
                    )
                    key = f"pipeline/seed{seed}/noise{noise}/n{n_objects}/{criterion}{threshold}"
                    out[f"{key}/detections"] = _sha("\n".join(
                        f"{d.cls} {_hex([d.score, *d.box.center, *d.box.dims, d.box.yaw])}"
                        for d in dets
                    ))
                    out[f"{key}/report"] = _sha(json.dumps(report, sort_keys=True))
                    out[f"{key}/pr_curve"] = _sha("\n".join(_hex(p) for p in report["pr_curve"]))
    return out


def scene_entries(synth) -> dict[str, str]:
    out = {}
    for seed in range(20):
        for noise in (0.0, 0.05):
            for n_objects in (5, 20):
                scene = synth.generate_scene(synth.SceneSpec(seed=seed, n_objects=n_objects))
                pred_hm, pyramid = synth.oracle_pyramid(scene, synth.OracleModel(feature_noise=noise))
                key = f"scene/seed{seed}/noise{noise}/n{n_objects}"
                out[f"{key}/pred_hm"] = hashlib.sha256(pred_hm.tobytes()).hexdigest()
                for i, level in enumerate(pyramid.levels):
                    out[f"{key}/level{i}"] = hashlib.sha256(level.tobytes()).hexdigest()
    return out


def train_entries(synth) -> dict[str, str]:
    out = {}
    for noise in (0.0, 0.05):
        model = synth.OracleModel(feature_noise=noise)
        for first_seed in (0, 2):
            scenes = [
                synth.generate_scene(synth.SceneSpec(seed=s, n_objects=12))
                for s in (first_seed, first_seed + 1)
            ]
            for loss in ("l1", "attention"):
                head, trace = synth.toy_train(scenes, model, loss=loss, epochs=20)
                key = f"train/noise{noise}/seeds{first_seed}/{loss}"
                out[f"{key}/trace"] = _sha(_hex(trace))
                out[f"{key}/head"] = hashlib.sha256(
                    head.weights.tobytes() + head.bias.tobytes()
                ).hexdigest()
    return out


def _label(cls, truncated, occluded, alpha, bbox, dims, loc, yaw, score=None) -> str:
    parts = [cls, f"{truncated:.2f}", str(occluded), f"{alpha:.2f}"]
    parts += [f"{v:.2f}" for v in (*bbox, *dims, *loc, yaw)]
    if score is not None:
        parts.append(f"{score:.6f}")
    return " ".join(parts)


def _frame_texts(rng) -> tuple[str, str]:
    """One frame's GT and detection label texts: Cars in every difficulty
    stratum, a DontCare row, perturbed detections of most Cars and a few false
    positives. Scores are rounded to 0.1 or are 0, so they tie often."""
    gt_lines, det_lines = [], []
    for i in range(int(rng.integers(1, 9))):
        z = rng.uniform(5.0, 50.0)
        x, y = rng.uniform(-0.6, 0.6) * z, 1.65 + rng.normal(0.0, 0.1)
        h, w, l = 1.52 + rng.normal(0, 0.08), 1.63 + rng.normal(0, 0.08), 3.88 + rng.normal(0, 0.3)
        yaw = rng.uniform(-math.pi, math.pi)
        u, v, bh = 640.0 + 700.0 * x / z, 192.0 + 700.0 * (y - h / 2) / z, 700.0 * h / z
        bbox = (u - bh, v - bh / 2, u + bh, v + bh / 2)
        occluded, truncated = int(rng.integers(0, 4)), float(rng.choice([0.0, 0.2, 0.4, 0.6]))
        alpha = yaw - math.atan2(x, z)
        gt_lines.append(_label("Car", truncated, occluded, alpha, bbox, (h, w, l), (x, y, z), yaw))
        for _ in range(int(rng.choice([0, 1, 1, 2]))):
            dx, dz, dyaw = rng.normal(0.0, 0.4), rng.normal(0.0, 0.4), rng.normal(0.0, 0.2)
            score = 0.0 if rng.random() < 0.2 else round(float(rng.uniform(0.1, 1.0)), 1)
            det_lines.append(_label("Car", 0.0, 0, alpha, bbox, (h, w, l),
                                    (x + dx, y, z + dz), yaw + dyaw, score))
    gt_lines.append("DontCare -1 -1 -10 500.00 150.00 540.00 180.00 -1 -1 -1 -1000 -1000 -1000 -10")
    for _ in range(int(rng.integers(0, 3))):
        z = rng.uniform(5.0, 50.0)
        score = round(float(rng.uniform(0.0, 0.6)), 1)
        det_lines.append(_label("Car", 0.0, 0, 0.0, (0.0, 0.0, 50.0, 50.0), (1.5, 1.6, 3.9),
                                (rng.uniform(-0.6, 0.6) * z, 1.65, z), 0.0, score))
    return "".join(s + "\n" for s in gt_lines), "".join(s + "\n" for s in det_lines)


def eval_entries(cli) -> dict[str, str]:
    settings = (
        ("bev", "0.5", "r40", "moderate"),
        ("3d", "0.7", "r11", "hard"),
        ("3d", "0.5", "r40", "easy"),
    )
    out = {}
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(12):
            base = Path(tmp) / f"pair{pair:02d}"
            (base / "gt").mkdir(parents=True)
            (base / "det").mkdir()
            for frame in range(int(rng.integers(1, 12))):
                gt_text, det_text = _frame_texts(rng)
                (base / "gt" / f"{frame:06d}.txt").write_text(gt_text)
                (base / "det" / f"{frame:06d}.txt").write_text(det_text)
            for criterion, iou, mode, difficulty in settings:
                report = base / "report.json"
                report.unlink(missing_ok=True)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([
                        "eval", "--gt-dir", str(base / "gt"), "--det-dir", str(base / "det"),
                        "--criterion", criterion, "--iou", iou, "--mode", mode,
                        "--difficulty", difficulty, "--out", str(report),
                    ])
                text = report.read_text() if report.exists() else ""
                key = f"eval/pair{pair:02d}/{criterion}{iou}/{mode}/{difficulty}"
                out[key] = _sha(f"{code}\n{stdout.getvalue()}\n{text}")
    return out


def _case_frames(evaluation, geometry) -> dict[str, tuple[dict, dict]]:
    """(detection frames, GT frames) per matcher case; boxes are 1.5 x 1.6 x 4.0
    at z = 10 and yaw 0, so centers 0.5 apart along x overlap with IoU 7/9."""

    def box(x):
        return geometry.Box3D((x, 0.0, 10.0), (1.5, 1.6, 4.0), 0.0)

    def det(x, score):
        return evaluation.Detection(box(x), "Car", score)

    def gt(x, bbox_height=100.0):
        return evaluation.GroundTruth(box(x), "Car", bbox_height=bbox_height)

    tied = [det(0.0, 0.9), det(1.0, 0.8)]
    return {
        "gt_iou_tie": ({0: tied}, {0: [gt(-0.5), gt(0.5)]}),
        "gt_iou_tie_reversed": ({0: tied}, {0: [gt(0.5), gt(-0.5)]}),
        "taken_gt": ({0: [det(0.0, 0.9), det(0.3, 0.8)]}, {0: [gt(0.0), gt(20.0)]}),
        "ignored_gt_absorbs": (
            {0: [det(0.0, 0.9), det(8.0, 0.8), det(20.0, 0.5)], 1: [det(0.0, 0.7)]},
            {0: [gt(0.0, bbox_height=10.0), gt(8.0)], 1: [gt(0.0)]},
        ),
        "equal_scores": (
            {0: [det(20.0, 0.9), det(0.0, 0.9), det(0.2, 0.9)], 1: [det(0.0, 0.9)]},
            {0: [gt(0.0), gt(8.0)], 1: [gt(0.0)]},
        ),
    }


def case_entries(evaluation, geometry) -> dict[str, str]:
    out = {}
    for case, (dets, gts) in _case_frames(evaluation, geometry).items():
        for criterion, threshold, mode in (("3d", 0.7, "r11"), ("bev", 0.5, "r40")):
            report = evaluation.evaluate(
                dets, gts, criterion=criterion, threshold=threshold, mode=mode
            )
            out[f"eval/case/{case}/{criterion}{threshold}/{mode}"] = _sha(
                json.dumps(report, sort_keys=True)
            )
    return out


def strata_entries(evaluation, geometry) -> dict[str, str]:
    """One frame per probe: a far anchor GT, a probe GT on each side of every
    stratum limit, and a detection equal to the probe, evaluated at each level."""
    box = geometry.Box3D((0.0, 0.0, 10.0), (1.5, 1.6, 4.0), 0.0)
    anchor = evaluation.GroundTruth(geometry.Box3D((20.0, 0.0, 10.0), (1.5, 1.6, 4.0), 0.0), "Car")
    dets = {0: [evaluation.Detection(box, "Car", 0.5)]}
    levels = (evaluation.Difficulty.EASY, evaluation.Difficulty.MODERATE, evaluation.Difficulty.HARD)
    out = {}
    for difficulty in levels:
        for height in (0.0, 24.999999, 25.0, 25.000001, 39.999999, 40.0, 40.000001, 1e9, math.nan):
            reports = []
            for occlusion in (-1, 0, 1, 2, 3):
                for truncation in (0.0, 0.15, 0.1500001, 0.3, 0.3000001, 0.5, 0.5000001, 1.0):
                    probe = evaluation.GroundTruth(
                        box, "Car", bbox_height=height, occlusion=occlusion, truncation=truncation
                    )
                    reports.append(evaluation.evaluate(
                        dets, {0: [anchor, probe]}, difficulty=difficulty
                    ))
            out[f"eval/strata/{difficulty.value}/h{height!r}"] = _sha(
                json.dumps(reports, sort_keys=True)
            )
    return out


def _iou_pairs(geometry, kind: str, rng) -> tuple[np.ndarray, np.ndarray]:
    """40 (a, b) box row pairs of one kind; each b is placed in a's frame."""

    def boxes():
        return [
            geometry.Box3D(
                (rng.uniform(-20, 20), rng.uniform(-2, 2), rng.uniform(5, 60)),
                (rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 6)),
                rng.uniform(-math.pi, math.pi),
            )
            for _ in range(40)
        ]

    def shifted(box, along, across, dims=None, yaw_offset=0.0):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        x, y, z = box.center
        return geometry.Box3D(
            (x + along * c + across * s, y, z - along * s + across * c),
            dims if dims is not None else box.dims,
            box.yaw + yaw_offset,
        )

    a_boxes, others = boxes(), boxes()
    b_boxes = []
    for a, other in zip(a_boxes, others):
        h, w, l = a.dims
        b_boxes.append({
            "independent": lambda: other,
            "identical": lambda: a,
            "nested": lambda: shifted(a, 0.0, 0.0, tuple(d * rng.uniform(0.2, 0.9) for d in a.dims)),
            "collinear": lambda: shifted(a, rng.uniform(-l, l), 0.0, (h, w, l * rng.uniform(0.1, 1.5))),
            "edge": lambda: shifted(a, l, 0.0),
            "corner": lambda: shifted(a, l, w),
            "disjoint": lambda: shifted(a, 2 * (l + w), rng.uniform(-5, 5)),
            "rot90": lambda: shifted(a, 0.0, 0.0, other.dims, math.pi / 2),
            "near": lambda: shifted(a, rng.uniform(-3, 3), rng.uniform(-3, 3), other.dims, other.yaw),
        }[kind]())
    return geometry.box_array(a_boxes), geometry.box_array(b_boxes)


# the other units of length the IoU pairs are also measured in
SCALES = (1e-5, 1e3)


def iou_entries(geometry) -> dict[str, str]:
    out = {}
    rng = np.random.default_rng(0)
    for kind in ("independent", "identical", "nested", "collinear", "edge", "corner",
                 "disjoint", "rot90", "near"):
        a, b = _iou_pairs(geometry, kind, rng)
        for criterion in ("3d", "bev"):
            out[f"iou/{kind}/{criterion}/pairs"] = _sha(_hex(geometry.rotated_iou(a, b, criterion)))
            out[f"iou/{kind}/{criterion}/matrix"] = _sha(
                _hex(geometry.rotated_iou(a[:, None], b[None], criterion).ravel())
            )
            for k in SCALES:
                unit = np.array([k] * 6 + [1.0])  # every length, not the yaw
                out[f"iou/{kind}/{criterion}/pairs_x{k:g}"] = _sha(
                    _hex(geometry.rotated_iou(a * unit, b * unit, criterion))
                )
    return out


def compare(parent: dict, change: dict) -> tuple[dict, list[str]]:
    """(counts, changed): [changed, total] entries per top-level family and per
    second-level key, and the sorted names of the changed entries."""
    counts, changed = {}, []
    for name in sorted(parent.keys() | change.keys()):
        differs = parent.get(name) != change.get(name)
        family, key = name.split("/")[:2]
        for group in (family, f"{family}/{key}"):
            count = counts.setdefault(group, [0, 0])
            count[0] += differs
            count[1] += 1
        if differs:
            changed.append(name)
    return counts, changed


def _compare(parent_path: Path, change_path: Path) -> int:
    parent, change = json.loads(parent_path.read_text()), json.loads(change_path.read_text())
    counts, changed = compare(parent, change)
    for group, (n_changed, total) in sorted(counts.items()):
        indent = "  " if "/" in group else ""
        print(f"{indent}{group}: {n_changed} of {total} changed")
    for name in changed:
        only = "" if name in parent and name in change else (
            " (only in the parent)" if name in parent else " (only in the change)"
        )
        print(f"changed: {name}{only}")
    print(f"{len(changed)} of {len(parent.keys() | change.keys())} entries changed")
    return 1 if changed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "compare":
        return _compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 2 or argv[0] == "compare":
        print(__doc__, file=sys.stderr)
        return 64
    checkout, out_path = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(checkout / "src"))
    from kp3d import cli, evaluation, geometry, synth

    if not Path(synth.__file__).resolve().is_relative_to(checkout):
        print(f"kp3d was imported from {synth.__file__}, not from {checkout}", file=sys.stderr)
        return 2
    entries = {
        **pipeline_entries(synth), **scene_entries(synth), **train_entries(synth),
        **eval_entries(cli), **case_entries(evaluation, geometry),
        **strata_entries(evaluation, geometry), **iou_entries(geometry),
    }
    out_path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} entries written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
