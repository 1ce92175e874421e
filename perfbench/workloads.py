"""The benchmark's four workloads over the kp3d public API.

Each workload builds a fixed pool of inputs from the run's seed during set-up
(`__init__`), then serves ops over that pool: `op(i)` is the timed call into
the library and `check(i, out)` validates its output outside the timed region.
README.md in this directory says why each workload exists and which per-layer
metric should move which end-to-end metric on it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kp3d import cli, evaluation, geometry, litefpn, synth
from kp3d.evaluation import Detection, GroundTruth


class CheckError(Exception):
    """An op returned, but its output is wrong."""


@dataclass(frozen=True)
class Outcome:
    items: int  # units behind items_per_s done by this op
    ap: float  # AP in percent attributed to this pool entry
    key: tuple  # exact output summary; repeated and traced ops must reproduce it
    loss: float | None = None  # final training loss, on training workloads


def _check_ap(ap: float) -> float:
    if not 0.0 <= ap <= 100.0:  # also rejects NaN
        raise CheckError(f"AP {ap!r} outside [0, 100]")
    return ap


def _det_key(dets) -> tuple:
    return tuple((d.score, *d.box.center, *d.box.dims, d.box.yaw) for d in dets)


class _Workload:
    pool_size: int

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.digest = hashlib.sha256()
        self.build(workdir)
        self.order = [int(i) for i in self.rng.permutation(self.pool_size)]

    def build(self, workdir: Path):
        raise NotImplementedError

    def _distinct_seeds(self, n: int) -> list[int]:
        return [int(s) for s in self.rng.choice(2**31, size=n, replace=False)]


class _SceneWorkload(_Workload):
    """One `synth.run_pipeline` call per op, 3D IoU 0.7, r40, HARD."""

    n_objects: int
    feature_noise: float

    def build(self, workdir):
        self.model = synth.OracleModel(feature_noise=self.feature_noise)
        self.scenes = [
            synth.generate_scene(synth.SceneSpec(seed=s, n_objects=self.n_objects))
            for s in self._distinct_seeds(self.pool_size)
        ]
        for scene in self.scenes:
            self.digest.update(repr(scene.objects).encode())

    def op(self, i):
        return synth.run_pipeline(
            self.scenes[i], self.model, k=100, criterion="3d", threshold=0.7, mode="r40"
        )

    def check(self, i, out) -> Outcome:
        dets, report = out
        ap = _check_ap(report["ap"])
        return Outcome(items=1, ap=ap, key=(ap, len(dets), _det_key(dets)))


class SceneNoisy(_SceneWorkload):
    pool_size = 176
    n_objects = 20
    feature_noise = 0.05


class SceneExact(_SceneWorkload):
    pool_size = 64
    n_objects = 5
    feature_noise = 0.0

    def check(self, i, out) -> Outcome:
        outcome = super().check(i, out)
        if outcome.ap != 100.0:
            raise CheckError(f"exact scene AP {outcome.ap!r}, expected 100.0")
        centers = np.array([d.box.center for d in out[0]])
        for box, _ in self.scenes[i].objects:
            miss = np.abs(centers - box.center).max(axis=1).min()
            if not miss <= 1e-6:
                raise CheckError(f"no detection within 1e-6 of GT center {box.center}")
        return outcome


class TrainAttention(_Workload):
    """One `synth.toy_train(loss="attention")` call per op on two scenes of 12
    objects at feature noise 0.05, for a fixed 20 epochs."""

    pool_size = 24
    epochs = 20

    def build(self, workdir):
        self.model = synth.OracleModel(feature_noise=0.05)
        seeds = self._distinct_seeds(2 * self.pool_size)
        self.sets = [
            [synth.generate_scene(synth.SceneSpec(seed=s, n_objects=12)) for s in seeds[j : j + 2]]
            for j in range(0, len(seeds), 2)
        ]
        for scenes in self.sets:
            self.digest.update(repr([s.objects for s in scenes]).encode())
        self._ap = {}

    def op(self, i):
        return synth.toy_train(self.sets[i], self.model, loss="attention", epochs=self.epochs)

    def check(self, i, out) -> Outcome:
        head, trace = out
        if len(trace) != self.epochs or not all(math.isfinite(v) for v in trace):
            raise CheckError(f"loss trace of {len(trace)} epochs, final {trace[-1:]!r}")
        if i not in self._ap:
            self._ap[i] = _check_ap(self._trained_ap(i, head))
        key = (tuple(trace), head.weights.tobytes(), head.bias.tobytes())
        return Outcome(items=len(trace), ap=self._ap[i], key=key, loss=trace[-1])

    def _trained_ap(self, i, head) -> float:
        """AP (3D IoU 0.7, r40, HARD) of the learned head's boxes decoded at
        the training keypoints, scored by the predicted heatmap."""
        scenes = self.sets[i]
        emb, _, boxes, kps, scores = synth.training_data(scenes, self.model)
        taus = litefpn.regress(emb, head)
        dets, gts, row = {}, {}, 0
        for frame, scene in enumerate(scenes):
            n = len(scene.objects)
            dets[frame] = []
            for r in range(row, row + n):
                try:
                    box = geometry.decode_box(
                        taus[r], kps[r], "Car", scene.calib, self.model.stats, clamp_dims=True
                    )
                except ValueError:
                    continue
                dets[frame].append(Detection(box=box, cls="Car", score=float(scores[r])))
            gts[frame] = [GroundTruth(box=b, cls="Car") for b in boxes[row : row + n]]
            row += n
        report = evaluation.evaluate(
            dets, gts, difficulty=evaluation.Difficulty.HARD, criterion="3d",
            threshold=0.7, mode="r40",
        )
        return report["ap"]


# KITTI-like camera: 1280x384 image, f = 700 px, principal point at the center
_F, _CU, _CV = 700.0, 640.0, 192.0


def _gt_line(rng) -> tuple[str, tuple]:
    """One 15-field Car label with its box parameters.  Far, occluded or
    truncated objects land in the strata a moderate evaluation ignores."""
    z = rng.uniform(5.0, 50.0)
    x = float(np.clip(rng.uniform(-0.8, 0.8) * z, -20.0, 20.0))
    y = 1.65 + rng.normal(0.0, 0.1)  # bottom-center, camera height above ground
    h, w, l = 1.52 + rng.normal(0, 0.08), 1.63 + rng.normal(0, 0.08), 3.88 + rng.normal(0, 0.3)
    yaw = rng.uniform(-math.pi, math.pi)
    occluded = int(rng.choice(4, p=[0.55, 0.25, 0.15, 0.05]))
    truncated = 0.0 if rng.random() < 0.7 else rng.uniform(0.0, 0.7)
    u, v = _CU + _F * x / z, _CV + _F * (y - h / 2) / z
    bw, bh = _F * max(w, l) / z, _F * h / z
    bbox = (u - bw / 2, v - bh / 2, u + bw / 2, v + bh / 2)
    alpha = yaw - math.atan2(x, z)
    line = _label_fields("Car", truncated, occluded, alpha, bbox, (h, w, l), (x, y, z), yaw)
    return line, (x, y, z, h, w, l, yaw, bbox)


def _label_fields(cls, truncated, occluded, alpha, bbox, dims, loc, yaw, score=None) -> str:
    parts = [cls, f"{truncated:.2f}", str(occluded), f"{alpha:.2f}"]
    parts += [f"{v:.2f}" for v in (*bbox, *dims, *loc, yaw)]
    if score is not None:
        parts.append(f"{score:.6f}")
    return " ".join(parts)


def _det_line(rng, params, score) -> str:
    x, y, z, h, w, l, yaw, bbox = params
    x, z = x + rng.normal(0.0, 0.3), max(z + rng.normal(0.0, 0.3), 1.0)
    y += rng.normal(0.0, 0.1)
    h, w, l = (d * math.exp(rng.normal(0.0, 0.05)) for d in (h, w, l))
    yaw += rng.normal(0.0, 0.15)
    return _label_fields("Car", 0.0, 0, yaw - math.atan2(x, z), bbox, (h, w, l), (x, y, z), yaw, score)


def _kitti_frame(rng) -> tuple[str, str]:
    """Ground-truth and detection file texts for one frame.  Object and false
    positive counts are fixed so every op does about the same amount of work;
    the seed varies geometry, strata and which objects are detected."""
    gt_lines, det_lines = [], []
    for _ in range(8):
        line, params = _gt_line(rng)
        gt_lines.append(line)
        if rng.random() < 0.85:  # perturbed true positive
            det_lines.append(_det_line(rng, params, rng.uniform(0.3, 1.0)))
    l, t = rng.uniform(0, 1200), rng.uniform(100, 300)
    gt_lines.append(
        f"DontCare -1 -1 -10 {l:.2f} {t:.2f} {l + 40:.2f} {t + 30:.2f} -1 -1 -1 -1000 -1000 -1000 -10"
    )
    for _ in range(2):  # false positive at an unrelated place
        _, params = _gt_line(rng)
        det_lines.append(_det_line(rng, params, rng.uniform(0.01, 0.7)))
    return "".join(s + "\n" for s in gt_lines), "".join(s + "\n" for s in det_lines)


class EvalKitti(_Workload):
    """One `kp3d eval` CLI call per op over a batch of label directories:
    BEV IoU 0.5, r40, moderate."""

    pool_size = 12
    frames_per_op = 24

    def build(self, workdir):
        shutil.rmtree(workdir, ignore_errors=True)
        self.batches = []
        for b in range(self.pool_size):
            base = workdir / f"batch{b:02d}"
            (base / "gt").mkdir(parents=True)
            (base / "det").mkdir()
            for frame in range(self.frames_per_op):
                gt_text, det_text = _kitti_frame(self.rng)
                (base / "gt" / f"{frame:06d}.txt").write_text(gt_text)
                (base / "det" / f"{frame:06d}.txt").write_text(det_text)
                self.digest.update(gt_text.encode() + det_text.encode())
            self.batches.append(base)

    def op(self, i):
        base = self.batches[i]
        argv = [
            "eval", "--gt-dir", str(base / "gt"), "--det-dir", str(base / "det"),
            "--criterion", "bev", "--iou", "0.5", "--mode", "r40",
            "--difficulty", "moderate", "--out", str(base / "report.json"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, i, out) -> Outcome:
        if out != 0:
            raise CheckError(f"kp3d eval exited with {out}")
        path = self.batches[i] / "report.json"
        try:
            report = json.loads(path.read_text())
            path.unlink()  # so the next op on this batch must write its own
        except (OSError, ValueError) as e:
            raise CheckError(f"no readable report: {e}") from None
        ap = _check_ap(report["ap"])
        curve = tuple(tuple(p) for p in report["pr_curve"])
        return Outcome(items=self.frames_per_op, ap=ap, key=(ap, curve))


WORKLOADS = {
    "scene_noisy": SceneNoisy,
    "scene_exact": SceneExact,
    "train_attention": TrainAttention,
    "eval_kitti": EvalKitti,
}
