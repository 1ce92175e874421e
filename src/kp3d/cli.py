"""Command-line interface: evaluation, benchmarking, synthetic demos and
gradient checks.

Exit codes: 0 ok, 2 missing input (a missing directory or detection file, or
no ground truth of the evaluated class at the evaluated difficulty), 3 parse
error (naming the label file, or the directory and frame, of a bad label), 4
bench gate failure, 5 gradcheck failure, 64 usage error (an unknown flag, a bad
numeric flag or bench size, or an output path of the wrong kind or under a
regular file).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_PARSE_ERROR = 3
EXIT_BENCH_GATE = 4
EXIT_GRADCHECK = 5
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _ranged(kind, low, high=math.inf, low_open=False):
    """argparse type: a finite `kind` value in [low, high], or in (low, high] if `low_open`."""
    want = f"{'an integer' if kind is int else 'a finite number'} {'>' if low_open else '>='} {low}"
    want += f" and <= {high}" if high < math.inf else ""

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan  # fails every comparison below
        above = low < value if low_open else low <= value
        if not (above and value <= high and value != math.inf):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return value

    return parse


def _path_to(kind):
    """argparse type: an output path, unless it names an existing entry that is
    not a `kind` ("file" or "directory"), or lies under a regular file."""

    def parse(text):
        path = Path(text)
        if path.exists():
            if path.is_dir() != (kind == "directory"):
                raise argparse.ArgumentTypeError(f"{text!r} exists and is not a {kind}")
            return text
        # the nearest existing ancestor is where the missing directories get made
        ancestor = next((p for p in path.parents if p.exists()), None)
        if ancestor is not None and not ancestor.is_dir():
            raise argparse.ArgumentTypeError(
                f"{text!r} lies under {str(ancestor)!r}, which is not a directory"
            )
        return text

    return parse


def write_atomic(path: Path, text: str) -> None:
    """Write via a temp file in the same directory plus rename, so interrupted
    runs never leave partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kp3d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate KITTI-format detections against ground truth")
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--det-dir", required=True)
    p.add_argument("--criterion", choices=["3d", "bev"], default="3d")
    p.add_argument("--iou", type=_ranged(float, 0, 1, low_open=True), default=0.7)
    p.add_argument("--mode", choices=["r11", "r40"], default="r11")
    p.add_argument("--class", dest="cls", default="Car")
    p.add_argument("--difficulty", choices=["easy", "moderate", "hard"], default="hard")
    p.add_argument("--out", type=_path_to("file"), default="eval_report.json")
    p.add_argument("--pr-csv", type=_path_to("file"), help="optional CSV of PR points")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="dense vs sparse regression FLOPs and wall time")
    p.add_argument("--height", type=_ranged(int, 1), default=384)
    p.add_argument("--width", type=_ranged(int, 1), default=1280)
    p.add_argument("--channels", type=_ranged(int, 1), default=64)
    p.add_argument("--outputs", type=_ranged(int, 1), default=8)
    p.add_argument("--k", type=_ranged(int, 0), default=100)
    p.add_argument("--reps", type=_ranged(int, 10), default=30)
    p.add_argument("--min-speedup", type=_ranged(float, 0), default=10.0,
                   help="0 reports without the gate")
    p.add_argument("--out", type=_path_to("file"), default="bench.csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("demo", help="synthetic end-to-end pipeline with BEV plots")
    p.add_argument("--seed", type=_ranged(int, 0), default=0)
    p.add_argument("--n-scenes", type=_ranged(int, 1), default=5)
    p.add_argument("--n-objects", type=_ranged(int, 1), default=5)
    p.add_argument("--noise", type=_ranged(float, 0), default=0.0)
    p.add_argument("--loss", choices=["l1", "attention"], default="l1")
    p.add_argument("--beta-attn", type=_ranged(float, 0), default=0.5)
    p.add_argument("--epochs", type=_ranged(int, 0), default=200)
    p.add_argument("--k", type=_ranged(int, 0), default=100)
    p.add_argument("--criterion", choices=["3d", "bev"], default="3d")
    p.add_argument("--iou", type=_ranged(float, 0, 1, low_open=True), default=0.7)
    p.add_argument("--mode", choices=["r11", "r40"], default="r11")
    p.add_argument("--out-dir", type=_path_to("directory"), default="demo_out")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("gradcheck", help="verify loss gradients against central differences")
    p.add_argument("--trials", type=_ranged(int, 1), default=100)
    p.add_argument("--step", type=_ranged(float, 0, low_open=True), default=1e-5)
    p.add_argument("--seed", type=_ranged(int, 0), default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def cmd_eval(args) -> int:
    from . import evaluation, kitti_io

    try:
        gt_frames_raw = kitti_io.load_label_dir(args.gt_dir)
        det_frames_raw = kitti_io.load_label_dir(args.det_dir)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except kitti_io.KittiFormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    missing = set(gt_frames_raw) - set(det_frames_raw)
    if missing:
        print(f"error: detection files missing for frames {sorted(missing)}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    gt_frames, det_frames = {}, {}
    try:
        for fid, labels in gt_frames_raw.items():
            where = f"{args.gt_dir}, frame {fid}"
            gt_frames[fid] = [l.to_ground_truth() for l in labels if l.type != "DontCare"]
        for fid, labels in det_frames_raw.items():
            where = f"{args.det_dir}, frame {fid}"
            det_frames[fid] = [l.to_detection() for l in labels]
    except kitti_io.KittiFormatError as e:
        print(f"parse error: {where}: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        report = evaluation.evaluate(
            det_frames,
            gt_frames,
            cls=args.cls,
            difficulty=evaluation.Difficulty(args.difficulty),
            criterion=args.criterion,
            threshold=args.iou,
            mode=args.mode,
        )
    except evaluation.EmptyStratumError:
        print(
            f"error: no {args.cls!r} ground truth counts at difficulty {args.difficulty!r}",
            file=sys.stderr,
        )
        return EXIT_MISSING_INPUT
    write_atomic(Path(args.out), json.dumps(report, indent=2) + "\n")
    if args.pr_csv:
        rows = ["recall,precision"] + [f"{r:.6f},{p:.6f}" for r, p in report["pr_curve"]]
        write_atomic(Path(args.pr_csv), "\n".join(rows) + "\n")
    print(f"AP ({args.criterion}, IoU {args.iou}, {args.mode}): {report['ap']:.4f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench

    try:
        cfg = bench.BenchConfig(
            height=args.height, width=args.width, channels=args.channels,
            outputs=args.outputs, k=args.k, repetitions=args.reps,
        )
        report = bench.time_compare(cfg, assert_speedup=args.min_speedup)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BENCH_GATE
    write_atomic(Path(args.out), bench.report_csv(cfg, report))
    print(bench.report_summary(cfg, report), end="")
    return EXIT_OK


def cmd_demo(args) -> int:
    from . import bev_plot, kitti_io, synth
    from .evaluation import GroundTruth
    from .losses import AttentionParams

    out_dir = Path(args.out_dir)
    model = synth.OracleModel(feature_noise=args.noise)
    scenes = [
        synth.generate_scene(synth.SceneSpec(seed=args.seed + i, n_objects=args.n_objects))
        for i in range(args.n_scenes)
    ]
    head, trace = synth.toy_train(
        scenes,
        model,
        loss=args.loss,
        epochs=args.epochs,
        attention_params=AttentionParams(beta=args.beta_attn),
    )
    reports = []
    for i, scene in enumerate(scenes):
        dets, report = synth.run_pipeline(
            scene,
            model,
            k=args.k,
            criterion=args.criterion,
            threshold=args.iou,
            mode=args.mode,
            regress_head=head,
        )
        gts = [GroundTruth(box=b, cls=c) for b, c in scene.objects]
        write_atomic(
            out_dir / "label_gt" / f"{i:06d}.txt",
            "".join(kitti_io.serialize_label(kitti_io.box_label(g.box, g.cls)) + "\n" for g in gts),
        )
        write_atomic(
            out_dir / "label_det" / f"{i:06d}.txt",
            "".join(kitti_io.serialize_detection(d) + "\n" for d in dets),
        )
        write_atomic(out_dir / "bev" / f"{i:06d}.svg", bev_plot.bev_svg(gts, dets))
        reports.append(report)
    mean_ap = sum(r["ap"] for r in reports) / len(reports)
    summary = {
        "seed": args.seed,
        "n_scenes": args.n_scenes,
        "noise": args.noise,
        "loss": args.loss,
        "final_train_loss": trace[-1] if trace else 0.0,
        "mean_ap": mean_ap,
        "per_scene_ap": [r["ap"] for r in reports],
    }
    write_atomic(out_dir / "report.json", json.dumps(summary, indent=2) + "\n")
    print(f"mean AP over {args.n_scenes} scenes: {mean_ap:.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from . import losses

    rng = np.random.default_rng(args.seed)
    print(f"gradcheck: {args.trials} trials, central differences, step {args.step:g}")
    worst = {"focal": 0.0, "attention": 0.0}
    for trial in range(args.trials):
        gt = np.zeros((1, 8, 8))
        gt[0, rng.integers(8), rng.integers(8)] = 1.0

        def focal(p):
            return losses.focal_loss(p, gt, n=1)

        err = losses.gradcheck(focal, rng.uniform(0.05, 0.95, size=gt.shape), step=args.step)
        worst["focal"] = max(worst["focal"], err)

        n = int(rng.integers(1, 9))
        target = rng.normal(size=(n, 8))
        pred = target + np.where(rng.random((n, 8)) < 0.5, -1.0, 1.0) * rng.uniform(
            0.1, 1.0, size=(n, 8)
        )
        weights = rng.uniform(0.2, 2.0, size=n)

        def attn(p):
            return losses.attention_loss(losses.LossBatch(p, target), weights)

        err = losses.gradcheck(attn, pred, step=args.step)
        worst["attention"] = max(worst["attention"], err)
    ok = all(v < 1e-4 for v in worst.values())
    for name, v in worst.items():
        print(f"  {name}: max relative error {v:.3e}")
    if not ok:
        bad = max(worst, key=worst.get)
        print(f"gradcheck FAILED for {bad} loss", file=sys.stderr)
        return EXIT_GRADCHECK
    print("gradcheck passed")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
