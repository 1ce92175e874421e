"""Per-seed AP of a kp3d checkout, and a rule that compares two such files, so
that a change whose outputs are not byte-identical can be checked for an
unchanged AP distribution.

    python tools/ap_distribution.py write <checkout> <out.json>
    python tools/ap_distribution.py compare <parent.json> <change.json>

`write` imports `kp3d` from `<checkout>/src` and writes a JSON object that maps
each family to its per-seed APs (r40, HARD) and its feature noise:

- `pipeline/noise{noise}/n{n_objects}/{criterion}{threshold}`: the AP of
  `synth.run_pipeline` on each of the 45 scenes that `tools/output_digest.py`
  uses (seeds 0-44, at feature noise 0 and 0.05, 5 and 20 objects), at `3d 0.7`
  and `bev 0.5`;
- `train/noise0.05/{loss}/{criterion}{threshold}`: a learned-head AP per
  training group, for the L1 and the attention loss. Group g (0-19) trains
  `synth.toy_train` for 50 epochs on four 20-object scenes at feature noise
  0.05 (seeds 1000 + 6g to 1003 + 6g) and scores the learned head through
  `synth.run_pipeline(regress_head=...)` on two held-out scenes (seeds
  1004 + 6g and 1005 + 6g), at `3d 0.7` and `bev 0.5`; its AP is their mean.

`compare` applies one rule, fixed before any change it judges, and exits 0
when every family passes it and 1 otherwise:

- each family's mean AP differs between the two files by at most 2 pooled
  standard errors of the difference, se = s_p * sqrt(1/n_a + 1/n_b) with
  s_p^2 the pooled sample variance; a family whose se is 0 must have equal
  means;
- every AP of a zero-noise family is exactly 100.0 in both files.

Only the public API is used, so the script runs on older checkouts too:

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python tools/ap_distribution.py write ../parent parent.json
    python tools/ap_distribution.py write . change.json
    python tools/ap_distribution.py compare parent.json change.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

SCENE_SEEDS = range(45)
TRAIN_GROUPS = 20
TRAIN_NOISE = 0.05
TRAIN_EPOCHS = 50
MAX_SE = 2.0  # a family fails beyond this many pooled standard errors


def _mean(values) -> float:
    return sum(values) / len(values)


def pipeline_families(synth) -> dict[str, dict]:
    out = {}
    for noise in (0.0, 0.05):
        model = synth.OracleModel(feature_noise=noise)
        for n_objects in (5, 20):
            scenes = [
                synth.generate_scene(synth.SceneSpec(seed=s, n_objects=n_objects))
                for s in SCENE_SEEDS
            ]
            for criterion, threshold in (("3d", 0.7), ("bev", 0.5)):
                aps = [
                    synth.run_pipeline(
                        scene, model, criterion=criterion, threshold=threshold, mode="r40"
                    )[1]["ap"]
                    for scene in scenes
                ]
                family = f"pipeline/noise{noise}/n{n_objects}/{criterion}{threshold}"
                out[family] = {"noise": noise, "ap": aps}
    return out


def train_families(synth) -> dict[str, dict]:
    model = synth.OracleModel(feature_noise=TRAIN_NOISE)
    out = {}
    for loss in ("l1", "attention"):
        for g in range(TRAIN_GROUPS):
            scenes = [
                synth.generate_scene(synth.SceneSpec(seed=1000 + 6 * g + j, n_objects=20))
                for j in range(6)
            ]
            head, _ = synth.toy_train(scenes[:4], model, loss=loss, epochs=TRAIN_EPOCHS)
            for criterion, threshold in (("3d", 0.7), ("bev", 0.5)):
                ap = _mean([
                    synth.run_pipeline(
                        scene, model, criterion=criterion, threshold=threshold, mode="r40",
                        regress_head=head,
                    )[1]["ap"]
                    for scene in scenes[4:]
                ])
                family = f"train/noise{TRAIN_NOISE}/{loss}/{criterion}{threshold}"
                out.setdefault(family, {"noise": TRAIN_NOISE, "ap": []})["ap"].append(ap)
    return out


def compare(parent: dict, change: dict) -> list[dict]:
    """One row per family of `parent`: both means, their difference, the
    pooled standard error of that difference and whether the rule holds."""
    rows = []
    for family, a in sorted(parent.items()):
        b = change.get(family)
        if b is None:
            rows.append({"family": family, "ok": False, "why": "missing from the change"})
            continue
        x, y = a["ap"], b["ap"]
        ma, mb = _mean(x), _mean(y)
        ss = sum((v - ma) ** 2 for v in x) + sum((v - mb) ** 2 for v in y)
        dof = len(x) + len(y) - 2
        se = math.sqrt(ss / dof * (1 / len(x) + 1 / len(y))) if dof > 0 else 0.0
        diff = mb - ma
        ok = abs(diff) <= MAX_SE * se if se > 0 else diff == 0
        why = "" if ok else f"mean moved {diff:+.3f}, beyond {MAX_SE:g} se = {MAX_SE * se:.3f}"
        if a["noise"] == 0 and not all(v == 100.0 for v in (*x, *y)):
            ok, why = False, "a zero-noise AP is not exactly 100.0"
        rows.append({
            "family": family, "n": (len(x), len(y)), "parent": ma, "change": mb,
            "diff": diff, "se": se, "ok": ok, "why": why,
        })
    return rows


def _write(checkout: Path, out_path: Path) -> int:
    sys.path.insert(0, str(checkout / "src"))
    from kp3d import synth

    if not Path(synth.__file__).resolve().is_relative_to(checkout):
        print(f"kp3d was imported from {synth.__file__}, not from {checkout}", file=sys.stderr)
        return 2
    families = {**pipeline_families(synth), **train_families(synth)}
    out_path.write_text(json.dumps(families, indent=1, sort_keys=True) + "\n")
    print(f"{len(families)} families written to {out_path}")
    return 0


def _compare(parent_path: Path, change_path: Path) -> int:
    rows = compare(json.loads(parent_path.read_text()), json.loads(change_path.read_text()))
    print(f"{'family':<38} {'n':>7} {'parent':>8} {'change':>8} {'diff':>8} {'2 se':>7}  result")
    for r in rows:
        if "n" not in r:
            print(f"{r['family']:<38} FAIL  {r['why']}")
            continue
        n = "/".join(map(str, r["n"]))
        verdict = "pass" if r["ok"] else f"FAIL  {r['why']}"
        print(f"{r['family']:<38} {n:>7} {r['parent']:8.3f} {r['change']:8.3f} "
              f"{r['diff']:+8.3f} {MAX_SE * r['se']:7.3f}  {verdict}")
    failed = sum(not r["ok"] for r in rows)
    print(f"{len(rows) - failed} of {len(rows)} families pass")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("write", "compare"):
        print(__doc__, file=sys.stderr)
        return 64
    if argv[0] == "write":
        return _write(Path(argv[1]).resolve(), Path(argv[2]))
    return _compare(Path(argv[1]), Path(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
