"""Outside-in tracing of the kp3d library for the benchmark's traced run.

`Tracer.install()` replaces the public functions listed in `SPANS` with
wrappers, as attributes of their `kp3d` modules.  The library calls across
modules by attribute (`geometry.iou_3d`, `heatmap.topk`, ...) and within a
module by global name, which is the same module dictionary, so every call
from anywhere in the package passes through a wrapper.  Nothing under `src/`
is modified; `uninstall()` puts the original functions back.

Each wrapped call records one span (name, start, end, parent span, op index)
in append-only arrays kept in memory, plus per-name call counts and
self time (span time minus the time of its child spans).  Counter hooks read
arguments and results at the same boundaries to form the ratio counters.
Spans are only recorded while `active` is set, so the benchmark's own output
checks never show up in the trace.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

SPANS = {
    "synth": ("run_pipeline", "oracle_pyramid", "training_data", "toy_train", "encode_objects"),
    "heatmap": ("encode_heatmap", "topk"),
    "litefpn": ("gather_fuse", "regress"),
    "geometry": ("decode_box", "encode_box", "iou_3d", "iou_bev", "bev_intersection_area"),
    "evaluation": ("evaluate", "match_frame", "pr_curve", "average_precision"),
    "losses": ("attention_weights", "attention_loss"),
    "kitti_io": ("load_label_dir", "parse_label_file", "parse_label_line"),
    "cli": ("cmd_eval",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns)

# name -> unit; each ratio counter is listed next to its base
COUNTERS = {
    "heatmap.topk.candidates": "count",
    "heatmap.topk.zero_score_ratio": "ratio",
    "geometry.decode_box.reject_ratio": "ratio",
    "geometry.iou.calls": "count",
    "geometry.iou.nonzero_ratio": "ratio",
    "evaluation.match_frame.dets": "count",
    "evaluation.match_frame.tp_ratio": "ratio",
    "evaluation.match_frame.ignored_drop_ratio": "ratio",
    "litefpn.gather_fuse.bytes_computed": "B",
    "kitti_io.bytes_read": "B",
}


def _count_topk(counts, args, kwargs, result):
    counts["topk_candidates"] += len(result)
    counts["topk_zero"] += sum(1 for kp in result if kp.score == 0.0)


def _count_iou(counts, args, kwargs, result):
    counts["iou_calls"] += 1
    counts["iou_nonzero"] += result > 0.0


def _count_match(counts, args, kwargs, result):
    n_dets = len(args[0] if args else kwargs["dets"])
    n_tp, n_fp = len(result.tp_scores), len(result.fp_scores)
    counts["match_dets"] += n_dets
    counts["match_tp"] += n_tp
    counts["match_ignored_drop"] += n_dets - n_tp - n_fp


def _count_gather(counts, args, kwargs, result):
    counts["gather_bytes"] += result.size * 8  # rows x 3D float64 values computed


def _count_parse_file(counts, args, kwargs, result):
    counts["bytes_read"] += len((args[0] if args else kwargs["text"]).encode())


_HOOKS = {
    "heatmap.topk": _count_topk,
    "geometry.iou_3d": _count_iou,
    "geometry.iou_bev": _count_iou,
    "evaluation.match_frame": _count_match,
    "litefpn.gather_fuse": _count_gather,
    "kitti_io.parse_label_file": _count_parse_file,
}


class Tracer:
    """Spans and counters for one traced run; install, run ops, uninstall."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names = array("H")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counts = dict.fromkeys(
            ("topk_candidates", "topk_zero", "decode_reject", "iou_calls",
             "iou_nonzero", "match_dets", "match_tp", "match_ignored_drop", "gather_bytes",
             "bytes_read"),
            0,
        )
        self._stack = []  # [span id, child seconds] of the open spans
        self._originals = []

    def install(self):
        for nid, qualname in enumerate(SPAN_NAMES):
            mod_name, fn_name = qualname.split(".")
            module = importlib.import_module(f"kp3d.{mod_name}")
            fn = getattr(module, fn_name)
            self._originals.append((module, fn_name, fn))
            setattr(module, fn_name, self._wrap(nid, qualname, fn))

    def uninstall(self):
        for module, fn_name, fn in reversed(self._originals):
            setattr(module, fn_name, fn)
        self._originals.clear()

    def _wrap(self, nid, qualname, fn):
        hook = _HOOKS.get(qualname)
        is_decode = qualname == "geometry.decode_box"
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.names)
            self.names.append(nid)
            self.parents.append(stack[-1][0] if stack else -1)
            self.ops.append(self.op)
            self.starts.append(0.0)
            self.ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if is_decode:
                    counts["decode_reject"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.starts[sid], self.ends[sid] = start, end
                self.calls[nid] += 1
                self.self_s[nid] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def per_layer(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-op span calls and self time, plus the ratio counters."""

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        decode_calls = self.calls[SPAN_NAMES.index("geometry.decode_box")]
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (self.calls[nid] / n_ops, "count")
            out[f"{name}.self_ms"] = (1e3 * self.self_s[nid] / n_ops, "ms")
        values = {
            "heatmap.topk.candidates": c["topk_candidates"] / n_ops,
            "heatmap.topk.zero_score_ratio": ratio(c["topk_zero"], c["topk_candidates"]),
            "geometry.decode_box.reject_ratio": ratio(c["decode_reject"], decode_calls),
            "geometry.iou.calls": c["iou_calls"] / n_ops,
            "geometry.iou.nonzero_ratio": ratio(c["iou_nonzero"], c["iou_calls"]),
            "evaluation.match_frame.dets": c["match_dets"] / n_ops,
            "evaluation.match_frame.tp_ratio": ratio(c["match_tp"], c["match_dets"]),
            "evaluation.match_frame.ignored_drop_ratio": ratio(
                c["match_ignored_drop"], c["match_dets"]
            ),
            "litefpn.gather_fuse.bytes_computed": c["gather_bytes"] / n_ops,
            "kitti_io.bytes_read": c["bytes_read"] / n_ops,
        }
        for name, value in values.items():
            out[name] = (value, COUNTERS[name])
        return out

    def save(self, path):
        """Write every recorded span to an .npz file (names stored once)."""
        import numpy as np

        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.names, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            op=np.frombuffer(self.ops, dtype=np.int64),
            start_s=np.frombuffer(self.starts, dtype=np.float64),
            end_s=np.frombuffer(self.ends, dtype=np.float64),
        )
