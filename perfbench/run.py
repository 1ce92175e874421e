"""Closed-loop benchmark of the kp3d head-side pipeline.

    python3 perfbench/run.py --workload scene_noisy --seed 1 --seconds 25 --trace 0

Run from the repository root.  One caller drives the library from this
process; the next op starts when the previous one returns.  With --trace 0 the
ops run untraced and the last stdout line carries the end-to-end metrics.  With
--trace 1 the run is split in two halves over the same op sequence, untraced
then traced, and the last line carries the per-layer metrics, the tracing
overhead, and whether both halves produced identical outputs.  See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy loads: numpy here links a threaded
# OpenBLAS, and toy_train's SVD would otherwise spread over every core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100  # so that at least ten samples lie beyond op_p90_ms
MAX_RUN_S = 150.0  # stop adding ops past MIN_OPS here, to exit within 180 s
SETUP_REPEATS = 5
MIN_TRACED_OPS = 20


def _import_kp3d():
    """Import kp3d from this checkout's src/ and nowhere else."""
    if not (SRC / "kp3d" / "__init__.py").is_file():
        raise SystemExit(f"error: no kp3d sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kp3d

    if Path(kp3d.__file__).resolve().parent != (SRC / "kp3d").resolve():
        raise SystemExit(f"error: imported kp3d from {kp3d.__file__}, not {SRC}")


def _git_sha() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int, inputs_digest: str) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((SRC / "kp3d").glob("*.py")):
        sources.update(path.name.encode() + path.read_bytes())
    return {
        "seed": seed,
        "inputs_sha256": inputs_digest,
        "git_sha": _git_sha(),
        "kp3d_sources_sha256": sources.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


class Loop:
    """Closed-loop op runner shared by the untraced and traced phases.

    `expected` maps a pool index to the output key its first op produced; every
    later op on that index, traced or not, must reproduce it exactly.
    """

    def __init__(self, workload):
        self.workload = workload
        self.expected = {}
        self.ap = {}
        self.loss = {}
        self.compared = 0
        self.errors = []

    def run(self, seconds: float, min_ops: int, tracer=None) -> dict:
        wl = self.workload
        times, items, attempted, failed = [], 0, 0, 0
        gc.collect()
        start = time.perf_counter()
        deadline, hard_stop = start + seconds, start + MAX_RUN_S
        while True:
            now = time.perf_counter()
            if now >= hard_stop or (now >= deadline and attempted >= min_ops):
                break
            i = wl.order[attempted % len(wl.order)]
            if tracer is not None:
                tracer.op, tracer.active = attempted, True
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as e:  # counted in error_rate; the run goes on
                failed += 1
                self.errors.append(f"op {i}: {type(e).__name__}: {e}")
                continue
            finally:
                times.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.active = False
            try:
                outcome = wl.check(i, out)
            except Exception as e:  # a CheckError, or output too malformed to check
                failed += 1
                self.errors.append(f"check {i}: {type(e).__name__}: {e}")
                continue
            if i in self.expected:
                self.compared += 1
                if outcome.key != self.expected[i]:
                    failed += 1
                    self.errors.append(f"check {i}: output differs from an earlier op on it")
                    continue
            else:
                self.expected[i], self.ap[i] = outcome.key, outcome.ap
                if outcome.loss is not None:
                    self.loss[i] = outcome.loss
            items += outcome.items
        return {"times": times, "items": items, "attempted": attempted, "failed": failed}


def _p50_p90(times):
    return statistics.median(times), statistics.quantiles(times, n=10)[8]


def setup(workload_cls, seed: int, workdir: Path):
    """Build the workload SETUP_REPEATS times (inputs, files, one warm-up op)
    and keep the last.  Returns (workload, loop, its warm-up phase, median
    set-up seconds)."""
    durations = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workload_cls(seed, workdir)
        loop = Loop(workload)
        warmup = loop.run(0.0, 1)
        durations.append(time.perf_counter() - t0)
    return workload, loop, warmup, statistics.median(durations)


def end_to_end(loop, phase, setup_s) -> dict:
    p50, p90 = _p50_p90(phase["times"])
    aps = list(loop.ap.values())
    return {
        "items_per_s": (phase["items"] / sum(phase["times"]), "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ap_mean": (statistics.fmean(aps) if aps else 0.0, "%"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_kp3d()
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    try:
        workload, loop, warmup, setup_s = setup(WORKLOADS[args.workload], args.seed, workdir)
        pool = workload.pool_size
        if args.trace:
            untraced = loop.run(args.seconds / 2, MIN_TRACED_OPS)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = loop.run(args.seconds / 2, MIN_TRACED_OPS, tracer)
            finally:
                tracer.uninstall()
            tracer.save(out_dir / f"spans-{args.workload}.npz")
            phases = (warmup, untraced, traced)
            metrics = tracer.per_layer(len(traced["times"]))
            p50_off, p50_on = statistics.median(untraced["times"]), statistics.median(traced["times"])
            metrics["trace_overhead_pct"] = (100.0 * (p50_on / p50_off - 1.0), "%")
            metrics["outputs_compared"] = (float(loop.compared), "count")
        else:
            measured = loop.run(args.seconds, max(MIN_OPS, pool))
            phases = (warmup, measured)
            metrics = end_to_end(loop, measured, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        raise SystemExit("error: metric names or units differ from BENCHMARK.json")

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    env = environment(args.seed, workload.digest.hexdigest())
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "pool_size": pool,
        "ops": [p["attempted"] for p in phases],  # warm-up, then each measured phase
        "error_rate": failed / attempted,
        "errors": loop.errors[:20],
        **env,
    }
    if loop.loss:
        summary["final_loss"] = statistics.fmean(loop.loss.values())
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    if "final_loss" in summary:
        print(f"{'final_loss':48s} {summary['final_loss']:14.6g} (mean over {len(loop.loss)} inputs)")
    print(f"{'error_rate':48s} {failed / attempted:14.6g} ({failed} of {attempted} ops)")
    for line in loop.errors[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(summary))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**summary, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
