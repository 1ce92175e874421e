"""FLOP accounting and wall-time comparison of the library's dense and sparse
regression paths on one seeded feature pyramid.

The sparse path is `regress(gather_fuse(...))` at K keypoints, gather included;
the dense path is `dense_regress_then_gather`, a 1x1 head over the whole 1/4
grid, then sampling the keypoints. FLOPs count one multiply plus one add as 2
operations. Timings use a monotonic clock; the sparse path is only timed after
its fine-level block has been shown to equal dense-then-gather.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .heatmap import Keypoint
from .litefpn import FeaturePyramid, RegressionHead, dense_regress_then_gather, gather_fuse, regress

_WARMUP = 5  # untimed calls before each timed series
_SEED = 0  # of the pyramid, head and keypoints
_MAX_GRID_VALUES = 2**24  # in one 1/4-grid feature or output array: 128 MiB of float64


@dataclass(frozen=True)
class BenchConfig:
    height: int = 384
    width: int = 1280
    channels: int = 64  # D
    outputs: int = 8  # R
    k: int = 100
    repetitions: int = 30

    def __post_init__(self):
        if min(self.height, self.width, self.channels, self.outputs) < 1 or self.k < 0:
            raise ValueError("dimensions must be positive (k may be zero)")
        if self.repetitions < 10:
            raise ValueError("repetitions must be >= 10")


@dataclass(frozen=True)
class BenchReport:
    flops_dense: int
    flops_sparse: int
    flop_ratio: float
    gather_touches: int
    dense_times: tuple[float, float, float]  # p10, median, p90 seconds
    sparse_times: tuple[float, float, float]
    speedup: float


def flops_dense(cfg: BenchConfig) -> int:
    """1x1 convolution over the full quarter-resolution regression map."""
    return 2 * (cfg.height // 4) * (cfg.width // 4) * cfg.channels * cfg.outputs


def flops_sparse(cfg: BenchConfig) -> int:
    """Linear head over the K x 3D embedding; the gather itself is memory
    traffic, reported separately as K * 3D touches."""
    return 2 * cfg.k * 3 * cfg.channels * cfg.outputs


def gather_touches(cfg: BenchConfig) -> int:
    return cfg.k * 3 * cfg.channels


def _percentiles(samples: list[float]) -> tuple[float, float, float]:
    p10, p50, p90 = np.percentile(samples, [10, 50, 90])
    return float(p10), float(p50), float(p90)


def _time_repeated(fn, repetitions: int) -> list[float]:
    for _ in range(_WARMUP):
        fn()
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def time_compare(cfg: BenchConfig = BenchConfig(), assert_speedup: float | None = None) -> BenchReport:
    """Measure dense vs sparse regression wall time on a random feature pyramid.

    Raises if the two paths disagree at the keypoints (correctness gate) or,
    when `assert_speedup` is set, if the measured sparse speedup at the median
    falls below it.
    """
    rng = np.random.default_rng(_SEED)
    h4, w4, d = cfg.height // 4, cfg.width // 4, cfg.channels
    if h4 < 4 or w4 < 4:
        raise ValueError("--height and --width must be >= 16 so keypoints map into every level")
    if cfg.k > h4 * w4:
        raise ValueError(f"--k must be <= {h4 * w4}, the 1/4-grid cells of --height x --width")
    if h4 * w4 * max(d, cfg.outputs) > _MAX_GRID_VALUES:
        raise ValueError("--height/4 x --width/4 x max(--channels, --outputs) must be <= 2^24")
    pyramid = FeaturePyramid(
        levels=tuple(rng.normal(size=(h4 // f, w4 // f, d)) for f in (1, 2, 4))
    )
    head = RegressionHead(
        weights=rng.normal(size=(3 * d, cfg.outputs)), bias=rng.normal(size=cfg.outputs)
    )
    fine_head = RegressionHead(weights=head.weights[:d], bias=head.bias)
    # keypoints on the part of the 1/4 grid that every coarser level covers
    us, vs = rng.integers(0, (w4 // 4 * 4, h4 // 4 * 4), size=(max(cfg.k, 1), 2)).T.tolist()
    keypoints = [Keypoint(cls=0, u=u, v=v, score=1.0) for u, v in zip(us, vs)]

    # correctness gate: the fine-level block of the sparse gather, regressed,
    # must equal dense-then-gather at the same keypoints
    gate_sparse = regress(gather_fuse(pyramid, keypoints)[:, :d], fine_head)
    gate_dense = dense_regress_then_gather(pyramid.levels[0], fine_head, keypoints)
    if not np.allclose(gate_dense, gate_sparse, rtol=0.0, atol=1e-12):
        raise RuntimeError("correctness gate failed: sparse and dense paths disagree")

    keypoints = keypoints[: cfg.k]
    dense_samples = _time_repeated(
        lambda: dense_regress_then_gather(pyramid.levels[0], fine_head, keypoints), cfg.repetitions
    )
    sparse_samples = _time_repeated(
        lambda: regress(gather_fuse(pyramid, keypoints), head), cfg.repetitions
    )
    dense_p = _percentiles(dense_samples)
    sparse_p = _percentiles(sparse_samples)
    speedup = dense_p[1] / sparse_p[1] if sparse_p[1] > 0 else float("inf")
    fd, fs = flops_dense(cfg), flops_sparse(cfg)
    report = BenchReport(
        flops_dense=fd,
        flops_sparse=fs,
        flop_ratio=fd / fs if fs else float("inf"),
        gather_touches=gather_touches(cfg),
        dense_times=dense_p,
        sparse_times=sparse_p,
        speedup=speedup,
    )
    if assert_speedup is not None and speedup < assert_speedup:
        raise RuntimeError(
            f"measured speedup {speedup:.2f}x below required {assert_speedup:.2f}x"
        )
    return report


def report_csv(cfg: BenchConfig, report: BenchReport) -> str:
    header = (
        "H,W,D,R,K,flops_dense,flops_sparse,flop_ratio,"
        "dense_p10,dense_median,dense_p90,sparse_p10,sparse_median,sparse_p90,speedup"
    )
    row = (
        f"{cfg.height},{cfg.width},{cfg.channels},{cfg.outputs},{cfg.k},"
        f"{report.flops_dense},{report.flops_sparse},{report.flop_ratio:.6g},"
        f"{report.dense_times[0]:.3e},{report.dense_times[1]:.3e},{report.dense_times[2]:.3e},"
        f"{report.sparse_times[0]:.3e},{report.sparse_times[1]:.3e},{report.sparse_times[2]:.3e},"
        f"{report.speedup:.3f}"
    )
    return header + "\n" + row + "\n"


def report_summary(cfg: BenchConfig, report: BenchReport) -> str:
    return (
        f"dense 1x1 head then gather: {report.flops_dense:,} FLOPs, "
        f"median {report.dense_times[1] * 1e3:.3f} ms\n"
        f"sparse top-{cfg.k} gather then head: {report.flops_sparse:,} FLOPs "
        f"(+{report.gather_touches:,} gather touches), "
        f"median {report.sparse_times[1] * 1e3:.3f} ms\n"
        f"flop ratio {report.flop_ratio:.1f}x, measured speedup {report.speedup:.1f}x\n"
    )
