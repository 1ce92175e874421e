import numpy as np
import pytest

from kp3d import bench, litefpn
from kp3d.bench import BenchConfig


def test_flops_dense_default_config():
    cfg = BenchConfig(height=384, width=1280, channels=64, outputs=8)
    assert bench.flops_dense(cfg) == 31_457_280


def test_flops_dense_single_pixel():
    cfg = BenchConfig(height=4, width=4, channels=1, outputs=1)
    assert bench.flops_dense(cfg) == 2


def test_flops_dense_linear_in_outputs():
    a = bench.flops_dense(BenchConfig(outputs=8))
    b = bench.flops_dense(BenchConfig(outputs=16))
    assert b == 2 * a


def test_flops_sparse_default_config():
    cfg = BenchConfig(channels=64, outputs=8, k=100)
    assert bench.flops_sparse(cfg) == 307_200


def test_flops_sparse_zero_k():
    assert bench.flops_sparse(BenchConfig(k=0)) == 0


def test_flop_ratio_is_exactly_102_4():
    cfg = BenchConfig(height=384, width=1280, channels=64, outputs=8, k=100)
    assert bench.flops_dense(cfg) / bench.flops_sparse(cfg) == 102.4


def test_flop_ratio_independent_of_channels_and_outputs():
    for d, r in [(16, 4), (64, 8), (128, 3)]:
        cfg = BenchConfig(channels=d, outputs=r, k=100, height=384, width=1280)
        ratio = bench.flops_sparse(cfg) / bench.flops_dense(cfg)
        assert ratio == pytest.approx(cfg.k * 3 / ((cfg.height // 4) * (cfg.width // 4)), rel=1e-15)


def test_time_compare_reports_and_gate():
    report = bench.time_compare(BenchConfig(repetitions=15))
    assert report.flop_ratio == 102.4
    assert report.dense_times[1] > 0 and report.sparse_times[1] > 0
    assert report.speedup > 1.0  # the full >= 10x claim is asserted in acceptance


def test_time_compare_speedup_assertion():
    with pytest.raises(RuntimeError, match="speedup"):
        bench.time_compare(BenchConfig(repetitions=15), assert_speedup=1e9)


def test_csv_and_summary():
    cfg = BenchConfig(repetitions=12)
    report = bench.time_compare(cfg)
    csv = bench.report_csv(cfg, report)
    assert csv.splitlines()[0].startswith("H,W,D,R,K")
    assert len(csv.splitlines()) == 2
    assert "flop ratio" in bench.report_summary(cfg, report)


def test_repetitions_minimum_enforced():
    with pytest.raises(ValueError):
        BenchConfig(repetitions=5)


def test_gate_checks_library_gather(monkeypatch):
    def shifted(pyramid, keypoints):
        return litefpn.gather_fuse(pyramid, keypoints) + 1e-9

    monkeypatch.setattr(bench, "gather_fuse", shifted)
    with pytest.raises(RuntimeError, match="correctness gate"):
        bench.time_compare(BenchConfig(repetitions=10))
