"""The benchmark (`perfbench/`) drives kp3d through its public API. These
tests run each workload once at a small scale, so a kp3d change that breaks
the benchmark fails here rather than first in a benchmark run.

The traced run (`perfbench/run.py --trace 1`) wraps kp3d functions by their
dotted names; every name must still resolve, or `Tracer.install()` raises
`AttributeError` before the first op."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_span_name_resolves_to_a_kp3d_callable(tracer):
    unresolved = []
    for name in tracer.SPAN_NAMES:
        module, fn = name.split(".")
        if not callable(getattr(importlib.import_module(f"kp3d.{module}"), fn, None)):
            unresolved.append(name)
    assert tracer.SPAN_NAMES and unresolved == []


@pytest.mark.parametrize("name", ["scene_noisy", "scene_exact", "train_attention", "eval_kitti"])
def test_workload_op_passes_its_check_traced_and_untraced(tmp_path, tracer, workloads, name):
    workload = workloads.WORKLOADS[name](0, tmp_path / name)
    i = workload.order[0]
    untraced = workload.check(i, workload.op(i))
    assert 0.0 <= untraced.ap <= 100.0

    traced_run = tracer.Tracer()
    traced_run.install()
    try:
        traced_run.active, traced_run.op = True, 0
        out = workload.op(i)
    finally:
        traced_run.active = False
        traced_run.uninstall()
    assert workload.check(i, out).key == untraced.key
    assert sum(traced_run.calls) > 0
