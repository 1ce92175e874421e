"""The comparison rule of `tools/ap_distribution.py`, fed hand-built files."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ap_distribution.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ap_distribution", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _files(shift=0.0):
    """A parent file and a change file: one noisy family of 40 APs, 10 to 49,
    with the change's APs moved by `shift`, and one zero-noise family."""
    aps = [10.0 + i for i in range(40)]
    exact = {"noise": 0.0, "ap": [100.0] * 5}
    parent = {"noisy": {"noise": 0.05, "ap": aps}, "exact": exact}
    change = {"noisy": {"noise": 0.05, "ap": [a + shift for a in aps]}, "exact": dict(exact)}
    return parent, change


def _pooled_se(aps):
    n = len(aps)
    mean = sum(aps) / n
    var = sum((a - mean) ** 2 for a in aps) / (n - 1)
    return math.sqrt(var * 2 / n)  # both files share this variance


def test_equal_distributions_pass(tool):
    rows = tool.compare(*_files())
    assert [r["ok"] for r in rows] == [True, True]


def test_mean_shifted_by_three_standard_errors_fails(tool):
    parent, _ = _files()
    se = _pooled_se(parent["noisy"]["ap"])
    rows = {r["family"]: r for r in tool.compare(*_files(shift=3 * se))}
    assert not rows["noisy"]["ok"] and rows["exact"]["ok"]
    assert rows["noisy"]["se"] == pytest.approx(se)
    assert tool.compare(*_files(shift=1.9 * se))[1]["ok"]


def test_zero_noise_ap_below_100_fails(tool):
    parent, change = _files()
    change["exact"]["ap"] = [100.0] * 4 + [99.9]
    rows = {r["family"]: r for r in tool.compare(parent, change)}
    assert not rows["exact"]["ok"] and rows["noisy"]["ok"]
    assert "100.0" in rows["exact"]["why"]


def test_missing_family_fails(tool):
    parent, change = _files()
    del change["noisy"]
    assert [r["ok"] for r in tool.compare(parent, change)] == [True, False]
