"""The `compare` mode of `tools/output_digest.py`, fed hand-built files."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


PARENT = {
    "iou/edge/3d/pairs": "1",
    "iou/edge/bev/pairs": "2",
    "iou/nested/3d/pairs": "3",
    "train/noise0.0/seeds0/l1/head": "4",
}


def _run(tool, tmp_path, change, capsys):
    files = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, entries in zip(files, (PARENT, change)):
        path.write_text(json.dumps(entries))
    code = tool.main(["compare", *map(str, files)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_files_exit_0(tool, tmp_path, capsys):
    code, lines = _run(tool, tmp_path, dict(PARENT), capsys)
    assert code == 0
    assert "iou: 0 of 3 changed" in lines and "train: 0 of 1 changed" in lines
    assert lines[-1] == "0 of 4 entries changed"


def test_changed_and_missing_entries_are_counted_and_named(tool, tmp_path, capsys):
    change = {**PARENT, "iou/edge/bev/pairs": "x", "iou/rot90/3d/pairs": "5"}
    del change["train/noise0.0/seeds0/l1/head"]
    code, lines = _run(tool, tmp_path, change, capsys)
    assert code == 1
    assert "iou: 2 of 4 changed" in lines
    assert "  iou/edge: 1 of 2 changed" in lines
    assert "  iou/nested: 0 of 1 changed" in lines
    assert "  iou/rot90: 1 of 1 changed" in lines
    assert "train: 1 of 1 changed" in lines
    assert [line for line in lines if line.startswith("changed:")] == [
        "changed: iou/edge/bev/pairs",
        "changed: iou/rot90/3d/pairs (only in the change)",
        "changed: train/noise0.0/seeds0/l1/head (only in the parent)",
    ]
    assert lines[-1] == "3 of 5 entries changed"
