"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps kp3d
functions by their dotted names; every name must still resolve, or
`Tracer.install()` raises `AttributeError` before the first op."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_span_name_resolves_to_a_kp3d_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = []
    for name in tracer.SPAN_NAMES:
        module, fn = name.split(".")
        if not callable(getattr(importlib.import_module(f"kp3d.{module}"), fn, None)):
            unresolved.append(name)
    assert tracer.SPAN_NAMES and unresolved == []
