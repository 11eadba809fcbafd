"""The benchmark's tracer wraps module functions by name (perfbench/spans.py
WRAP_POINTS). A rename or deletion in the package would make a traced
benchmark run fail; this test catches it in the tier-1 suite."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAP_POINTS


def test_every_wrap_point_resolves():
    points = _wrap_points()
    assert points
    for module, attr, _span in points:
        fn = getattr(importlib.import_module(f"qclocksync.{module}"), attr, None)
        assert callable(fn), f"qclocksync.{module}.{attr} is gone"
