"""The benchmark's tracer wraps library functions by module and attribute
name, so a function that is renamed or moved fails only in a traced
benchmark run.  This checks every target from the test suite."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert spans.TARGETS and not missing
