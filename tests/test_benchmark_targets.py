"""The benchmark reaches the library by module and attribute name, so a
function that is renamed or moved fails only inside a benchmark run.
These tests check from the test suite that every such name resolves:
the tracer's wrap targets, and every attribute the benchmark scripts read
on an epra_kit module.  The benchmark's own self-test runs here too, so a
change that breaks a workload in a way no name check sees (an attribute
read on a returned object, say) fails the suite."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import epra_kit
from epra_kit import epra
from epra_kit.instances import gen_controlled

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SPANS = BENCHMARKS / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_target_resolves():
    spans = _load_spans()
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert spans.TARGETS and not missing


def test_solve_records_one_projector_span_per_side_build():
    # the tracer counts projector builds where solve looks its builder up;
    # a build it cannot see would drop out of subspace.projectors.calls.
    # Round 0 builds both sides in one call, every later round one call
    # per side.
    spans = _load_spans()
    with spans.Tracer() as tracer:
        res = epra.solve(gen_controlled(10, 30, seed=1))
    names = [spans.NAMES[i] for i in tracer.name]
    assert res.rounds > 0
    assert names.count(spans.PROJECTORS) == 1 + 2 * res.rounds
    assert names.count(spans.RUN_SCHEME) == 2 * (res.rounds + 1)


def _library_reads(tree):
    """(module, attribute, line) for each `name.attr` in the tree where name
    is bound by `from epra_kit import <module>` or `import epra_kit`."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "epra_kit":
            for alias in node.names:
                if isinstance(getattr(epra_kit, alias.name, None), ModuleType):
                    bound[alias.asname or alias.name] = f"epra_kit.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "epra_kit":
                    bound[alias.asname or alias.name] = "epra_kit"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            yield bound[node.value.id], node.attr, node.lineno


def test_every_library_attribute_the_benchmarks_read_resolves():
    reads = [(path.name, *read) for path in sorted(BENCHMARKS.glob("*.py"))
             for read in _library_reads(ast.parse(path.read_text(), str(path)))]
    missing = [f"{name}:{line}: {module}.{attr}" for name, module, attr, line in reads
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
    assert {module for _, module, _, _ in reads} >= {
        f"epra_kit.{m}" for m in ("basic", "bench", "epra", "instances", "oracle", "subspace")
    }


def test_benchmark_selftest_passes():
    # every workload at a tiny size, untraced and traced (about 10 s)
    proc = subprocess.run([sys.executable, str(BENCHMARKS / "selftest.py")],
                          cwd=BENCHMARKS.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout
