"""Self-test of the benchmark harness: every workload at a tiny size.

    python3 benchmarks/selftest.py

Checks, for each workload, that the untimed and the traced run compute
exactly the metrics BENCHMARK.json declares and print each with its unit, that every
answer passes its oracle, and that tracing leaves the fingerprint and the
exact counts unchanged.  It also checks that the command refuses to run,
without printing a result, in a directory that holds only the benchmark.
Not collected by pytest: the timed loops take a few seconds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 0.3
EXACT = ("basic.iters", "epra.rounds", "epra.rounds.max", "subspace.projectors.calls",
         "epra.refine.calls", "basic.outcome.iter_limit")


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def measure(run, workloads, workload, trace, spans_path=None):
    result, computed, details = run.measure(workload, workloads.TINY, 3, SECONDS, trace,
                                            spans_path=spans_path)
    declared_names = set(declared("per_layer" if trace else "end_to_end"))
    assert set(computed) == declared_names, (workload.name, set(computed) ^ declared_names)
    return result, details


def check_workload(run, workloads, workload, tmp):
    e2e, layers = declared("end_to_end"), declared("per_layer")
    plain, plain_details = measure(run, workloads, workload, trace=0)
    spans_path = tmp / f"{workload.name}.spans.jsonl"
    traced, traced_details = measure(run, workloads, workload, trace=1, spans_path=spans_path)
    again, again_details = measure(run, workloads, workload, trace=1)

    assert emitted(plain) == e2e, (workload.name, emitted(plain), e2e)
    assert emitted(traced) == layers, workload.name
    for result in (plain, traced, again):
        assert result["correct"] and result["failed"] == 0, (workload.name, result)
        assert result["attempted"] >= 1
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert plain["metrics"]["setup_s"]["value"] > 0
    assert plain["metrics"]["instances_per_s"]["value"] > 0
    assert plain_details["fingerprint_digest"] == traced_details["fingerprint_digest"], workload.name
    assert traced_details["fingerprint_digest"] == again_details["fingerprint_digest"], workload.name
    for name in EXACT:
        assert traced["metrics"][name]["value"] == again["metrics"][name]["value"], name
    first = json.loads(spans_path.read_text().splitlines()[0])
    assert set(first) == {"span", "name", "start", "end", "parent"}
    print(f"ok {workload.name}: {plain['attempted']} instances, "
          f"digest {plain_details['fingerprint_digest']}")


def check_refuses_without_library(tmp):
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok refuses to run without the library")


def main():
    sys.path.insert(0, str(HERE))
    import run

    run.import_library()
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        for workload in workloads.WORKLOADS:
            check_workload(run, workloads, workload, tmp)
        check_refuses_without_library(tmp)
    print("selftest passed")


if __name__ == "__main__":
    main()
