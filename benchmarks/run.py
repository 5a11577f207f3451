"""epra-kit benchmark: one seeded workload, timed end to end, checked by
an independent oracle, with an optional traced run per layer.

    python3 benchmarks/run.py --workload controlled-200 --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: the library is imported from `src/`
next to this directory and nowhere else.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it carries the run's details (machine facts, sample count,
tail percentile, fingerprint, errors).  See README.md beside this file.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
# instances solved under tracemalloc for peak_alloc_mb; it slows a solve
# about fourfold, and one instance's peak differs from the next by well
# under 1% (n and m fix the array shapes)
ALLOC_SAMPLE = 4
# The host's speed drifts by up to 1.6x over seconds (other tenants share
# its cores).  A fixed reference kernel runs after every timed instance;
# each instance's times are scaled by REF_NOMINAL_S over the median
# reference time of the REF_WINDOW instances on either side of it, so the
# timing metrics read as seconds on a host where the reference takes
# REF_NOMINAL_S (its typical time on an unloaded core).  README.md explains.
REF_NOMINAL_S = 2.0e-3
REF_WINDOW = 4

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_library():
    """Put the checkout's `src/` first on the path and import from it; a
    copy of epra_kit installed elsewhere must never stand in for it."""
    if not (SRC / "epra_kit" / "__init__.py").is_file():
        sys.exit(f"benchmark: no library at {SRC / 'epra_kit'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import epra_kit

    if Path(epra_kit.__file__).resolve().parent != SRC / "epra_kit":
        sys.exit(f"benchmark: imported epra_kit from {epra_kit.__file__}, not {SRC}")


def openblas_runtime():
    """OpenBLAS's thread count in effect and its run-time configuration
    string, read through the library's exported getters."""
    import ctypes
    import glob

    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return int(threads()), config().decode()
    return None, None


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_config": config,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "blas_threads_in_effect": threads,
        "machine": platform.machine(),
    }


def make_reference():
    """The speed reference: fixed work that calls neither the library nor
    BLAS, so a change to the program leaves its work the same.  It mixes the
    two kinds of work a solve is mostly made of: interpreted Python
    arithmetic and NumPy calls on small arrays."""
    import numpy

    base = numpy.linspace(0.0, 1.0, 2000)

    def reference():
        total = 0
        for i in range(20000):
            total += i * i
        a = base
        for _ in range(200):
            a = a * 1.0000001 + 0.5
        return total + float(a[-1])

    return reference


def reference_speed():
    """The speed factor now, from the median of as many reference runs as
    the timed loop's window holds."""
    reference = make_reference()
    times = []
    for _ in range(2 * REF_WINDOW + 1):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return REF_NOMINAL_S / statistics.median(times)


def speed_factors(refs):
    """Per-instance factor that turns measured seconds into nominal ones."""
    return [REF_NOMINAL_S / statistics.median(refs[max(i - REF_WINDOW, 0):i + REF_WINDOW + 1])
            for i in range(len(refs))]


class Loop:
    """Closed loop over the pool: one instance at a time, the next starting
    when the previous returns.  Keeps each pool instance's first outcome and
    checks every repeat against it.  With a reference, times it after every
    timed instance (outside the instance's own time)."""

    def __init__(self, pool, run, signature, reference=None):
        self.pool = pool
        self.run = run
        self.signature = signature
        self.reference = reference
        self.walls = []
        self.cpus = []
        self.refs = []
        self.first = {}  # pool index -> (Outcome, signature)
        self.errors = []  # (pool index, exception type, message)
        self.mismatches = 0

    def step(self, i, timed=True):
        k = i % len(self.pool)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = self.run(self.pool[k])
        except Exception as exc:  # recorded, counted as failed, never dropped
            out = None
            self.errors.append((k, type(exc).__name__, str(exc)))
        t1 = time.perf_counter()
        c1 = time.process_time()
        if timed:
            self.walls.append(t1 - t0)
            self.cpus.append(c1 - c0)
            if self.reference is not None:
                self.reference()
                self.refs.append(time.perf_counter() - t1)
        if out is not None:
            sig = self.signature(out)
            if k not in self.first:
                self.first[k] = (out, sig)
            elif self.first[k][1] != sig:
                self.mismatches += 1

    def for_seconds(self, seconds, at_least=1):
        t0 = time.perf_counter()
        i = 0
        while i < at_least or time.perf_counter() - t0 < seconds:
            self.step(i)
            i += 1
        return i

    def for_count(self, count):
        for i in range(count):
            self.step(i)


def set_up(workload, sizes, seed, repeats):
    """Draw the pool and warm up; repeated so set-up time is a median, with
    the host's speed measured before each repeat.

    The warm-up runs the workload once at the tiny size (every code path)
    and builds one full-size projector (BLAS threads), so its cost does not
    depend on how hard the seed's first instance happens to be."""
    from epra_kit import subspace
    from workloads import TINY, make_pool

    times, gen_times, speeds = [], [], []
    pool = None
    for _ in range(repeats):
        pool = None  # let the previous draw go before the next one
        speeds.append(reference_speed())
        t0 = time.perf_counter()
        pool = make_pool(workload, sizes, seed)
        gen_times.append(time.perf_counter() - t0)
        workload.run(workload.make(TINY, seed, 0))
        subspace.projector_from_kernel(pool[0].A)
        times.append(time.perf_counter() - t0)
    return pool, times, speeds, statistics.median(gen_times) / len(pool)


def check(workload, loops):
    """Untimed oracle checks on every distinct instance the loops ran."""
    verified, wrong, failures = {}, set(), {}
    for loop in loops:
        for k, (out, _) in loop.first.items():
            if k in verified:
                continue
            found = workload.verify(loop.pool[k], out)
            verified[k] = not found
            # a non-success status on an instance whose answer is not known
            # beforehand (naive) is an honest outcome, not a wrong answer
            if any(not f.startswith("status:") for f in found):
                wrong.add(k)
            for f in found:
                failures[f] = failures.get(f, 0) + 1
    return verified, wrong, failures


def measure(workload, sizes, seed, seconds, trace, spans_path=None, import_s=0.0):
    """Run one workload; returns (result line, computed metrics, details)."""
    from workloads import FINGERPRINT_PREFIX, digest, output_signature, tail_index

    pool, setup_times, setup_speeds, gen_s = set_up(workload, sizes, seed, SETUP_REPEATS)
    # each part scaled by the speed measured just before it, like the timed loop
    setup_s = import_s * setup_speeds[0] + statistics.median(
        t * f for t, f in zip(setup_times, setup_speeds))
    prefix = min(FINGERPRINT_PREFIX, len(pool))

    # Untimed, before the timed part: the first ALLOC_SAMPLE instances under
    # tracemalloc.  An instance's peak is the most its solve holds at once
    # above what was live when it started, so neither the pool nor the
    # answers the loop keeps count.
    loop = Loop(pool, workload.run, output_signature, None if trace else make_reference())
    alloc_peaks = []
    tracemalloc.start()
    try:
        for k in range(min(ALLOC_SAMPLE, len(pool))):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loop.step(k, timed=False)
            alloc_peaks.append(tracemalloc.get_traced_memory()[1] - live)
    finally:
        tracemalloc.stop()

    if not trace:
        count = loop.for_seconds(seconds)
        loops = [loop]
    else:
        import spans

        count = loop.for_seconds(seconds / 2.0, at_least=prefix)
        tracer = spans.Tracer()
        traced = Loop(pool, tracer.wrap(spans.INSTANCE, workload.run), output_signature)
        with tracer:
            traced.for_count(count)
        loops = [loop, traced]
    # the fingerprint covers a fixed prefix of the pool, reached or not
    for k in range(prefix):
        if k not in loop.first and not any(e[0] == k for e in loop.errors):
            loop.step(k, timed=False)

    rows = [loop.first[k][0].fingerprint if k in loop.first else None for k in range(prefix)]
    verified, wrong, failures = check(workload, loops)
    attempted_idx = [i % len(pool) for i in range(count)]
    errored = {e[0] for lp in loops for e in lp.errors}
    failed = sum(1 for k in attempted_idx if k in errored or k in wrong)
    failed += sum(lp.mismatches for lp in loops)
    if trace:
        # tracing must not change a single bit of any answer
        failed += sum(1 for k, (_, sig) in traced.first.items()
                      if k in loop.first and loop.first[k][1] != sig)
    correct = failed == 0
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "machine": machine_facts(),
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "setup_speed_factors": setup_speeds,
        "instances": count,
        "distinct_instances": len(loop.first),
        "fingerprint_digest": digest(rows),
        "fingerprint_prefix": prefix,
        "fingerprint": rows,
        "check_failures": failures,
        "nondeterministic_repeats": sum(lp.mismatches for lp in loops),
        "errors": [{"pool_index": k, "type": t, "message": m}
                   for lp in loops for k, t, m in lp.errors][:20],
        "error_count": sum(len(lp.errors) for lp in loops),
    }

    if not trace:
        speed = speed_factors(loop.refs)
        walls = sorted(w * f for w, f in zip(loop.walls, speed))
        tail = tail_index(len(walls))
        successes = sum(loop.first[k][0].successes for k in attempted_idx if k in loop.first)
        attempts = count * workload.outcomes_per_instance
        metrics = {
            "solve_s_p50": statistics.median(walls),
            "solve_s_tail": walls[tail],
            "instances_per_s": count / sum(walls),
            "cpu_s_per_instance": sum(c * f for c, f in zip(loop.cpus, speed)) / count,
            "success_frac": successes / attempts,
            "verified_frac": sum(verified.get(k, False) for k in attempted_idx) / count,
            "setup_s": setup_s,
            "peak_alloc_mb": statistics.median(alloc_peaks) / 2**20,
        }
        details["tail_percentile"] = 100.0 * (tail + 1) / len(walls)
        details["samples"] = len(walls)
        raw = sorted(loop.walls)
        details["reference"] = {
            "nominal_s": REF_NOMINAL_S,
            "median_s": statistics.median(loop.refs),
            "quartiles_s": statistics.quantiles(loop.refs, n=4) if len(loop.refs) > 1 else loop.refs,
            "speed_factor_range": [min(speed), max(speed)],
        }
        details["measured"] = {
            "solve_s_p50": statistics.median(raw),
            "solve_s_tail": raw[tail],
            "instances_per_s": count / sum(raw),
            "cpu_s_per_instance": sum(loop.cpus) / count,
        }
        # the whole process, pool included: context, not a metric
        details["process_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        metrics = spans.layer_metrics(tracer, prefix)
        metrics["instances.gen.ms_per_instance"] = 1e3 * gen_s
        metrics["trace.wall_ratio"] = sum(traced.walls) / sum(loop.walls)
        details["traced_instances"] = count
        details["traced_wall_s"] = sum(traced.walls)
        details["untraced_wall_s"] = sum(loop.walls)
        details["spans"] = len(tracer.start)
        if spans_path:
            tracer.write_jsonl(spans_path)
    section = "per_layer" if trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    result = {
        "correct": bool(correct),
        "attempted": int(count),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return result, metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans here as JSON lines")
    args = parser.parse_args(argv)

    import_library()
    sys.path.insert(0, str(HERE))
    import workloads

    import_s = time.perf_counter() - T_PROCESS
    if args.workload not in workloads.BY_NAME:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.BY_NAME)}")
    result, _, details = measure(workloads.BY_NAME[args.workload], workloads.FULL, args.seed,
                              args.seconds, args.trace, args.spans, import_s)
    print(json.dumps(details, separators=(",", ":")))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
