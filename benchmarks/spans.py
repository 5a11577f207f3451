"""Outside-in tracing for the traced run.

Each layer entry point is replaced, for the duration of the traced phase,
by a wrapper installed where its caller looks the name up: `epra` calls
`basic.run_scheme` through the module and `rescaled_projectors` through
its own global, `basic` calls `stop_check` and `project_simplex` through
its globals, and `_refine_partition` imports `instances.nullspace_basis`
at call time.  Nothing under `src/` is edited.

Spans live in flat arrays (name id, start, end, parent) so a traced
bp-schemes run, with a stop check per basic-procedure iteration, stays
small; `write_jsonl` writes them out at the end.
"""

import json
import time
from array import array

import numpy as np

from epra_kit import basic, epra, instances, subspace

INSTANCE = "instance"
SOLVE = "epra.solve"
PROJECTORS = "subspace.projectors"
RUN_SCHEME = "basic.run_scheme"
PROJECT_SIMPLEX = "basic.project_simplex"
STOP_CHECK = "basic.stop_check"
RESCALE_UPDATE = "epra.rescale_update"
IDENTIFY_PARTITION = "epra.identify_partition"
REFINE = "epra.refine"
REDUCED_ROWSPACE = "epra.reduced_rowspace"
NULLSPACE_BASIS = "instances.nullspace_basis"

NAMES = (INSTANCE, SOLVE, PROJECTORS, RUN_SCHEME, PROJECT_SIMPLEX, STOP_CHECK,
         RESCALE_UPDATE, IDENTIFY_PARTITION, REFINE, REDUCED_ROWSPACE, NULLSPACE_BASIS)


def _qr_flops(rows: int, cols: int) -> float:
    """Householder QR of a rows x cols matrix plus forming its explicit Q."""
    return 2.0 * (2.0 * rows * cols**2 - 2.0 * cols**3 / 3.0)


def _rescaled_flops(args) -> float:
    # two QRs of the n x m transpose and two n x m by m x n products
    m, n = args[0].shape
    return 2.0 * (_qr_flops(n, m) + 2.0 * n * n * m)


def _kernel_flops(args) -> float:
    m, n = args[0].shape
    return _qr_flops(n, m) + 2.0 * n * n * m


def _solve_summary(args, out):
    return (out.status, int(out.rounds))


def _scheme_summary(args, out):
    return (args[2].scheme, out.status, int(out.iterations))


def _refine_summary(args, out):
    return out is not None


# (module, attribute, span name, flop model, keep CPU time, result summary)
TARGETS = (
    (epra, "_solve", SOLVE, None, False, _solve_summary),
    (epra, "rescaled_projectors", PROJECTORS, _rescaled_flops, True, None),
    (subspace, "projector_from_kernel", PROJECTORS, _kernel_flops, True, None),
    (basic, "run_scheme", RUN_SCHEME, None, True, _scheme_summary),
    (basic, "project_simplex", PROJECT_SIMPLEX, None, False, None),
    (basic, "stop_check", STOP_CHECK, None, False, None),
    (epra, "rescale_update", RESCALE_UPDATE, None, False, None),
    (epra, "identify_partition", IDENTIFY_PARTITION, None, False, None),
    (epra, "_refine_partition", REFINE, None, False, _refine_summary),
    (epra, "_reduced_rowspace", REDUCED_ROWSPACE, None, False, None),
    (instances, "nullspace_basis", NULLSPACE_BASIS, None, False, None),
)


class Tracer:
    """Span recorder.  Use `with tracer:` to install the wrappers and
    `tracer.wrap(INSTANCE, fn)` for the benchmark's own per-instance span."""

    def __init__(self):
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cpu = {}  # span index -> process CPU seconds
        self.flops = {}  # span index -> computed flops
        self.result = {}  # span index -> summary of the returned value
        self._stack = [-1]
        self._saved = []

    def wrap(self, name, fn, flops=None, keep_cpu=False, summary=None):
        name_id = NAMES.index(name)
        spans_name, spans_start, spans_end = self.name, self.start, self.end
        spans_parent, stack = self.parent, self._stack
        perf, cpu_clock = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            idx = len(spans_start)
            spans_name.append(name_id)
            spans_parent.append(stack[-1])
            spans_start.append(0.0)
            spans_end.append(0.0)
            stack.append(idx)
            c0 = cpu_clock() if keep_cpu else 0.0
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans_start[idx] = t0
                spans_end[idx] = t1
            if keep_cpu:
                self.cpu[idx] = cpu_clock() - c0
            if flops is not None:
                self.flops[idx] = flops(args)
            if summary is not None:
                self.result[idx] = summary(args, out)
            return out

        return traced

    def __enter__(self):
        for module, attr, name, flops, keep_cpu, summary in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, flops, keep_cpu, summary))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({"span": i, "name": NAMES[self.name[i]],
                                     "start": self.start[i], "end": self.end[i],
                                     "parent": self.parent[i]}) + "\n")


def layer_metrics(tracer: Tracer, prefix: int) -> dict:
    """Per-layer metrics from the recorded spans.

    Times come from every traced instance.  Counts, and ratios of counts,
    come from the first `prefix` instances only, so they repeat exactly
    whatever number of instances the run reached.
    """
    names = np.frombuffer(tracer.name, dtype=np.uint8)
    start = np.frombuffer(tracer.start)
    dur = np.frombuffer(tracer.end) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time

    roots = np.nonzero(names == NAMES.index(INSTANCE))[0]
    cut = roots[prefix] if prefix < roots.size else dur.size
    wall = float(np.sum(dur[roots]))

    def idx(name, counted=False):
        sel = np.nonzero(names == NAMES.index(name))[0]
        return sel[sel < cut] if counted else sel

    def share(name, inclusive=False):
        return float(np.sum((dur if inclusive else self_time)[idx(name)])) / wall

    def per_call(name, scale):
        sel = idx(name)
        return scale * float(np.mean(dur[sel])) if sel.size else 0.0

    def summaries(name, counted=False):
        # a span whose call raised has no summary; the loop reports the error
        return [(int(i), tracer.result[int(i)]) for i in idx(name, counted)
                if int(i) in tracer.result]

    def cpu_per_wall(name):
        sel = idx(name)
        busy = float(np.sum(dur[sel]))
        return sum(tracer.cpu[int(i)] for i in sel) / busy if busy else 0.0

    out = {}
    proj = idx(PROJECTORS)
    proj_time = float(np.sum(dur[proj]))
    out["subspace.projectors.calls"] = int(idx(PROJECTORS, counted=True).size)
    out["subspace.projectors.ms_per_call"] = 1e3 * float(np.median(dur[proj])) if proj.size else 0.0
    out["subspace.projectors.share"] = share(PROJECTORS)
    out["subspace.projectors.cpu_per_wall"] = cpu_per_wall(PROJECTORS)
    out["subspace.projectors.gflop_s"] = (
        sum(tracer.flops[int(i)] for i in proj) / proj_time / 1e9 if proj_time else 0.0
    )

    # run_scheme summaries are (scheme, status, iterations)
    counted_runs = summaries(RUN_SCHEME, counted=True)
    out["basic.iters"] = sum(r[2] for _, r in counted_runs)
    for status in (basic.INTERIOR_FOUND, basic.RESCALE_READY, basic.ITER_LIMIT):
        out[f"basic.outcome.{status}"] = sum(r[1] == status for _, r in counted_runs)
    for scheme in basic.SCHEMES:
        sel = [(i, r) for i, r in summaries(RUN_SCHEME) if r[0] == scheme]
        iters = sum(r[2] for _, r in sel)
        busy = sum(float(dur[i]) for i, _ in sel)
        out[f"basic.{scheme}.us_per_iter"] = 1e6 * busy / iters if iters else 0.0
    out["basic.run_scheme.share"] = share(RUN_SCHEME)
    out["basic.run_scheme.cpu_per_wall"] = cpu_per_wall(RUN_SCHEME)
    out["basic.project_simplex.us_per_call"] = per_call(PROJECT_SIMPLEX, 1e6)
    out["basic.project_simplex.share"] = share(PROJECT_SIMPLEX)
    out["basic.stop_check.us_per_call"] = per_call(STOP_CHECK, 1e6)
    out["basic.stop_check.share"] = share(STOP_CHECK)

    solves = summaries(SOLVE, counted=True)
    rounds = [r[1] for i, r in solves if names[parent[i]] == NAMES.index(INSTANCE)]
    out["epra.rounds"] = float(np.mean(rounds)) if rounds else 0.0
    out["epra.rounds.max"] = int(max(rounds)) if rounds else 0
    out["epra.loop.share"] = share(SOLVE)
    out["epra.rescale_update.us_per_call"] = per_call(RESCALE_UPDATE, 1e6)
    out["epra.identify_partition.us_per_call"] = per_call(IDENTIFY_PARTITION, 1e6)
    out["epra.wasted_iter_frac"] = _wasted_iter_frac(tracer, names, parent, solves, counted_runs)

    refines = summaries(REFINE, counted=True)
    out["epra.refine.calls"] = int(idx(REFINE, counted=True).size)
    out["epra.refine.ms_per_call"] = per_call(REFINE, 1e3)
    out["epra.refine.share"] = share(REFINE, inclusive=True)
    out["epra.refine.accept_frac"] = (
        sum(accepted for _, accepted in refines) / len(refines) if refines else 0.0
    )
    out["epra.reduced_rowspace.ms_per_call"] = per_call(REDUCED_ROWSPACE, 1e3)
    out["instances.nullspace_basis.ms_per_call"] = per_call(NULLSPACE_BASIS, 1e3)
    return out


def _wasted_iter_frac(tracer, names, parent, solves, counted_runs) -> float:
    """Iterations of the side that lost each solve's final round (the side
    still running when the other found an interior point), over all
    basic-procedure iterations."""
    total = sum(r[2] for _, r in counted_runs)
    if not total:
        return 0.0
    run_id = NAMES.index(RUN_SCHEME)
    wasted = 0
    for s, (status, _) in solves:
        if status not in (epra.TRIVIAL_PRIMAL, epra.TRIVIAL_DUAL):
            continue
        kids = np.nonzero((parent == s) & (names == run_id))[0]
        primal, dual = int(kids[-2]), int(kids[-1])
        loser = dual if status == epra.TRIVIAL_PRIMAL else primal
        wasted += tracer.result[loser][2]
    return wasted / total
