"""Experiment harness: batches of generated instances, solver runs, and
aggregated CSV rows.

An experiment manifest names one of the experiment kinds in the
EXPERIMENTS table, a list of size cells, and batch parameters.  Per-instance seeds are derived from
(base_seed, cell_index, instance_index) through numpy's SeedSequence, so
results do not depend on scheduling order or the degree of parallelism.
Every per-instance record is written to a JSON-lines log before any
aggregation; the aggregate rows land in a fixed-schema CSV.
"""

import csv
import os
import time
from dataclasses import dataclass, fields
from functools import partial
from typing import Optional

import numpy as np

from . import basic, epra, serialize
from .basic import BpConfig
from .epra import EpraConfig, ALL_DIRECTIONS, SINGLE_DIRECTION, TRIVIAL_PRIMAL
from .instances import gen_controlled, gen_naive, gen_partitioned, instance_seed
from .oracle import partition_matches
from .subspace import projector_from_kernel

# the controlled generator's ill-conditioning parameter for benchmark runs
BENCH_DELTA_CAP = 0.001

RESULTS_CSV = "results.csv"
RECORDS_JSONL = "per_instance.jsonl"
SUMMARY_JSON = "summary.json"


@dataclass(frozen=True)
class ExperimentManifest:
    experiment: str
    sizes: list  # [m, n] pairs, or [n] singletons for EpraPartition
    instances_per_cell: int = 100
    epsilon: float = EpraConfig.epsilon
    iter_limit: int = BpConfig.max_iters  # 0 = no cap
    U: float = EpraConfig.U
    base_seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not self.sizes:
            raise ValueError("sizes must list at least one cell")
        # checked here so a bad value stops the batch instead of turning
        # every task into an error
        for name, least in (("instances_per_cell", 1), ("iter_limit", 0), ("base_seed", 0),
                            ("parallelism", 1)):
            basic.check_count(name, getattr(self, name), least)
        EpraConfig(U=self.U, epsilon=self.epsilon)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentManifest":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "ExperimentManifest":
        return cls.from_dict(serialize.load(path))


@dataclass
class ResultRow:
    experiment: str
    m: Optional[float]
    n: int
    scheme: Optional[str]
    avg_iterations: Optional[float]
    avg_cpu_seconds: Optional[float]
    success_rate: Optional[float]
    avg_rescaling_rounds: Optional[float]
    avg_total_bp_iterations: Optional[float]
    fraction_primal_feasible: Optional[float]
    avg_m: Optional[float]


CSV_FIELDS = [f.name for f in fields(ResultRow)]


def _timed(fn, *args):
    """fn(*args), with the process CPU seconds (all threads) and the wall
    seconds it took."""
    c0, t0 = time.process_time(), time.perf_counter()
    out = fn(*args)
    return out, {"cpu_seconds": time.process_time() - c0,
                 "wall_seconds": time.perf_counter() - t0}


def _run_schemes(manifest, inst, stamp) -> list:
    """The four basic-procedure schemes on one projector."""
    P = projector_from_kernel(inst.A).P
    z0 = basic.uniform_simplex(inst.n)
    records = []
    for scheme in basic.SCHEMES:
        cfg = BpConfig(epsilon=manifest.epsilon, max_iters=manifest.iter_limit, scheme=scheme)
        out, times = _timed(basic.run_scheme, P, z0, cfg)
        records.append(
            {
                "experiment": manifest.experiment,
                "m": inst.m,
                "n": inst.n,
                **stamp,
                "scheme": scheme,
                "status": out.status,
                "iterations": out.iterations,
                "success": out.status != basic.ITER_LIMIT,
                **times,
            }
        )
    return records


def _solves(outcome, modes=None):
    """Runner for one solve per rescale mode (all-directions only when
    modes is None, else each mode, named in the scheme column);
    outcome(inst, res) gives the record's success fields."""

    def run(manifest, inst, stamp) -> list:
        records = []
        for mode in modes or (ALL_DIRECTIONS,):
            cfg = EpraConfig(
                U=manifest.U,
                epsilon=manifest.epsilon,
                bp_max_iters=manifest.iter_limit or EpraConfig.bp_max_iters,
                rescale_mode=mode,
            )
            res, times = _timed(epra.solve, inst, cfg)
            records.append(
                {
                    "experiment": manifest.experiment,
                    "m": inst.m,
                    "n": inst.n,
                    "status": res.status,
                    "rounds": res.rounds,
                    "total_bp_iterations": res.bp_iters_primal + res.bp_iters_dual,
                    **times,
                    **({"scheme": mode} if modes else {}),
                    **outcome(inst, res),
                    **stamp,
                }
            )
        return records

    return run


def _primal_found(inst, res) -> dict:
    return {"success": res.status == TRIVIAL_PRIMAL}


def _naive_outcome(inst, res) -> dict:
    return {
        "success": res.status in epra.SUCCESS_STATUSES,
        "primal_feasible": res.status == TRIVIAL_PRIMAL,
    }


def _partition_recovered(inst, res) -> dict:
    return {"success": partition_matches(inst, res.B, res.N)}


_gen_controlled = partial(gen_controlled, delta_cap=BENCH_DELTA_CAP)

# experiment name -> (names of a size cell's entries, instance maker called
# as make(*cell, seed=seed), runner called as run(manifest, inst, stamp)
# that returns the instance's records)
EXPERIMENTS = {
    "BpNaive": (("m", "n"), gen_naive, _run_schemes),
    "BpControlled": (("m", "n"), _gen_controlled, _run_schemes),
    "EpraControlled": (("m", "n"), _gen_controlled, _solves(_primal_found)),
    "EpraPartition": (("n",), gen_partitioned, _solves(_partition_recovered)),
    "EpraNaive": (("m", "n"), gen_naive, _solves(_naive_outcome)),
    "RescaleModeCompare": (
        ("m", "n"), _gen_controlled, _solves(_primal_found, (ALL_DIRECTIONS, SINGLE_DIRECTION))
    ),
}


def _run_cell_instance(manifest: ExperimentManifest, cell_index: int, size, index: int) -> list:
    """All per-instance records for one (cell, index) task."""
    cell, make, run = EXPERIMENTS[manifest.experiment]
    size = np.atleast_1d(size).tolist()
    if len(size) != len(cell):
        raise ValueError(f"{manifest.experiment} cells are [{', '.join(cell)}], got {size}")
    if any(v != int(v) for v in size):
        raise ValueError(f"cell {cell_index} entries must be integers, got {size}")
    seed = instance_seed(manifest.base_seed, cell_index, index)
    inst = make(*(int(v) for v in size), seed=seed)
    return run(manifest, inst, {"index": index, "seed": seed})


def _mean(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def _aggregate(manifest: ExperimentManifest, records: list) -> list:
    """One ResultRow per (size cell x scheme label).  Cells of [n] group
    instances of every m and report m as an average."""
    cells_are_n = "m" not in EXPERIMENTS[manifest.experiment][0]
    groups = {}
    for rec in records:
        key = (None if cells_are_n else rec["m"], rec["n"], rec.get("scheme"))
        groups.setdefault(key, []).append(rec)
    rows = []
    for (m, n, scheme), recs in sorted(
        groups.items(), key=lambda kv: (kv[0][0] or 0, kv[0][1], str(kv[0][2]))
    ):
        rows.append(
            ResultRow(
                experiment=manifest.experiment,
                m=m,
                n=n,
                scheme=scheme,
                avg_iterations=_mean([r.get("iterations") for r in recs]),
                avg_cpu_seconds=_mean([r.get("cpu_seconds") for r in recs]),
                success_rate=_mean([float(r["success"]) for r in recs if "success" in r]),
                avg_rescaling_rounds=_mean([r.get("rounds") for r in recs]),
                avg_total_bp_iterations=_mean([r.get("total_bp_iterations") for r in recs]),
                fraction_primal_feasible=_mean(
                    [float(r["primal_feasible"]) for r in recs if "primal_feasible" in r]
                ),
                avg_m=_mean([r["m"] for r in recs]) if cells_are_n else None,
            )
        )
    return rows


def write_rows_csv(rows: list, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow(
                ["" if getattr(row, f) is None else getattr(row, f) for f in CSV_FIELDS]
            )


def load_records_jsonl(path) -> list:
    import json

    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def run_experiment(manifest: ExperimentManifest, out_dir=None) -> list:
    """Run the batch described by the manifest; returns the aggregate rows.

    When out_dir is given, writes the per-instance JSON-lines log first,
    then the aggregate CSV and a summary with the number of tasks (one per
    cell and instance index) and of tasks that raised.  A task that raises
    is logged as an error record, counts in no aggregate row and never
    aborts the batch.
    """
    tasks = [
        (cell_index, size, index)
        for cell_index, size in enumerate(manifest.sizes)
        for index in range(manifest.instances_per_cell)
    ]
    if manifest.parallelism > 1:
        # imported here: it pulls in multiprocessing, a seventh of the
        # package's import time, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=manifest.parallelism) as pool:
            futures = [pool.submit(_run_cell_instance, manifest, *task) for task in tasks]
            per_task = [_records_or_error(manifest, t, f.result) for t, f in zip(tasks, futures)]
    else:
        per_task = [_records_or_error(manifest, task, partial(_run_cell_instance, manifest, *task))
                    for task in tasks]
    records = [rec for recs in per_task for rec in recs]
    errored = sum("error" in rec for rec in records)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, RECORDS_JSONL), "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(serialize.dumps(rec))
                fh.write("\n")
    rows = _aggregate(manifest, [r for r in records if "error" not in r])
    if out_dir is not None:
        write_rows_csv(rows, os.path.join(out_dir, RESULTS_CSV))
        serialize.dump(
            {"experiment": manifest.experiment, "tasks": len(tasks), "errored": errored},
            os.path.join(out_dir, SUMMARY_JSON),
        )
    return rows


def _records_or_error(manifest, task, call) -> list:
    """call(), or one error record for the task when it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - record, don't abort
        cell_index, _, index = task
        return [
            {
                "experiment": manifest.experiment,
                "cell": cell_index,
                "index": index,
                "error": f"{type(exc).__name__}: {exc}",
            }
        ]


def emit_histogram(results: list, field: str, out_path=None) -> list:
    """Histogram of an integer-valued field over per-instance records.

    Returns sorted (value, count) pairs; writes them as CSV when out_path
    is given.  Records missing the field are skipped; an empty input yields
    a header-only CSV.  A value that is not integral (cpu_seconds, say)
    raises ValueError rather than landing in the bin it truncates to.
    """
    from collections import Counter

    values = [rec[field] for rec in results if rec.get(field) is not None]
    for value in values:
        if not float(value).is_integer():
            raise ValueError(f"field {field!r} has the non-integral value {value!r}; "
                             "a histogram needs integer values")
    counts = Counter(int(value) for value in values)
    pairs = sorted(counts.items())
    if out_path is not None:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "count"])
            writer.writerows(pairs)
    return pairs
