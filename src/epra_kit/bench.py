"""Experiment harness: batches of generated instances, solver runs, and
aggregated CSV rows.

An experiment manifest names one of six experiment kinds, a list of size
cells, and batch parameters.  Per-instance seeds are derived from
(base_seed, cell_index, instance_index) through numpy's SeedSequence, so
results do not depend on scheduling order or the degree of parallelism.
Every per-instance record is written to a JSON-lines log before any
aggregation; the aggregate rows land in a fixed-schema CSV.
"""

import csv
import os
import time
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import basic, epra, serialize
from .basic import BpConfig
from .epra import EpraConfig, ALL_DIRECTIONS, SINGLE_DIRECTION, TRIVIAL_PRIMAL
from .instances import gen_controlled, gen_naive, gen_partitioned, instance_seed
from .subspace import projector_from_kernel

BP_NAIVE = "BpNaive"
BP_CONTROLLED = "BpControlled"
EPRA_CONTROLLED = "EpraControlled"
EPRA_PARTITION = "EpraPartition"
EPRA_NAIVE = "EpraNaive"
RESCALE_MODE_COMPARE = "RescaleModeCompare"

EXPERIMENTS = (
    BP_NAIVE,
    BP_CONTROLLED,
    EPRA_CONTROLLED,
    EPRA_PARTITION,
    EPRA_NAIVE,
    RESCALE_MODE_COMPARE,
)

# the controlled generator's ill-conditioning parameter for benchmark runs
BENCH_DELTA_CAP = 0.001

RESULTS_CSV = "results.csv"
RECORDS_JSONL = "per_instance.jsonl"


@dataclass
class ExperimentManifest:
    experiment: str
    sizes: list  # [m, n] pairs, or [n] singletons for EpraPartition
    instances_per_cell: int = 100
    epsilon: float = 0.5
    iter_limit: int = 10000  # 0 = no cap
    U: float = 1e10
    base_seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.instances_per_cell < 1:
            raise ValueError("instances_per_cell must be at least 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")

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


def _cell_mn(manifest: ExperimentManifest, size) -> tuple:
    size = list(np.atleast_1d(size))
    if manifest.experiment == EPRA_PARTITION:
        if len(size) != 1:
            raise ValueError(f"{EPRA_PARTITION} cells are [n], got {size}")
        return None, int(size[0])
    if len(size) != 2:
        raise ValueError(f"{manifest.experiment} cells are [m, n], got {size}")
    return int(size[0]), int(size[1])


def _bp_records(manifest, m, n, index, seed) -> list:
    if manifest.experiment == BP_NAIVE:
        inst = gen_naive(m, n, seed)
    else:
        inst = gen_controlled(m, n, delta_cap=BENCH_DELTA_CAP, seed=seed)
    P = projector_from_kernel(inst.A).P
    z0 = basic.uniform_simplex(n)
    records = []
    for scheme in basic.SCHEMES:
        cfg = BpConfig(epsilon=manifest.epsilon, max_iters=manifest.iter_limit, scheme=scheme)
        out, times = _timed(basic.run_scheme, P, z0, cfg)
        records.append(
            {
                "experiment": manifest.experiment,
                "m": m,
                "n": n,
                "index": index,
                "seed": seed,
                "scheme": scheme,
                "status": out.status,
                "iterations": out.iterations,
                "success": out.status != basic.ITER_LIMIT,
                **times,
            }
        )
    return records


def _timed(fn, *args):
    """fn(*args), with the process CPU seconds (all threads) and the wall
    seconds it took."""
    c0, t0 = time.process_time(), time.perf_counter()
    out = fn(*args)
    return out, {"cpu_seconds": time.process_time() - c0,
                 "wall_seconds": time.perf_counter() - t0}


def _epra_config(manifest, rescale_mode=ALL_DIRECTIONS) -> EpraConfig:
    return EpraConfig(
        U=manifest.U,
        epsilon=manifest.epsilon,
        scheme=basic.SMOOTH_PERCEPTRON,
        max_rounds=100,
        bp_max_iters=manifest.iter_limit if manifest.iter_limit else 1_000_000,
        rescale_mode=rescale_mode,
    )


def _epra_record(manifest, inst, res, times, extra=None) -> dict:
    rec = {
        "experiment": manifest.experiment,
        "m": inst.m,
        "n": inst.n,
        "status": res.status,
        "rounds": res.rounds,
        "total_bp_iterations": res.bp_iters_primal + res.bp_iters_dual,
        **times,
    }
    if extra:
        rec.update(extra)
    return rec


def _run_cell_instance(manifest: ExperimentManifest, cell_index: int, size, index: int) -> list:
    """All per-instance records for one (cell, index) task."""
    seed = instance_seed(manifest.base_seed, cell_index, index)
    m, n = _cell_mn(manifest, size)
    exp = manifest.experiment
    if exp in (BP_NAIVE, BP_CONTROLLED):
        return _bp_records(manifest, m, n, index, seed)
    if exp == EPRA_CONTROLLED:
        inst = gen_controlled(m, n, delta_cap=BENCH_DELTA_CAP, seed=seed)
        res, times = _timed(epra.solve, inst, _epra_config(manifest))
        rec = _epra_record(
            manifest, inst, res, times, {"success": res.status == TRIVIAL_PRIMAL}
        )
    elif exp == EPRA_NAIVE:
        inst = gen_naive(m, n, seed)
        res, times = _timed(epra.solve, inst, _epra_config(manifest))
        rec = _epra_record(
            manifest,
            inst,
            res,
            times,
            {
                "success": res.status in epra.SUCCESS_STATUSES,
                "primal_feasible": res.status == TRIVIAL_PRIMAL,
            },
        )
    elif exp == EPRA_PARTITION:
        inst = gen_partitioned(n, seed)
        res, times = _timed(epra.solve, inst, _epra_config(manifest))
        true_b, true_n = inst.meta.known_partition
        recovered = set(res.B.tolist()) == set(true_b) and set(res.N.tolist()) == set(true_n)
        rec = _epra_record(manifest, inst, res, times, {"success": recovered})
    elif exp == RESCALE_MODE_COMPARE:
        records = []
        for mode in (ALL_DIRECTIONS, SINGLE_DIRECTION):
            inst = gen_controlled(m, n, delta_cap=BENCH_DELTA_CAP, seed=seed)
            res, times = _timed(epra.solve, inst, _epra_config(manifest, rescale_mode=mode))
            records.append(
                _epra_record(
                    manifest,
                    inst,
                    res,
                    times,
                    {"scheme": mode, "success": res.status == TRIVIAL_PRIMAL},
                )
            )
        for r in records:
            r["index"] = index
            r["seed"] = seed
        return records
    else:  # pragma: no cover
        raise ValueError(f"unknown experiment {exp!r}")
    rec["index"] = index
    rec["seed"] = seed
    return [rec]


def _mean(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def _aggregate(manifest: ExperimentManifest, records: list) -> list:
    """One ResultRow per (size cell x scheme label)."""
    rows = []
    groups = {}
    for rec in records:
        key = (rec["m"] if manifest.experiment != EPRA_PARTITION else None,
               rec["n"], rec.get("scheme"))
        groups.setdefault(key, []).append(rec)
    for (m, n, scheme), recs in sorted(
        groups.items(), key=lambda kv: (str(kv[0][0]), kv[0][1], str(kv[0][2]))
    ):
        is_bp = manifest.experiment in (BP_NAIVE, BP_CONTROLLED)
        rows.append(
            ResultRow(
                experiment=manifest.experiment,
                m=m,
                n=n,
                scheme=scheme,
                avg_iterations=_mean([r.get("iterations") for r in recs]) if is_bp else None,
                avg_cpu_seconds=_mean([r.get("cpu_seconds") for r in recs]),
                success_rate=_mean([float(r["success"]) for r in recs if "success" in r]),
                avg_rescaling_rounds=_mean([r.get("rounds") for r in recs]),
                avg_total_bp_iterations=_mean([r.get("total_bp_iterations") for r in recs]),
                fraction_primal_feasible=_mean(
                    [float(r["primal_feasible"]) for r in recs if "primal_feasible" in r]
                )
                if manifest.experiment == EPRA_NAIVE
                else None,
                avg_m=_mean([r.get("m") for r in recs])
                if manifest.experiment == EPRA_PARTITION
                else None,
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
    then the aggregate CSV.  Individual instance failures are recorded as
    error records and never abort the batch.
    """
    tasks = [
        (cell_index, size, index)
        for cell_index, size in enumerate(manifest.sizes)
        for index in range(manifest.instances_per_cell)
    ]
    keyed = {}
    if manifest.parallelism > 1:
        # imported here: it pulls in multiprocessing, a seventh of the
        # package's import time, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=manifest.parallelism) as pool:
            futures = {
                pool.submit(_run_cell_instance, manifest, ci, size, idx): (ci, idx)
                for ci, size, idx in tasks
            }
            for fut, key in futures.items():
                keyed[key] = _collect(fut, manifest, key)
    else:
        for ci, size, idx in tasks:
            try:
                keyed[(ci, idx)] = _run_cell_instance(manifest, ci, size, idx)
            except Exception as exc:  # noqa: BLE001 - record, don't abort
                keyed[(ci, idx)] = [_error_record(manifest, ci, idx, exc)]
    records = [rec for key in sorted(keyed) for rec in keyed[key]]

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, RECORDS_JSONL), "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(serialize.dumps(rec))
                fh.write("\n")
    rows = _aggregate(manifest, [r for r in records if "error" not in r])
    if out_dir is not None:
        write_rows_csv(rows, os.path.join(out_dir, RESULTS_CSV))
    return rows


def _collect(future, manifest, key):
    try:
        return future.result()
    except Exception as exc:  # noqa: BLE001
        return [_error_record(manifest, key[0], key[1], exc)]


def _error_record(manifest, cell_index, index, exc) -> dict:
    return {
        "experiment": manifest.experiment,
        "cell": cell_index,
        "index": index,
        "error": f"{type(exc).__name__}: {exc}",
    }


def emit_histogram(results: list, field: str, out_path=None) -> list:
    """Histogram of an integer-valued field over per-instance records.

    Returns sorted (value, count) pairs; writes them as CSV when out_path
    is given.  Records missing the field are skipped; an empty input yields
    a header-only CSV.
    """
    from collections import Counter

    counts = Counter(
        int(rec[field]) for rec in results if rec.get(field) is not None
    )
    pairs = sorted(counts.items())
    if out_path is not None:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "count"])
            writer.writerows(pairs)
    return pairs
