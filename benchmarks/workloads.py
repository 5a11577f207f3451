"""The benchmark's four seeded workloads.

Each workload draws a pool of instances from the workload seed through
`bench.instance_seed(seed, cell, index)`, runs one instance at a time
through the library's public entry points, and checks every answer with
an independent oracle after the timed part.  The program only ever sees
the generated instances; sizes live in `Sizes` so the self-test can run
every workload at a tiny scale.
"""

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from epra_kit import basic, bench, epra, instances, oracle, subspace

U = epra.EpraConfig().U
BP_EPSILON = 0.1
# criterion 3 uses 10000; at 1000 nearly every vertex run spends its whole
# budget, so instance times, and the benchmark, stay steady (README.md)
BP_MAX_ITERS = 1000
# criterion 5: rounds <= log2(1/known_delta) + ROUND_SLACK
ROUND_SLACK = 10.0
# the fingerprint digest covers this many leading pool instances, so it is
# the same whatever number of instances a run got through
FINGERPRINT_PREFIX = 16


@dataclass(frozen=True)
class Sizes:
    """Instance shapes; `FULL` is the benchmark, the self-test shrinks it."""

    controlled: tuple = (100, 200)
    naive_n: int = 1000
    naive_ms: tuple = (100, 100, 500)
    bp: tuple = (100, 200)
    partitioned_n: int = 100


FULL = Sizes()
TINY = Sizes(controlled=(8, 16), naive_n=40, naive_ms=(8, 8, 20), bp=(8, 16), partitioned_n=12)


@dataclass
class Outcome:
    """What one instance produced: a fingerprint row, whether it reached the
    family's expected outcome, and what the untimed check needs."""

    fingerprint: list
    successes: int  # of Workload.outcomes_per_instance attempts
    payload: object


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int  # instances drawn in set-up; the timed loop cycles them
    make: Callable  # (Sizes, instance seed, index) -> instance
    run: Callable  # instance -> Outcome; the timed operation
    verify: Callable  # (instance, Outcome) -> list of failed check names
    outcomes_per_instance: int = 1  # runs behind success_frac's denominator


# -- solve workloads ---------------------------------------------------------


def _solve_outcome(res, success: bool) -> Outcome:
    fp = [res.status, int(res.rounds), int(res.bp_iters_primal), int(res.bp_iters_dual),
          int(len(res.B)), int(len(res.N))]
    return Outcome(fingerprint=fp, successes=int(success), payload=res)


def _relint_failures(inst, res) -> list:
    if res.status not in epra.SUCCESS_STATUSES:
        return [f"status:{res.status}"]
    report = oracle.verify_relint_pair(inst, res, U=U)
    return [] if report.relint_ok else ["relint"]


def _run_controlled(inst) -> Outcome:
    res = epra.solve(inst, epra.EpraConfig())
    return _solve_outcome(res, res.status == epra.TRIVIAL_PRIMAL)


def _expected_status(res, status) -> list:
    """Controlled and partitioned instances are built with a known answer,
    so any other status, honest or not, is a failed solve."""
    return [] if res.status == status else [f"expected:{status}:got:{res.status}"]


def _verify_controlled(inst, out) -> list:
    failures = _expected_status(out.payload, epra.TRIVIAL_PRIMAL) \
        or _relint_failures(inst, out.payload)
    if failures:
        return failures
    # log2(1/delta) summed entry by entry: the product itself underflows.
    # At (100, 200) it exceeds 1000, beyond EpraConfig.max_rounds, so this
    # bound never binds there: a run-away solve ends as round_limit first
    log2_inv_delta = -float(np.sum(np.log2(inst.meta.known_interior_point)))
    if out.payload.rounds > log2_inv_delta + ROUND_SLACK:
        failures.append("round_bound")
    return failures


def _run_naive(inst) -> Outcome:
    res = epra.solve(inst, epra.EpraConfig())
    return _solve_outcome(res, res.status in epra.SUCCESS_STATUSES)


def _verify_naive(inst, out) -> list:
    return _relint_failures(inst, out.payload)


def _matches_known_partition(inst, res) -> bool:
    true_b, true_n = inst.meta.known_partition
    return res.B.tolist() == sorted(true_b) and res.N.tolist() == sorted(true_n)


def _run_partitioned(inst) -> Outcome:
    res = epra.solve(inst, epra.EpraConfig())
    hit = res.status == epra.PARTITION_FOUND and _matches_known_partition(inst, res)
    return _solve_outcome(res, hit)


def _verify_partitioned(inst, out) -> list:
    failures = _expected_status(out.payload, epra.PARTITION_FOUND) \
        or _relint_failures(inst, out.payload)
    if not failures and not _matches_known_partition(inst, out.payload):
        failures.append("known_partition")
    return failures


# -- basic-procedure workload ------------------------------------------------


def _run_bp(inst) -> Outcome:
    P = subspace.projector_from_kernel(inst.A).P
    z0 = basic.uniform_simplex(inst.n)
    runs = []
    for scheme in basic.SCHEMES:
        cfg = basic.BpConfig(epsilon=BP_EPSILON, max_iters=BP_MAX_ITERS, scheme=scheme)
        runs.append((scheme, basic.run_scheme(P, z0, cfg)))
    fp = [[scheme, out.status, int(out.iterations)] for scheme, out in runs]
    ok = sum(out.status != basic.ITER_LIMIT for _, out in runs)
    return Outcome(fingerprint=fp, successes=ok, payload=runs)


def _verify_bp(inst, out) -> list:
    P = subspace.projector_from_kernel(inst.A).P
    failures = []
    for scheme, res in out.payload:
        z = res.z
        Pz = P @ z
        expected = None if res.status == basic.ITER_LIMIT else res.status
        if basic.stop_check(Pz, z, BP_EPSILON) != expected:
            failures.append(f"{scheme}:stop_check")
        if np.any(z < 0.0) or abs(float(np.sum(z)) - 1.0) > 1e-9:
            failures.append(f"{scheme}:simplex")
        # P z must lie in ker(A): this checks the projector, not just the loop
        if not oracle.verify_membership(inst.A, Pz)[0]:
            failures.append(f"{scheme}:membership")
    return failures


# -- the table -----------------------------------------------------------------


WORKLOADS = (
    Workload(
        name="controlled-200",
        pool_size=256,
        make=lambda s, seed, i: instances.gen_controlled(*s.controlled, delta_cap=1e-3, seed=seed),
        run=_run_controlled,
        verify=_verify_controlled,
    ),
    Workload(
        name="naive-1000",
        pool_size=96,
        make=lambda s, seed, i: instances.gen_naive(s.naive_ms[i % len(s.naive_ms)], s.naive_n, seed),
        run=_run_naive,
        verify=_verify_naive,
    ),
    Workload(
        name="bp-schemes",
        pool_size=320,
        make=lambda s, seed, i: instances.gen_naive(*s.bp, seed),
        run=_run_bp,
        verify=_verify_bp,
        outcomes_per_instance=len(basic.SCHEMES),
    ),
    Workload(
        name="partitioned-100",
        pool_size=512,
        make=lambda s, seed, i: instances.gen_partitioned(s.partitioned_n, seed),
        run=_run_partitioned,
        verify=_verify_partitioned,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def make_pool(workload: Workload, sizes: Sizes, seed: int) -> list:
    """The workload's instances for this seed: set-up, never timed."""
    cell = WORKLOADS.index(workload)
    return [workload.make(sizes, bench.instance_seed(seed, cell, i), i)
            for i in range(workload.pool_size)]


def digest(rows: list) -> str:
    """Stable digest of a list of fingerprint rows."""
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()[:16]


def output_signature(out: Outcome) -> str:
    """Fingerprint plus the bytes of the returned vectors: two solves of one
    instance must agree on it exactly."""
    h = hashlib.sha256(json.dumps(out.fingerprint).encode())
    payload = out.payload
    if isinstance(payload, epra.EpraResult):
        arrays = (payload.x, payload.x_hat)
    else:
        arrays = [res.z for _, res in payload]
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def tail_index(count: int) -> int:
    """Index into the sorted samples of the highest percentile that still
    has ten samples beyond it (the maximum when there are fewer)."""
    return max(count - 11, 0) if count > 10 else count - 1

