"""Independent verification: certificates, partition checks, Wendel's
coverage probability, and the exact condition measure of small instances."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import epra
from .basic import check_count
from .epra import EpraResult, TRIVIAL_PRIMAL, check_cap
from .exceptions import DimensionMismatch, NoFeasibleStart, ZeroVector
from .instances import gen_naive, instance_seed, nullspace_basis
from .subspace import (RESIDUAL_TOL, Instance, is_partition, projector_from_kernel,
                       verify_membership)


@dataclass
class VerificationReport:
    """Outcome of the relative-interior certificate checks."""

    membership_ok: bool
    positivity_ok: bool
    relint_ok: bool
    partition_matches_ground_truth: Optional[bool]
    max_residual: float


def wendel_probability(m: int, n: int) -> float:
    """Probability that the dual cone of a random m x n Gaussian kernel
    instance has nonempty interior: 2^(1-n) * sum_{k<m} C(n-1, k).

    Evaluated in exact rational arithmetic (Python integers are unbounded,
    so no log-domain fallback is needed); the primal-side probability is
    the complement.  m and n must be integers (not bools).
    """
    check_count("m", m)
    check_count("n", n)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    num = sum(math.comb(n - 1, k) for k in range(m))
    return float(Fraction(num, 2 ** (n - 1)))


def monte_carlo_feasible_rate(m: int, n: int, trials: int, seed: int) -> float:
    """Fraction of naive random instances on which the solver, with the
    default EpraConfig, certifies a strictly feasible primal.  Converges to
    the complement of wendel_probability(m, n) as trials grow.  The four
    arguments must be integers (not bools)."""
    check_count("trials", trials, least=1)
    check_count("seed", seed)
    hits = 0
    for i in range(trials):
        inst = gen_naive(m, n, instance_seed(seed, i))
        res = epra.solve(inst)
        hits += res.status == TRIVIAL_PRIMAL
    return hits / trials


def partition_matches(inst: Instance, B, N) -> Optional[bool]:
    """Whether (B, N) is the instance's known partition, as sets; None
    when the instance carries none."""
    if inst.meta is None or inst.meta.known_partition is None:
        return None
    true_b, true_n = inst.meta.known_partition
    return all({int(i) for i in found} == {int(i) for i in true}
               for found, true in ((B, true_b), (N, true_n)))


def verify_relint_pair(
    inst: Instance, result: EpraResult, U: float, tol: float = RESIDUAL_TOL
) -> VerificationReport:
    """Check a solver result against the U-approximate relative-interior
    conditions:

        x in ker(A),  x_B > 0,  ||x_N||_inf <= ||x||_inf / U,
        x_hat in Im(A^T),  x_hat_N > 0,  ||x_hat_B||_inf <= ||x_hat||_inf / U.

    Dual membership is measured with the projector of the unrescaled
    instance.  (B, N) must partition the indices: when it does not,
    positivity_ok and relint_ok are false.  When the instance carries a
    ground-truth partition, the result's (B, N) is compared against it.
    U must exceed 1 and be finite, as in `EpraConfig`, else ValueError.
    """
    check_cap(U)
    x = np.asarray(result.x, dtype=float)
    x_hat = np.asarray(result.x_hat, dtype=float)
    if x_hat.shape != (inst.n,):
        raise DimensionMismatch(f"x_hat has shape {x_hat.shape}, the instance has n = {inst.n}")
    B = np.asarray(result.B, dtype=int)
    N = np.asarray(result.N, dtype=int)
    # first: the index checks below read x and x_hat at B and N
    partitioned = is_partition(B, N, inst.n)

    mem_x, res_x = verify_membership(inst.A, x, tol)
    P_hat = projector_from_kernel(inst.A).P_hat
    res_xh = float(np.max(np.abs(x_hat - P_hat @ x_hat)))
    xh_max = float(np.max(np.abs(x_hat), initial=0.0))
    mem_xh = res_xh <= tol * max(1.0, xh_max)
    membership_ok = bool(mem_x and mem_xh)

    positivity_ok = partitioned and bool(np.all(x[B] > 0.0)) and bool(np.all(x_hat[N] > 0.0))
    x_max = float(np.max(np.abs(x), initial=0.0))
    small_ok = partitioned and bool(
        np.max(np.abs(x[N]), initial=0.0) <= x_max / U
        and np.max(np.abs(x_hat[B]), initial=0.0) <= xh_max / U
    )
    relint_ok = membership_ok and positivity_ok and small_ok

    return VerificationReport(
        membership_ok=membership_ok,
        positivity_ok=positivity_ok,
        relint_ok=relint_ok,
        partition_matches_ground_truth=partition_matches(inst, B, N),
        max_residual=max(res_x, res_xh),
    )


def condition_measure_1d(v) -> float:
    """Condition measure of the ray spanned by v: the product of
    |v_j| / ||v||_inf when v or -v is strictly positive, else -inf
    (the convention for an infeasible primal)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0 or not np.any(v != 0.0):
        raise ZeroVector("v must be nonzero")
    if np.all(v > 0):
        w = v
    elif np.all(v < 0):
        w = -v
    else:
        return float("-inf")
    return float(np.prod(w / np.max(w)))


def condition_measure_search(A) -> float:
    """Primal condition measure of ker(A), exact up to rounding: the largest
    product of the entries of a kernel point with max-norm 1.

    Its log is the optimum of the strictly concave max sum(log x_j) over x
    in ker(A), x <= 1, so the optimum does not depend on where the search
    starts.  It starts from the solver's certificate: `epra.solve` on A
    ends with `trivial_primal` and a strictly positive kernel point x,
    scaled to x / (2 max x).  From it one log-barrier path ends at the
    optimum: damped Newton steps on sum(log x_j) + mu sum(log(1 - x_j)) in
    an orthonormal kernel basis, with mu from 1 down to 1e-12 by factors of
    10 and backtracking that keeps 0 < x < 1.

    Raises RankDeficient when A is not full row rank, and NoFeasibleStart
    when the solver ends with any status other than `trivial_primal`.
    """
    inst = Instance(A)
    res = epra.solve(inst)
    if res.status != TRIVIAL_PRIMAL:
        raise NoFeasibleStart(f"the solver ended with status {res.status!r}, "
                              f"not {TRIVIAL_PRIMAL!r}")
    x = res.x / (2.0 * np.max(res.x))
    K = nullspace_basis(inst.A).T

    def barrier(x, mu):
        return float(np.sum(np.log(x)) + mu * np.sum(np.log1p(-x)))

    for mu in 10.0 ** -np.arange(13.0):
        for _ in range(100):  # a few dozen steps at most in practice
            w, v = 1.0 / x, mu / (1.0 - x)
            g = K.T @ (w - v)
            c = np.linalg.solve((K.T * (w * w + v / (1.0 - x))) @ K, g)
            if g @ c <= 1e-20:  # the squared Newton decrement
                break
            dx, f0 = K @ c, barrier(x, mu)
            for t in 0.5 ** np.arange(67.0):
                xn = x + t * dx
                if np.min(xn) > 0.0 and np.max(xn) < 1.0 and barrier(xn, mu) > f0:
                    break
            else:
                break  # no ascent left at rounding level
            x = xn
    return float(np.prod(x / np.max(x)))
