"""Independent verification: certificates, partition checks, Wendel's
coverage probability, and condition-measure oracles for small instances."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from . import epra
from .epra import EpraResult, TRIVIAL_PRIMAL
from .exceptions import DimensionMismatch, NoFeasibleStart, ZeroVector
from .instances import gen_naive, instance_seed
from .subspace import RESIDUAL_TOL, Instance, as_matrix, projector_from_kernel


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
    the complement.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    num = sum(math.comb(n - 1, k) for k in range(m))
    return float(Fraction(num, 2 ** (n - 1)))


def monte_carlo_feasible_rate(m: int, n: int, trials: int, seed: int) -> float:
    """Fraction of naive random instances on which the solver, with the
    default EpraConfig, certifies a strictly feasible primal.  Converges to
    the complement of wendel_probability(m, n) as trials grow."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    hits = 0
    for i in range(trials):
        inst = gen_naive(m, n, instance_seed(seed, i))
        res = epra.solve(inst)
        hits += res.status == TRIVIAL_PRIMAL
    return hits / trials


def verify_membership(A, x, tol: float = RESIDUAL_TOL) -> Tuple[bool, float]:
    """Check x in ker(A); returns (flag, max residual).

    The flag is true iff ||A x||_inf <= tol * max(1, ||x||_inf ||A||_max).
    """
    A = as_matrix(A)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or A.shape[1] != x.shape[0]:
        raise DimensionMismatch(
            f"cannot multiply {A.shape} matrix with vector of shape {x.shape}"
        )
    if A.shape[0] == 0:
        return True, 0.0
    residual = float(np.max(np.abs(A @ x)))
    amax = float(np.max(np.abs(A))) if A.size else 0.0
    xmax = float(np.max(np.abs(x))) if x.size else 0.0
    return residual <= tol * max(1.0, xmax * amax), residual


def _max_abs(v: np.ndarray, idx: np.ndarray) -> float:
    return float(np.max(np.abs(v[idx]))) if len(idx) else 0.0


def verify_relint_pair(
    inst: Instance, result: EpraResult, U: float, tol: float = RESIDUAL_TOL
) -> VerificationReport:
    """Check a solver result against the U-approximate relative-interior
    conditions:

        x in ker(A),  x_B > 0,  ||x_N||_inf <= ||x||_inf / U,
        x_hat in Im(A^T),  x_hat_N > 0,  ||x_hat_B||_inf <= ||x_hat||_inf / U.

    Dual membership is measured with the projector of the unrescaled
    instance.  When the instance carries a ground-truth partition, the
    result's (B, N) is compared against it.
    """
    x = np.asarray(result.x, dtype=float)
    x_hat = np.asarray(result.x_hat, dtype=float)
    B = np.asarray(result.B, dtype=int)
    N = np.asarray(result.N, dtype=int)

    mem_x, res_x = verify_membership(inst.A, x, tol)
    if inst.m > 0:
        P_hat = projector_from_kernel(inst.A).P_hat
        res_xh = float(np.max(np.abs(x_hat - P_hat @ x_hat)))
    else:
        res_xh = float(np.max(np.abs(x_hat))) if x_hat.size else 0.0
    xh_max = float(np.max(np.abs(x_hat))) if x_hat.size else 0.0
    mem_xh = res_xh <= tol * max(1.0, xh_max)
    membership_ok = bool(mem_x and mem_xh)

    positivity_ok = bool(np.all(x[B] > 0.0)) and bool(np.all(x_hat[N] > 0.0))
    x_max = float(np.max(np.abs(x))) if x.size else 0.0
    small_ok = (
        _max_abs(x, N) <= x_max / U and _max_abs(x_hat, B) <= xh_max / U
    )
    relint_ok = membership_ok and positivity_ok and small_ok

    matches = None
    if inst.meta is not None and inst.meta.known_partition is not None:
        true_b, true_n = inst.meta.known_partition
        matches = set(B.tolist()) == set(int(i) for i in true_b) and set(
            N.tolist()
        ) == set(int(i) for i in true_n)

    return VerificationReport(
        membership_ok=membership_ok,
        positivity_ok=positivity_ok,
        relint_ok=relint_ok,
        partition_matches_ground_truth=matches,
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


def _pinned_max_newton(A: np.ndarray, x: np.ndarray, iters: int = 25) -> np.ndarray:
    """Maximize sum(log x) over the affine slice {x in ker(A), x_k = 1}
    with k the current argmax, by equality-constrained Newton steps.

    Generic optima have a unique unit entry, so pinning the max turns the
    box-constrained problem into a strictly concave equality-constrained
    one.  Returns the (feasible, strictly positive) improved point; falls
    back to the input when the KKT system is singular.
    """
    n = x.size
    k = int(np.argmax(x))
    x = x / x[k]
    C = np.vstack([A, np.zeros((1, n))])
    C[-1, k] = 1.0
    mc = C.shape[0]
    zero = np.zeros((mc, mc))
    rhs = np.zeros(n + mc)
    for _ in range(iters):
        H = np.diag(1.0 / x**2)
        rhs[:n] = 1.0 / x
        try:
            sol = np.linalg.solve(np.block([[H, C.T], [C, zero]]), rhs)
        except np.linalg.LinAlgError:
            return x
        dx = sol[:n]
        f0 = float(np.sum(np.log(x)))
        t = 1.0
        for _ in range(50):
            xn = x + t * dx
            if np.min(xn) > 0.0 and float(np.sum(np.log(xn))) > f0:
                break
            t *= 0.5
        else:
            return x
        x = xn
    return x


def condition_measure_search(
    A, iters: int = 500, seed: int = 0, restarts: int = 20
) -> float:
    """Heuristic lower bound on the primal condition measure.

    Maximizes sum(log x_j) over x in ker(A) with 0 < x and ||x||_inf = 1.
    Per seeded restart: (1) find a strictly positive kernel point with
    reflection (Douglas-Rachford) iterations between the kernel and the
    shifted cone {x >= 1} -- the shifted intersection is nonempty exactly
    when the cone has interior, reflections handle thin cones far better
    than plain alternating projection, and a strictly positive candidate
    well above roundoff is accepted as soon as it appears; (2) projected
    gradient ascent with steps inside the kernel, clipping to the unit box
    and renormalizing by the max-norm; (3) a Newton polish on the slice
    that pins the maximal entry at one.  Intended for desk-scale sanity
    checks (n up to ~50); the returned product never exceeds the true
    measure beyond roundoff.
    """
    A = as_matrix(A)
    n = A.shape[1]
    P = projector_from_kernel(A).P
    rng = np.random.default_rng(seed)
    best = None

    for _ in range(restarts):
        x = rng.random(n) + 1e-3
        start = None
        for _ in range(3000):
            onto_cone = np.maximum(x, 1.0)
            onto_kernel = P @ (2.0 * onto_cone - x)
            x = x + onto_kernel - onto_cone
            y = P @ onto_cone
            # threshold relative to the pre-projection magnitude: a nearly
            # collapsed projection is roundoff noise, not a kernel point
            if np.min(y) > 1e-10 * max(float(np.max(np.abs(onto_cone))), 1.0):
                start = y
                break
        if start is None:
            continue
        x = start / np.max(start)
        step = 1.0 / n
        for _ in range(iters):
            f0 = float(np.sum(np.log(x)))
            d = P @ (1.0 / x)
            accepted = False
            for _ in range(50):
                xn = P @ np.minimum(x + step * d, 1.0)
                if np.min(xn) > 0.0:
                    xn = xn / np.max(xn)
                    if float(np.sum(np.log(xn))) > f0:
                        accepted = True
                        break
                step *= 0.5
            if not accepted:
                break
            x = xn
            step *= 2.0
        x = _pinned_max_newton(A, x)
        if np.min(x) > 0.0:
            value = float(np.prod(x / np.max(x)))
            if best is None or value > best:
                best = value

    if best is None:
        raise NoFeasibleStart(
            f"no strictly positive kernel point found in {restarts} restarts"
        )
    return best
