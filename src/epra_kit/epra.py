"""Symmetric primal/dual projection-and-rescaling solver.

Runs a basic procedure on the projector onto D(L) and on the projector
onto D_hat(L-perp) each round.  An interior certificate on either side
settles the corresponding trivial partition immediately.  Otherwise the
candidate pair x = D^{-1} P z, x_hat = D_hat^{-1} P_hat z_hat is tested
for a Goldman-Tucker partition using the cap U as the detection threshold;
failing that, each side whose rescaling trigger fired gets its diagonal
grown (capped at U) and the projectors are recomputed.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import basic, bploop, serialize, subspace
from .basic import BpConfig, INTERIOR_FOUND, RESCALE_READY, check_count, uniform_simplex
from .blas import small_problem_threads
from .exceptions import BothSidesInterior
from .subspace import Instance, _svd_rank, one_based, rescaled_projectors

TRIVIAL_PRIMAL = "trivial_primal"
TRIVIAL_DUAL = "trivial_dual"
PARTITION_FOUND = "partition_found"
ROUND_LIMIT = "round_limit"
STALLED = "stalled"

SUCCESS_STATUSES = (TRIVIAL_PRIMAL, TRIVIAL_DUAL, PARTITION_FOUND)
STATUSES = (*SUCCESS_STATUSES, ROUND_LIMIT, STALLED)

ALL_DIRECTIONS = "all"
SINGLE_DIRECTION = "single"

# Guard against division by zero when Pz <= 0 exactly; the cap at U bounds
# the rescaling factors regardless of how small this floor is.
_ALPHA_FLOOR = 1e-300

_EPS = float(np.finfo(float).eps)


def check_cap(U) -> None:
    """The rule for U, the rescaling cap and the partition threshold of
    solves and of their verification: U exceeds 1 and is finite, else
    ValueError.  A U of inf caps no rescaling and makes the partition test
    of identify_partition compare with 0."""
    if not 1.0 < U < np.inf:
        raise ValueError(f"U must exceed 1 and be finite, got {U}")


@dataclass(frozen=True)
class EpraConfig:
    """Solver settings, frozen once checked; `BpConfig` checks epsilon and scheme."""

    U: float = 1e10
    epsilon: float = BpConfig.epsilon
    scheme: str = BpConfig.scheme
    max_rounds: int = 100
    bp_max_iters: int = 1_000_000
    rescale_mode: str = ALL_DIRECTIONS

    def __post_init__(self):
        check_cap(self.U)
        check_count("max_rounds", self.max_rounds, least=1)
        check_count("bp_max_iters", self.bp_max_iters)
        if self.rescale_mode not in (ALL_DIRECTIONS, SINGLE_DIRECTION):
            raise ValueError(f"unknown rescale_mode {self.rescale_mode!r}")
        self.bp_config()

    def bp_config(self) -> BpConfig:
        """The basic procedure's settings for each side of each round."""
        return BpConfig(epsilon=self.epsilon, max_iters=self.bp_max_iters, scheme=self.scheme)


@dataclass
class EpraResult:
    """Solver output.

    For the success statuses (trivial_primal, trivial_dual,
    partition_found) the index sets B and N partition {0, ..., n-1} and
    (x, x_hat) satisfies the U-approximate relative-interior conditions.
    D and D_hat are the final rescaling diagonals.
    """

    status: str
    x: np.ndarray
    x_hat: np.ndarray
    B: np.ndarray
    N: np.ndarray
    rounds: int
    bp_iters_primal: int
    bp_iters_dual: int
    wall_time: float
    D: np.ndarray = field(default=None)
    D_hat: np.ndarray = field(default=None)


def identify_partition(x, x_hat, U: float):
    """Candidate Goldman-Tucker partition from a primal/dual pair.

    B collects indices where |x_hat_i| < ||x_hat||_inf / U and N indices
    where |x_i| < ||x||_inf / U (strict inequalities, so a zero vector on
    one side contributes nothing to its set).  Returns (B, N, is_partition)
    where is_partition means B and N are disjoint and cover every index.
    One compiled call (`bploop`) where the library loads, with the bits
    and the ValueErrors of the NumPy code below.
    """
    lib = bploop.library()
    if lib is not None:
        return lib.identify_partition(x, x_hat, U)
    ax = np.abs(np.asarray(x, dtype=float))
    ax_hat = np.abs(np.asarray(x_hat, dtype=float))
    if ax.ndim != 1 or ax_hat.shape != ax.shape or not ax.size:
        raise ValueError("identify_partition needs x and x_hat of one size >= 1")
    b_mask = ax_hat < ax_hat.max() / U
    n_mask = ax < ax.max() / U
    return b_mask.nonzero()[0], n_mask.nonzero()[0], bool((b_mask ^ n_mask).all())


def rescale_update(z, Pz, D, U: float, mode: str = ALL_DIRECTIONS) -> np.ndarray:
    """Grow the rescaling diagonal after a rescaling trigger; no entry decreases.

    Single-direction mode: only the lowest index attaining max(z) is
    doubled (capped at U), and Pz is not read.  All-directions mode: with
    alpha = ||(Pz)^+||_1 and e = (z/alpha - 1)^+, each entry becomes
    min((1 + e_i) D_i, U), in one compiled call (`bploop`) where the
    library loads, with the bits and ValueErrors of the NumPy code below.
    """
    if mode not in (ALL_DIRECTIONS, SINGLE_DIRECTION):
        raise ValueError(f"unknown rescale mode {mode!r}")
    if mode == SINGLE_DIRECTION:
        z = np.asarray(z, dtype=float)
        out = np.array(D, dtype=float)
        if z.ndim != 1 or out.shape != z.shape or not z.size:
            raise ValueError("rescale_update needs z and D of one size >= 1")
        i = int(z.argmax())
        out[i] = min(2.0 * out[i], U)
        return out
    lib = bploop.library()
    if lib is not None:
        return lib.rescale_update(z, Pz, D, U, _ALPHA_FLOOR)
    z = np.asarray(z, dtype=float)
    Pz = np.asarray(Pz, dtype=float)
    D = np.asarray(D, dtype=float)
    if z.ndim != 1 or D.shape != z.shape or Pz.ndim != 1:
        raise ValueError("rescale_update needs vectors z, Pz and D, z and D of one size")
    alpha = max(float(np.maximum(Pz, 0.0).sum()), _ALPHA_FLOOR)
    # (1 + max(z / alpha - 1, 0)) D, capped at U, in one array of its own
    e = z / alpha
    e -= 1.0
    np.maximum(e, 0.0, out=e)
    e += 1.0
    e *= D
    return np.minimum(e, U, out=e)


def solve(inst: Instance, cfg: EpraConfig = None) -> EpraResult:
    """Run the projection-and-rescaling loop on an instance.

    Deterministic given (instance, config): every round restarts both
    basic procedures from the uniform simplex point.  Small instances run
    on one BLAS thread (see `blas.small_problem_threads`).

    An `Instance` is checked when it is made; an A without full row rank
    raises RankDeficient at the first factorization.
    """
    with small_problem_threads(inst.m, inst.n):
        return _solve(inst, cfg if cfg is not None else EpraConfig(), allow_refine=True)


def _solve(inst: Instance, cfg: EpraConfig, allow_refine: bool) -> EpraResult:
    """The rounds of `solve`.  Each round runs the basic procedure on the
    primal side, then on the dual side, then the interior, partition and
    refinement tests on the two outcomes, then the rescaling of each side
    whose trigger fired.  Round 0 (D = D_hat = 1) takes both sides from
    one factorization, `subspace.projector_from_kernel`, and drops that
    pair before the tests; every later round factors each side just
    before its run, so one side is built with nothing of the other alive.
    Each dense projector is dropped when its run returns.  A refinement's
    sub-solves run here with allow_refine=False."""
    t_start = time.perf_counter()
    A = inst.A
    n = inst.n
    D = np.ones(n)
    D_hat = np.ones(n)
    bp_cfg = cfg.bp_config()
    z0 = uniform_simplex(n)
    iters_p = 0
    iters_d = 0
    rounds = 0
    attempted_refinements = set()

    def result(status, x, x_hat, B, N):
        return EpraResult(
            status=status,
            x=x,
            x_hat=x_hat,
            B=np.asarray(B, dtype=int),
            N=np.asarray(N, dtype=int),
            rounds=rounds,
            bp_iters_primal=iters_p,
            bp_iters_dual=iters_d,
            wall_time=time.perf_counter() - t_start,
            D=D,
            D_hat=D_hat,
        )

    while True:
        if rounds == 0:
            pair = subspace.projector_from_kernel(A)
            out_p = basic.run_scheme(pair.P, z0, bp_cfg)
            out_d = basic.run_scheme(pair.P_hat, z0, bp_cfg)
            del pair
        else:
            out_p = basic.run_scheme(rescaled_projectors(A, D, None).P, z0, bp_cfg)
            out_d = basic.run_scheme(rescaled_projectors(A, None, D_hat).P_hat, z0, bp_cfg)
        iters_p += out_p.iterations
        iters_d += out_d.iterations
        p_interior = out_p.status == INTERIOR_FOUND
        d_interior = out_d.status == INTERIOR_FOUND
        if p_interior and d_interior:
            # Gordan: at most one side is truly interior.  A certificate at
            # the rounding level of P z (the primal side of A = [[1, 1]]
            # has P z = 1.1e-16) is noise; keep the side that is not.
            p_interior = not _rounding_noise(out_p, n)
            d_interior = not _rounding_noise(out_d, n)
            if p_interior == d_interior:
                raise BothSidesInterior(
                    "both sides produced interior certificates; numerical anomaly"
                )
        if p_interior:
            x = out_p.Pz / D
            return result(TRIVIAL_PRIMAL, x, np.zeros(n), np.arange(n), np.arange(0))
        if d_interior:
            x_hat = out_d.Pz / D_hat
            return result(TRIVIAL_DUAL, np.zeros(n), x_hat, np.arange(0), np.arange(n))
        x = out_p.Pz / D
        x_hat = out_d.Pz / D_hat
        B, N, is_partition = identify_partition(x, x_hat, cfg.U)
        if is_partition:
            # the index structure alone is not enough: accept only when the
            # sign half of the certificate holds too, otherwise the returned
            # pair would fail verification
            if (x[B] > 0.0).all() and (x_hat[N] > 0.0).all():
                return result(PARTITION_FOUND, x, x_hat, B, N)
            if allow_refine and len(B) and len(N):
                key = (B.tobytes(), N.tobytes())
                if key not in attempted_refinements:
                    attempted_refinements.add(key)
                    refined = _refine_partition(A, B, N, cfg)
                    if refined is not None:
                        x_r, x_hat_r, extra_p, extra_d = refined
                        iters_p += extra_p
                        iters_d += extra_d
                        return result(PARTITION_FOUND, x_r, x_hat_r, B, N)
        if rounds >= cfg.max_rounds:
            return result(ROUND_LIMIT, x, x_hat, B, N)
        # a side is rescaled only when its own trigger fired this round;
        # an iteration-limited side carries no valid rescaling vector
        D_new = D
        D_hat_new = D_hat
        if out_p.status == RESCALE_READY:
            D_new = rescale_update(out_p.z, out_p.Pz, D, cfg.U, cfg.rescale_mode)
        if out_d.status == RESCALE_READY:
            D_hat_new = rescale_update(out_d.z, out_d.Pz, D_hat, cfg.U, cfg.rescale_mode)
        if (D_new == D).all() and (D_hat_new == D_hat).all():
            return result(STALLED, x, x_hat, B, N)
        D, D_hat = D_new, D_hat_new
        rounds += 1


def _rounding_noise(out, n: int) -> bool:
    """True when max(P z) <= n eps max(z): P z is no larger than the
    rounding error of forming it."""
    return float(out.Pz.max()) <= n * _EPS * float(out.z.max())


def _reduced_rowspace(A, B, N):
    """(primal, dual) sub-problem matrices of a candidate partition (B, N)
    from one SVD A_B = U S Vh of rank r, or None when either is empty.

    Vh[:r] has orthonormal rows and kernel ker(A_B).  W^T A_N, for
    W = U[:, r:] spanning ker(A_B^T), has full row rank (as A has) and row
    space {x_hat_N : x_hat in Im(A^T), x_hat_B = 0}.  Both are new arrays,
    so the factors are freed before either sub-solve runs."""
    rank, U, Vh = _svd_rank(A[:, B])
    if rank in (len(B), A.shape[0]):
        return None
    return Vh[:rank].copy(), U[:, rank:].T @ A[:, N]


def _refine_partition(A, B, N, cfg: EpraConfig):
    """Strictly positive certificates for a candidate partition (B, N).

    The primal cone restricted to B is ker(A_B) and the dual cone
    restricted to N is Im(A_N^T W), for W a basis of ker(A_B^T); both are
    strictly feasible exactly when (B, N) is the true partition, which
    two interior certificates then prove.  The solver runs on each (see
    `_reduced_rowspace`) and must end trivial_primal on the first and
    trivial_dual on the second.  Returns (x, x_hat, primal_iters,
    dual_iters) or None when either side fails.
    """
    subs = _reduced_rowspace(A, B, N)
    if subs is None:
        return None
    primal = _solve(Instance(subs[0]), cfg, allow_refine=False)
    if primal.status != TRIVIAL_PRIMAL:
        return None
    dual = _solve(Instance(subs[1]), cfg, allow_refine=False)
    if dual.status != TRIVIAL_DUAL:
        return None
    x, x_hat = np.zeros(A.shape[1]), np.zeros(A.shape[1])
    x[B] = primal.x
    x_hat[N] = dual.x_hat
    return x, x_hat, *(res.bp_iters_primal + res.bp_iters_dual for res in (primal, dual))


# ---------------------------------------------------------------------------
# Result file format: a JSON object mirroring the EpraResult fields, with
# B and N written 1-based.
# ---------------------------------------------------------------------------


def result_to_dict(res: EpraResult) -> dict:
    return {
        "status": res.status,
        "x": np.asarray(res.x).tolist(),
        "x_hat": np.asarray(res.x_hat).tolist(),
        "B": [int(i) + 1 for i in res.B],
        "N": [int(i) + 1 for i in res.N],
        "rounds": int(res.rounds),
        "bp_iters_primal": int(res.bp_iters_primal),
        "bp_iters_dual": int(res.bp_iters_dual),
        "wall_time": float(res.wall_time),
        "D": None if res.D is None else np.asarray(res.D).tolist(),
        "D_hat": None if res.D_hat is None else np.asarray(res.D_hat).tolist(),
    }


def result_from_dict(doc: dict) -> EpraResult:
    status = doc["status"]
    if status not in STATUSES:
        raise ValueError(f"status must be one of {', '.join(STATUSES)}, got {status!r}")
    return EpraResult(
        status=status,
        x=np.asarray(doc["x"], dtype=float),
        x_hat=np.asarray(doc["x_hat"], dtype=float),
        B=np.asarray(one_based("B", doc["B"]), dtype=int),
        N=np.asarray(one_based("N", doc["N"]), dtype=int),
        rounds=check_count("rounds", doc["rounds"]),
        bp_iters_primal=check_count("bp_iters_primal", doc["bp_iters_primal"]),
        bp_iters_dual=check_count("bp_iters_dual", doc["bp_iters_dual"]),
        wall_time=float(doc["wall_time"]),
        D=None if doc.get("D") is None else np.asarray(doc["D"], dtype=float),
        D_hat=None if doc.get("D_hat") is None else np.asarray(doc["D_hat"], dtype=float),
    )


def save_result(res: EpraResult, path) -> None:
    serialize.dump(result_to_dict(res), path)


def load_result(path) -> EpraResult:
    return result_from_dict(serialize.load(path))
