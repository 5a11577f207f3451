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

from . import basic, serialize
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

ALL_DIRECTIONS = "all"
SINGLE_DIRECTION = "single"

# Guard against division by zero when Pz <= 0 exactly; the cap at U bounds
# the rescaling factors regardless of how small this floor is.
_ALPHA_FLOOR = 1e-300

_EPS = float(np.finfo(float).eps)


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
        if not self.U > 1.0:
            raise ValueError(f"U must exceed 1, got {self.U}")
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
    """
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    b_mask = np.abs(x_hat) < np.max(np.abs(x_hat)) / U
    n_mask = np.abs(x) < np.max(np.abs(x)) / U
    is_partition = bool(np.all(b_mask ^ n_mask))
    return np.nonzero(b_mask)[0], np.nonzero(n_mask)[0], is_partition


def rescale_update(z, Pz, D, U: float, mode: str = ALL_DIRECTIONS) -> np.ndarray:
    """Grow the rescaling diagonal after a rescaling trigger.

    All-directions mode: with alpha = ||(Pz)^+||_1 and
    e = (z/alpha - 1)^+, each entry becomes min((1 + e_i) D_i, U).
    Single-direction mode: only the lowest index attaining max(z) is
    doubled (capped at U).  Entries never decrease.
    """
    z = np.asarray(z, dtype=float)
    D = np.asarray(D, dtype=float)
    if mode == ALL_DIRECTIONS:
        Pz = np.asarray(Pz, dtype=float)
        alpha = max(float(np.sum(np.maximum(Pz, 0.0))), _ALPHA_FLOOR)
        e = np.maximum(z / alpha - 1.0, 0.0)
        return np.minimum((1.0 + e) * D, U)
    if mode == SINGLE_DIRECTION:
        out = D.copy()
        i = int(np.argmax(z))
        out[i] = min(2.0 * D[i], U)
        return out
    raise ValueError(f"unknown rescale mode {mode!r}")


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
    """The rounds of `solve`.  Each round is one `_round`, then the
    interior, partition and refinement tests on its two outcomes, then
    the rescaling of each side whose trigger fired.  A refinement's
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
        out_p, out_d = _round(A, D, D_hat, rounds == 0, z0, bp_cfg)
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
            if bool(np.all(x[B] > 0.0)) and bool(np.all(x_hat[N] > 0.0)):
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
        if np.array_equal(D_new, D) and np.array_equal(D_hat_new, D_hat):
            return result(STALLED, x, x_hat, B, N)
        D, D_hat = D_new, D_hat_new
        rounds += 1


def _round(A, D, D_hat, shared: bool, z0, bp_cfg):
    """One round: (primal outcome, dual outcome) of `_run_side`.  With
    shared (round 0, D = D_hat = 1) one factorization serves both sides."""
    pair = rescaled_projectors(A, D, D_hat) if shared else None
    return _run_side(A, D, None, pair, z0, bp_cfg), _run_side(A, None, D_hat, pair, z0, bp_cfg)


def _run_side(A, D, D_hat, pair, z0, bp_cfg):
    """The basic procedure on the side whose diagonal is given, built just
    before its run unless pair holds it.  The side's basis is dropped once
    its dense projector is formed and the projector when the run returns,
    so the other side is built with nothing of this one alive."""
    P = pair or rescaled_projectors(A, D, D_hat)
    P = P.P if D is not None else P.P_hat
    return basic.run_scheme(P, z0, bp_cfg)


def _rounding_noise(out, n: int) -> bool:
    """True when max(P z) <= n eps max(z): P z is no larger than the
    rounding error of forming it."""
    return float(out.Pz.max()) <= n * _EPS * float(out.z.max())


def _reduced_rowspace(M: np.ndarray):
    """Full-row-rank matrix with the same kernel as M (orthonormal rows),
    or None when the kernel is trivial."""
    rank, Vh = _svd_rank(M)
    if rank >= M.shape[1]:
        return None
    # a copy: a view would keep the whole square factor alive
    return Vh[:rank].copy()


def _refine_partition(A, B, N, cfg: EpraConfig):
    """Strictly positive certificates for a candidate partition (B, N).

    The restriction of the primal cone to B is ker(A_B), and the
    restriction of the dual cone to N is ker(K_N) for K an orthonormal
    basis (rows) of ker(A); both restricted problems are strictly feasible
    exactly when (B, N) is the true partition (and by uniqueness of the
    partition, two interior certificates prove it).  One pass per side
    forms that side's matrix, reduces it to full row rank and hands it back
    to the solver, where it must end through the trivial short-circuit
    with a strictly positive point.  Returns (x, x_hat, primal_iters,
    dual_iters) or None when either side fails.
    """
    subs = []
    for side in (B, N):
        # M is rebound at each step, so each matrix (the n x n factor
        # included) is freed before the next is formed and the refinement
        # peaks below the solve's own builds.  ker(A) is not trivial here,
        # as ker(A_B) was not.
        if side is B:
            M = A[:, B]
        else:
            rank, M = _svd_rank(A)
            M = M[rank:, N]
        M = _reduced_rowspace(M)
        if M is None:
            return None
        res = _solve(Instance(M), cfg, allow_refine=False)
        if res.status != TRIVIAL_PRIMAL:
            return None
        subs.append(res)
    x, x_hat = np.zeros(A.shape[1]), np.zeros(A.shape[1])
    x[B] = subs[0].x
    x_hat[N] = subs[1].x
    return x, x_hat, *(res.bp_iters_primal + res.bp_iters_dual for res in subs)


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
    return EpraResult(
        status=str(doc["status"]),
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
