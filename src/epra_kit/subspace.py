"""Subspaces represented by kernel matrices, and their orthogonal projectors.

A subspace L of R^n is stored as the kernel of a full-row-rank matrix A
(m x n, m <= n).  The projector onto L and the projector onto the row space
Im(A^T) = L-perp are obtained from a QR factorization of A^T.  Diagonal
rescalings D, D_hat act on the primal and dual sides independently:
D(L) = ker(A D^{-1}) and D_hat(L-perp) = Im(D_hat A^T).  Each side's
basis is made in one compiled call where the library loads (the
module's `basis`: scale, normalize and factor, straight from A and the
diagonal), and otherwise by the NumPy route, with the same bits.

Index sets in file formats are 1-based; in-memory arrays are 0-based.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import bploop, serialize
from .basic import check_count
from .blas import small_problem_threads
from .exceptions import DimensionMismatch, RankDeficient

# relative tolerance of every rank test: the QR diagonal against its
# largest entry, and singular values against the largest
RANK_TOL = 1e-10

# relative tolerance of every kernel-membership residual ||A x||_inf
RESIDUAL_TOL = 1e-8

INFEASIBLE = float("-inf")  # known_delta value for a provably infeasible primal


def as_matrix(A) -> np.ndarray:
    """Coerce to a finite 2-D float array."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={A.ndim}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def _kernel_matrix(A) -> np.ndarray:
    """A checked as a kernel matrix: a finite 2-D float array with a column
    and m <= n.  The one rule of `Instance` and the projector builders."""
    A = as_matrix(A)
    m, n = A.shape
    if n < 1:
        raise DimensionMismatch(f"A has shape {A.shape}: a kernel matrix needs a column")
    if m > n:
        raise DimensionMismatch(f"m={m} exceeds n={n}")
    return A


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
    residual = float(np.max(np.abs(A @ x), initial=0.0))
    amax = float(np.max(np.abs(A), initial=0.0))
    xmax = float(np.max(np.abs(x), initial=0.0))
    return residual <= tol * max(1.0, xmax * amax), residual


def is_partition(B, N, n: int) -> bool:
    """Whether the index lists B and N are disjoint and together cover
    0, ..., n - 1."""
    B, N = ({int(i) for i in side} for side in (B, N))
    return not B & N and (B | N) == set(range(n))


@dataclass(frozen=True)
class InstanceMeta:
    """Ground-truth metadata attached by the instance generators.

    known_delta is the condition measure of the primal cone when the
    generator certifies it (the product of the entries of the known
    interior point); -inf encodes a provably infeasible primal and None
    means unknown.  known_partition stores 0-based index lists (B, N).
    """

    generator: str = ""
    seed: int = 0
    known_delta: Optional[float] = None
    known_interior_point: Optional[np.ndarray] = None
    known_partition: Optional[tuple] = None


@dataclass(frozen=True)
class Instance:
    """A feasibility instance: L = ker(A) for a full-row-rank A, of shape (m, n).

    Checked when made (by `dataclasses.replace` too): A is a finite matrix
    with a column and m <= n, and the metadata fits it.  The rank is left
    to the first factorization of A, which raises RankDeficient.  A is kept
    as a read-only view, not a copy: writing through `inst.A` raises, but
    a float64 array passed as A still aliases it.
    """

    A: np.ndarray
    meta: Optional[InstanceMeta] = None

    def __post_init__(self):
        A = _kernel_matrix(self.A).view()
        A.flags.writeable = False
        object.__setattr__(self, "A", A)
        n = A.shape[1]
        meta = self.meta or InstanceMeta()
        x = meta.known_interior_point
        if x is not None:
            x = np.asarray(x, dtype=float)
            if x.shape != (n,):
                raise DimensionMismatch("known_interior_point has wrong length")
            if not np.all(x > 0):
                raise ValueError("known_interior_point must be strictly positive")
            if abs(np.max(x) - 1.0) > 1e-12:
                raise ValueError("known_interior_point must have max-norm 1")
            in_kernel, resid = verify_membership(A, x)
            if not in_kernel:
                raise ValueError(f"known_interior_point is not in ker(A): residual {resid:g}")
        if meta.known_partition is not None and not is_partition(*meta.known_partition, n):
            raise ValueError("known_partition must partition the index set")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class ProjectorPair:
    """Orthogonal projectors onto the working primal and dual subspaces,
    held as orthonormal bases (columns) of the two rescaled row spaces.

    Q spans Im((A D^{-1})^T), so P = I - Q Q^T projects onto D(L); Q_hat
    spans Im(D_hat A^T), so P_hat = Q_hat Q_hat^T projects onto
    D_hat(L-perp).  `projector_from_kernel` gives one array for both.  A
    side that was not built is None, and reading its projector raises
    ValueError.  Each access of P or P_hat forms a new dense n x n matrix:
    keep it when it is needed twice.
    """

    Q: Optional[np.ndarray]
    Q_hat: Optional[np.ndarray]

    @property
    def P(self) -> np.ndarray:
        return _complement(_outer(_built(self.Q, "primal")))

    @property
    def P_hat(self) -> np.ndarray:
        return _outer(_built(self.Q_hat, "dual"))


def _built(Q: Optional[np.ndarray], side: str) -> np.ndarray:
    if Q is None:
        raise ValueError(f"the {side} side of this projector pair was not built")
    return Q


def _orthonormal_range_basis(M: np.ndarray, scale=None, divide: bool = False) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of M with its rows
    divided by scale (divide) or multiplied by it (scale None: M itself):
    the Q of the reduced QR factorization of that matrix with its columns
    normalized, the one factorization of every build.  M is never written.

    Normalizing leaves the column space (and therefore the projector built
    from the basis) unchanged but keeps the rank test meaningful when
    rescaling has scaled columns by many orders of magnitude.  The scaled
    M must then have full column rank within RANK_TOL, measured on the
    diagonal of the triangular factor relative to its largest magnitude
    entry; a NaN on that diagonal (from a NaN or infinite entry) fails the
    test too.

    M is taken Fortran-contiguous, as the transpose of a C-ordered A
    already is, and copied once when it is not.  With the compiled
    library it is scaled, normalized and factored in one call, the
    module's `basis`, straight into Q's storage; without it (no C
    compiler, no Python headers, or no LAPACK symbols in numpy) it takes
    the NumPy route, `_numpy_range_basis`.  Both give the same bits.
    """
    M = np.asfortranarray(M)
    n, m = M.shape
    if m == 0:
        return np.zeros((n, 0))
    lib = bploop.library()
    out = _numpy_range_basis(M, scale, divide) if lib is None else lib.basis(M, scale, divide)
    if out is None:
        raise RankDeficient("matrix has a zero column")
    Q, dmin, dmax = out
    if not (dmax > 0.0 and dmin >= RANK_TOL * dmax):
        raise RankDeficient(
            f"matrix is rank deficient within {RANK_TOL:g} "
            f"(diagonal range [{dmin:.3e}, {dmax:.3e}])"
        )
    return Q


def _numpy_range_basis(M: np.ndarray, scale, divide: bool):
    """The NumPy route of `_orthonormal_range_basis`, and the bytewise
    reference of the compiled module's `basis`: (Q, min |diag R|, max
    |diag R|), or None when a scaled column has norm 0.  The norms are
    taken on the scaled M as laid out, which fixes their bits."""
    if scale is not None:
        M = M / scale[:, None] if divide else M * scale[:, None]
    norms = np.linalg.norm(M, axis=0)
    if (norms == 0.0).any():
        return None
    # a scaled M is this call's own, so it is normalized in place
    Q, R = np.linalg.qr(np.divide(M, norms, out=None if scale is None else M), mode="reduced")
    diag = np.abs(np.diagonal(R))
    return Q, diag.min(), diag.max()


def _svd_rank(M: np.ndarray):
    """Full SVD of M as (rank, U, Vh).  The rank counts the singular values
    above RANK_TOL times the largest; the first rank rows of Vh span the
    row space of M and the remaining rows span its kernel, and likewise
    the columns of U for the column space of M and the kernel of M^T."""
    U, s, Vh = np.linalg.svd(M)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s.size else 0
    return rank, U, Vh


def projector_from_kernel(A) -> ProjectorPair:
    """Projectors onto ker(A) and Im(A^T), for a full-row-rank (m, n) A.

    This is the unit-diagonal case, D = D_hat = 1, where the two rescaled
    row spaces are both Im(A^T): one factorization of A^T gives both sides,
    and P + P_hat = I up to rounding.  The bits are those of
    `rescaled_projectors(A, ones, ones)`, which factors each side.  A must
    be a finite matrix with a column and m <= n, as an `Instance`'s is
    (else DimensionMismatch or ValueError), and of full row rank (else
    RankDeficient).
    """
    A = _kernel_matrix(A)
    with small_problem_threads(*A.shape):
        Q = _orthonormal_range_basis(A.T)
    return ProjectorPair(Q=Q, Q_hat=Q)


def rescaled_projectors(A, D, D_hat) -> ProjectorPair:
    """Projectors onto the rescaled subspaces D(L) and D_hat(L-perp).

    D and D_hat are positive diagonals given as length-n vectors.  The
    primal side factors (A D^{-1})^T, the dual side factors D_hat A^T, each
    side its own matrix whatever the diagonals hold; for D = D_hat = 1,
    `projector_from_kernel` gives the same bits from one factorization.  A
    diagonal given as None leaves its side unbuilt (at least one must be
    given), so a caller can factor each side just before it needs it; a
    built side has the bits of the two-sided call.  The pair holds the
    bases; see ProjectorPair for forming the dense projectors.  A is
    checked as `projector_from_kernel` checks it.
    """
    A = _kernel_matrix(A)
    m, n = A.shape
    if D is None and D_hat is None:
        raise ValueError("at least one rescaling diagonal is needed")
    D = _diagonal(D, n)
    D_hat = _diagonal(D_hat, n)
    At = A.T
    with small_problem_threads(m, n):
        Q = None if D is None else _orthonormal_range_basis(At, D, divide=True)
        Q_hat = None if D_hat is None else _orthonormal_range_basis(At, D_hat)
    return ProjectorPair(Q=Q, Q_hat=Q_hat)


def _diagonal(D, n: int) -> Optional[np.ndarray]:
    """D as a positive, finite, contiguous length-n float vector; None
    stays None."""
    if D is None:
        return None
    D = np.asarray(D, dtype=float)
    if D.shape != (n,):
        raise DimensionMismatch("rescaling diagonals must have length n")
    if not ((D > 0.0) & (D < np.inf)).all():
        raise ValueError("rescaling diagonals must be strictly positive and finite")
    return np.ascontiguousarray(D)


def _outer(Q: np.ndarray) -> np.ndarray:
    """Q Q^T, on the thread policy of the factorization Q came from."""
    n, m = Q.shape
    with small_problem_threads(m, n):
        return Q @ Q.T


def _complement(G: np.ndarray) -> np.ndarray:
    """I - G, computed in G's storage.

    0 - g followed by adding 1 on the diagonal gives the bits of
    np.eye(n) - G, signed zeros included, without an n x n temporary.
    """
    np.subtract(0.0, G, out=G)
    G.flat[:: G.shape[0] + 1] += 1.0
    return G


# ---------------------------------------------------------------------------
# Instance file format (shared by every tool in the package):
#   { "n": int, "m": int, "A": [[row floats] ...],
#     "meta": { "generator": str, "seed": int,
#               "known_delta": float | "infeasible" | null,
#               "known_interior_point": [floats] | null,
#               "known_partition": {"B": [1-based ints], "N": [...]} | null } }
# ---------------------------------------------------------------------------


def instance_to_dict(inst: Instance) -> dict:
    doc = {"n": inst.n, "m": inst.m, "A": inst.A.tolist(), "meta": None}
    meta = inst.meta
    if meta is not None:
        if meta.known_delta is None:
            delta = None
        elif meta.known_delta == INFEASIBLE:
            delta = "infeasible"
        else:
            delta = float(meta.known_delta)
        point = meta.known_interior_point
        part = meta.known_partition
        doc["meta"] = {
            "generator": meta.generator,
            "seed": int(meta.seed),
            "known_delta": delta,
            "known_interior_point": None if point is None else np.asarray(point).tolist(),
            "known_partition": None
            if part is None
            else {
                "B": [int(i) + 1 for i in part[0]],
                "N": [int(i) + 1 for i in part[1]],
            },
        }
    return doc


def one_based(name: str, indices) -> list:
    """0-based copies of 1-based file indices, each an integer of at least 1."""
    return [check_count(name, i, least=1) - 1 for i in indices]


def instance_from_dict(doc: dict) -> Instance:
    n, m = check_count("n", doc["n"]), check_count("m", doc["m"])
    A = np.asarray(doc["A"], dtype=float)
    if A.size == 0 and m * n == 0:
        # an empty A holds no shape: a file with m = 0 gives n only here
        A = A.reshape(m, n)
    if A.shape != (m, n):
        raise ValueError(f"A has shape {A.shape}, but the file gives (m, n) = ({m}, {n})")
    meta = None
    mdoc = doc.get("meta")
    if mdoc is not None:
        delta = mdoc.get("known_delta")
        if delta == "infeasible":
            delta = INFEASIBLE
        elif delta is not None:
            delta = float(delta)
        point = mdoc.get("known_interior_point")
        if point is not None:
            point = np.asarray(point, dtype=float)
        part = mdoc.get("known_partition")
        if part is not None:
            part = (one_based("B", part["B"]), one_based("N", part["N"]))
        meta = InstanceMeta(
            generator=mdoc.get("generator", ""),
            seed=check_count("seed", mdoc.get("seed", 0)),
            known_delta=delta,
            known_interior_point=point,
            known_partition=part,
        )
    return Instance(A, meta)


def save_instance(inst: Instance, path) -> None:
    serialize.dump(instance_to_dict(inst), path)


def load_instance(path) -> Instance:
    return instance_from_dict(serialize.load(path))
