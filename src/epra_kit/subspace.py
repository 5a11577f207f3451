"""Subspaces represented by kernel matrices, and their orthogonal projectors.

A subspace L of R^n is stored as the kernel of a full-row-rank matrix A
(m x n, m <= n).  The projector onto L and the projector onto the row space
Im(A^T) = L-perp are obtained from a QR factorization of A^T.  Diagonal
rescalings D, D_hat act on the primal and dual sides independently:
D(L) = ker(A D^{-1}) and D_hat(L-perp) = Im(D_hat A^T).

Index sets in file formats are 1-based; in-memory arrays are 0-based.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import blas, serialize
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
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


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
    to the first factorization of A, which raises RankDeficient.
    """

    A: np.ndarray
    meta: Optional[InstanceMeta] = None

    def __post_init__(self):
        A = as_matrix(self.A)
        object.__setattr__(self, "A", A)
        m, n = A.shape
        if n < 1:
            raise DimensionMismatch(f"A has shape {A.shape}: an instance needs a matrix with a column")
        if m > n:
            raise DimensionMismatch(f"m={m} exceeds n={n}")
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
            if m > 0:
                resid = np.max(np.abs(A @ x))
                if resid > RESIDUAL_TOL * max(1.0, np.max(np.abs(A))):
                    raise ValueError(f"known_interior_point is not in ker(A): residual {resid:g}")
        if meta.known_partition is not None:
            B, N = (set(int(i) for i in side) for side in meta.known_partition)
            if B & N or (B | N) != set(range(n)):
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
    D_hat(L-perp).  When D = D_hat = 1 the two are one array.  A side that
    was not built is None, and reading its projector raises ValueError.
    Each access of P or P_hat forms a new dense n x n matrix: keep it when
    it is needed twice.
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


def _orthonormal_range_basis(M: np.ndarray, owned: bool = False) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of M via QR.

    Columns are normalized to unit length first: this leaves the column
    space (and therefore the projector built from the basis) unchanged but
    keeps the rank test meaningful when rescaling has scaled columns by
    many orders of magnitude.  M must then have full column rank within
    RANK_TOL, measured on the diagonal of the triangular factor relative
    to its largest magnitude entry.  With owned=True M is a scratch array
    of the caller's and may be normalized and factored in place.
    """
    n, m = M.shape
    if m == 0:
        return np.zeros((n, 0))
    # the norms are taken on M as laid out, which fixes their bits
    norms = np.linalg.norm(M, axis=0)
    if np.any(norms == 0.0):
        raise RankDeficient("matrix has a zero column")
    Q, diag = _householder_qr(M, norms, owned)
    diag = np.abs(diag)
    dmax = np.max(diag)
    if dmax == 0.0 or np.min(diag) < RANK_TOL * dmax:
        raise RankDeficient(
            f"matrix is rank deficient within {RANK_TOL:g} "
            f"(diagonal range [{np.min(diag):.3e}, {dmax:.3e}])"
        )
    return Q


def _householder_qr(M: np.ndarray, norms: np.ndarray, owned: bool):
    """(Q, diagonal of R) of the reduced QR factorization of M with its
    columns divided by norms: the one factorization of every build.

    With numpy's bundled LAPACK (`blas.lapack_qr`) the normalized matrix
    is factored in its own storage, which becomes Q: M itself when it is
    owned and Fortran-contiguous (the scaled transpose of a C-ordered A),
    else one fresh Fortran-ordered array.  Otherwise `np.linalg.qr`
    factors a copy.  Both give the same bits.
    """
    qr_in_place = blas.lapack_qr()
    if qr_in_place is None:
        Q, R = np.linalg.qr(np.divide(M, norms, out=M if owned else None), mode="reduced")
        return Q, np.diagonal(R)
    out = M if owned and M.flags.f_contiguous else np.empty(M.shape, order="F")
    np.divide(M, norms, out=out)
    return out, qr_in_place(out)


def _svd_rank(M: np.ndarray):
    """Full SVD of M as (rank, Vh).  The rank counts the singular values
    above RANK_TOL times the largest; the first rank rows of Vh span the
    row space of M and the remaining rows span its kernel."""
    _, s, Vh = np.linalg.svd(M)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s.size else 0
    return rank, Vh


def projector_from_kernel(A) -> ProjectorPair:
    """Projectors onto ker(A) and Im(A^T), for a full-row-rank (m, n) A:
    the unit-diagonal case of rescaled_projectors.  P + P_hat = I up to
    rounding."""
    # the last axis, not a column count: an A that is not a matrix goes on
    # to as_matrix's DimensionMismatch
    ones = np.ones(np.shape(A)[-1:])
    return rescaled_projectors(A, ones, ones)


def rescaled_projectors(A, D, D_hat) -> ProjectorPair:
    """Projectors onto the rescaled subspaces D(L) and D_hat(L-perp).

    D and D_hat are positive diagonals given as length-n vectors.  The
    primal side factors (A D^{-1})^T, the dual side factors D_hat A^T; the
    two projectors are complementary only when D = D_hat = I.  Then both
    sides would factor the same matrix, so one QR serves both, with the
    bits the two factorizations would give.  A diagonal given as None
    leaves its side unbuilt (at least one must be given), so a caller can
    factor each side just before it needs it; a built side has the bits
    of the two-sided call.  The pair holds the bases; see ProjectorPair
    for forming the dense projectors.  A that is not full row rank raises
    RankDeficient.
    """
    A = as_matrix(A)
    m, n = A.shape
    if m > n:
        raise DimensionMismatch(f"kernel matrix must have m <= n, got {m} x {n}")
    if D is None and D_hat is None:
        raise ValueError("at least one rescaling diagonal is needed")
    D = _diagonal(D, n)
    D_hat = _diagonal(D_hat, n)
    At = A.T
    with small_problem_threads(m, n):
        if D is not None and D_hat is not None and np.all(D == 1.0) and np.all(D_hat == 1.0):
            Q = _orthonormal_range_basis(At)
            return ProjectorPair(Q=Q, Q_hat=Q)
        # the scaled transposes are this call's own, so each is normalized
        # (and, for a C-ordered A, factored) in place; A itself is never
        # written
        Q = None if D is None else _orthonormal_range_basis(At / D[:, None], owned=True)
        Q_hat = None if D_hat is None else _orthonormal_range_basis(
            At * D_hat[:, None], owned=True)
    return ProjectorPair(Q=Q, Q_hat=Q_hat)


def _diagonal(D, n: int) -> Optional[np.ndarray]:
    """D as a positive length-n float vector; None stays None."""
    if D is None:
        return None
    D = np.asarray(D, dtype=float)
    if D.shape != (n,):
        raise DimensionMismatch("rescaling diagonals must have length n")
    if np.any(D <= 0):
        raise ValueError("rescaling diagonals must be strictly positive")
    return D


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
