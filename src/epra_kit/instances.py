"""Random instance families with ground-truth metadata.

Three families:

* naive       -- A with i.i.d. standard-normal entries; feasibility of the
                 two sides is governed by Wendel's coverage probability.
* controlled  -- the kernel is built around a drawn interior point x_bar
                 with ||x_bar||_inf = 1, so the primal condition measure is
                 known exactly: it is the product of the entries of x_bar.
                 A chosen fraction of the entries is forced below delta_cap,
                 which makes the instance as ill-conditioned as desired.
* partitioned -- block-triangular kernel matrix giving a known non-trivial
                 Goldman-Tucker partition (B, N).

Generators are deterministic functions of their seed.
"""

from typing import Optional

import numpy as np

from .exceptions import DegenerateMax, FullRankSquare
from .subspace import Instance, InstanceMeta, _svd_rank, as_matrix

NAIVE = "naive"
CONTROLLED = "controlled"
PARTITIONED = "partitioned"

_MAX_REDRAWS = 100


def instance_seed(*keys) -> int:
    """Deterministic 64-bit seed derived from integer keys through numpy's
    SeedSequence, so a seed depends on its keys and not on run order."""
    ss = np.random.SeedSequence([int(k) for k in keys])
    return int(ss.generate_state(1, np.uint64)[0])


def gen_naive(m: int, n: int, seed: int) -> Instance:
    """Kernel matrix with i.i.d. standard-normal entries."""
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    return Instance(A, InstanceMeta(generator=NAIVE, seed=int(seed)))


def controlled_from_interior(x_bar, m: int, rng) -> np.ndarray:
    """Kernel matrix whose kernel's most interior point is exactly x_bar.

    x_bar must be strictly positive with a unique maximal entry equal
    to 1.  The first row is n e_k - diag(x_bar)^{-1} 1 with k the argmax;
    the remaining m - 1 rows are Gaussian vectors with their component
    along x_bar removed, so A x_bar = 0 by construction.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    n = x_bar.size
    if np.any(x_bar <= 0) or np.max(x_bar) != 1.0:
        raise ValueError("x_bar must be strictly positive with max entry 1")
    k = int(np.argmax(x_bar))
    a1 = -1.0 / x_bar
    a1[k] += n
    if m == 1:
        return a1.reshape(1, n)
    G = rng.standard_normal((m - 1, n))
    G -= np.outer(G @ x_bar, x_bar) / float(x_bar @ x_bar)
    return np.vstack([a1, G])


def gen_controlled(
    m: int,
    n: int,
    delta_cap: float = 0.001,
    frac_small: Optional[float] = None,
    seed: int = 0,
) -> Instance:
    """Instance with known interior point and known condition measure.

    floor(frac_small * n) entries of the interior point are drawn uniformly
    from (0, delta_cap], the rest from (0, 1]; the vector is then scaled to
    have max-norm exactly 1.  When frac_small is None a fraction is drawn
    uniformly from [0.2, 0.8] per instance; frac_small = 0 disables the
    forced-small entries entirely (plain uniform interior point), and then
    delta_cap, which changes no drawn number, is not checked.
    """
    A, x = _controlled_draw(m, n, delta_cap, frac_small, seed)
    meta = InstanceMeta(
        generator=CONTROLLED,
        seed=int(seed),
        known_delta=float(np.prod(x)),
        known_interior_point=x,
    )
    return Instance(A, meta)


def _controlled_draw(m: int, n: int, delta_cap: float, frac_small: Optional[float], seed: int):
    """(A, x_bar) of `gen_controlled`, drawn without making the instance."""
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if frac_small is not None and not 0.0 <= frac_small < 1.0:
        raise ValueError("frac_small must lie in [0, 1)")
    if frac_small != 0.0 and not delta_cap > 0:
        raise ValueError("delta_cap must be positive")
    rng = np.random.default_rng(seed)
    frac = rng.uniform(0.2, 0.8) if frac_small is None else frac_small
    k_small = int(np.floor(frac * n))
    for _ in range(_MAX_REDRAWS):
        x = 1.0 - rng.random(n)  # (0, 1]
        small_idx = rng.choice(n, size=k_small, replace=False)
        x[small_idx] = delta_cap * (1.0 - rng.random(k_small))  # (0, delta_cap]
        x /= np.max(x)
        if np.count_nonzero(x == 1.0) == 1 and np.all(x > 0):
            break
    else:
        raise DegenerateMax(
            f"could not draw an interior point with a unique maximum in "
            f"{_MAX_REDRAWS} attempts"
        )
    return controlled_from_interior(x, m, rng), x


def nullspace_basis(M) -> np.ndarray:
    """Orthonormal basis of ker(M), returned as the rows of a matrix."""
    M = as_matrix(M)
    rank, Vh = _svd_rank(M)
    if rank >= M.shape[1]:
        raise FullRankSquare("matrix has a trivial kernel")
    # a copy: a view would keep the whole n x n factor alive
    return Vh[rank:].copy()


def gen_partitioned(n: int, seed: int, size_split: Optional[int] = None) -> Instance:
    """Instance whose primal and dual cones both have non-trivial relative
    interiors, with the partition recorded in the metadata.

    The kernel matrix is block upper triangular over B = {0..|B|-1} and its
    complement N: the B-block comes from the controlled generator (so its
    kernel meets the positive orthant of R^B), and the N-block's rows are an
    orthonormal nullspace basis of another controlled matrix, so the row
    space of the N-block meets the positive orthant of R^N and the block is
    full row rank.  The off-diagonal block is Gaussian and the lower-left
    block is exactly zero.  The blocks' interior points are plain uniform
    draws (no forced-small entries).
    """
    if n < 4:
        raise ValueError("partitioned instances need n >= 4")
    rng = np.random.default_rng(seed)
    lo, hi = max(2, n // 4), min(n - 2, (3 * n) // 4)
    if size_split is None:
        nb = int(rng.integers(lo, hi + 1))
    else:
        nb = int(size_split)
        if not 2 <= nb <= n - 2:
            raise ValueError(f"size_split must lie in [2, n-2], got {nb}")
    nn = n - nb
    m_b = max(1, nb // 2)
    m_inner = max(1, nn // 2)
    seed_b = int(rng.integers(2**63))
    seed_n = int(rng.integers(2**63))
    # only the blocks' matrices are kept, so no instance is made (and
    # checked) for them; frac_small = 0 leaves delta_cap unused
    A_bb, _ = _controlled_draw(m_b, nb, 0.001, 0.0, seed_b)
    A_nn, _ = _controlled_draw(m_inner, nn, 0.001, 0.0, seed_n)
    A_nn = nullspace_basis(A_nn)
    A_nb = rng.standard_normal((m_b, nn))
    A = np.block(
        [
            [A_bb, A_nb],
            [np.zeros((len(A_nn), nb)), A_nn],
        ]
    )
    meta = InstanceMeta(
        generator=PARTITIONED,
        seed=int(seed),
        known_partition=(list(range(nb)), list(range(nb, n))),
    )
    return Instance(A, meta)
