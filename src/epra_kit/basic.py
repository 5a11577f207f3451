"""First-order schemes over the standard simplex.

Given an orthogonal projector P and a tolerance eps in (0, 1), each scheme
iterates z on the simplex until either

    P z > 0                          (interior certificate), or
    ||(P z)^+||_1 <= eps ||z||_inf   (rescaling trigger).

Four schemes are provided: the plain perceptron update, the von Neumann
scheme with exact line search, the von Neumann scheme with away steps, and
the smooth perceptron.  All tie-breaking is by lowest index so runs are
deterministic.

All four run through one driver that owns the stop check, the iteration
cap and the re-verification of a returned status against a freshly
computed P z; a scheme supplies only its set-up and its step.  A vertex
scheme's iterate moves by a convex (or, for away steps, affine) combination
of the current point and a simplex vertex, so P z is tracked incrementally
at O(n) cost per iteration and recomputed from scratch every _REFRESH
steps.

A run without a callback on a C-contiguous float64 (n, n) projector goes
through the same driver and steps compiled (`bploop`), which give the
same bits and raise the same errors; `_drive` with the Python steps is
the reference, the fallback where no compiled loop can be built, and the
path that calls a callback at every step.
"""

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import bploop
from .exceptions import (
    DegenerateStep,
    EmptySupport,
    NoImprovingVertex,
)

INTERIOR_FOUND = "interior_found"
RESCALE_READY = "rescale_ready"
ITER_LIMIT = "iter_limit"

PERCEPTRON = "perceptron"
VON_NEUMANN = "vn"
VON_NEUMANN_AWAY = "vna"
SMOOTH_PERCEPTRON = "smooth"

# steps between full recomputations of the tracked projection
_REFRESH = 128

# the failures of a step, by the codes the compiled loop returns for them
_NO_VERTEX, _LINE_SEARCH, _ZERO_DIRECTION, _EMPTY_SUPPORT, _NO_THRESHOLD = range(-1, -6, -1)
_FAILURES = {
    _NO_VERTEX: (NoImprovingVertex,
                 "min(Pz) > 0 while the interior check failed; numerical anomaly"),
    _LINE_SEARCH: (DegenerateStep, "line-search denominator is nonpositive; numerical anomaly"),
    _ZERO_DIRECTION: (DegenerateStep, "||P a||^2 = 0 while the stop conditions failed"),
    _EMPTY_SUPPORT: (EmptySupport, "z has no positive component"),
    _NO_THRESHOLD: (IndexError, "no component exceeds its simplex threshold"),
}


def _failure(code: int) -> Exception:
    cls, message = _FAILURES[code]
    return cls(message)


def check_count(name: str, value, least: int = 0):
    """Raise ValueError unless value is an integer (not a bool) of at
    least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass
class BpConfig:
    """Basic-procedure settings.

    max_iters = 0 disables the iteration cap.  The default cap of 10000
    matches the standalone benchmark convention; the rescaling solver
    overrides it with a much larger value.
    """

    epsilon: float = 0.5
    max_iters: int = 10000
    scheme: str = SMOOTH_PERCEPTRON

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        check_count("max_iters", self.max_iters)


@dataclass
class BpOutcome:
    """Result of one scheme run: final iterate, its projection, and status."""

    status: str
    z: np.ndarray
    Pz: np.ndarray
    iterations: int


def uniform_simplex(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def stop_check(Pz, z, epsilon: float, buf=None) -> Optional[str]:
    """Evaluate the two termination conditions.

    Returns INTERIOR_FOUND when min(Pz) > 0 (exact comparison: a positive
    tolerance could falsely reject genuine interior points), RESCALE_READY
    when the sum of the positive part of Pz is at most epsilon * max(z),
    and None otherwise.  Assumes z >= 0, z != 0.  buf, when given, is a
    scratch vector of Pz's size that receives the positive part.
    """
    Pz = np.asarray(Pz, dtype=float)
    z = np.asarray(z, dtype=float)
    if Pz[Pz.argmin()] > 0.0:
        return INTERIOR_FOUND
    bound = epsilon * z[z.argmax()]
    # a rounded sum of nonnegative terms is never below its largest term,
    # so the sum is needed only when max(Pz) is within the bound
    if Pz[Pz.argmax()] > bound:
        return None
    if np.maximum(Pz, 0.0, out=buf).sum() <= bound:
        return RESCALE_READY
    return None


def away_vertex(z, Pz, support=None, masked=None) -> int:
    """Index maximizing Pz over the support of z; ties by lowest index.

    support (bool) and masked (float), when given, are scratch vectors of
    z's size for the support mask and the masked copy of Pz.
    """
    z = np.asarray(z, dtype=float)
    Pz = np.asarray(Pz, dtype=float)
    support = np.greater(z, 0.0, out=support)
    if not support.size or not support[support.argmax()]:
        raise _failure(_EMPTY_SUPPORT)
    if masked is None:
        masked = np.empty(Pz.shape)
    masked.fill(-np.inf)
    np.copyto(masked, Pz, where=support)
    return int(masked.argmax())


def _simplex_work(n: int):
    """Scratch vectors for project_simplex on vectors of length n: the
    sorted copy, its cumulative sums, the thresholds, the comparison and
    the divisors 1..n."""
    return np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool), np.arange(1.0, n + 1)


def project_simplex(y, out=None, work=None) -> np.ndarray:
    """Euclidean projection onto the standard simplex (sort-based).

    out, when given, receives the projection and is returned.  work, from
    _simplex_work(len(y)), holds the temporaries of repeated calls.
    """
    y = np.asarray(y, dtype=float)
    u, css, ratio, above, ks = _simplex_work(y.size) if work is None else work
    np.copyto(u, y)
    u.sort()
    u = u[::-1]
    u.cumsum(out=css)
    np.divide(np.subtract(css, 1.0, out=ratio), ks, out=ratio)
    np.greater(u, ratio, out=above)
    # k - 1 is the last index where u exceeds its threshold
    k = above.size - int(above[::-1].argmax())
    if not above[k - 1]:
        raise _failure(_NO_THRESHOLD)
    tau = (css[k - 1] - 1.0) / k
    out = np.subtract(y, tau, out=out)
    return np.maximum(out, 0.0, out=out)


def simplex_prox(v, mu: float, u_bar) -> np.ndarray:
    """Minimizer over the simplex of <u, v> + (mu/2) ||u - u_bar||^2.

    Equals the Euclidean projection of u_bar - v/mu onto the simplex.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    v = np.asarray(v, dtype=float)
    u_bar = np.asarray(u_bar, dtype=float)
    return project_simplex(u_bar - v / mu)


def _check_start(z0) -> np.ndarray:
    z = np.array(z0, dtype=float)
    if (z.ndim != 1 or not np.all(np.isfinite(z)) or np.any(z < 0)
            or abs(z.sum() - 1.0) > 1e-9):
        raise ValueError("starting point must lie on the standard simplex")
    return z


# the schemes' numbers in the compiled loop
_PERCEPTRON_ID, _VON_NEUMANN_ID, _VON_NEUMANN_AWAY_ID, _SMOOTH_ID = range(4)
_STATUSES = {1: INTERIOR_FOUND, 2: RESCALE_READY, 3: ITER_LIMIT}


def _run(scheme: int, P, z, Pz, cfg: BpConfig, callback, step, refresh=_REFRESH,
         vectors=(), mu=0.0) -> BpOutcome:
    """Run scheme number `scheme` from z and Pz = P z: the compiled loop,
    given the scheme's vectors and mu (bploop.c names them), when there is
    no callback and it accepts P, else _drive with the Python step."""
    if callback is not None or not bploop.accepts(P, z.size):
        return _drive(P, z, Pz, cfg, callback, step, refresh)
    code, t = bploop.run(scheme, P, z, Pz, cfg.epsilon, cfg.max_iters, vectors, mu)
    if code < 0:
        raise _failure(code)
    return BpOutcome(_STATUSES[code], z, Pz, t)


def _drive(P, z, Pz, cfg: BpConfig, callback, step, refresh=_REFRESH) -> BpOutcome:
    """The basic procedure shared by every scheme.

    step(z, Pz, t) advances z and its tracked projection Pz in place by one
    iteration; a true return asks for Pz to be recomputed at once.  Pz is
    also recomputed every `refresh` steps (never when refresh is None).  Any
    candidate status is re-verified against a freshly computed projection;
    a false alarm caused by tracking drift just corrects the projection and
    lets the run continue.
    """
    eps = cfg.epsilon
    max_iters = cfg.max_iters
    buf = np.empty_like(Pz)  # the stop check's positive part
    t = since_refresh = 0
    while True:
        if callback is not None:
            callback(t, z, Pz)
        if stop_check(Pz, z, eps, buf) is not None:
            np.matmul(P, z, out=Pz)
            since_refresh = 0
            status = stop_check(Pz, z, eps, buf)
            if status is not None:
                return BpOutcome(status, z, Pz, t)
        if max_iters and t >= max_iters:
            np.matmul(P, z, out=Pz)
            return BpOutcome(stop_check(Pz, z, eps, buf) or ITER_LIMIT, z, Pz, t)
        force_refresh = step(z, Pz, t)
        t += 1
        since_refresh += 1
        if force_refresh or since_refresh == refresh:
            np.matmul(P, z, out=Pz)
            since_refresh = 0


def _vertex_move(z, Pz, i: int, theta: float, Pi, col) -> None:
    """z <- (1 - theta) z + theta e_i and Pz <- (1 - theta) Pz + theta Pi,
    in place, where Pi is column i of P and col a scratch vector.  A
    negative theta is the away step from e_i."""
    z *= 1.0 - theta
    z[i] += theta
    Pz *= 1.0 - theta
    Pz += np.multiply(Pi, theta, out=col)


def run_perceptron(P, z0, cfg: BpConfig, callback: Optional[Callable] = None) -> BpOutcome:
    """Perceptron scheme.

    At each step pick the vertex e_i with i minimizing (Pz)_i (a vertex u
    with <u, Pz> <= 0 always exists while the stop conditions fail) and set
    z <- (1 - 1/(t+1)) z + (1/(t+1)) e_i.
    """

    def step(z, Pz, t):
        i = int(Pz.argmin())
        if Pz[i] > 0.0:
            raise _failure(_NO_VERTEX)
        _vertex_move(z, Pz, i, 1.0 / (t + 1), P[:, i], col)

    z = _check_start(z0)
    col = np.empty(z.size)
    return _run(_PERCEPTRON_ID, P, z, P @ z, cfg, callback, step)


def run_von_neumann(P, z0, cfg: BpConfig, callback: Optional[Callable] = None) -> BpOutcome:
    """Von Neumann scheme: greedy perceptron with exact line search.

    z <- z + theta (e_i - z) with theta minimizing ||P(z + theta(e_i - z))||^2
    over [0, 1]; the norm ||Pz|| is nonincreasing.  ||P e_i||^2 is computed
    the first time the run picks column i and reused after that.
    """

    def step(z, Pz, t):
        i = int(Pz.argmin())
        Pu = P[:, i]
        pu2 = col_norm2[i]
        if pu2 is None:
            pu2 = col_norm2[i] = float(Pu @ Pu)
        pz2 = float(Pz @ Pz)
        upz = float(Pz[i])
        denom = pz2 + pu2 - 2.0 * upz
        if denom <= 0.0:
            raise _failure(_LINE_SEARCH)
        theta = (pz2 - upz) / denom
        _vertex_move(z, Pz, i, min(1.0, max(0.0, theta)), Pu, col)

    z = _check_start(z0)
    n = z.size
    col = np.empty(n)
    col_norm2 = [None] * n
    # the compiled loop's cache: the norms and whether each is known
    vectors = (np.empty(n), np.zeros(n, dtype=np.uint8))
    return _run(_VON_NEUMANN_ID, P, z, P @ z, cfg, callback, step, vectors=vectors)


def run_vna(P, z0, cfg: BpConfig, callback: Optional[Callable] = None) -> BpOutcome:
    """Von Neumann scheme with away steps.

    Chooses between the regular direction a = e_i - z (i the min vertex)
    and the away direction a = z - e_j (j maximizing Pz over the support),
    whichever promises the larger decrease; the step length is the exact
    minimizer of ||P(z + theta a)||^2 capped at theta_max.  The away cap is
    z_j / (1 - z_j); when z is the vertex e_j itself the away step cannot
    move, so a regular step is taken instead.
    """

    def step(z, Pz, t):
        pz2 = float(Pz @ Pz)
        iu = int(Pz.argmin())
        iv = away_vertex(z, Pz, support, masked)
        vz = float(z[iv])
        away = not (pz2 - float(Pz[iu]) > float(Pz[iv]) - pz2)
        if away and vz >= 1.0:
            away = False  # away step from a vertex cannot move
        if away:
            np.subtract(Pz, P[:, iv], out=Pa)
            theta_max = vz / (1.0 - vz)
        else:
            np.subtract(P[:, iu], Pz, out=Pa)
            theta_max = 1.0
        pa2 = float(Pa @ Pa)
        if pa2 <= 0.0:
            raise _failure(_ZERO_DIRECTION)
        theta = min(theta_max, -float(z @ Pa) / pa2)
        if away:
            _vertex_move(z, Pz, iv, -theta, P[:, iv], col)
            np.maximum(z, 0.0, out=z)  # clip roundoff when the cap binds
        else:
            _vertex_move(z, Pz, iu, theta, P[:, iu], col)
        # away steps scale the tracked projection by 1 + theta, which can
        # amplify drift, so refresh eagerly after long ones
        return away and theta > 0.5

    z = _check_start(z0)
    n = z.size
    support = np.empty(n, dtype=bool)
    masked, Pa, col = np.empty(n), np.empty(n), np.empty(n)
    return _run(_VON_NEUMANN_AWAY_ID, P, z, P @ z, cfg, callback, step, vectors=(Pa,))


def run_smooth(P, u_bar, cfg: BpConfig, callback: Optional[Callable] = None) -> BpOutcome:
    """Smooth perceptron scheme.

    Defined by an auxiliary sequence u_t and smoothing parameter mu_t with
    theta_t = 2/(t+3), mu_{t+1} = (1-theta_t) mu_t and the prox map
    w(mu, v) = argmin_{u in simplex} <u, v> + (mu/2)||u - u_bar||^2:

        u_{t+1} = (1-theta_t)(u_t + theta_t z_t) + theta_t^2 w(mu_t, P u_t)
        z_{t+1} = (1-theta_t) z_t + theta_t w(mu_{t+1}, P u_{t+1})

    The u-update coefficients sum to one, so every iterate stays on the
    simplex.  The prox map needs u only through P u, so u itself is never
    formed: P u and P z are tracked through the same recurrences, and the
    one matrix-vector product per iteration is P w.  All vectors are
    updated in place; the callback sees the live iterate.  Unlike the
    vertex schemes, P z gets no periodic recomputation.
    """
    ub = _check_start(u_bar)
    n = ub.size
    mu = 2.0
    Pu = P @ ub
    w = simplex_prox(Pu, mu, ub)
    Pw = P @ w
    y = np.empty(n)
    scaled = np.empty(n)
    work = _simplex_work(n)

    def step(z, Pz, t):
        nonlocal mu, Pu
        theta = 2.0 / (t + 3)
        # Pu <- (1 - theta) (Pu + theta Pz) + theta^2 Pw
        Pu += np.multiply(Pz, theta, out=scaled)
        Pu *= 1.0 - theta
        Pu += np.multiply(Pw, theta**2, out=scaled)
        mu = (1.0 - theta) * mu
        # w <- simplex_prox(Pu, mu, ub), the projection of ub - Pu / mu
        np.subtract(ub, np.divide(Pu, mu, out=y), out=y)
        project_simplex(y, out=w, work=work)
        np.matmul(P, w, out=Pw)
        # z <- (1 - theta) z + theta w, and P z alike
        z *= 1.0 - theta
        z += np.multiply(w, theta, out=scaled)
        Pz *= 1.0 - theta
        Pz += np.multiply(Pw, theta, out=scaled)

    vectors = (Pu, w, Pw, ub, y, work[0], scaled)
    return _run(_SMOOTH_ID, P, w.copy(), Pw.copy(), cfg, callback, step, refresh=None,
                vectors=vectors, mu=mu)


SCHEMES = {
    PERCEPTRON: run_perceptron,
    VON_NEUMANN: run_von_neumann,
    VON_NEUMANN_AWAY: run_vna,
    SMOOTH_PERCEPTRON: run_smooth,
}


def run_scheme(P, z0, cfg: BpConfig, callback: Optional[Callable] = None) -> BpOutcome:
    """Dispatch to the scheme named by cfg.scheme."""
    return SCHEMES[cfg.scheme](P, z0, cfg, callback=callback)
