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
computed P z; a scheme supplies only its set-up (the starting P z, and
for the smooth perceptron its first prox point) and its step.  A vertex
scheme's iterate moves by a convex (or, for away steps, affine) combination
of the current point and a simplex vertex, so P z is tracked incrementally
at O(n) cost per iteration and recomputed from scratch every _REFRESH
steps.  A step's failure carries the number of steps completed before it
as its `iterations` attribute, and a set-up's failure carries 0.

Every run takes P as a C-contiguous float64 array, converted once when
it is not one.  A run without a callback is one call to the compiled
loop (`bploop`) wherever it loads, which does the scheme's set-up and
then takes the driver's steps in arrays it allocates.  The Python set-up
and `_drive` with the plain NumPy steps are the reference for their bits
and errors, the fallback where no compiled loop can be built, and the
path that calls a callback; neither path raises floating-point warnings
in the set-up or the run.
"""

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import bploop
from .exceptions import DegenerateStep, EmptySupport, EpraKitError, NoThreshold

INTERIOR_FOUND = "interior_found"
RESCALE_READY = "rescale_ready"
ITER_LIMIT = "iter_limit"

PERCEPTRON = "perceptron"
VON_NEUMANN = "vn"
VON_NEUMANN_AWAY = "vna"
SMOOTH_PERCEPTRON = "smooth"

# steps between full recomputations of the tracked projection
_REFRESH = 128
# the smooth perceptron's first smoothing parameter, mu_0
_MU_0 = 2.0

# the failures of a step, by the codes the compiled loop returns for them
_LINE_SEARCH, _ZERO_DIRECTION, _EMPTY_SUPPORT, _NO_THRESHOLD = range(-2, -6, -1)
_FAILURES = {
    _LINE_SEARCH: (DegenerateStep, "line-search denominator is nonpositive; numerical anomaly"),
    _ZERO_DIRECTION: (DegenerateStep, "||P a||^2 = 0 while the stop conditions failed"),
    _EMPTY_SUPPORT: (EmptySupport, "z has no positive component"),
    _NO_THRESHOLD: (NoThreshold, "no component exceeds its simplex threshold"),
}


def _failure(code: int) -> Exception:
    cls, message = _FAILURES[code]
    return cls(message)


def check_count(name: str, value, least: int = 0):
    """value, checked: ValueError unless it is an integer (not a bool) of
    at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


@dataclass(frozen=True)
class BpConfig:
    """Basic-procedure settings, frozen once checked.

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


def stop_check(Pz, z, epsilon: float) -> Optional[str]:
    """Evaluate the two termination conditions.

    Returns INTERIOR_FOUND when min(Pz) > 0 (exact comparison: a positive
    tolerance could falsely reject genuine interior points), RESCALE_READY
    when the sum of the positive part of Pz is at most epsilon * max(z),
    and None otherwise.  Assumes z >= 0, z != 0.
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
    if np.maximum(Pz, 0.0).sum() <= bound:
        return RESCALE_READY
    return None


def away_vertex(z, Pz) -> int:
    """Index maximizing Pz over the support of z; ties by lowest index."""
    support = np.asarray(z, dtype=float) > 0.0
    if not support.size or not support[support.argmax()]:
        raise _failure(_EMPTY_SUPPORT)
    return int(np.where(support, np.asarray(Pz, dtype=float), -np.inf).argmax())


def project_simplex(y) -> np.ndarray:
    """Euclidean projection onto the standard simplex (sort-based)."""
    y = np.asarray(y, dtype=float)
    u = np.sort(y)[::-1]
    css = u.cumsum()
    above = u > (css - 1.0) / np.arange(1.0, y.size + 1)
    # k - 1 is the last index where u exceeds its threshold
    k = above.size - int(above[::-1].argmax())
    if not above[k - 1]:
        raise _failure(_NO_THRESHOLD)
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(y - tau, 0.0)


def simplex_prox(v, mu: float, u_bar) -> np.ndarray:
    """Minimizer over the simplex of <u, v> + (mu/2) ||u - u_bar||^2.

    Equals the Euclidean projection of u_bar - v/mu onto the simplex.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    return project_simplex(np.asarray(u_bar, dtype=float) - np.asarray(v, dtype=float) / mu)


def _check_start(z0) -> np.ndarray:
    z = np.array(z0, dtype=float)
    # a NaN or -inf fails the minimum's test and +inf the sum's
    if z.ndim != 1 or not (z.size and z.min() >= 0.0) or abs(z.sum() - 1.0) > 1e-9:
        raise ValueError("starting point must lie on the standard simplex")
    return z


# the schemes' numbers in the compiled loop
_PERCEPTRON_ID, _VON_NEUMANN_ID, _VON_NEUMANN_AWAY_ID, _SMOOTH_ID = range(4)
_STATUSES = {1: INTERIOR_FOUND, 2: RESCALE_READY, 3: ITER_LIMIT}


def _run(scheme: int, P, z, cfg: BpConfig, callback, start, refresh=_REFRESH) -> BpOutcome:
    """Run scheme number `scheme` on P as a C-contiguous float64 array
    from the checked start z.  Without a callback, where the library
    loads, its `run` does the scheme's set-up and its loop in state it
    allocates; else start(P, z) makes the set-up's z and P z and the step
    for _drive.  A set-up failure carries iterations = 0 on both paths,
    and neither path raises floating-point warnings in the set-up."""
    P = np.ascontiguousarray(P, dtype=float)
    lib = bploop.library()
    if callback is None and lib is not None:
        # the block, the fourth result, is freed here
        code, t, Pz = lib.run(scheme, P, z, cfg.epsilon, cfg.max_iters, refresh, _MU_0)[:3]
        if code < 0:
            error = _failure(code)
            error.iterations = t
            raise error
        return BpOutcome(_STATUSES[code], z, Pz, t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            z, Pz, step = start(P, z)
        except EpraKitError as error:
            error.iterations = 0
            raise
    return _drive(P, z, Pz, cfg, callback, step, refresh)


def _drive(P, z, Pz, cfg: BpConfig, callback, step, refresh=_REFRESH) -> BpOutcome:
    """The basic procedure shared by every scheme.

    step(z, Pz, t) advances z and its tracked projection Pz in place by one
    iteration; a true return asks for Pz to be recomputed at once.  Pz is
    also recomputed every `refresh` steps (never when refresh is 0).  Any
    candidate status is re-verified against a freshly computed projection;
    a false alarm caused by tracking drift just corrects the projection and
    lets the run continue.  All but the callback runs with overflow, invalid
    and divide warnings off: the compiled loop raises none.
    """
    eps, max_iters = cfg.epsilon, cfg.max_iters
    t = since_refresh = 0
    while True:
        if callback is not None:
            callback(t, z, Pz)
        # one block per step with a callback, one per run without
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while True:
                if stop_check(Pz, z, eps) is not None:
                    np.matmul(P, z, out=Pz)
                    since_refresh = 0
                    status = stop_check(Pz, z, eps)
                    if status is not None:
                        return BpOutcome(status, z, Pz, t)
                if max_iters and t >= max_iters:
                    np.matmul(P, z, out=Pz)
                    return BpOutcome(stop_check(Pz, z, eps) or ITER_LIMIT, z, Pz, t)
                try:
                    force_refresh = step(z, Pz, t)
                except EpraKitError as error:
                    error.iterations = t
                    raise
                t += 1
                since_refresh += 1
                if force_refresh or since_refresh == refresh:
                    np.matmul(P, z, out=Pz)
                    since_refresh = 0
                if callback is not None:
                    break


def _vertex_move(z, Pz, i: int, theta: float, Pi) -> None:
    """z <- (1 - theta) z + theta e_i and Pz <- (1 - theta) Pz + theta Pi,
    in place, where Pi is column i of P.  A negative theta is the away
    step from e_i."""
    z *= 1.0 - theta
    z[i] += theta
    Pz *= 1.0 - theta
    Pz += Pi * theta


def run_perceptron(P, z0, cfg: BpConfig, callback: Optional[Callable] = None) -> BpOutcome:
    """Perceptron scheme.

    At each step pick the vertex e_i with i minimizing (Pz)_i and set
    z <- (1 - 1/(t+1)) z + (1/(t+1)) e_i.  (Pz)_i <= 0 (or NaN): the stop
    check that ran on the same Pz would otherwise have returned interior.
    """

    def start(P, z):
        def step(z, Pz, t):
            i = int(Pz.argmin())
            _vertex_move(z, Pz, i, 1.0 / (t + 1), P[:, i])

        return z, P @ z, step

    return _run(_PERCEPTRON_ID, P, _check_start(z0), cfg, callback, start)


def run_von_neumann(P, z0, cfg: BpConfig, callback: Optional[Callable] = None) -> BpOutcome:
    """Von Neumann scheme: greedy perceptron with exact line search.

    z <- z + theta (e_i - z) with theta minimizing ||P(z + theta(e_i - z))||^2
    over [0, 1]; the norm ||Pz|| is nonincreasing.  ||P e_i||^2 is computed
    the first time the run picks column i and reused after that.
    """

    def start(P, z):
        # ||P e_i||^2, or -1 until computed (a computed entry is >= 0 or NaN)
        norm2 = np.full(z.size, -1.0)

        def step(z, Pz, t):
            i = int(Pz.argmin())
            Pu = P[:, i]
            if norm2[i] < 0.0:
                norm2[i] = Pu @ Pu
            pu2 = float(norm2[i])
            pz2 = float(Pz @ Pz)
            upz = float(Pz[i])
            denom = pz2 + pu2 - 2.0 * upz
            if denom <= 0.0:
                raise _failure(_LINE_SEARCH)
            theta = (pz2 - upz) / denom
            _vertex_move(z, Pz, i, min(1.0, max(0.0, theta)), Pu)

        return z, P @ z, step

    return _run(_VON_NEUMANN_ID, P, _check_start(z0), cfg, callback, start)


def run_vna(P, z0, cfg: BpConfig, callback: Optional[Callable] = None) -> BpOutcome:
    """Von Neumann scheme with away steps.

    Chooses between the regular direction a = e_i - z (i the min vertex)
    and the away direction a = z - e_j (j maximizing Pz over the support),
    whichever promises the larger decrease; the step length is the exact
    minimizer of ||P(z + theta a)||^2 capped at theta_max.  The away cap is
    z_j / (1 - z_j); when z is the vertex e_j itself the away step cannot
    move, so a regular step is taken instead.
    """

    def start(P, z):
        Pa = np.empty(z.size)  # the direction's projection

        def step(z, Pz, t):
            pz2 = float(Pz @ Pz)
            iu = int(Pz.argmin())
            iv = away_vertex(z, Pz)
            vz = float(z[iv])
            # an away step from a vertex cannot move
            away = not (pz2 - float(Pz[iu]) > float(Pz[iv]) - pz2 or vz >= 1.0)
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
                _vertex_move(z, Pz, iv, -theta, P[:, iv])
                np.maximum(z, 0.0, out=z)  # clip roundoff when the cap binds
            else:
                _vertex_move(z, Pz, iu, theta, P[:, iu])
            # away steps scale the tracked projection by 1 + theta, which can
            # amplify drift, so refresh eagerly after long ones
            return away and theta > 0.5

        return z, P @ z, step

    return _run(_VON_NEUMANN_AWAY_ID, P, _check_start(z0), cfg, callback, start)


def run_smooth(P, u_bar, cfg: BpConfig, callback: Optional[Callable] = None) -> BpOutcome:
    """Smooth perceptron scheme.

    Defined by an auxiliary sequence u_t and smoothing parameter mu_t with
    theta_t = 2/(t+3), mu_{t+1} = (1-theta_t) mu_t and the prox map
    w(mu, v) = argmin_{u in simplex} <u, v> + (mu/2)||u - u_bar||^2:

        u_{t+1} = (1-theta_t)(u_t + theta_t z_t) + theta_t^2 w(mu_t, P u_t)
        z_{t+1} = (1-theta_t) z_t + theta_t w(mu_{t+1}, P u_{t+1})

    The u-update coefficients sum to one, so every iterate stays on the
    simplex.  The run starts from z_0 = w(mu_0, P u_bar), mu_0 = 2.  The
    prox map needs u only through P u, so u itself is never formed: P u
    and P z are tracked through the same recurrences, and the one
    matrix-vector product per iteration is P w.  z and P z are updated in place, so the
    callback sees the live iterate; the Python step forms P u, w and P w
    anew.  Unlike the vertex schemes, P z gets no periodic recomputation.
    """

    def start(P, ub):
        mu = _MU_0
        Pu = P @ ub
        w = simplex_prox(Pu, mu, ub)
        Pw = P @ w

        def step(z, Pz, t):
            nonlocal mu, Pu, w, Pw
            theta = 2.0 / (t + 3)
            Pu = (Pu + Pz * theta) * (1.0 - theta) + Pw * theta**2
            mu = (1.0 - theta) * mu
            w = simplex_prox(Pu, mu, ub)
            Pw = P @ w
            z *= 1.0 - theta
            z += w * theta
            Pz *= 1.0 - theta
            Pz += Pw * theta

        return w.copy(), Pw.copy(), step

    return _run(_SMOOTH_ID, P, _check_start(u_bar), cfg, callback, start, refresh=0)


SCHEMES = {
    PERCEPTRON: run_perceptron,
    VON_NEUMANN: run_von_neumann,
    VON_NEUMANN_AWAY: run_vna,
    SMOOTH_PERCEPTRON: run_smooth,
}


def run_scheme(P, z0, cfg: BpConfig, callback: Optional[Callable] = None) -> BpOutcome:
    """Dispatch to the scheme named by cfg.scheme."""
    return SCHEMES[cfg.scheme](P, z0, cfg, callback=callback)
