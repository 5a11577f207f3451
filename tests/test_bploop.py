"""The compiled basic-procedure loop (bploop) against the Python driver,
and how the compiled library is built, cached and found."""

import os
import subprocess
import sys
import threading
import time
import tomllib
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from epra_kit import basic, blas, bploop
from epra_kit.basic import BpConfig, SCHEMES, run_scheme, uniform_simplex
from epra_kit.exceptions import DegenerateStep, EmptySupport, NoThreshold
from epra_kit.instances import gen_naive
from epra_kit.subspace import projector_from_kernel, rescaled_projectors

SRC = Path(bploop.__file__).resolve().parent.parent


def can_build() -> bool:
    # what `bploop._load` needs before it builds
    return (bploop.compiler() is not None and bploop.headers() is not None
            and blas.symbols() is not None)


CANNOT_BUILD = ("no C compiler, no Python.h, or numpy's OpenBLAS lacks the CBLAS or LAPACK "
                "symbols")
needs_build = pytest.mark.skipif(not can_build(), reason=CANNOT_BUILD)


def outcome(P, z0, cfg):
    """A run's status, step count and the bytes of z and P z, or the type
    and message of the error it raised with the steps completed before it
    (None for an error raised before the loop)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # NaN and overflow
            out = run_scheme(P, z0, cfg)
    except Exception as e:  # noqa: BLE001 - the two paths must fail alike
        return type(e), str(e), getattr(e, "iterations", None)
    return out.status, out.iterations, out.z.tobytes(), out.Pz.tobytes()


def both_paths(P, z0, cfg):
    compiled = outcome(P, z0, cfg)
    with mock.patch.object(bploop, "library", lambda: None):
        python = outcome(P, z0, cfg)
    return compiled, python


@st.composite
def loop_cases(draw):
    """A projector (or a matrix that is not one, with zero, NaN, infinite
    or underflowing entries), a start, epsilon and a cap."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(13, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["projector", "symmetric", "general"]))
    if kind == "projector":
        P = projector_from_kernel(rng.standard_normal((draw(st.integers(0, n - 1)), n))).P
    else:
        P = rng.standard_normal((n, n))
        if kind == "symmetric":
            P = (P + P.T) / 2.0
    holes = draw(st.sampled_from(["none", "zeros", "nan", "inf"]))
    cut = rng.random((n, n))
    if holes != "none":
        P[cut < 0.2] = 0.0
    if holes == "nan":
        P[cut > 0.9] = np.nan
    if holes == "inf":
        P[cut > 0.9] = np.where(cut[cut > 0.9] > 0.95, np.inf, -np.inf)
    P = np.ascontiguousarray(P * draw(st.sampled_from([1.0, 1.0, 1e-200])))
    start = draw(st.sampled_from(["uniform", "random", "vertex", "leaning"]))
    if start == "uniform":
        z0 = uniform_simplex(n)
    elif start == "random":
        z0 = rng.dirichlet(np.ones(n))
    else:
        z0 = np.zeros(n)
        z0[rng.integers(n)] = 1.0
        if start == "leaning" and n > 1:
            z0 = 0.5 * z0 + 0.5 * uniform_simplex(n)
    epsilon = draw(st.one_of(st.sampled_from([1e-300, 1e-12, 0.5, 1.0 - 1e-12]),
                             st.floats(1e-6, 0.999)))
    max_iters = draw(st.sampled_from([0, 1, 127, 128, 129, 1000]))
    # uncapped runs only where the schemes are known to stop
    if max_iters == 0 and not (kind == "projector" and holes == "none" and epsilon >= 0.1):
        max_iters = 1000
    return P, z0, epsilon, max_iters


@needs_build
class TestSameBitsAsPythonDriver:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(loop_cases())
    def test_all_schemes(self, case):
        P, z0, epsilon, max_iters = case
        for scheme in SCHEMES:
            cfg = BpConfig(epsilon=epsilon, max_iters=max_iters, scheme=scheme)
            compiled, python = both_paths(P, z0, cfg)
            assert compiled == python

    # matrices on which each failure of a step happens inside the loop
    TINY = [[0.0, 0.0], [1e-200, 1e-200]]  # ||P e_0||^2 and ||P z||^2 underflow
    EMPTY_SUPPORT = [
        [0.0, -1.1036092659277856e-200, -1.1278871762586363e-200, -5.555192078005338e-201],
        [np.nan, 1.0903023917272097e-200, 1.3755382979701784e-200, np.nan],
        [3.5786889003106335e-201, -4.282382078446079e-201, 5.448321092024565e-202,
         8.847070060285458e-201],
        [2.1309722337233126e-200, 9.128992053017934e-201, -2.8041214429472392e-201,
         3.802507577088776e-202],
    ]
    EMPTY_SUPPORT_START = [0.4748215668065211, 0.34074774151446785, 0.0261542074336222,
                           0.15827648424538873]
    HUGE = [[7e16, -1.2e17, 4e16], [0.0, 5e16, 2e16], [7e16, 0.0, -2e16]]
    # the smooth step's prox argument takes a NaN at the second step, which
    # must end the run there on both paths
    INF_COLUMN = np.random.default_rng(10).standard_normal((10, 10))
    INF_COLUMN[[1, 3], 8] = np.inf

    @pytest.mark.parametrize("scheme, P, z0, error", [
        ("vn", TINY, [0.5, 0.5], DegenerateStep),
        ("vna", TINY, [0.5, 0.5], DegenerateStep),
        ("vna", EMPTY_SUPPORT, EMPTY_SUPPORT_START, EmptySupport),
        ("smooth", HUGE, [1 / 3] * 3, NoThreshold),
        ("smooth", INF_COLUMN, uniform_simplex(10), NoThreshold),
    ])
    def test_failures(self, scheme, P, z0, error):
        cfg = BpConfig(epsilon=1e-300, max_iters=1000, scheme=scheme)
        compiled, python = both_paths(np.array(P), np.array(z0), cfg)
        assert compiled == python
        assert compiled[0] is error
        assert compiled[2] is not None  # failed inside the loop


def seen(P, z0, cfg, probe) -> bool:
    """Whether probe(z, Pz) held at some stop check of the Python driver's
    run: the callback sees the state that the check then reads."""
    hits = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            run_scheme(P, z0, cfg, lambda t, z, Pz: hits.append(bool(probe(z, Pz))))
        except Exception:  # noqa: BLE001 - only the states before the failure count
            pass
    return any(hits)


def signed_zero_minimum(plus: int, minus: int) -> np.ndarray:
    """An 8 x 8 matrix on which the perceptron's first step (theta = 1)
    leaves P z = column 0 of P: 1 everywhere but 0.0 at `plus` and -0.0
    at `minus`, where P z was negative before (its product with 0.0 is
    -0.0, and -0.0 + -0.0 is -0.0)."""
    P = np.ones((8, 8))
    P[0, 1:] = -1.0  # min(P z) at 0 from the uniform start
    P[minus, 1:] = -0.5
    P[plus, 0], P[minus, 0] = 0.0, -0.0
    return P


def near_equal_columns(seed: int) -> np.ndarray:
    """Columns that differ by far less than their size, scaled down: a von
    Neumann step with away steps can then take a huge negative step, and z
    overflows into infinities and NaN."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    P = (np.tile(rng.standard_normal(n)[:, None], (1, n))
         + rng.standard_normal((n, n)) * 10.0 ** -float(rng.integers(3, 12)))
    return P * 10.0 ** -float(rng.integers(0, 140))


@needs_build
class TestScan:
    """The stop check's one-pass scan (min(P z) with its index, max(P z),
    max(z)) and the index the vertex steps take from it, bytewise against
    the Python driver on the cases its exactness rests on."""

    @staticmethod
    def same_bits(P, z0, epsilon=1e-9, max_iters=300):
        for scheme in SCHEMES:
            cfg = BpConfig(epsilon=epsilon, max_iters=max_iters, scheme=scheme)
            compiled, python = both_paths(np.ascontiguousarray(P), np.asarray(z0), cfg)
            assert compiled == python, scheme

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("kind", ["projector", "general"])
    def test_every_lane_remainder(self, n, kind):
        rng = np.random.default_rng(100 + n)
        if kind == "projector":
            P = projector_from_kernel(rng.standard_normal((n // 2, n))).P
        else:
            P = rng.standard_normal((n, n))
        self.same_bits(P, uniform_simplex(n))
        self.same_bits(P, rng.dirichlet(np.ones(n)))

    @pytest.mark.parametrize("kind", ["projector", "symmetric"])
    def test_tied_minima_across_lanes(self, kind):
        # every row of P is repeated at i, i + 5 and i + 10: three lanes
        if kind == "projector":
            Q = projector_from_kernel(np.random.default_rng(7).standard_normal((2, 5))).P
        else:
            R = np.random.default_rng(2).standard_normal((5, 5))
            Q = (R + R.T) / 2.0
        groups = np.tile(np.arange(5), 3)
        P = np.ascontiguousarray(Q[np.ix_(groups, groups)])
        for scheme in SCHEMES:
            cfg = BpConfig(epsilon=1e-9, max_iters=300, scheme=scheme)
            # min(P z) in more than one of the scan's lanes (index mod 4)
            assert seen(P, uniform_simplex(15), cfg,
                        lambda z, Pz: len({i % 4 for i in np.flatnonzero(Pz == Pz.min())}) > 1)
        self.same_bits(P, uniform_simplex(15))

    @pytest.mark.parametrize("plus, minus", [(2, 5), (5, 2), (1, 5), (5, 1)],
                             ids=["+0-lanes-apart", "-0-lanes-apart", "+0-one-lane",
                                  "-0-one-lane"])
    def test_signed_zero_minima(self, plus, minus):
        P = signed_zero_minimum(plus, minus)

        def both_zeros(z, Pz):
            return (Pz.min() == 0.0 == Pz[plus] == Pz[minus]
                    and not np.signbit(Pz[plus]) and np.signbit(Pz[minus]))

        assert seen(P, uniform_simplex(8), BpConfig(max_iters=300, scheme="perceptron"),
                    both_zeros)
        self.same_bits(P, uniform_simplex(8))

    @pytest.mark.parametrize("n", [4, 9])
    def test_infinite_entries(self, n):
        P = projector_from_kernel(np.random.default_rng(n).standard_normal((n // 2, n))).P
        P[n - 1, 1] = np.inf  # P z: +inf
        P[2, 0] = -np.inf  # P z: -inf, and NaN after the perceptron's first step
        cfg = BpConfig(max_iters=300, scheme="perceptron")
        assert seen(P, uniform_simplex(n), cfg,
                    lambda z, Pz: np.isinf(Pz).any() and not np.isnan(Pz).any())
        assert seen(P, uniform_simplex(n), cfg, lambda z, Pz: np.isnan(Pz).any())
        self.same_bits(P, uniform_simplex(n))
        P[2, 3] = np.inf  # P z: inf - inf from the start
        assert seen(P, uniform_simplex(n), cfg, lambda z, Pz: np.isnan(Pz[2]))
        self.same_bits(P, uniform_simplex(n))

    @pytest.mark.parametrize("seed", [4, 1517])
    def test_nan_reaching_z_through_vna(self, seed):
        P = near_equal_columns(seed)
        z0 = uniform_simplex(P.shape[0])
        cfg = BpConfig(epsilon=1e-300, max_iters=300, scheme="vna")
        assert seen(P, z0, cfg, lambda z, Pz: np.isnan(z).any() and not np.isnan(z).all())
        self.same_bits(P, z0, epsilon=1e-300)


def tail_minimum(n: int, low=(), plus=None, minus=None) -> np.ndarray:
    """An n x n matrix on which the perceptron's first step (theta = 1)
    leaves P z = column 0 of P: 1 everywhere but -1 at the indices `low`,
    0.0 at `plus` and -0.0 at `minus` (as in signed_zero_minimum)."""
    P = np.ones((n, n))
    P[0, 1:] = -1.0  # min(P z) at 0 from the uniform start
    P[list(low), 0] = -1.0
    if minus is not None:
        P[minus, 1:] = -0.5
        P[minus, 0] = -0.0
    if plus is not None:
        P[plus, 0] = 0.0
    return P


@needs_build
class TestScanTail:
    """The 2-wide scan leaves n % 4 entries to a scalar tail; a minimum
    there, tied or a signed zero, must give NumPy's first index."""

    @pytest.mark.parametrize("n", range(4, 10))
    @pytest.mark.parametrize("case", ["last", "tied in tail", "tied across", "+0 then -0",
                                      "-0 then +0", "zero in block and tail"])
    def test_minimum_in_the_tail(self, n, case):
        tail = list(range(4 * (n // 4), n)) or [n - 1]  # no tail at n = 4, 8: the last block
        last = tail[-1]
        first = tail[0] if len(tail) > 1 else last - 1
        P = {
            "last": lambda: tail_minimum(n, low=[last]),
            "tied in tail": lambda: tail_minimum(n, low=[first, last]),
            "tied across": lambda: tail_minimum(n, low=[1, last]),
            "+0 then -0": lambda: tail_minimum(n, plus=first, minus=last),
            "-0 then +0": lambda: tail_minimum(n, plus=last, minus=first),
            "zero in block and tail": lambda: tail_minimum(n, plus=1, minus=last),
        }[case]()
        minimum = -1.0 if case in ("last", "tied in tail", "tied across") else 0.0

        def at_tail(z, Pz):
            hits = np.flatnonzero(Pz == Pz.min())
            return Pz.min() == minimum and last in hits and len(hits) == (case != "last") + 1

        assert seen(P, uniform_simplex(n), BpConfig(max_iters=300, scheme="perceptron"),
                    at_tail)
        TestScan.same_bits(P, uniform_simplex(n))


@pytest.fixture(scope="module")
def no_sse2_cache(tmp_path_factory):
    """One cache directory for the build without SSE2, so that the tests
    below compile it once."""
    return tmp_path_factory.mktemp("no-sse2")


@pytest.fixture
def without_sse2(monkeypatch, no_sse2_cache):
    """The library built with __SSE2__ undefined, loaded in place of the
    default one: every stop check then takes the scalar argmin and argmax."""
    default = Path(bploop.library().__file__).name
    monkeypatch.setattr(bploop, "FLAGS", (*bploop.FLAGS, "-U__SSE2__"))
    monkeypatch.setattr(bploop, "CACHE_DIR", str(no_sse2_cache))
    monkeypatch.setattr(bploop, "_loaded", None)
    built = Path(bploop.library().__file__)
    assert built.parent == no_sse2_cache and built.name != default


@needs_build
@pytest.mark.usefixtures("without_sse2")
class TestScanWithoutSSE2(TestScan):
    """TestScan's cases, bytewise against the Python driver, on the build
    without SSE2."""


@needs_build
@pytest.mark.usefixtures("without_sse2")
class TestScanTailWithoutSSE2(TestScanTail):
    """TestScanTail's cases on the build without SSE2."""


def away_step(z, Pz) -> bool:
    """Whether the vna step from (z, P z) moves away from its away vertex,
    so that the vertex's index decides the step."""
    pz2, iu, iv = float(Pz @ Pz), int(Pz.argmin()), basic.away_vertex(z, Pz)
    return not (pz2 - Pz[iu] > Pz[iv] - pz2 or z[iv] >= 1.0)


def away_ties(z, Pz):
    """The away vertex and the indices whose P z equals its P z, on the
    support of z and off it, for a finite P z and a nonempty support."""
    iv = basic.away_vertex(z, Pz)
    on, tied = z > 0.0, Pz == Pz[iv]
    return iv, np.flatnonzero(on & tied), np.flatnonzero(~on & tied)


def dyadic(n: int, seed: int, zero: float = 0.0):
    """P with entries in {-2, ..., 2} / 256 and a start of weights 0, 1 or
    2 over their sum, its zeros written as `zero`: P z ties often."""
    rng = np.random.default_rng(seed)
    P = rng.integers(-2, 3, (n, n)) * 2.0 ** -8
    z0 = rng.integers(0, 3, n).astype(float)
    z0 /= z0.sum()
    z0[z0 == 0.0] = zero
    return P, z0


def signed_zero_support(n: int, plus: int, minus: int):
    """P and the start e_0 on which the vna run's third check sees the
    support {plus, minus} with P z 0.0 at plus and -0.0 at minus, and P z
    positive off it.  The first step goes to e_plus with theta = 1, which
    leaves -0.0 at minus (-1/64 * 0.0 + -0.0); the second goes halfway to
    e_minus, which cancels P z at plus exactly (1/32 - 1/32 = 0.0) and
    keeps -0.0 at minus.  Every entry is dyadic, so every sum is exact."""
    P = np.zeros((n, n))
    P[0, 0], P[plus, 0], P[minus, 0] = 9 / 16, -1 / 8, -1 / 64
    P[:, plus] = 1 / 16
    P[minus, plus] = -0.0
    P[:, minus] = 1 / 16
    P[plus, minus], P[minus, minus] = -1 / 16, -0.0
    others = [j for j in range(n) if j not in (0, plus, minus)]
    P[others[:4], minus] += [3 / 8, 1 / 4, 1 / 8, 1 / 8]  # ||P e_minus - P z||^2 = 1/4
    z0 = np.zeros(n)
    z0[0] = 1.0
    return P, z0


def nan_row(row: int, n: int = 11) -> np.ndarray:
    """A projector with one NaN in the row `row`: P z is NaN there."""
    P = projector_from_kernel(np.random.default_rng(3).standard_normal((5, n))).P
    P[row, 2] = np.nan
    return P


@needs_build
class TestAwayVertex:
    """The away step's vertex (argmax of P z over the support of z, ties to
    the lowest index), bytewise against the Python driver's vna run on the
    cases the two SSE2 passes rest on.  Each case's guard checks that it
    occurs at a check the run steps on."""

    @staticmethod
    def same_bits(P, z0, max_iters=300):
        cfg = BpConfig(epsilon=1e-9, max_iters=max_iters, scheme="vna")
        compiled, python = both_paths(np.ascontiguousarray(P), np.asarray(z0), cfg)
        assert compiled == python

    @staticmethod
    def seen(P, z0, probe):
        """Whether probe(z, P z) held at a check that the vna run steps on."""
        cfg = BpConfig(epsilon=1e-9, max_iters=300, scheme="vna")
        return seen(P, z0, cfg, lambda z, Pz: basic.stop_check(Pz, z, 1e-9) is None
                    and probe(z, Pz))

    # with one or two entries no tie decides a step: two tied entries on
    # the support make min(P z) = max(P z) <= 0, and an away step would
    # need max(P z) >= 2 ||P z||^2, so P z = 0, where the check stops
    TIED = {3: 69, 4: 93, 5: 9, 6: 11, 7: 45, 8: 2, 9: 303, 10: 189, 11: 234, 12: 21, 13: 132,
            14: 939, 15: 5, 16: 169, 17: 40}

    @pytest.mark.parametrize("n", range(1, 18))
    def test_maximum_tied_across_lanes_and_in_the_tail(self, n):
        if n in self.TIED:
            P, z0 = dyadic(n, self.TIED[n])

            def tied(z, Pz):
                if np.isnan(Pz).any() or not (z > 0.0).any():
                    return False
                hits = away_ties(z, Pz)[1]
                # tied in two lanes (index mod 4), the last in the final block
                spread = n < 8 or (len({i % 4 for i in hits}) > 1
                                   and hits[-1] >= 4 * ((n - 1) // 4))
                return len(hits) > 1 and spread and away_step(z, Pz)

            assert self.seen(P, z0, tied)
        else:
            P, z0 = dyadic(n, 4)
        self.same_bits(P, z0)

    # the away vertex in the scalar tail, with an equal P z off the support
    # before it, in a whole block
    MASKED = {9: 613, 10: 510, 11: 26, 13: 69, 14: 88, 15: 217, 17: 89}

    @pytest.mark.parametrize("n", sorted(MASKED))
    def test_equal_values_off_the_support_are_passed_over(self, n):
        P, z0 = dyadic(n, self.MASKED[n])

        def masked(z, Pz):
            if np.isnan(Pz).any() or not (z > 0.0).any():
                return False
            iv, _, off = away_ties(z, Pz)
            return iv >= 4 * (n // 4) and off.size and off[0] < iv and away_step(z, Pz)

        assert self.seen(P, z0, masked)
        self.same_bits(P, z0)

    @pytest.mark.parametrize("plus, minus", [(2, 5), (5, 2), (2, 8), (8, 2)],
                             ids=["+0-first", "-0-first", "-0-in-tail", "+0-in-tail"])
    def test_signed_zero_maxima(self, plus, minus):
        # the index of a zero maximum decides no step (an away step would
        # need min(P z) >= 2 ||P z||^2, so P z = 0, where the check stops),
        # but the passes must take it
        P, z0 = signed_zero_support(9, plus, minus)

        def both_zeros(z, Pz):
            iv, hits, _ = away_ties(z, Pz)
            return (Pz[iv] == 0.0 and list(hits) == sorted((plus, minus))
                    and list(np.signbit(Pz[hits])) == [hits[0] == minus, hits[0] == plus])

        assert self.seen(P, z0, both_zeros)
        self.same_bits(P, z0)

    def test_nan_on_and_off_the_support(self):
        # P z is NaN at 1 from the uniform start, in the first block, where
        # maxpd of a later block would drop it; the first away step empties
        # z there and leaves the NaN off the support.  Each step then empties
        # z at its away vertex until the support is empty, and a failed run
        # compares only its step count, so z is compared after five steps.
        P, z0 = nan_row(1), uniform_simplex(11)
        assert self.seen(P, z0, lambda z, Pz: np.isnan(Pz[z > 0.0]).any() and away_step(z, Pz))
        assert self.seen(P, z0, lambda z, Pz: (np.isnan(Pz).any() and (z > 0.0).any()
                                               and not np.isnan(Pz[z > 0.0]).any()
                                               and away_step(z, Pz)))
        self.same_bits(P, z0, max_iters=5)

    def test_empty_support(self):
        # away steps from the largest P z empty the support one index at a
        # time, the last from a z that rounds to 1 without being 1
        P = nan_row(6)
        z0 = uniform_simplex(11)
        z0[6] = 0.0
        z0 /= z0.sum()
        assert self.seen(P, z0, lambda z, Pz: not (z > 0.0).any())
        self.same_bits(P, z0)

    def test_minus_infinity_on_the_support(self):
        P = projector_from_kernel(np.random.default_rng(3).standard_normal((5, 11))).P
        beside = P.copy()
        beside[4, 9] = -np.inf  # P z is -inf at 4 while z > 0 at 9
        assert self.seen(beside, uniform_simplex(11), lambda z, Pz: (
            z[4] > 0.0 and Pz[4] == -np.inf and np.isfinite(Pz[z > 0.0]).any()
            and not np.isnan(Pz).any()))
        self.same_bits(beside, uniform_simplex(11))
        alone = P.copy()
        alone[9, 9] = -np.inf  # from e_9, the whole support's P z is -inf
        z0 = np.zeros(11)
        z0[9] = 1.0
        assert self.seen(alone, z0, lambda z, Pz: (
            np.flatnonzero(z > 0.0).tolist() == [9] and Pz[9] == -np.inf))
        self.same_bits(alone, z0)

    @pytest.mark.parametrize("n, seed", [(9, 2), (13, 12)])
    def test_negative_zeros_in_z_are_off_the_support(self, n, seed):
        P, z0 = dyadic(n, seed, zero=-0.0)

        def above_the_support(z, Pz):
            if np.isnan(Pz).any() or not (z > 0.0).any():
                return False
            minus = (z == 0.0) & np.signbit(z)
            return (minus.any() and Pz[minus].max() > Pz[z > 0.0].max()
                    and away_step(z, Pz))

        assert self.seen(P, z0, above_the_support)
        self.same_bits(P, z0)

    @pytest.mark.parametrize("n", [8, 11])
    def test_support_of_one_index(self, n):
        P = projector_from_kernel(np.random.default_rng(n).standard_normal((n // 2, n))).P
        z0 = np.zeros(n)
        z0[n - 2] = 1.0
        assert self.seen(P, z0, lambda z, Pz: np.count_nonzero(z > 0.0) == 1)
        self.same_bits(P, z0)


@needs_build
@pytest.mark.usefixtures("without_sse2")
class TestAwayVertexWithoutSSE2(TestAwayVertex):
    """TestAwayVertex's cases on the build without SSE2."""


def lane_order_sum(Pz) -> float:
    """The positive part of P z summed in the stop check scan's order:
    four lanes (index mod 4) over the whole blocks of four, lanes 0 + 2
    and 1 + 3, their sum, then the tail in order."""
    v = [max(float(x), 0.0) for x in Pz]
    whole = 4 * (len(v) // 4)
    lanes = v[:4]
    for i in range(4, whole, 4):
        lanes = [lanes[j] + v[i + j] for j in range(4)]
    total = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
    for x in v[whole:]:
        total += x
    return total


def near_bound(n: int, lane_above: bool):
    """n entries, one negative, whose positive part the scan's order sums
    two ulps or more above (or below) NumPy's pairwise sum, and that sum:
    a bound can then lie strictly between the two."""
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        v = rng.random(n) * 10.0 ** rng.uniform(-3.0, 0.0, n) * 2.0 ** -8
        v[rng.integers(n)] = -2.0 ** -10
        pairwise = float(np.maximum(v, 0.0).sum())
        ulps = (lane_order_sum(v) - pairwise) / np.spacing(pairwise)
        if (ulps >= 2.0) if lane_above else (ulps <= -2.0):
            return v, pairwise
    raise AssertionError("no such vector")


def first_check_sees(v):
    """P whose column 0 is v, so that the first check of a vertex scheme's
    run from e_0 reads P z = v exactly, and that start."""
    P = np.random.default_rng(len(v)).standard_normal((len(v), len(v))) * 2.0 ** -8
    P[:, 0] = v
    z0 = np.zeros(len(v))
    z0[0] = 1.0
    return P, z0


@needs_build
class TestRescaleBand:
    """The stop check sums the positive part of P z in NumPy's pairwise
    order only when its lane-order sum lies near the bound epsilon max(z):
    bytewise against the Python driver where the two orders round to
    different sides of it."""

    @pytest.mark.parametrize("n", [9, 16, 130])
    @pytest.mark.parametrize("lane_above", [True, False], ids=["lane-above", "lane-below"])
    def test_sum_within_ulps_of_the_bound(self, n, lane_above):
        v, pairwise = near_bound(n, lane_above)
        P, z0 = first_check_sees(v)
        bounds = [pairwise]
        for _ in range(2):
            bounds = [np.nextafter(bounds[0], 0.0), *bounds, np.nextafter(bounds[-1], 1.0)]
        split = []
        for bound in bounds:
            cfg = BpConfig(epsilon=bound, max_iters=50, scheme="perceptron")
            split.append(seen(P, z0, cfg, lambda z, Pz: (
                Pz.max() <= bound and np.array_equal(Pz, v)
                and (lane_order_sum(Pz) <= bound) != (np.maximum(Pz, 0.0).sum() <= bound))))
            TestScan.same_bits(P, z0, epsilon=bound, max_iters=50)
        assert any(split)

    @pytest.mark.parametrize("units", [24, 25, 26])
    def test_subnormal_bound(self, units):
        tiny = 2.0 ** -1074
        v = np.array([-1.0, 3.0, 5.0, 7.0, 2.0, 1.0, 4.0, 2.0, 1.0]) * tiny  # 25 in all
        P, z0 = first_check_sees(v)
        bound = units * tiny
        cfg = BpConfig(epsilon=bound, max_iters=50, scheme="perceptron")
        assert seen(P, z0, cfg, lambda z, Pz: (
            np.array_equal(Pz, v) and bound < np.finfo(float).tiny and Pz.max() <= bound))
        TestScan.same_bits(P, z0, epsilon=bound, max_iters=50)


def record(scheme: str, P, z0, max_iters=300, epsilon=1e-9):
    """The compiled run's block row 0 after the run: for each index, 0 if
    the run never took its column, 1 if it read row i for it, -1 if it
    read the column."""
    ids = {"perceptron": 0, "vn": 1, "vna": 2}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        block = bploop.library().run(ids[scheme], P, z0, epsilon, max_iters, 128, 2.0)[4]
    return block[0]


def mirrored_pair(kind: str, k: int, m: int, n: int = 12) -> np.ndarray:
    """A bitwise symmetric projector whose entries (k, m) and (m, k) then
    differ in their bits only: +0.0 and -0.0, two NaN payloads or one ulp;
    or, for "same nan", one NaN in both."""
    P = projector_from_kernel(np.random.default_rng(22).standard_normal((8, n))).P
    assert np.array_equal(P.view(np.uint64), P.T.view(np.uint64))
    nan = np.array([np.nan, np.nan]).view(np.uint64)
    if kind == "signed zero":
        P[k, m], P[m, k] = 0.0, -0.0
    elif kind == "ulp":
        P[k, m] = np.nextafter(P[m, k], np.inf)
    else:
        if kind == "nan payloads":
            nan[1] ^= 1  # a quiet NaN with another payload
        P[k, m], P[m, k] = nan.view(np.float64)
    return P


@needs_build
class TestRowReads:
    """A vertex step reads column i of P from row i when the two hold the
    same bits, and the strided column otherwise."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scheme", ["perceptron", "vn", "vna"])
    def test_rescaled_projectors_are_read_by_rows(self, seed, scheme):
        inst = gen_naive(30, 60, seed)
        pair = rescaled_projectors(inst.A, np.ones(60), np.linspace(1.0, 3.0, 60))
        P = pair.P if scheme != "vna" else pair.P_hat
        visited = record(scheme, P, uniform_simplex(60))
        assert set(visited) <= {0.0, 1.0} and (visited == 1.0).sum() > 1

    # (k, m): k is a vertex each run takes, the first one when P z holds NaN
    @pytest.mark.parametrize("k, m", [(0, 4), (3, 7)])
    @pytest.mark.parametrize("kind", ["signed zero", "nan payloads", "ulp", "same nan"])
    @pytest.mark.parametrize("scheme", ["perceptron", "vn", "vna"])
    def test_one_mirrored_pair_that_differs(self, k, m, kind, scheme):
        n = 12
        z0 = uniform_simplex(n)
        P = mirrored_pair(kind, k, m, n)
        visited = record(scheme, P, z0)
        assert visited[k] == (1.0 if kind == "same nan" else -1.0)
        if kind in ("signed zero", "ulp"):
            others = np.delete(np.arange(n), [k, m])
            assert set(visited[others]) <= {0.0, 1.0} and (visited[others] == 1.0).any()
        compiled, python = both_paths(P, z0, BpConfig(epsilon=1e-9, max_iters=300,
                                                      scheme=scheme))
        assert compiled == python

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.sampled_from(["perceptron", "vn",
                                                                            "vna"]))
    def test_each_index_by_its_own_bits(self, n, seed, scheme):
        # a symmetric matrix with some mirrored pairs a few ulps apart
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((n, n))
        P = (R + R.T) / 2.0
        i, j = rng.integers(n, size=(2, n // 3))
        P[i, j] = np.nextafter(P[i, j], np.inf)
        z0 = rng.dirichlet(np.ones(n))
        visited = record(scheme, P, z0)
        for t in np.flatnonzero(visited):
            same = np.array_equal(P[t].view(np.uint64), P[:, t].view(np.uint64))
            assert visited[t] == (1.0 if same else -1.0)
        compiled, python = both_paths(P, z0, BpConfig(epsilon=1e-9, max_iters=300,
                                                      scheme=scheme))
        assert compiled == python


def prox_orders(P, z0, max_iters):
    """The decreasing orders of the smooth perceptron's prox arguments on
    the Python driver, and whether any of them held an infinity."""
    orders, infinite = [], []
    prox = basic.simplex_prox

    def recorded(v, mu, u_bar):
        y = np.asarray(u_bar) - np.asarray(v) / mu
        orders.append(np.argsort(-y, kind="stable"))
        infinite.append(bool(np.isinf(y).any()))
        return prox(v, mu, u_bar)

    with mock.patch.object(basic, "simplex_prox", recorded), \
            mock.patch.object(bploop, "library", lambda: None):
        outcome(P, z0, BpConfig(epsilon=1e-300, max_iters=max_iters, scheme="smooth"))
    return orders, infinite


@needs_build
class TestWarmSort:
    """The smooth prox sorts its argument starting from the last prox's
    order; the sorted values, and so every bit, must not depend on it."""

    @pytest.mark.parametrize("n", [15, 16, 17, 33, 64, 100, 257])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_order_that_churns(self, n, seed):
        # z'P z = 0 on a skew-symmetric P: no interior point ends the run
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((n, n))
        P = (R - R.T) * 1e3
        z0 = rng.dirichlet(np.ones(n))
        orders, _ = prox_orders(P, z0, 60)
        changed = sum(not np.array_equal(a, b) for a, b in zip(orders, orders[1:]))
        assert changed > len(orders) // 2
        TestScan.same_bits(P, z0, epsilon=1e-300, max_iters=60)

    def test_order_that_settles(self):
        # the last steps start from their sorted order: one pass, no move
        P = projector_from_kernel(np.random.default_rng(17).standard_normal((8, 17))).P
        orders, _ = prox_orders(P, uniform_simplex(17), 400)
        assert len(orders) == 401 and all(np.array_equal(a, orders[-1]) for a in orders[-50:])
        TestScan.same_bits(P, uniform_simplex(17), epsilon=1e-300, max_iters=400)

    @pytest.mark.parametrize("scale", [1e305, 1e307])
    @pytest.mark.parametrize("n", [5, 17, 40])
    def test_infinite_prox_arguments(self, scale, n):
        # P u at index 1 is huge and positive, and once mu is small enough
        # u_bar - P u / mu there is -inf, at every step after that
        R = np.random.default_rng(n).standard_normal((n, n))
        P = R - R.T
        P[1] = np.abs(P[1]) * scale
        orders, infinite = prox_orders(P, uniform_simplex(n), 300)
        assert len(orders) == 301 and sum(infinite) > 100 and infinite[-1]
        compiled, python = both_paths(P, uniform_simplex(n),
                                      BpConfig(epsilon=1e-300, max_iters=300, scheme="smooth"))
        assert compiled == python


@needs_build
@pytest.mark.usefixtures("without_sse2")
class TestWarmSortWithoutSSE2(TestWarmSort):
    """TestWarmSort's cases on the build without SSE2."""


@needs_build
class TestRun:
    """The module's run allocates z, P z and the scheme's block itself; it
    rejects a scheme number outside 0 to 3, an empty or 2-D start and a P
    of another shape before it runs, and converts any other start or P."""

    P = projector_from_kernel(np.random.default_rng(19).standard_normal((6, 15))).P
    IDS = {"perceptron": 0, "vn": 1, "vna": 2, "smooth": 3}

    @pytest.mark.parametrize("scheme", [7, 4, -1])
    def test_scheme_outside_the_table_raises_before_the_run(self, scheme):
        z = uniform_simplex(15)
        with pytest.raises(ValueError, match=f"no scheme number {scheme}"):
            bploop.library().run(scheme, self.P, z, 1e-9, 300, 128, 2.0)
        assert z.tobytes() == uniform_simplex(15).tobytes()

    def test_converts_any_start_and_rejects_other_shapes(self):
        run, z = bploop.library().run, uniform_simplex(15)
        args = (1e-9, 300, 128, 2.0)
        read_only = uniform_simplex(15)
        read_only.flags.writeable = False
        want = run(0, self.P, z, *args)
        for other in (read_only, np.repeat(z, 2)[::2], z.tolist(), z.astype(">f8")):
            got = run(0, self.P, other, *args)
            assert got[:2] == want[:2] and got[2].tobytes() == want[2].tobytes()
            assert got[2] is not other and got[2].flags.writeable
        for bad_P, bad_z in ((self.P[:14, :14], z), (self.P[:0, :0], np.zeros(0))):
            with pytest.raises(ValueError, match=r"run needs z0 of n >= 1 entries and P"):
                run(0, bad_P, bad_z, *args)
        with pytest.raises(ValueError, match="P must have 2 dimensions"):
            run(0, self.P.reshape(-1), z, *args)
        with pytest.raises(ValueError, match="z0 must have 1 dimensions"):
            run(0, self.P, z[None], *args)
        assert z.tobytes() == uniform_simplex(15).tobytes()

    def test_cap_beyond_int64_is_no_cap(self):
        cfg = BpConfig(epsilon=0.5, max_iters=0)
        want = outcome(self.P, uniform_simplex(15), cfg)
        assert outcome(self.P, uniform_simplex(15), BpConfig(epsilon=0.5, max_iters=2**70)) == want

    @pytest.mark.parametrize("scheme, rows", [("perceptron", 1), ("vn", 2), ("vna", 2),
                                              ("smooth", 6)])
    def test_each_scheme_returns_its_own_block(self, scheme, rows):
        z0 = uniform_simplex(15)
        code, t, z, Pz, block = bploop.library().run(self.IDS[scheme], self.P, z0, 1e-9, 300,
                                                     128, 2.0)
        assert block.shape == (rows, 15) and z.shape == Pz.shape == (15,)
        assert z.base is None and Pz.base is None and block.base is None
        assert not np.shares_memory(z, z0) and z0.tobytes() == uniform_simplex(15).tobytes()


def layouts(P):
    """P in every layout and dtype a caller may hand a run: Fortran order,
    a strided view, float32, big-endian, unaligned and a nested list."""
    strided = np.zeros((P.shape[0], 2 * P.shape[1]))
    strided[:, ::2] = P
    unaligned = np.zeros(P.nbytes + 1, dtype=np.uint8)[1:].view(np.float64).reshape(P.shape)
    unaligned[...] = P
    return {"F-ordered": np.asfortranarray(P), "strided": strided[:, ::2],
            "float32": P.astype(np.float32), "byte-swapped": P.astype(">f8"),
            "unaligned": unaligned, "list": P.tolist()}


class TestLayouts:
    """A run on P in any layout or dtype has the bytes of the run on
    np.ascontiguousarray(P, dtype=float), compiled, without the library
    and with a callback."""

    P = projector_from_kernel(np.random.default_rng(41).standard_normal((40, 90))).P

    @pytest.mark.parametrize("route", ["compiled", "python", "callback"])
    @pytest.mark.parametrize("layout", ["F-ordered", "strided", "float32", "byte-swapped",
                                        "unaligned", "list"])
    def test_runs_as_its_contiguous_float64_copy(self, layout, route, monkeypatch):
        if route == "compiled" and not can_build():
            pytest.skip(CANNOT_BUILD)
        if route == "python":
            monkeypatch.setattr(bploop, "library", lambda: None)
        callback = (lambda *_: None) if route == "callback" else None
        P = layouts(self.P)[layout]
        want = np.ascontiguousarray(P, dtype=float)
        for scheme in SCHEMES:
            cfg = BpConfig(epsilon=1e-3, max_iters=500, scheme=scheme)
            got, ref = (run_scheme(p, uniform_simplex(90), cfg, callback) for p in (P, want))
            assert (got.status, got.iterations, got.z.tobytes(), got.Pz.tobytes()) == (
                ref.status, ref.iterations, ref.z.tobytes(), ref.Pz.tobytes()), scheme


@needs_build
def test_threads_without_callback_match_sequential_runs():
    jobs = [(projector_from_kernel(np.random.default_rng(s).standard_normal((15, 30))).P, 30)
            for s in (301, 302)]
    cfgs = [BpConfig(epsilon=1e-9, max_iters=400, scheme=s) for s in SCHEMES]
    expected = [[outcome(P, uniform_simplex(n), cfg) for cfg in cfgs] for P, n in jobs]
    got = [[], []]

    def work(k):
        P, n = jobs[k]
        for _ in range(5):
            got[k].extend(outcome(P, uniform_simplex(n), cfg) for cfg in cfgs)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    assert not any(th.is_alive() for th in threads)
    for k in range(2):
        assert got[k] == expected[k] * 5


def warned(P, z0, cfg, callback=None):
    """outcome(P, z0, cfg), and the warnings the run raised, recorded
    instead of silenced."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = run_scheme(P, z0, cfg, callback)
        except Exception as e:  # noqa: BLE001 - the two paths must fail alike
            result = type(e), str(e), getattr(e, "iterations", None)
        else:
            result = out.status, out.iterations, out.z.tobytes(), out.Pz.tobytes()
    return result, [(w.category, str(w.message)) for w in caught]


# entries near the largest double: the steps overflow and then subtract
# infinities
with np.errstate(over="ignore"):
    LOUD = np.random.default_rng(0).standard_normal((6, 6)) * 1e308


def loud_cfg(scheme):
    return BpConfig(max_iters=50, scheme=scheme)


@pytest.fixture(scope="module")
def compiled_loud():
    """Each scheme's compiled run on LOUD, taken before a test's
    python_driver fixture patches the library away."""
    return {s: warned(LOUD, uniform_simplex(6), loud_cfg(s)) for s in SCHEMES}


@needs_build
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
class TestWarningsAlike:
    def test_with_a_callback(self, compiled_loud, scheme):
        got = warned(LOUD, uniform_simplex(6), loud_cfg(scheme), callback=lambda *_: None)
        assert got == compiled_loud[scheme]

    def test_without_the_library(self, compiled_loud, python_driver, scheme):
        assert warned(LOUD, uniform_simplex(6), loud_cfg(scheme)) == compiled_loud[scheme]

    def test_the_callback_keeps_its_own_warnings(self, scheme):
        def callback(t, z, Pz):
            np.float64(1e308) * 10.0

        P = projector_from_kernel(np.random.default_rng(5).standard_normal((4, 9))).P
        (status, iterations, *_), caught = warned(P, uniform_simplex(9), loud_cfg(scheme),
                                                  callback)
        assert caught == [(RuntimeWarning, "overflow encountered in scalar multiply")] * (
            iterations + 1)


def setup_failure(kind: str) -> np.ndarray:
    """A 6 x 6 matrix whose P u_bar, at the uniform u_bar, holds a NaN, a
    -inf (+inf in the prox argument) or both infinities (whose sum in the
    simplex projection's cumulative sum is NaN)."""
    P = projector_from_kernel(np.random.default_rng(12).standard_normal((2, 6))).P
    if kind == "nan":
        P[2, 4] = np.nan
    else:
        P[2, 3] = -np.inf
    if kind == "both":
        P[4, 1] = np.inf
    return P


@needs_build
class TestSetUp:
    """Each scheme's set-up (P z, and for the smooth perceptron P u_bar,
    the first prox point and P w), done inside the compiled loop."""

    @pytest.mark.parametrize("kind", ["nan", "-inf", "both"])
    def test_failures_carry_no_steps_and_no_warnings(self, kind, monkeypatch):
        P, z0, cfg = setup_failure(kind), uniform_simplex(6), loud_cfg("smooth")
        compiled = warned(P, z0, cfg)
        with_callback = warned(P, z0, cfg, callback=lambda *_: None)
        monkeypatch.setattr(bploop, "library", lambda: None)
        python = warned(P, z0, cfg)
        assert compiled == with_callback == python
        assert compiled == ((NoThreshold, "no component exceeds its simplex threshold", 0), [])

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(loop_cases())
    def test_smooth_runs_alike_with_their_warnings(self, case):
        # NaN and infinite holes in P reach P u_bar, where the set-up fails
        P, z0, epsilon, max_iters = case
        cfg = BpConfig(epsilon=epsilon, max_iters=max_iters, scheme="smooth")
        compiled = warned(P, z0, cfg)
        with mock.patch.object(bploop, "library", lambda: None):
            assert warned(P, z0, cfg) == compiled
        assert compiled[1] == []

    def test_compiled_run_calls_no_simplex_projection(self, monkeypatch):
        P = projector_from_kernel(np.random.default_rng(13).standard_normal((8, 20))).P
        cfg = BpConfig(epsilon=1e-9, max_iters=300)
        expected = outcome(P, uniform_simplex(20), cfg)

        def python_projection(*args):
            raise AssertionError("a NumPy simplex projection ran")

        monkeypatch.setattr(basic, "project_simplex", python_projection)
        monkeypatch.setattr(basic, "simplex_prox", python_projection)
        assert outcome(P, uniform_simplex(20), cfg) == expected
        with pytest.raises(AssertionError, match="simplex projection"):
            run_scheme(P, uniform_simplex(20), cfg, callback=lambda *_: None)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_outcome_owns_its_vectors(self, scheme):
        # a view of the run's state block would keep the block alive for
        # as long as the caller keeps the outcome
        P = projector_from_kernel(np.random.default_rng(14).standard_normal((5, 12))).P
        out = run_scheme(P, uniform_simplex(12), BpConfig(max_iters=50, scheme=scheme))
        assert out.z.base is None and out.Pz.base is None


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """A library loaded anew in this process, cached under tmp_path."""
    monkeypatch.setattr(bploop, "CACHE_DIR", str(tmp_path / "__pycache__"))
    monkeypatch.setattr(bploop, "_loaded", None)
    return tmp_path / "__pycache__"


class TestLoading:
    def test_loads_wherever_it_can_be_built(self):
        # a silent fall back to the Python driver must fail here, not skip
        if not can_build():
            pytest.skip(CANNOT_BUILD)
        assert bploop.library() is not None
        assert bploop.library().run(0, np.eye(3), uniform_simplex(3), 0.5, 10, 128, 2.0)[0] == 1

    @needs_build
    def test_only_runs_with_a_callback_use_the_python_driver(self, monkeypatch):
        def python_driver(*args, **kwargs):
            raise AssertionError("the Python driver ran")

        monkeypatch.setattr(basic, "_drive", python_driver)
        P = projector_from_kernel(np.random.default_rng(5).standard_normal((4, 9))).P
        for scheme in SCHEMES:
            run_scheme(P, uniform_simplex(9), BpConfig(scheme=scheme))
        for other in layouts(P).values():
            run_scheme(other, uniform_simplex(9), BpConfig())
        with pytest.raises(AssertionError, match="Python driver"):
            run_scheme(P, uniform_simplex(9), BpConfig(), callback=lambda *_: None)

    @pytest.mark.parametrize("missing", ["compiler", "headers", "symbols"])
    def test_without_compiler_or_symbols_the_python_driver_runs(self, fresh, monkeypatch,
                                                                missing):
        owner = blas if missing == "symbols" else bploop
        monkeypatch.setattr(owner, missing, lambda: None)
        assert bploop.library() is None
        out = run_scheme(np.eye(3), uniform_simplex(3), BpConfig())
        assert out.status == basic.INTERIOR_FOUND
        assert not fresh.exists()

    @needs_build
    def test_second_process_reuses_the_build(self, fresh):
        path = Path(bploop.library().__file__)
        assert path.parent == fresh
        before = path.stat()
        # the compiler's own permissions, so other users can load it too
        umask = os.umask(0)
        os.umask(umask)
        assert before.st_mode & 0o777 == 0o777 & ~umask
        child = (f"from epra_kit import bploop; bploop.CACHE_DIR = {str(fresh)!r}; "
                 "print(bploop.library().__file__)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                             capture_output=True, text=True).stdout.strip()
        assert out == str(path)
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert os.listdir(fresh) == [path.name]  # no temporary left behind

    @needs_build
    def test_changed_source_is_rebuilt(self, fresh, monkeypatch, tmp_path):
        first = Path(bploop.library().__file__)
        changed = tmp_path / "bploop.c"
        changed.write_text(Path(bploop.SOURCE).read_text() + "\n/* changed */\n")
        monkeypatch.setattr(bploop, "SOURCE", str(changed))
        monkeypatch.setattr(bploop, "_loaded", None)
        second = Path(bploop.library().__file__)
        assert second != first
        assert sorted(os.listdir(fresh)) == sorted([first.name, second.name])
        P = projector_from_kernel(np.random.default_rng(6).standard_normal((5, 12))).P
        cfg = BpConfig(epsilon=1e-9, max_iters=300)
        compiled, python = both_paths(P, uniform_simplex(12), cfg)
        assert compiled == python

    @needs_build
    def test_unwritable_cache_dir_falls_back_to_a_private_dir(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")  # a cache directory under a file cannot be made
        monkeypatch.setattr(bploop, "CACHE_DIR", str(blocker / "__pycache__"))
        monkeypatch.setattr(bploop, "_loaded", None)
        lib = bploop.library()
        assert lib is not None
        assert Path(lib.__file__).parent.name.startswith("epra_kit-bploop-")

    @pytest.mark.skipif(bploop.compiler() is None or bploop.headers() is None,
                        reason="no C compiler or no Python.h")
    @pytest.mark.parametrize("target", ["default", "no SSE2"])
    def test_source_compiles_without_warnings(self, tmp_path, target):
        # the scalar path stands in for the 2-wide scan without SSE2
        extra = ["-U__SSE2__"] if target == "no SSE2" else []
        include = [f"-I{d}" for d in bploop.headers()]
        out = subprocess.run([bploop.compiler(), *bploop.FLAGS, "-Wall", "-Wextra", "-Wshadow",
                              "-Wstrict-prototypes", "-Werror", *extra, *include, "-o",
                              str(tmp_path / "bploop.so"), bploop.SOURCE, "-lm"],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_source_ships_with_the_package(self):
        with open(SRC.parent / "pyproject.toml", "rb") as f:
            data = tomllib.load(f)["tool"]["setuptools"]["package-data"]
        assert "bploop.c" in data["epra_kit"]


def sanitizer_runtimes() -> list:
    """The compiler's AddressSanitizer and UBSan runtimes, or [] where it
    has either not (it then prints the bare name)."""
    if not can_build():
        return []
    paths = [subprocess.run([bploop.compiler(), f"-print-file-name={name}"], capture_output=True,
                            text=True).stdout.strip() for name in ("libasan.so", "libubsan.so")]
    return paths if all(os.path.isabs(p) and os.path.exists(p) for p in paths) else []


# the module's own cases, the scan's, the away step's, the stop check's
# band and the fingerprint: what reads and writes the arrays of a run.  The
# scalar passes that a build without SSE2 runs also run here, for n < 4
# (n < 8 in the away step) and wherever a NaN is found.
SANITIZED_TESTS = ["tests/test_blas.py::TestNoArgumentIsWritten::test_module_functions",
                   "tests/test_bploop.py::TestScan", "tests/test_bploop.py::TestScanTail",
                   "tests/test_bploop.py::TestAwayVertex",
                   "tests/test_bploop.py::TestRescaleBand",
                   "tests/test_fingerprint.py::test_fingerprint"]

# builds the module with the sanitizers in the cache directory argv[1],
# checks that it is the one loaded, and runs the tests that follow
SANITIZED_RUN = """
import sys
from pathlib import Path
from epra_kit import bploop
bploop.FLAGS = ("-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
                "-fno-sanitize-recover=undefined",
                *(f for f in bploop.FLAGS if not f.startswith("-O")))
bploop.CACHE_DIR = sys.argv[1]
assert Path(bploop.library().__file__).parent == Path(sys.argv[1])
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "--capture=sys", *sys.argv[2:]]))
"""


@pytest.mark.skipif(not sanitizer_runtimes(),
                    reason="no compiled module, or no AddressSanitizer and UBSan runtime")
def test_module_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    env = dict(os.environ, ASAN_OPTIONS="detect_leaks=0",
               LD_PRELOAD=" ".join([*sanitizer_runtimes(), os.environ.get("LD_PRELOAD", "")]),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(tmp_path), *SANITIZED_TESTS],
                         cwd=SRC.parent, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[:6000]


@needs_build
def test_build_name_follows_numpy_and_the_interpreter(monkeypatch):
    import sysconfig

    cc = bploop.compiler()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    name = bploop._library_name(cc)
    assert name.startswith("bploop.") and name.endswith(suffix)
    monkeypatch.setattr(np, "__version__", np.__version__ + ".other")
    other_numpy = bploop._library_name(cc)
    monkeypatch.undo()
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda key: ".other-abi.so" if key == "EXT_SUFFIX" else real(key))
    other_interpreter = bploop._library_name(cc)
    assert other_interpreter.endswith(".other-abi.so")
    assert len({name, other_numpy, other_interpreter}) == 3


def test_import_builds_nothing():
    # the module is built on the first run: the imports its build needs
    # would add to every import of the package
    child = ("import sys, epra_kit; "
             "print(sorted({'sysconfig', 'subprocess', 'hashlib'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == "[]"


def counted_during(call, seconds=0.05):
    """How many times a Python thread advanced a counter during the middle
    half of call(), run in another thread and taking at least `seconds`."""
    stamps, inside, done = [], threading.Event(), threading.Event()
    span = []

    def compiled():
        inside.set()
        t0 = time.perf_counter()
        call()
        span.extend((t0, time.perf_counter()))
        done.set()

    worker = threading.Thread(target=compiled)
    worker.start()
    inside.wait(30)
    count = 0
    while not done.is_set():
        count += 1
        if count % 64 == 0:
            stamps.append(time.perf_counter())
    worker.join(30)
    assert not worker.is_alive()
    t0, t1 = span
    assert t1 - t0 >= seconds, "the call was too short to tell"
    quarter = (t1 - t0) / 4
    return sum(t0 + quarter < t < t1 - quarter for t in stamps)


@needs_build
class TestWithoutTheInterpreterLock:
    """The compiled loop and factorization let Python threads run."""

    def test_run(self):
        rng = np.random.default_rng(23)
        R = rng.standard_normal((300, 300))
        P = np.ascontiguousarray(R - R.T)  # z'P z = 0: no interior point ends the run
        cfg = BpConfig(epsilon=1e-300, max_iters=10_000, scheme="smooth")
        assert counted_during(lambda: run_scheme(P, uniform_simplex(300), cfg)) > 100

    def test_basis(self):
        M = np.asfortranarray(np.random.default_rng(24).standard_normal((2000, 1000)))
        with blas.small_problem_threads(1, 1):
            assert counted_during(lambda: bploop.library().basis(M, None, False)) > 100
