"""The compiled basic-procedure loop (bploop) against the Python driver,
and how the compiled library is built, cached and found."""

import os
import subprocess
import sys
import threading
import tomllib
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from epra_kit import basic, blas, bploop
from epra_kit.basic import BpConfig, SCHEMES, run_scheme, uniform_simplex
from epra_kit.exceptions import DegenerateStep, EmptySupport
from epra_kit.subspace import projector_from_kernel

SRC = Path(bploop.__file__).resolve().parent.parent


def can_build() -> bool:
    return bploop.compiler() is not None and blas.cblas() is not None


needs_build = pytest.mark.skipif(
    not can_build(), reason="no C compiler, or numpy's OpenBLAS lacks the CBLAS symbols")


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
        ("smooth", HUGE, [1 / 3] * 3, IndexError),
        ("smooth", INF_COLUMN, uniform_simplex(10), IndexError),
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
        assert compiled == ((IndexError, "no component exceeds its simplex threshold", 0), [])

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
            pytest.skip("no C compiler, or numpy's OpenBLAS lacks the CBLAS symbols")
        assert bploop.library() is not None
        assert bploop.accepts(np.eye(3), 3)

    @needs_build
    def test_only_runs_it_cannot_take_use_the_python_driver(self, monkeypatch):
        def python_driver(*args, **kwargs):
            raise AssertionError("the Python driver ran")

        monkeypatch.setattr(basic, "_drive", python_driver)
        P = projector_from_kernel(np.random.default_rng(5).standard_normal((4, 9))).P
        for scheme in SCHEMES:
            run_scheme(P, uniform_simplex(9), BpConfig(scheme=scheme))
        strided = np.zeros((9, 18))
        strided[:, ::2] = P
        unaligned = np.zeros(P.nbytes + 1, dtype=np.uint8)[1:].view(np.float64).reshape(9, 9)
        unaligned[...] = P
        for other in (np.asfortranarray(P), P.astype(np.float32), strided[:, ::2], unaligned,
                      P.tolist()):
            with pytest.raises(AssertionError, match="Python driver"):
                run_scheme(other, uniform_simplex(9), BpConfig())
        with pytest.raises(AssertionError, match="Python driver"):
            run_scheme(P, uniform_simplex(9), BpConfig(), callback=lambda *_: None)

    @pytest.mark.parametrize("missing", ["compiler", "cblas"])
    def test_without_compiler_or_symbols_the_python_driver_runs(self, fresh, monkeypatch,
                                                                missing):
        owner = bploop if missing == "compiler" else blas
        monkeypatch.setattr(owner, missing, lambda: None)
        assert bploop.library() is None
        out = run_scheme(np.eye(3), uniform_simplex(3), BpConfig())
        assert out.status == basic.INTERIOR_FOUND
        assert not fresh.exists()

    @needs_build
    def test_second_process_reuses_the_build(self, fresh):
        path = Path(bploop.library()._name)
        assert path.parent == fresh
        before = path.stat()
        # the compiler's own permissions, so other users can load it too
        umask = os.umask(0)
        os.umask(umask)
        assert before.st_mode & 0o777 == 0o777 & ~umask
        child = (f"from epra_kit import bploop; bploop.CACHE_DIR = {str(fresh)!r}; "
                 "print(bploop.library()._name)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                             capture_output=True, text=True).stdout.strip()
        assert out == str(path)
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert os.listdir(fresh) == [path.name]  # no temporary left behind

    @needs_build
    def test_changed_source_is_rebuilt(self, fresh, monkeypatch, tmp_path):
        first = Path(bploop.library()._name)
        changed = tmp_path / "bploop.c"
        changed.write_text(Path(bploop.SOURCE).read_text() + "\n/* changed */\n")
        monkeypatch.setattr(bploop, "SOURCE", str(changed))
        monkeypatch.setattr(bploop, "_loaded", None)
        second = Path(bploop.library()._name)
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
        assert Path(lib._name).parent.name.startswith("epra_kit-bploop-")

    def test_source_ships_with_the_package(self):
        with open(SRC.parent / "pyproject.toml", "rb") as f:
            data = tomllib.load(f)["tool"]["setuptools"]["package-data"]
        assert "bploop.c" in data["epra_kit"]
