import contextlib
import ctypes
import gc
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import epra_kit.basic as basic
from epra_kit import blas, bploop, subspace
from epra_kit.epra import (EpraConfig, SINGLE_DIRECTION, _ALPHA_FLOOR, identify_partition,
                           rescale_update, solve)
from epra_kit.exceptions import RankDeficient
from epra_kit.instances import gen_controlled, gen_partitioned
from epra_kit.subspace import Instance, rescaled_projectors

# the real setter, kept for reading the count while a test patches it away
SETTER = blas._thread_setter()

needs_openblas = pytest.mark.skipif(
    SETTER is None,
    reason="numpy is not linked against an OpenBLAS with a thread setter",
)

# a count the policy never sets, so a restore is told apart from a leak
CALLER_THREADS = 2


def current_threads():
    """OpenBLAS's thread count, read through the setter: it returns the
    count it replaces, which is then put back; None without a setter."""
    if SETTER is None:
        return None
    count = SETTER(1)
    SETTER(count)
    return count


@pytest.fixture
def caller_threads():
    previous = SETTER(CALLER_THREADS)
    try:
        yield CALLER_THREADS
    finally:
        SETTER(previous)


def rank_deficient_instance():
    A = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]])
    return Instance(A=A)


def threads_seen_by_basic_procedure(monkeypatch, inst):
    seen = []
    run_scheme = basic.run_scheme

    def spy(P, z0, cfg, callback=None):
        seen.append(current_threads())
        return run_scheme(P, z0, cfg, callback=callback)

    monkeypatch.setattr(basic, "run_scheme", spy)
    solve(inst)
    return set(seen)


@needs_openblas
class TestRestoresCallerThreads:
    def test_after_solve(self, caller_threads):
        solve(gen_controlled(10, 20, seed=3))
        assert current_threads() == caller_threads

    def test_after_rescaled_projectors(self, caller_threads):
        rng = np.random.default_rng(5)
        rescaled_projectors(rng.standard_normal((4, 9)), np.ones(9), np.full(9, 2.0))
        assert current_threads() == caller_threads

    def test_after_rank_deficient_build(self, caller_threads):
        inst = rank_deficient_instance()
        with pytest.raises(RankDeficient):
            rescaled_projectors(inst.A, np.ones(4), np.ones(4))
        assert current_threads() == caller_threads
        with pytest.raises(RankDeficient):
            solve(inst)
        assert current_threads() == caller_threads

    def test_after_overlapping_solves_in_two_threads(self, caller_threads, monkeypatch):
        # both solves enter the policy before either leaves, and the one
        # that entered second leaves last: a per-call save and restore
        # would put back the one thread the first solve had set
        inst = gen_controlled(10, 20, seed=3)
        sequential = solve(inst)
        both_inside = threading.Barrier(2, timeout=30)
        first_done = threading.Event()
        names = {}
        results = {}
        synced = set()
        seen = []
        errors = []
        run_scheme = basic.run_scheme

        def spy(P, z0, cfg, callback=None):
            name = names.get(threading.get_ident())
            if name is not None and name not in synced:
                synced.add(name)
                both_inside.wait()
                if name == "second" and not first_done.wait(30):
                    raise TimeoutError("the first solve did not finish")
                seen.append(current_threads())
            return run_scheme(P, z0, cfg, callback=callback)

        def worker(name):
            names[threading.get_ident()] = name
            try:
                results[name] = solve(inst)
            except Exception as exc:
                errors.append(exc)
            finally:
                if name == "first":
                    first_done.set()

        monkeypatch.setattr(basic, "run_scheme", spy)
        first = threading.Thread(target=worker, args=("first",))
        first.start()
        # the second solve enters only once the first is inside the policy
        deadline = time.monotonic() + 30
        while not synced and first.is_alive() and time.monotonic() < deadline:
            first.join(0.001)
        second = threading.Thread(target=worker, args=("second",))
        second.start()
        first.join(30)
        second.join(30)
        assert not first.is_alive() and not second.is_alive()
        assert errors == []
        assert seen == [1, 1]
        assert current_threads() == caller_threads
        # the factorizations run without the interpreter lock, so the two
        # solves overlap inside LAPACK; each must still give the bits of a
        # solve run alone
        for res in (results["first"], results["second"]):
            assert res.x.tobytes() == sequential.x.tobytes()
            assert res.x_hat.tobytes() == sequential.x_hat.tobytes()

    def test_many_threads_entering_and_leaving(self, caller_threads):
        # more threads than cores, switching often: inside a block the count
        # is always one, and the caller's count comes back at the end
        workers, rounds = 6, 300
        start = threading.Barrier(workers, timeout=30)
        wrong = []

        def worker():
            start.wait()
            for _ in range(rounds):
                with blas.small_problem_threads(1, 1):
                    with blas.small_problem_threads(1, 1):
                        count = current_threads()
                    if count != 1:
                        wrong.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert current_threads() == caller_threads


@needs_openblas
class TestPolicy:
    def test_small_solve_runs_on_one_thread(self, caller_threads, monkeypatch):
        seen = threads_seen_by_basic_procedure(monkeypatch, gen_controlled(10, 20, seed=3))
        assert seen == {1}

    def test_large_shape_keeps_caller_threads(self, caller_threads, monkeypatch):
        monkeypatch.setattr(blas, "SINGLE_THREAD_MAX_ENTRIES", 10 * 20 - 1)
        seen = threads_seen_by_basic_procedure(monkeypatch, gen_controlled(10, 20, seed=3))
        assert seen == {caller_threads}

    def test_thread_count_leaves_results_bit_identical(self, caller_threads, monkeypatch):
        inst = gen_controlled(40, 80, seed=7)
        cfg = EpraConfig()
        monkeypatch.setattr(blas, "SINGLE_THREAD_MAX_ENTRIES", -1)
        off = solve(inst, cfg)
        monkeypatch.setattr(blas, "SINGLE_THREAD_MAX_ENTRIES", 10**12)
        on = solve(inst, cfg)
        assert (on.status, on.rounds, on.bp_iters_primal, on.bp_iters_dual) == (
            off.status, off.rounds, off.bp_iters_primal, off.bp_iters_dual)
        assert on.x.tobytes() == off.x.tobytes()
        assert on.x_hat.tobytes() == off.x_hat.tobytes()


def test_nested_entry_calls_no_setter(monkeypatch):
    calls = []

    def setter(count):
        calls.append(count)
        return 3

    monkeypatch.setattr(blas, "_thread_setter", lambda: setter)
    with blas.small_problem_threads(1, 1):
        assert calls == [1]
        with blas.small_problem_threads(2, 3):
            with blas.small_problem_threads(10**9, 1):
                pass
        assert calls == [1]
    assert calls == [1, 3]
    # and the next outermost entry sets the count again
    with blas.small_problem_threads(1, 1):
        pass
    assert calls == [1, 3, 1, 3]


def test_no_op_without_setter(monkeypatch):
    monkeypatch.setattr(blas, "_thread_setter", lambda: None)
    before = current_threads()
    with blas.small_problem_threads(1, 1):
        assert current_threads() == before
    res = solve(gen_controlled(10, 20, seed=3))
    assert res.status == "trivial_primal"
    assert current_threads() == before


@pytest.mark.skipif(
    bploop.compiler() is None or bploop.headers() is None or blas.symbols() is None,
    reason="no C compiler, no Python.h, or numpy's OpenBLAS lacks the CBLAS or LAPACK symbols")
def test_builds_take_the_compiled_basis_wherever_it_builds(monkeypatch):
    # fails, not skips: where `bploop._load` finds what it needs, a library
    # that does not load would drop every build to np.linalg.qr without a
    # word
    assert blas.symbols() is not None and bploop.library() is not None
    calls, lib = [], bploop.library()
    basis = lib.basis
    monkeypatch.setattr(lib, "basis", lambda *args: calls.append(1) or basis(*args))
    M = np.asfortranarray(np.random.default_rng(2).standard_normal((9, 4)))
    Q = subspace._orthonormal_range_basis(M)
    assert calls == [1] and Q.flags.f_contiguous and not np.shares_memory(Q, M)


def test_numpys_bundled_openblas_exports_the_four_symbols():
    # fails, not skips: a renamed symbol would send every compiled-path
    # test to its skip and every run to the Python driver
    lib = blas._openblas()
    if lib is None or "scipy_openblas64_" not in os.path.basename(lib._name):
        pytest.skip("numpy does not bundle scipy_openblas64_")
    assert blas.symbols() is not None


def scaled_columns(shape, seed):
    """A Gaussian matrix with each column scaled by 10**U(-8, 8)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape[1])


# unblocked (below LAPACK's block size of 32 columns and its crossover)
# and blocked shapes
QR_SHAPES = [(1, 1), (2, 1), (8, 8), (9, 4), (64, 63), (129, 128), (200, 100), (260, 130),
             (300, 200), (500, 300), (1000, 100)]


def numpy_route(M, scale=None, divide=False):
    """(Q, lo, hi) of the NumPy route, or None for a zero column: the
    bytewise reference of the module's basis"""
    return subspace._numpy_range_basis(M, scale, divide)


def basis(M, scale=None, divide=False):
    return bploop.library().basis(M, scale, divide)


# each LAPACK routine's slot in the module's bind() and its arity
LAPACK = {"dgeqrf": (2, 8), "dorgqr": (3, 9)}


@contextlib.contextmanager
def lapack_stub(routine, stub):
    """The module with `routine` bound to the ctypes function `stub`, and
    numpy's routines bound again after."""
    lib, real = bploop.library(), blas.symbols()
    bound = list(real)
    bound[LAPACK[routine][0]] = ctypes.cast(stub, ctypes.c_void_p).value
    lib.bind(*bound)
    try:
        yield lib
    finally:
        lib.bind(*real)


def stub_type(routine):
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * LAPACK[routine][1])


def rejecting(routine, in_query):
    """A `routine` that rejects argument 4, in its workspace query or,
    after asking for one double of workspace there, in the factorization."""

    @stub_type(routine)
    def stub(*args):
        work = ctypes.cast(args[-3], ctypes.POINTER(ctypes.c_double))
        lwork, info = (ctypes.cast(a, ctypes.POINTER(ctypes.c_int64)) for a in args[-2:])
        if lwork[0] == -1 and not in_query:
            work[0], info[0] = 1.0, 0
        else:
            info[0] = -4

    return stub


@pytest.mark.skipif(bploop.library() is None, reason="the compiled library is not built")
class TestBasis:
    """The module's basis: the compiled scaling, normalization and
    factorization of every projector build."""

    @pytest.mark.parametrize("M", [
        np.ones((2, 4), order="F"),             # wide
        np.ones((4, 0), order="F"),
        np.ones(4),
        np.array(1.0),                          # 0-d
    ])
    def test_rejects_what_no_caller_can_mean(self, M):
        before = np.asarray(M).tobytes()
        with pytest.raises(ValueError):
            basis(M)
        assert np.asarray(M).tobytes() == before

    @pytest.mark.parametrize("layout", ["C-ordered", "float32", "strided", "list"])
    def test_converts_any_other_matrix_to_fortran_float64(self, layout):
        F = np.asfortranarray(scaled_columns((9, 4), 3))
        D = np.linspace(1.0, 3.0, 9)
        strided = np.zeros((9, 8), order="F")
        strided[:, ::2] = F
        M = {"C-ordered": np.ascontiguousarray(F), "float32": F.astype(np.float32),
             "strided": strided[:, ::2], "list": F.tolist()}[layout]
        want = np.asfortranarray(M, dtype=float)
        for scale in (None, D, D.astype(np.float32), np.repeat(D, 2)[::2], D.tolist()):
            self.assert_same(basis(M, scale, True),
                             numpy_route(want, None if scale is None else np.array(scale, float),
                                         True), (layout, scale))

    @pytest.mark.parametrize("scale", [np.ones(3), np.ones((4, 1))])
    def test_rejects_a_scale_of_another_shape(self, scale):
        with pytest.raises(ValueError, match="scale"):
            basis(np.ones((4, 2), order="F"), scale)

    @pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr"])
    @pytest.mark.parametrize("in_query", [True, False])
    def test_raises_on_negative_info(self, routine, in_query):
        # a LAPACK routine that rejects an argument, in its workspace query
        # or in the factorization, stops the call with a ValueError
        with lapack_stub(routine, rejecting(routine, in_query)), \
                pytest.raises(ValueError, match=f"LAPACK {routine} rejected argument 4$"):
            basis(np.asfortranarray(np.eye(5, 3) + 1.0))
        F = np.asfortranarray(scaled_columns((9, 4), 3))
        self.assert_same(basis(F), numpy_route(F), "rebound")

    def test_reads_a_read_only_matrix_and_never_writes_it(self):
        M = np.asfortranarray(scaled_columns((9, 4), 3))
        before = M.tobytes(order="A")
        M.flags.writeable = False
        Q, lo, hi = basis(M, np.linspace(1.0, 3.0, 9), divide=True)
        assert M.tobytes(order="A") == before and not np.shares_memory(Q, M)

    def test_leaves_nothing_for_the_cyclic_collector(self):
        # ndarray.ctypes objects form reference cycles: a call that made
        # them would leave garbage, and tracemalloc peaks, at every build
        M = np.asfortranarray(np.eye(6, 3) + 1.0)
        gc.collect()
        gc.disable()
        try:
            basis(M)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @staticmethod
    def assert_same(got, want, label):
        Q, lo, hi = got
        assert Q.flags.f_contiguous, label
        assert Q.tobytes(order="A") == want[0].tobytes(order="F"), label
        assert (np.float64(lo).tobytes(), np.float64(hi).tobytes()) == (
            np.float64(want[1]).tobytes(), np.float64(want[2]).tobytes()), label

    def test_matches_the_numpy_route_bitwise(self):
        for shape in QR_SHAPES:
            for seed in range(4):
                F = np.asfortranarray(scaled_columns(shape, seed))
                D = np.exp(np.random.default_rng(seed).uniform(-8.0, 8.0, shape[0]))
                for scale, divide in ((None, False), (D, True), (D, False)):
                    self.assert_same(basis(F, scale, divide),
                                     numpy_route(F, scale, divide), (shape, seed, divide))

    @pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr"])
    @pytest.mark.parametrize("shape", [(9, 4), (200, 100)])
    def test_larger_workspace_queries_are_given_what_they_ask(self, shape, routine):
        # a routine that calls numpy's but answers its workspace query with
        # four times numpy's size gets that workspace, with numpy's bits
        real, asked, given = stub_type(routine)(blas.symbols()[LAPACK[routine][0]]), [], []

        @stub_type(routine)
        def forwarding(*args):
            lwork = ctypes.cast(args[-2], ctypes.POINTER(ctypes.c_int64))[0]
            real(*args)
            if lwork == -1:
                work = ctypes.cast(args[-3], ctypes.POINTER(ctypes.c_double))
                work[0] *= 4.0
                asked.append(int(work[0]))
            else:
                given.append(lwork)

        F = np.asfortranarray(scaled_columns(shape, 7))
        with lapack_stub(routine, forwarding):
            self.assert_same(basis(F), numpy_route(F), routine)
        assert given == asked and asked[0] > 4 * shape[1]

    def test_nan_range_as_numpy_gives_it(self):
        M = np.asfortranarray(np.eye(5, 3) + 1.0)
        M[2, 1] = np.nan
        _, lo, hi = basis(M)
        assert np.isnan(lo) and np.isnan(hi)

    def test_zero_column(self):
        M = np.asfortranarray(np.eye(5, 3) + 1.0)
        M[:, 2] = 0.0
        assert basis(M) is None and numpy_route(M) is None

    def test_compiled_run_and_basis_leave_nothing_for_the_cyclic_collector(self):
        P = subspace.projector_from_kernel(
            np.random.default_rng(4).standard_normal((5, 12))).P
        M = np.asfortranarray(np.eye(6, 3) + 1.0)
        gc.collect()
        gc.disable()
        try:
            for scheme in basic.SCHEMES:
                basic.run_scheme(P, np.full(12, 1.0 / 12), basic.BpConfig(scheme=scheme))
            basis(M)
            assert gc.collect() == 0
        finally:
            gc.enable()


def traced_peak(call) -> int:
    """The tracemalloc peak of call() above what was live when it began,
    in bytes, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


INSTANCES = {
    "partitioned-100": lambda: gen_partitioned(100, 3),
    "controlled-100x200": lambda: gen_controlled(100, 200, delta_cap=1e-3, seed=3),
}
# traced_peak of each solve with the ctypes library that the extension
# module replaced: a solve may hold no more than it did
CTYPES_PEAKS = {"partitioned-100": 137536, "controlled-100x200": 505114}


@pytest.mark.skipif(bploop.library() is None, reason="the compiled library is not built")
class TestTracedAllocations:
    """Every buffer of the compiled calls is a NumPy array that tracemalloc
    sees, freed when the call's caller drops it."""

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_solve_peaks_no_higher(self, name):
        inst = INSTANCES[name]()
        assert traced_peak(lambda: solve(inst)) <= CTYPES_PEAKS[name]

    @staticmethod
    def compiled_calls():
        P = subspace.projector_from_kernel(np.random.default_rng(4).standard_normal((5, 12))).P
        M = np.asfortranarray(np.random.default_rng(5).standard_normal((12, 5)))
        x, D = np.linspace(-1.0, 1.0, 12), np.linspace(1.0, 2.0, 12)
        for scheme in basic.SCHEMES:
            basic.run_scheme(P, np.full(12, 1.0 / 12), basic.BpConfig(scheme=scheme))
        bploop.library().basis(M, D, True)
        identify_partition(x, x[::-1].copy(), 2.0)
        rescale_update(x, x, D, 2.0)
        rescale_update(x, x, D, 2.0, SINGLE_DIRECTION)

    def test_repeated_calls_leave_no_traced_growth(self):
        self.compiled_calls()
        tracemalloc.start()
        try:
            self.compiled_calls()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                self.compiled_calls()
            assert tracemalloc.get_traced_memory()[0] - before < 1000
        finally:
            tracemalloc.stop()

    def test_leave_nothing_for_the_cyclic_collector(self):
        gc.collect()
        gc.disable()
        try:
            self.compiled_calls()
            solve(INSTANCES["partitioned-100"]())
            assert gc.collect() == 0
        finally:
            gc.enable()


def module_cases():
    """(function, arguments, whether it raises, and None or the LAPACK
    routine and the stub bound in its place) for each function of the module: conforming calls,
    converting calls (Fortran order, strides, lists, float32) and each
    ValueError path, LAPACK's rejection among them."""
    P = subspace.projector_from_kernel(np.random.default_rng(4).standard_normal((5, 12))).P
    F = np.asfortranarray(np.random.default_rng(5).standard_normal((12, 5)))
    x, D, z = np.linspace(-1.0, 1.0, 12), np.linspace(1.0, 2.0, 12), np.full(12, 1.0 / 12)
    wide, read_only = np.ones((12, 24)), z.copy()
    read_only.flags.writeable = False
    run = [(0, P, z, 0.5, 50, 128, 2.0), (3, np.asfortranarray(P), z, 0.5, 50, 0, 2.0),
           (1, np.repeat(P, 2, axis=1)[:, ::2], z, 0.5, 50, 128, 2.0),
           (2, P.tolist(), z, 0.5, 50, 128, 2.0)]
    run_errors = [(7, P, z, 0.5, 50, 128, 2.0), (0, P, read_only, 0.5, 50, 128, 2.0),
                  (0, P, z.tolist(), 0.5, 50, 128, 2.0), (0, P[:11, :11], z, 0.5, 50, 128, 2.0),
                  (0, P.reshape(-1), z, 0.5, 50, 128, 2.0)]
    basis = [(F, None, False), (F, D, True), (np.ascontiguousarray(F), D, False),
             (np.repeat(F, 2, axis=1)[:, ::2], D[::-1], True), (F.tolist(), D.tolist(), True),
             (F, D.astype(np.float32), False)]
    basis_errors = [(F.T, None, False), (F[:, 0], None, False), (F, D[:11], True),
                    (F, D[:, None], False)]
    partition = [(x, x[::-1].copy(), 2.0), (x[::2], x[1::2], 3), (x.tolist(), x.tolist(), 2.0),
                 (x.astype(np.float32), x, 2.0)]
    partition_errors = [(x, x[:11], 2.0), ([], [], 2.0), (x[None], x, 2.0)]
    update = [(z, x, D, 2.0, False, _ALPHA_FLOOR), (z, None, D, 2.0, True, _ALPHA_FLOOR),
              (x[::2], x[1::2], D[::2], 2, False, _ALPHA_FLOOR),
              (z.tolist(), x.tolist(), D.tolist(), 2.0, False, _ALPHA_FLOOR),
              ([], [], [], 2.0, False, _ALPHA_FLOOR)]
    update_errors = [(z, x, D[:11], 2.0, False, _ALPHA_FLOOR), (z[None], x, D, 2.0, True, 0.0),
                     (z, x[None], D, 2.0, False, _ALPHA_FLOOR), ([], None, [], 2.0, True, 0.0)]
    cases = []
    for name, good, bad in (("run", run, run_errors), ("basis", basis, basis_errors),
                            ("identify_partition", partition, partition_errors),
                            ("rescale_update", update, update_errors)):
        cases += [(name, args, False, None) for args in good]
        cases += [(name, args, True, None) for args in bad]
    cases += [("basis", (F, D, True), True, (routine, rejecting(routine, in_query)))
              for routine in LAPACK for in_query in (True, False)]
    return cases


def call(lib, name, args, raises, stub):
    """One call of the module's function `name`, its result dropped."""
    with contextlib.ExitStack() as bound:
        if stub is not None:
            bound.enter_context(lapack_stub(*stub))
        try:
            getattr(lib, name)(*args)
        except ValueError:
            assert raises, (name, args)
        else:
            assert not raises, (name, args)


@pytest.mark.skipif(bploop.library() is None, reason="the compiled library is not built")
class TestReferences:
    """Each function of the module releases every array it converts or
    allocates, on every path, and leaves its arguments' counts as it found
    them."""

    def test_argument_counts_are_unchanged(self):
        lib = bploop.library()
        for name, args, raises, stub in module_cases():
            # None, True and small ints are shared by the whole interpreter
            own = [a for a in args if isinstance(a, (np.ndarray, list, float))]
            call(lib, name, args, raises, stub)  # first-call allocations
            before = [sys.getrefcount(a) for a in own]
            for _ in range(3):
                call(lib, name, args, raises, stub)
            assert [sys.getrefcount(a) for a in own] == before, (name, args, stub)

    @pytest.mark.parametrize("raises", [False, True], ids=["results", "errors"])
    def test_repeated_calls_leave_no_traced_growth(self, raises):
        lib = bploop.library()
        cases = [case for case in module_cases() if case[2] is raises]
        for case in cases:
            call(lib, *case)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                for case in cases:
                    call(lib, *case)
            gc.collect()  # the ctypes casts of the LAPACK stubs form cycles
            assert tracemalloc.get_traced_memory()[0] - before < 1000
        finally:
            tracemalloc.stop()
