import gc
import sys
import threading
import time

import numpy as np
import pytest

import epra_kit.basic as basic
from epra_kit import blas
from epra_kit.epra import EpraConfig, solve
from epra_kit.exceptions import RankDeficient
from epra_kit.instances import gen_controlled
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


def test_no_op_without_setter(monkeypatch):
    monkeypatch.setattr(blas, "_thread_setter", lambda: None)
    before = current_threads()
    with blas.small_problem_threads(1, 1):
        assert current_threads() == before
    res = solve(gen_controlled(10, 20, seed=3))
    assert res.status == "trivial_primal"
    assert current_threads() == before


@pytest.mark.skipif(blas._openblas() is None, reason="numpy has no bundled OpenBLAS")
def test_bundled_openblas_binds_lapack_qr():
    # fails, not skips: a numpy whose OpenBLAS renamed its LAPACK symbols
    # would otherwise drop every build to np.linalg.qr without a word
    assert blas.lapack_qr() is not None


@pytest.mark.skipif(blas.lapack_qr() is None, reason="numpy's LAPACK is not bound")
class TestQrInPlace:
    @pytest.mark.parametrize("M", [
        np.ones((4, 2)),                        # C-ordered
        np.ones((4, 2), dtype=np.float32, order="F"),
        np.ones((2, 4), order="F"),             # wide
        np.ones((4, 0), order="F"),
        np.ones(4),
    ])
    def test_rejects_what_lapack_cannot_take_in_place(self, M):
        with pytest.raises(ValueError):
            blas.lapack_qr()(M)

    def test_rejects_read_only(self):
        M = np.ones((4, 2), order="F")
        M.flags.writeable = False
        with pytest.raises(ValueError):
            blas.lapack_qr()(M)

    def test_raises_on_negative_info(self):
        def rejecting(*args):
            args[-1]._obj.value = -4  # INFO: the fourth argument is illegal

        with pytest.raises(ValueError, match="dgeqrf rejected argument 4"):
            blas._qr_in_place(rejecting, rejecting, np.ones((4, 2), order="F"))

    def test_leaves_nothing_for_the_cyclic_collector(self):
        # ndarray.ctypes objects form reference cycles: a call that made
        # them would leave garbage, and tracemalloc peaks, at every build
        M = np.asfortranarray(np.eye(6, 3) + 1.0)
        gc.collect()
        gc.disable()
        try:
            blas.lapack_qr()(M)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_matches_numpy_qr_bitwise(self):
        M = np.random.default_rng(3).standard_normal((260, 130))
        Q, R = np.linalg.qr(M, mode="reduced")
        F = np.asfortranarray(M)
        diag = blas.lapack_qr()(F)
        assert F.tobytes(order="C") == Q.tobytes()
        assert diag.tobytes() == np.diagonal(R).tobytes()
