"""numpy's bundled OpenBLAS: a thread policy for small problems, and an
in-place QR factorization through its LAPACK.

The factorizations and products of a small solve are too short to split
across threads: on a 2-core host (OpenBLAS 0.3.31) `rescaled_projectors`
for a 100 x 200 kernel matrix took 8.1 ms on OpenBLAS's default two
threads and 3.0 ms on one, and the idle worker's spinning doubled the
process CPU time.  `small_problem_threads` runs a block on one thread
when the matrix has at most SINGLE_THREAD_MAX_ENTRIES entries and leaves
the threading alone otherwise; it restores the caller's thread count on
the way out.

The setter is numpy's bundled OpenBLAS `openblas_set_num_threads_local`,
which returns the count it replaces.  It is looked up on first use, not at
import; with another BLAS, or an OpenBLAS without it, the policy does
nothing.  The count is process-wide: while any Python thread is inside
the policy, every BLAS call of the process runs on one thread, and the
count in effect when the first of them entered is restored when the last
one leaves.  On the fingerprint suite (tests/test_fingerprint.py) one and
two threads gave the same result bits.

The same library's LAPACK `dgeqrf` and `dorgqr` are bound here too, so
that a caller can factor a matrix in its own storage (`lapack_qr`):
`np.linalg.qr` calls the same two routines, but on a copy of its input,
and returns Q and R as two more arrays.  `cblas` gives the addresses of
the CBLAS `dgemv` and `ddot` that numpy's matmul calls, for the compiled
basic-procedure loop (`bploop`).  This module is the one place that knows
the symbol names and the integer width of numpy's build.
"""

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

# m * n at or below which a problem runs on one thread.  Measured on the
# host above with naive instances, n = 1000 (median wall time of a solve,
# one thread against two): m = 100 28 against 35 ms, m = 200 43 against
# 48 ms, m = 300 57 against 62 ms, m = 400 71 against 72 ms, and m = 500
# 297 against 210 ms, whose rescaling rounds run many 1000 x 1000
# matrix-vector products that two threads do speed up.  One thread used
# about 60% of the CPU time of two up to m = 400.
SINGLE_THREAD_MAX_ENTRIES = 300_000

# Python threads inside the policy, and the count to restore when the
# last of them leaves; both guarded by _lock.
_lock = threading.Lock()
_depth = 0
_saved_threads = 0


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS, or None when it is not found."""
    import glob

    import numpy

    libs = os.path.dirname(numpy.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


@functools.lru_cache(maxsize=None)
def _thread_setter() -> Optional[Callable]:
    """`openblas_set_num_threads_local(int) -> previous count`, or None."""
    lib = _openblas()
    fn = None if lib is None else getattr(lib, "openblas_set_num_threads_local", None)
    if fn is not None:
        fn.restype, fn.argtypes = ctypes.c_int, [ctypes.c_int]
    return fn


@contextmanager
def small_problem_threads(m: int, n: int):
    """Run the block on one OpenBLAS thread when m * n is at most
    SINGLE_THREAD_MAX_ENTRIES.  Blocks may nest and may run in several
    Python threads at once: the first to enter saves the count and sets
    one thread, the last to leave restores the saved count, also when a
    block raises."""
    global _depth, _saved_threads
    setter = _thread_setter() if m * n <= SINGLE_THREAD_MAX_ENTRIES else None
    if setter is None:
        yield
        return
    with _lock:
        if _depth == 0:
            _saved_threads = setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                setter(_saved_threads)


# numpy's bundled OpenBLAS is built with 64-bit LAPACK integers (ILP64)
# and exports its LAPACK under these names.
_INT = ctypes.c_int64
_GEQRF, _ORGQR = "scipy_dgeqrf_64_", "scipy_dorgqr_64_"
_GEMV, _DOT = "scipy_cblas_dgemv64_", "scipy_cblas_ddot64_"


@functools.lru_cache(maxsize=None)
def cblas() -> Optional[tuple]:
    """The addresses of numpy's bundled CBLAS `dgemv` and `ddot` (64-bit
    integer arguments), or None when the library or either routine is not
    found."""
    lib = _openblas()
    fns = None if lib is None else [getattr(lib, name, None) for name in (_GEMV, _DOT)]
    if fns is None or None in fns:
        return None
    return tuple(ctypes.cast(fn, ctypes.c_void_p).value for fn in fns)


@functools.lru_cache(maxsize=None)
def lapack_qr() -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """`qr_in_place(M) -> diagonal of R` on numpy's bundled LAPACK, or None
    when the library or either routine is not found.

    M must be a writeable, Fortran-contiguous float64 matrix with at least
    as many rows as columns and one column or more.  M is factored in its
    own storage and overwritten with the orthonormal factor Q of its
    reduced QR factorization; the call returns R's diagonal, read before
    Q is formed.  Both routines take their workspace size from a query, as
    `np.linalg.qr` does, so the block size and with it every bit of Q and
    R match that call's at every shape.  The routines run without the
    interpreter lock.
    """
    lib = _openblas()
    geqrf = None if lib is None else getattr(lib, _GEQRF, None)
    orgqr = None if lib is None else getattr(lib, _ORGQR, None)
    if geqrf is None or orgqr is None:
        return None
    # the double arrays are passed as addresses
    i, d = ctypes.POINTER(_INT), ctypes.c_void_p
    # dgeqrf(M, N, A, LDA, TAU, WORK, LWORK, INFO)
    geqrf.restype, geqrf.argtypes = None, [i, i, d, i, d, d, i, i]
    # dorgqr(M, N, K, A, LDA, TAU, WORK, LWORK, INFO)
    orgqr.restype, orgqr.argtypes = None, [i, i, i, d, i, d, d, i, i]
    return functools.partial(_qr_in_place, geqrf, orgqr)


def _qr_in_place(geqrf, orgqr, M: np.ndarray) -> np.ndarray:
    if not (isinstance(M, np.ndarray) and M.dtype == np.float64 and M.ndim == 2):
        raise ValueError("qr_in_place needs a 2-D float64 array")
    if not (M.flags.f_contiguous and M.flags.writeable):
        raise ValueError("qr_in_place needs a writeable Fortran-contiguous array")
    rows, cols = M.shape
    if not rows >= cols >= 1:
        raise ValueError(f"qr_in_place needs rows >= columns >= 1, got {rows} x {cols}")
    ref = ctypes.byref
    m, n, info = _INT(rows), _INT(cols), _INT(0)
    tau = np.empty(cols)
    a, t = _address(M), _address(tau)

    def call(name, routine, *head):
        # a workspace query, then the call with max(columns, optimum)
        # doubles of workspace, as numpy sizes it
        query, lwork = ctypes.c_double(0.0), _INT(-1)
        routine(*head, a, ref(m), t, ref(query), ref(lwork), ref(info))
        _check(name, info)
        work = np.empty(max(cols, int(query.value)))
        lwork.value = work.size
        routine(*head, a, ref(m), t, _address(work), ref(lwork), ref(info))
        _check(name, info)

    call("dgeqrf", geqrf, ref(m), ref(n))
    diag = M.diagonal().copy()
    call("dorgqr", orgqr, ref(m), ref(n), ref(n))
    return diag


def _address(x: np.ndarray) -> int:
    # not x.ctypes: its objects form reference cycles, about 0.5 KB of
    # garbage a call that waits for the cyclic collector
    return x.__array_interface__["data"][0]


def _check(name: str, info: ctypes.c_int64) -> None:
    if info.value < 0:
        raise ValueError(f"LAPACK {name} rejected argument {-info.value}")
