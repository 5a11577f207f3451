"""numpy's bundled OpenBLAS: a thread policy for small problems, and the
addresses of the BLAS and LAPACK routines the compiled library calls.

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

`symbols` gives the addresses of the CBLAS `dgemv` and `ddot` that
numpy's matmul calls and of the LAPACK `dgeqrf` and `dorgqr` that
`np.linalg.qr` calls, which the compiled module (`bploop`) is bound to
when it loads: it runs the basic procedure's loop and factors each
projector's matrix in its own storage with them.  This module is the one
place that knows the symbol names and the integer width of numpy's build.
"""

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from typing import Callable, Optional

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


# numpy's bundled OpenBLAS is built with 64-bit integers (ILP64) and
# exports its CBLAS and LAPACK under these names.
_SYMBOLS = ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_", "scipy_dgeqrf_64_", "scipy_dorgqr_64_")


@functools.lru_cache(maxsize=None)
def symbols() -> Optional[tuple]:
    """The addresses of numpy's bundled CBLAS `dgemv` and `ddot` and LAPACK
    `dgeqrf` and `dorgqr` (64-bit integer arguments), in that order, or
    None when the library or any of the four is not found."""
    lib = _openblas()
    fns = None if lib is None else [getattr(lib, name, None) for name in _SYMBOLS]
    if fns is None or None in fns:
        return None
    return tuple(ctypes.cast(fn, ctypes.c_void_p).value for fn in fns)
