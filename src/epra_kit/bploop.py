"""The basic procedure's loop and the projector builds' scaling,
normalization and QR factorization, compiled from bploop.c.

`basic` runs a scheme through `run` when `accepts(P, n)`: the library
loaded and P is an aligned C-contiguous float64 (n, n) array.  The compiled loop
does the scheme's set-up and takes the same steps as the Python set-up and
driver `basic._drive`, with every bit of its results and the same
failures.  `run` allocates P z and the block of the scheme's state, whose
rows per scheme `_BLOCK_ROWS` gives beside `bp_run`'s signature, and
rejects any other scheme number before it calls the library.
`subspace` makes the basis of every projector build of a C-ordered A
through `basis` when the library loads: one call that scales A's
transpose by the side's diagonal into a new Fortran-ordered Q,
normalizes its columns as `np.linalg.norm` and a division do, and runs
LAPACK's `dgeqrf` and `dorgqr` there, each after its workspace query,
with the bits of the NumPy route (`subspace._numpy_range_basis`).

The library is built on first use, never at import, with the system C
compiler, and cached beside the source in `__pycache__` under a name
keyed by a hash of the source, the compiler and the flags, so a changed
source is rebuilt and a second process reuses the first one's build.  A
build is written under a temporary name and moved into place, so
processes that build at once never see a partial file.  When that
directory cannot be written the build goes to a temporary directory of
this process.  Without a compiler, without numpy's CBLAS or LAPACK symbols
(`blas.symbols`) or when the build fails, `library()` is
None: `accepts` is false and the Python driver runs, and a build takes
the NumPy route, with the same bits.  Both calls run
without the interpreter lock.
"""

import atexit
import ctypes
import os
import shutil
import tempfile
import threading
from typing import Optional

import numpy as np

from . import blas

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bploop.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
# no fast-math and no contraction into fused multiply-adds: the loop must
# round as numpy does.  -O3 vectorizes the elementwise loops, which round
# the same in SIMD registers, and reorders no sum or comparison.  Its loop
# versioning also gives the column loops of the vertex steps their
# contiguous fast path: each is written once for any stride, and -O3 adds
# the stride-1 copy that a read of column i from row i runs.
FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-std=c99", "-fPIC", "-shared")

_lock = threading.Lock()
_loaded = None  # (library,) once tried; the library is None on failure


def compiler() -> Optional[str]:
    """The system C compiler, or None."""
    return shutil.which("cc") or shutil.which("gcc")


# hashlib and subprocess are imported where they are used, on the first
# run: importing them would add about 13 ms to every import of the package


def _library_name(cc: str) -> str:
    import hashlib

    with open(SOURCE, "rb") as f:
        key = hashlib.sha256(f.read())
    key.update("\0".join((cc, *FLAGS)).encode())
    return f"bploop.{key.hexdigest()[:16]}.so"


def _build(cc: str, directory: str, name: str) -> str:
    """The library `name` in `directory`, compiled unless it is there;
    OSError when the directory cannot be written."""
    import subprocess

    target = os.path.join(directory, name)
    if os.path.exists(target):
        return target
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory)
    os.close(fd)
    # only the unique name is kept: the compiler makes the file anew, with
    # the permissions of any library it writes, where mkstemp's file would
    # be readable by its owner alone
    os.unlink(tmp)
    try:
        subprocess.run([cc, *FLAGS, "-o", tmp, SOURCE, "-lm"], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _private_dir() -> str:
    path = tempfile.mkdtemp(prefix="epra_kit-bploop-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


# the rows of n doubles of bp_run's block, by scheme number (bploop.c):
# perceptron, von Neumann, away steps, smooth perceptron
_BLOCK_ROWS = (1, 2, 2, 6)


def _load():
    import subprocess

    cc, symbols = compiler(), blas.symbols()
    if cc is None or symbols is None:
        return None
    name = _library_name(cc)
    try:
        try:
            path = _build(cc, CACHE_DIR, name)
        except OSError:
            path = _build(cc, _private_dir(), name)
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.CalledProcessError):
        return None
    lib.bp_bind.restype, lib.bp_bind.argtypes = None, [ctypes.c_void_p] * 4
    lib.bp_bind(*symbols)
    d, i, p = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    lib.bp_run.restype = i
    # scheme, n, P, z, Pz, eps, max_iters, refresh, iters, block, mu0
    lib.bp_run.argtypes = [i, i, p, p, p, d, i, i, p, p, d]
    lib.bp_basis.restype = i
    # rows, cols, a, d, mode, q, scratch, size
    lib.bp_basis.argtypes = [i, i, p, p, i, p, p, i]
    return lib


def library():
    """The loaded library, built on the first call; None when it cannot be."""
    global _loaded
    if _loaded is None:
        with _lock:
            if _loaded is None:
                _loaded = (_load(),)
    return _loaded[0]


def accepts(P, n: int) -> bool:
    """Whether the compiled loop can run on P with n-vectors."""
    return (isinstance(P, np.ndarray) and P.dtype == np.float64 and P.shape == (n, n)
            and P.flags.c_contiguous and P.flags.aligned and library() is not None)


# a cap the loop cannot reach stands for one beyond int64
_MAX_ITERS = 2**63 - 1


def run(scheme: int, P, z, epsilon: float, max_iters: int, refresh: int, mu0: float):
    """`bp_run` (bploop.c) for scheme number `scheme` (0 to 3, as in `basic`)
    on arrays that `accepts` allows: the scheme's set-up and its loop from
    the start z, with mu0 for the smooth perceptron's first smoothing
    parameter.  z (float64, contiguous) is updated in place, and P z
    recomputed every `refresh` steps (never for 0).  Returns the status or
    failure code, the number of steps taken and P z, an array of its own;
    the scheme's block is allocated here and freed on return.  ValueError
    for any other scheme number, before the library is called."""
    if scheme not in range(len(_BLOCK_ROWS)):
        raise ValueError(f"no scheme number {scheme!r}: bp_run has 0 to {len(_BLOCK_ROWS) - 1}")
    Pz = np.empty(z.size)
    code, t = _run(scheme, P, z, Pz, np.empty((_BLOCK_ROWS[scheme], z.size)), epsilon,
                   max_iters, refresh, mu0)
    return code, t, Pz


def _run(scheme: int, P, z, Pz, block, epsilon: float, max_iters: int, refresh: int,
         mu0: float):
    """`bp_run` on the caller's empty Pz and block (C-contiguous float64,
    the scheme's rows of n doubles at least), unchecked; the status or
    failure code and the number of steps."""
    # the addresses are taken before the step counter is made: the objects
    # an address makes and drops are larger than the counter, and a solve's
    # allocation peak falls in this call
    address = blas._address
    at_P, at_z, at_Pz, at_block = address(P), address(z), address(Pz), address(block)
    iters = ctypes.c_int64()
    code = library().bp_run(scheme, z.size, at_P, at_z, at_Pz, epsilon,
                            min(max_iters, _MAX_ITERS), refresh, ctypes.byref(iters), at_block,
                            mu0)
    return code, iters.value


# doubles of bp_basis scratch a column, after its two result slots: tau
# and 32 of workspace, the block size whose workspace numpy's OpenBLAS
# asks for at every shape measured (1 x 1 to 5000 x 3000).  A LAPACK that
# asks for more costs a second call.
_BASIS_SCRATCH_PER_COLUMN = 33
# bp_basis's row scalings and failure codes (bploop.c)
_UNSCALED, _DIVIDE, _MULTIPLY = 0, 1, 2
_ZERO_COLUMN = -3
_BASIS_ROUTINES = {-1: "dgeqrf", -2: "dorgqr"}


def basis(M, scale=None, divide: bool = False):
    """`bp_basis` (bploop.c): the orthonormal basis of
    `subspace._orthonormal_range_basis` for M with its rows divided by
    scale (divide) or multiplied by it, or unscaled when scale is None.
    M is a Fortran-contiguous float64 matrix with at least as many rows as
    columns and one column or more, and is not written; scale is a
    contiguous float64 vector with one entry a row.  Returns (Q, min |diag
    R|, max |diag R|): Q the orthonormal factor of the reduced QR
    factorization of the scaled M with each column divided by its norm, a
    new Fortran-ordered array, and the range NumPy float64s read before Q
    is formed; or (None, None, None) when a scaled column has norm 0.
    Needs the library; ValueError for any other M or scale."""
    if not (isinstance(M, np.ndarray) and M.dtype == np.float64 and M.ndim == 2):
        raise ValueError("basis needs a 2-D float64 array")
    if not (M.flags.f_contiguous and M.flags.aligned):
        raise ValueError("basis needs an aligned Fortran-contiguous array")
    rows, cols = M.shape
    if not rows >= cols >= 1:
        raise ValueError(f"basis needs rows >= columns >= 1, got {rows} x {cols}")
    address = blas._address
    if scale is None:
        mode, d = _UNSCALED, None
    elif (isinstance(scale, np.ndarray) and scale.dtype == np.float64
          and scale.shape == (rows,) and scale.flags.c_contiguous and scale.flags.aligned):
        mode, d = _DIVIDE if divide else _MULTIPLY, address(scale)
    else:
        raise ValueError(f"basis needs a contiguous float64 scale of {rows} entries")
    Q = np.empty((rows, cols), order="F")
    out = _basis(rows, cols, address(M), d, mode, address(Q))
    return (None, None, None) if out is None else (Q, *out)


def _basis(rows: int, cols: int, a: int, d, mode: int, q: int):
    """`bp_basis` on the addresses of the matrix, the scale (None when
    unscaled) and Q, unchecked: (min |diag R|, max |diag R|), or None for
    a zero column; ValueError when LAPACK rejects an argument."""
    bp_basis, address = library().bp_basis, blas._address
    scratch = np.empty(2 + _BASIS_SCRATCH_PER_COLUMN * cols)
    code = bp_basis(rows, cols, a, d, mode, q, address(scratch), scratch.size)
    if code > 0:
        scratch = np.empty(code)
        code = bp_basis(rows, cols, a, d, mode, q, address(scratch), scratch.size)
    if code == _ZERO_COLUMN:
        return None
    if code < 0:
        raise ValueError(f"LAPACK {_BASIS_ROUTINES[code]} rejected argument {scratch[0]:.0f}")
    # NumPy scalars, as np.min gives them: Python floats raised the
    # allocation peak of some controlled (100, 200) solves by 24 bytes
    return scratch[0], scratch[1]
