"""The basic procedure's loop, the projector builds' scaling,
normalization and QR factorization, and the round bookkeeping, compiled
from bploop.c as the CPython extension module `epra_kit._bploop`.

`basic` runs a scheme through `run` unless it has a callback.  The
compiled loop does the scheme's set-up and takes the same steps as the
Python set-up and driver `basic._drive`, with every bit of its results
and the same failures; `run` allocates P z and the block of the scheme's
state, whose rows per scheme the module's `BLOCK_ROWS` gives, and
returns None where the loop cannot take P (not an aligned C-contiguous
float64 (n, n) array) or the library did not load.  `subspace` makes the
basis of every projector build of a C-ordered A through `basis` when the
library loads: one call that scales A's transpose by the side's diagonal
into a new Fortran-ordered Q, normalizes its columns as `np.linalg.norm`
and a division do, and runs LAPACK's `dgeqrf` and `dorgqr` there, each
after its workspace query, with the bits of the NumPy route
(`subspace._numpy_range_basis`).  `epra.identify_partition` and
`epra.rescale_update` call the module's functions of the same names,
which return None for arguments that their NumPy code must take.  The
module's functions check the arrays they are given (dtype, byte order,
alignment, contiguity, shape) and raise ValueError for any they cannot
take; the loop and the factorization run without the interpreter lock.

The module is built on first use, never at import, with the system C
compiler against Python's and numpy's C headers, and cached beside the
source in `__pycache__` under a name keyed by a hash of the source, the
compiler, the flags, numpy's version and the interpreter's extension
suffix, so a changed source or another interpreter or numpy builds anew
and a second process reuses the first one's build.  A build is written
under a temporary name and moved into place, so processes that build at
once never see a partial file.  When that directory cannot be written
the build goes to a temporary directory of this process.  Without a
compiler, without Python's headers, without numpy's CBLAS or LAPACK
symbols (`blas.symbols`) or when the build fails, `library()` is None:
every caller takes its Python or NumPy code, with the same bits.
"""

import atexit
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
_loaded = None  # (module,) once tried; the module is None on failure


def compiler() -> Optional[str]:
    """The system C compiler, or None."""
    return shutil.which("cc") or shutil.which("gcc")


# hashlib, subprocess and sysconfig are imported where they are used, on
# the first run: importing them would add about 13 ms to every import of
# the package


def headers() -> Optional[tuple]:
    """The directories of Python's and numpy's C headers, or None when
    Python.h is not there."""
    import sysconfig

    python = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(python, "Python.h")):
        return None
    return python, np.get_include()


def _library_name(cc: str) -> str:
    import hashlib
    import sysconfig

    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    with open(SOURCE, "rb") as f:
        key = hashlib.sha256(f.read())
    key.update("\0".join((cc, *FLAGS, np.__version__, suffix)).encode())
    return f"bploop.{key.hexdigest()[:16]}{suffix}"


def _build(cc: str, include: tuple, directory: str, name: str) -> str:
    """The module `name` in `directory`, compiled unless it is there;
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
        subprocess.run([cc, *FLAGS, *(f"-I{d}" for d in include), "-o", tmp, SOURCE, "-lm"],
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _private_dir() -> str:
    path = tempfile.mkdtemp(prefix="epra_kit-bploop-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def _load():
    import importlib.machinery
    import importlib.util
    import subprocess

    cc, include, symbols = compiler(), headers(), blas.symbols()
    if cc is None or include is None or symbols is None:
        return None
    name = _library_name(cc)
    try:
        try:
            path = _build(cc, include, CACHE_DIR, name)
        except OSError:
            path = _build(cc, include, _private_dir(), name)
        loader = importlib.machinery.ExtensionFileLoader("epra_kit._bploop", path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(loader.name, path, loader=loader))
        loader.exec_module(module)
    except (OSError, ImportError, subprocess.CalledProcessError):
        return None
    module.bind(*symbols)
    return module


def library():
    """The loaded module, built on the first call; None when it cannot be."""
    global _loaded
    if _loaded is None:
        with _lock:
            if _loaded is None:
                _loaded = (_load(),)
    return _loaded[0]


def run(scheme: int, P, z, epsilon: float, max_iters: int, refresh: int, mu0: float):
    """`bp_run` (bploop.c) for scheme number `scheme` (0 to 3, as in `basic`)
    on P and z, a float64 vector that is updated in place: the scheme's
    set-up and its loop from the start z, with mu0 for the smooth
    perceptron's first smoothing parameter, and P z recomputed every
    `refresh` steps (never for 0).  Returns the status or failure code, the
    number of steps taken and P z, an array of its own; the scheme's block
    is allocated here and freed on return.  None without the library or
    when P is not an aligned C-contiguous float64 (n, n) array: the Python
    driver runs it.  ValueError for any other scheme number."""
    lib = library()
    if lib is None:
        return None
    # any other scheme number gets no rows, and the module rejects it
    block = np.empty((lib.BLOCK_ROWS.get(scheme, 0), z.size))
    return lib.run(scheme, P, z, np.empty(z.size), block, epsilon, max_iters, refresh, mu0)


# doubles of bp_basis scratch a column, after its two result slots: tau
# and 32 of workspace, the block size whose workspace numpy's OpenBLAS
# asks for at every shape measured (1 x 1 to 5000 x 3000).  A LAPACK that
# asks for more costs a second call.
_BASIS_SCRATCH_PER_COLUMN = 33


def basis(M, scale=None, divide: bool = False):
    """`bp_basis` (bploop.c): the orthonormal basis of
    `subspace._orthonormal_range_basis` for the array M with its rows
    divided by scale (divide) or multiplied by it, or unscaled when scale
    is None.  M is a Fortran-contiguous float64 matrix with at least as
    many rows as columns and one column or more, and is not written; scale
    is a contiguous float64 vector with one entry a row.  Returns (Q, min
    |diag R|, max |diag R|): Q the orthonormal factor of the reduced QR
    factorization of the scaled M with each column divided by its norm, a
    new Fortran-ordered array, and the range NumPy float64s read before Q
    is formed; or (None, None, None) when a scaled column has norm 0.
    Needs the library; ValueError for any other M or scale, or when LAPACK
    rejects an argument."""
    if not (isinstance(M, np.ndarray) and M.ndim == 2):
        raise ValueError("basis needs a 2-D float64 array")
    lib = library()
    Q = np.empty(M.shape, order="F")
    out = lib.basis(M, scale, divide, Q, np.empty(2 + _BASIS_SCRATCH_PER_COLUMN * M.shape[-1]))
    if isinstance(out, int):
        out = lib.basis(M, scale, divide, Q, np.empty(out))
    return (None, None, None) if out is None else out
