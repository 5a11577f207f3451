"""The basic procedure's loop, the projector builds' scaling,
normalization and QR factorization, and the round bookkeeping, compiled
from bploop.c as the CPython extension module `epra_kit._bploop`.

Every function of the module takes only its inputs and returns what it
makes; none writes an argument.  An array it reads is converted through
NumPy's C API as `np.asarray(x, dtype=float)` converts it, into the
layout the function reads; an array that already has it is only
referenced.  What a function returns is a NumPy array it allocates, so
tracemalloc sees every byte.  It raises ValueError only for arguments no
caller can mean: a wrong ndim or length, a scheme number outside 0 to 3,
or LAPACK's rejection.  So each caller asks only whether `library()` is
None:

- `basic` runs a scheme without a callback as `run(scheme, P, z0, eps,
  max_iters, refresh, mu0)`: the scheme's set-up and the steps of
  `basic._drive` from z0, with every bit of its results and the same
  failures, returning (code, steps, last z, P z, the scheme's block).
- `subspace` makes every basis as `basis(M, scale, divide)`: it scales M
  by the side's diagonal into a new Fortran-ordered Q, normalizes its
  columns as `np.linalg.norm` and a division do and runs LAPACK's
  `dgeqrf` and `dorgqr` there, with the workspace their queries ask for
  and the bits of `subspace._numpy_range_basis`.  It returns None for a
  zero column.
- `epra.identify_partition` and `epra.rescale_update` (all directions
  only) call the functions of the same names, with their NumPy bits.

The loop and the factorization run without the interpreter lock.

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

