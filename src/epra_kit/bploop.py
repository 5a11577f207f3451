"""The basic procedure's loop, compiled from bploop.c.

`basic` runs a scheme through `run` when `accepts(P, n)`: the library
loaded and P is an aligned C-contiguous float64 (n, n) array.  The compiled loop
does the scheme's set-up and takes the same steps as the Python set-up and
driver `basic._drive`, with every bit of its results and the same
failures.

The library is built on first use, never at import, with the system C
compiler, and cached beside the source in `__pycache__` under a name
keyed by a hash of the source, the compiler and the flags, so a changed
source is rebuilt and a second process reuses the first one's build.  A
build is written under a temporary name and moved into place, so
processes that build at once never see a partial file.  When that
directory cannot be written the build goes to a temporary directory of
this process.  Without a compiler, without numpy's CBLAS symbols
(`blas.cblas`) or when the build fails, `accepts` is false and the
Python driver runs.  The loop runs without the interpreter lock.
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
# round as numpy does
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-std=c99", "-fPIC", "-shared")

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


def _load():
    import subprocess

    cc, addresses = compiler(), blas.cblas()
    if cc is None or addresses is None:
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
    lib.bp_bind.restype, lib.bp_bind.argtypes = None, [ctypes.c_void_p] * 2
    lib.bp_bind(*addresses)
    d, i, p = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    lib.bp_run.restype = i
    # scheme, n, P, z, Pz, eps, max_iters, refresh, iters, block, mu0
    lib.bp_run.argtypes = [i, i, p, p, p, d, i, i, p, p, d]
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


def run(scheme: int, P, z, Pz, block, epsilon: float, max_iters: int, refresh: int,
        mu0: float):
    """`bp_run` (bploop.c) on arrays that `accepts` allows: the scheme's
    set-up and its loop, from the start z into the empty Pz, with block
    (C-contiguous float64, the rows of n doubles that bploop.c names) for
    its state and mu0 for the smooth perceptron's first smoothing
    parameter.  Returns the status or failure code and the number of steps
    taken.  z and Pz (float64, contiguous) are updated in place, Pz
    recomputed every `refresh` steps (never for 0)."""
    iters = ctypes.c_int64()
    address = blas._address
    code = library().bp_run(scheme, z.size, address(P), address(z), address(Pz), epsilon,
                            min(max_iters, _MAX_ITERS), refresh, ctypes.byref(iters),
                            address(block), mu0)
    return code, iters.value
