"""The package's C kernels, built once per process at first use.

``_anneal.c`` (the annealer's Metropolis sweep) and ``_fm.c`` (one epoch of
FM Adagrad) are compiled together with ``cc`` into a temporary directory and
loaded through ``ctypes``.  Where no compiler is found, or the build fails,
:func:`library` returns None and each caller runs its numpy loop instead.
"""

from __future__ import annotations

import ctypes
import functools
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

SOURCES = ("_anneal.c", "_fm.c")


def _array(dtype, ndim: int, out: bool = False):
    """A ctypes argument that accepts only C-contiguous arrays of this dtype and ndim."""
    flags = "C_CONTIGUOUS,WRITEABLE" if out else "C_CONTIGUOUS"
    return np.ctypeslib.ndpointer(dtype, ndim=ndim, flags=flags)


@functools.cache
def library():
    """The loaded kernels, or None when no C compiler is found or the build fails.

    Compiled without -ffast-math and with -ffp-contract=off, so every sum
    keeps its written order.  -falign-loops=32 starts each loop on its own
    32-byte boundary, so a kernel's speed does not depend on what the other
    source puts before it (on x86-64 the annealer's inner loop ran 30 %
    slower when the FM kernel shifted it across a cache line).  A failed build warns
    once with the compiler's output.  ptrdiff_t matches numpy's intp.
    """
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    here = Path(__file__).parent
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "_latentqubo.so"
            subprocess.run(
                [compiler, "-O2", "-ffp-contract=off", "-falign-loops=32", "-shared", "-fPIC",
                 "-o", str(path), *(str(here / name) for name in SOURCES), "-lm"],
                check=True, capture_output=True, text=True,
            )
            lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        warnings.warn(f"running numpy loops: building {', '.join(SOURCES)} failed: {detail}",
                      RuntimeWarning)
        return None
    size, f64 = ctypes.c_ssize_t, np.float64
    lib.anneal_read.argtypes = [
        size, size,  # n, sweeps
        _array(f64, 1), _array(f64, 2), _array(f64, 1),  # linear, coupling, betas
        _array(np.intp, 2), _array(f64, 2),  # perms, uniforms
        _array(f64, 1, out=True), _array(np.uint64, 1, out=True),  # x, mask of x's set bits
    ]
    lib.anneal_read.restype = None
    lib.fm_epoch.argtypes = [
        size, size, size,  # n, k, rows
        _array(np.intp, 1), _array(np.uint8, 2), _array(f64, 1), ctypes.c_double,  # order, X, Y, lr
        _array(f64, 1, out=True), _array(f64, 1, out=True), _array(f64, 2, out=True),  # w0, w, V
        _array(f64, 1, out=True), _array(f64, 1, out=True), _array(f64, 2, out=True),  # accumulators
        _array(f64, 1, out=True),  # s, k doubles of scratch
    ]
    lib.fm_epoch.restype = None
    return lib
