"""The package's C kernels, built once per source tree and host CPU and cached on disk.

``_fm.c`` (every epoch of FM Adagrad), ``_energy.c`` (the energies of the
brute-force sampler's run of states and of any rows of bits, each summed in
``qubo_energy``'s order), ``_parse.c`` (rows of decimal text straight from the
text reader's buffer, read as ``float()`` reads them, or passed over by their
bytes alone), ``_format.c`` (rows of float64 values written as ``"%.17g"``
writes them), ``_adam.c`` (one Adam step of the autoencoder over all its
parameters), ``_anneal.c`` (the annealer's Metropolis sweeps of a block of up
to 16 reads, over a dense QUBO or through an FM's factors) and ``_decode.c``
(the decoder's head logits for a batch of latent rows) are compiled with
``cc`` in one command into one library, loaded through ``ctypes``.  The build
takes ``-march=native``, so the kernels run at the host CPU's vector width,
which changes their speed and never a bit; where a compiler rejects the flag,
the same command runs again without it, for the compiler's default target.
The library is kept in the package's ``__pycache__/`` under a
name that carries a SHA-256 of the sources and of this module, which holds the
flags and the build's steps, the compiler, the machine and the host CPU's
identity (:func:`_cpu`), so only the first process after a change to any of them
runs the compiler, and no entry is loaded on a CPU that may lack its
instructions.  The cache keeps one entry, so hosts with different CPUs that
share one install rebuild in turn.  Where no compiler is found, or the build
fails, :func:`library` returns None and each caller runs its numpy loop instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

# _anneal.c and _decode.c last: code placement moves a kernel's speed by a few per cent even with
# -falign-loops, and on an AVX-512 x86-64, linked first, they made fm_fit about 4 % slower
SOURCES = ("_fm.c", "_energy.c", "_parse.c", "_format.c", "_adam.c", "_anneal.c", "_decode.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-falign-loops=32", "-shared",
          "-fPIC")
_HOST = "-march=native"  # the host CPU's instructions, where the compiler takes the flag
_LIBS = ("-lm",)
_CACHE_DIR = Path(__file__).parent / "__pycache__"


def _array(dtype, ndim: int, out: bool = False):
    """A ctypes argument that accepts only C-contiguous arrays of this dtype and ndim."""
    flags = "C_CONTIGUOUS,WRITEABLE" if out else "C_CONTIGUOUS"
    return np.ctypeslib.ndpointer(dtype, ndim=ndim, flags=flags)


def _compile(compiler: str, sources: list[Path], out: Path):
    """Build the library at out in one compiler command, for the host CPU where the compiler
    takes _HOST and for its default target where it does not."""
    command = [compiler, *_FLAGS, "-o", str(out), *map(str, sources), *_LIBS]
    try:
        subprocess.run([*command, _HOST], check=True, capture_output=True, text=True)
    except subprocess.CalledProcessError:
        subprocess.run(command, check=True, capture_output=True, text=True)
    out.chmod(0o755)  # never group-writable, whatever the umask, so the entry stays loadable
    return ctypes.CDLL(str(out))


def _cpu() -> str:
    """The host CPU's identity: the first flags (x86) or Features (Arm) line of
    /proc/cpuinfo, or platform.processor() where there is none."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as info:
            for line in info:
                if line.startswith(("flags", "Features")):
                    return line.strip()
    except OSError:
        pass
    return platform.processor()


def _entry_name(compiler: str, sources: list[Path]) -> str:
    """The cache file name: a digest of everything that decides the library's bytes.

    This module is hashed with the sources, since it holds the flags and the build's steps.
    """
    resolved = os.path.realpath(compiler)
    info = os.stat(resolved)
    key = repr((
        [(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
         for path in [*sources, Path(__file__)]],
        resolved, info.st_size, info.st_mtime_ns, platform.machine(), _cpu(),
    ))
    return f"_latentqubo-{hashlib.sha256(key.encode()).hexdigest()}.so"


def _trusted(path: Path) -> bool:
    """A regular file (not a link) of this user's that no one else can write."""
    try:
        info = path.lstat()
    except OSError:
        return False
    return (stat.S_ISREG(info.st_mode) and info.st_uid == os.geteuid()
            and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _load(compiler: str, sources: list[Path]):
    """Load the cached library, or build it and cache it for the next process.

    A new build is written under a unique temporary name in the cache
    directory and renamed into place, so a concurrent process sees either no
    entry or a whole one.  An entry that fails the ownership check or fails
    to load is built again and replaced.  Where the cache directory cannot
    be written, the library is built in a temporary directory and not kept.
    """
    entry = _CACHE_DIR / _entry_name(compiler, sources)
    if _trusted(entry):
        try:
            return ctypes.CDLL(str(entry))
        except OSError:
            pass
    try:
        _CACHE_DIR.mkdir(exist_ok=True)
        fd, name = tempfile.mkstemp(prefix=entry.stem + "-", suffix=".tmp", dir=_CACHE_DIR)
        os.close(fd)
    except OSError:
        with tempfile.TemporaryDirectory() as tmp:
            return _compile(compiler, sources, Path(tmp) / "_latentqubo.so")
    tmp = Path(name)
    try:
        lib = _compile(compiler, sources, tmp)
        os.replace(tmp, entry)
    finally:
        tmp.unlink(missing_ok=True)
    for old in _CACHE_DIR.glob("_latentqubo-*.so"):
        if old != entry:
            try:
                old.unlink()
            except OSError:
                pass  # another process removed it first, or it is not ours to remove
    return lib


_BUILD_LOCK = threading.Lock()
_built = []  # library()'s result, once it has one


def library():
    """The loaded kernels, or None when no C compiler is found or the build fails.

    Built or loaded once per process: a caller that finds no result takes a lock and
    looks again, so a second thread that calls during the first build waits for it
    (``functools.cache`` would run the build again in that thread).

    Compiled without -ffast-math and with -ffp-contract=off, so every sum
    keeps its written order.  -fno-math-errno lets sqrt compile to one
    instruction: it changes no result, only that a math function given a
    value outside its domain does not set errno, which no kernel reads.
    -falign-loops=32 starts each loop on its own 32-byte boundary, so a kernel's
    speed does not depend on what the other sources put before it (on x86-64 the
    annealer's inner loop ran 30 % slower when the FM kernel shifted it across a
    cache line).  A failed build warns once with the compiler's output and leaves
    nothing in the cache.  ptrdiff_t matches numpy's intp.
    """
    if not _built:
        with _BUILD_LOCK:
            if not _built:
                _built.append(_build())
    return _built[0]


def _build():
    """:func:`library`'s one build or load."""
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    here = Path(__file__).parent
    try:
        lib = _load(compiler, [here / name for name in SOURCES])
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        warnings.warn(f"running numpy loops: building {', '.join(SOURCES)} failed: {detail}",
                      RuntimeWarning)
        return None
    return _bind(lib)


def _bind(lib):
    """lib, a build of SOURCES, with each kernel's argument and result types set."""
    size, f64 = ctypes.c_ssize_t, np.float64
    lib.anneal_block.argtypes = [
        size, size, size, size,  # n, k (0 for the dense form), sweeps, lanes (reads in the block)
        _array(f64, 1), _array(f64, 2),  # linear; symmetric coupling (n x n) or factors (n x k)
        _array(f64, 1), _array(f64, 1),  # |v_i|^2 (n, or none), betas
        _array(np.uint64, 2),  # each read's PCG64 state and increment, lanes x 4 words
        _array(f64, 2, out=True), _array(f64, 2, out=True),  # x; s = V^T x, k x 16 of scratch
        _array(np.uint64, 2, out=True),  # n x 16 lane masks
    ]
    lib.anneal_block.restype = None
    lib.fm_fit.argtypes = [
        size, size, size, size,  # n, k, epochs, rows
        _array(np.intp, 2), _array(np.uint8, 2), _array(f64, 1), ctypes.c_double,  # orders, X, Y, lr
        _array(f64, 1, out=True), _array(f64, 1, out=True), _array(f64, 2, out=True),  # w0, w, V
        _array(f64, 1, out=True), _array(f64, 1, out=True), _array(f64, 2, out=True),  # accumulators
        _array(f64, 1, out=True), _array(np.intp, 1, out=True),  # s and on: k and n of scratch
    ]
    lib.fm_fit.restype = None
    lib.qubo_energies.argtypes = [
        size, size, size,  # n, start, count
        _array(f64, 1), _array(f64, 2), ctypes.c_double,  # linear, upper, offset
        _array(f64, 1, out=True),  # out, count energies
    ]
    lib.qubo_energies.restype = None
    lib.qubo_row_energies.argtypes = [
        size, size, _array(np.uint8, 2),  # rows, n, bits
        _array(f64, 1), _array(f64, 2), ctypes.c_double,  # linear, upper, offset
        _array(np.intp, 1, out=True), _array(f64, 1, out=True),  # n indices of scratch; out
    ]
    lib.qubo_row_energies.restype = None
    lib.parse_floats.argtypes = [
        _array(np.uint8, 1), size, size, size,  # text, its size in bytes, rows, cols
        _array(f64, 2, out=True),  # out, rows x cols values
        _array(np.intp, 1, out=True),  # used: the bytes and the lines passed
    ]
    lib.parse_floats.restype = size  # the number of leading rows read
    lib.skip_rows.argtypes = [
        _array(np.uint8, 1), size, size,  # text, its size in bytes, rows
        _array(np.intp, 1, out=True),  # used: the bytes and the lines passed
    ]
    lib.skip_rows.restype = size  # the number of nonblank lines passed
    lib.format_floats.argtypes = [
        _array(f64, 2), size, size,  # values, rows, cols
        _array(np.uint8, 1, out=True),  # out, 25 bytes a value
    ]
    lib.format_floats.restype = size  # the bytes written
    lib.adam_step.argtypes = [
        size,  # the number of parameters
        _array(f64, 1, out=True), _array(f64, 1, out=True), _array(f64, 1, out=True),  # p, m, v
        _array(f64, 1),  # g
        *[ctypes.c_double] * 6,  # lr, b1, b2, c1 = 1 - b1^t, c2 = 1 - b2^t, eps
    ]
    lib.adam_step.restype = None
    lib.decode_heads.argtypes = [
        size, size, size, size, size,  # rows, n, d1, d2, pixels
        _array(np.uint8, 2),  # bits, rows x n
        *[_array(f64, 2)] * 6,  # dec1_w, dec1_b, dec2_w, dec2_b, dec3_w, dec3_b
        *[_array(f64, 1, out=True)] * 3,  # x, h1, h2: n, d1 and d2 doubles of scratch
        _array(np.intp, 1, out=True),  # nonzero, max(n, d1, d2) indices of scratch
        _array(f64, 2, out=True),  # heads, rows x pixels
    ]
    lib.decode_heads.restype = None
    return lib
