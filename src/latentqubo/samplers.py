"""Pluggable QUBO samplers: an exact brute-force oracle and simulated annealing.

Both samplers return a :class:`SampleSet` of deduplicated binary vectors
sorted by ascending energy (ties broken lexicographically on the bits), and
are fully deterministic given their inputs.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _native, _settings, _text
from .fm import _coupling
from .qubo import QuboProblem, _energy_loop, qubo_energy

__all__ = [
    "AnnealSchedule",
    "SampleEntry",
    "SampleSet",
    "brute_force_sample",
    "simulated_annealing_sample",
]

BRUTE_FORCE_MAX_BITS = 24
_CHUNK_BITS = 16  # enumerate at most 2**_CHUNK_BITS states per batch
# Annealing threads in the process, which all its calls share.  Each holds one block's lane
# masks (16 words per bit) while it runs, so the cap also bounds the sampler's memory.
_MAX_ANNEAL_WORKERS = 4
# The process's one annealing executor, made at its first use and kept with its threads,
# since starting threads costs about as much as a small call's sweeps.
_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()
_LANES = 16  # reads per kernel call, one per lane; LANES in _anneal.c
# An FM QUBO anneals through its rank-k factors when n > _FACTORED_BITS_PER_RANK * k,
# where a step's O(k) factored field costs less than its O(n) dense one.
_FACTORED_BITS_PER_RANK = 4


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric inverse-temperature ramp for simulated annealing.

    beta(t) = beta_start * (beta_end / beta_start) ** (t / (num_sweeps - 1))
    for sweep t in [0, num_sweeps); a single-sweep schedule stays at beta_start.
    """

    beta_start: float = 0.1
    beta_end: float = 10.0
    num_sweeps: int = 1000
    num_reads: int = 20

    def __post_init__(self):
        # finite, since a zero-delta flip at beta = inf gives -inf * 0 = nan
        _settings.real("beta_start", self.beta_start, 0, strict=True)
        _settings.real("beta_end", self.beta_end, self.beta_start, strict=True)
        _settings.count("num_sweeps", self.num_sweeps)
        _settings.count("num_reads", self.num_reads)
        # The ramp rises to its last value, beta_start * (beta_end / beta_start), which can
        # overflow though both ends are finite: 1e300 / 1e-300 is inf.
        last = self.beta_start * (self.beta_end / self.beta_start)
        if self.num_sweeps > 1 and not math.isfinite(last):
            raise _settings.ConfigError(f"beta_end / beta_start must be finite, got "
                                        f"{self.beta_end!r} / {self.beta_start!r}")

    def betas(self) -> np.ndarray:
        if self.num_sweeps == 1:
            return np.array([self.beta_start])
        t = np.arange(self.num_sweeps) / (self.num_sweeps - 1)
        return self.beta_start * (self.beta_end / self.beta_start) ** t


@dataclass(frozen=True)
class SampleEntry:
    vector: np.ndarray
    energy: float
    occurrences: int = 1


@dataclass(frozen=True)
class SampleSet:
    """Energy-sorted, deduplicated sampler output."""

    entries: tuple[SampleEntry, ...]
    sampler_name: str
    seed: int

    def best(self) -> SampleEntry:
        return self.entries[0]

    def write_csv(self, path) -> None:
        lines = ["rank,energy,occurrences,bits"]
        for rank, entry in enumerate(self.entries):
            bits = "".join(str(b) for b in entry.vector)
            lines.append(f"{rank},{_text.float_text(entry.energy)},{entry.occurrences},{bits}")
        _text.write_lines(path, lines)


def _make_sample_set(X, energies, counts, sampler_name: str, seed: int) -> SampleSet:
    """Entries for the distinct rows of X, sorted by (energy, lexicographic bits).

    Each entry's vector is a row view of one read-only uint8 array.
    """
    order = np.lexsort((*X.T[::-1], energies))
    vectors = X[order].astype(np.uint8, copy=False)
    vectors.setflags(write=False)
    entries = tuple(
        SampleEntry(vector=v, energy=e, occurrences=c)
        for v, e, c in zip(vectors, energies[order].tolist(), np.asarray(counts)[order].tolist())
    )
    return SampleSet(entries=entries, sampler_name=sampler_name, seed=seed)


def _bits_from_ints(values: np.ndarray, n: int) -> np.ndarray:
    """Little-endian bit matrix: row r holds the bits of values[r], bit i = x_i."""
    shifts = np.arange(n, dtype=np.uint64)
    return ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def brute_force_sample(q: QuboProblem, top_k: int) -> SampleSet:
    """The first top_k of all 2^n assignments by (energy, lexicographic bits).

    Serves as the exactness oracle for every other sampler; entry 0 is always
    a global minimum, and states tied at the k-th energy are taken in
    lexicographic order of their bits.  Rejects problems with n above
    ``BRUTE_FORCE_MAX_BITS``.

    Each energy is summed in the order that defines :func:`qubo_energy`, so
    it is that function's bit for bit: (0.0 + offset) + sum over set bits i,
    ascending, of ((0.0 + linear[i]) + sum over set bits j > i, ascending, of
    upper[i, j]).  A C kernel from the package's cached build scores a chunk
    of 2^16 states at a time, or the numpy energy loop without a compiler,
    with the same result.  Memory stays O(2^16 + top_k).
    """
    top_k = _settings.count("top_k", top_k)
    if q.n > BRUTE_FORCE_MAX_BITS:
        raise ValueError(f"brute force enumeration capped at {BRUTE_FORCE_MAX_BITS} bits, "
                         f"problem has n={q.n}")
    top_k = min(top_k, 1 << q.n)
    chunk = 1 << min(q.n, _CHUNK_BITS)
    k = min(top_k, chunk)  # only a chunk's states at or below its k-th energy can make the top_k
    lib = _native.library()
    chunks = _looped_energies(q, chunk) if lib is None else _compiled_energies(lib, q, chunk)
    vectors, energies = np.empty((0, q.n), dtype=np.uint8), np.empty(0)
    for start, chunk_energies in chunks:
        kth = np.partition(chunk_energies, k - 1)[k - 1]
        new = np.flatnonzero(chunk_energies <= kth).astype(np.uint64)
        vectors = np.concatenate([vectors, _bits_from_ints(new + np.uint64(start), q.n)])
        energies = np.concatenate([energies, chunk_energies[new]])
        order = np.lexsort((*vectors.T[::-1], energies))[:top_k]
        vectors, energies = vectors[order], energies[order]
    return _make_sample_set(vectors, energies, np.ones(top_k, dtype=int), "brute_force", seed=0)


def _looped_energies(q: QuboProblem, chunk: int):
    """Yield (first state, energies) per chunk of states, from the numpy energy loop."""
    for start in range(0, 1 << q.n, chunk):
        bits = _bits_from_ints(np.arange(start, start + chunk, dtype=np.uint64), q.n)
        yield start, _energy_loop(bits, q.linear, q.upper, q.offset)


def _compiled_energies(lib, q: QuboProblem, chunk: int):
    """Yield (first state, energies) per chunk of states into one refilled buffer, from the kernel."""
    energies = np.empty(chunk)
    for start in range(0, 1 << q.n, chunk):
        lib.qubo_energies(q.n, start, chunk, q.linear, q.upper, q.offset, energies)
        yield start, energies


def simulated_annealing_sample(
    q: QuboProblem, schedule: AnnealSchedule, seed: int, factors=None
) -> SampleSet:
    """Single-bit Metropolis annealing with independent restarts.

    Each of ``num_reads`` restarts starts from a uniform random assignment and
    performs ``num_sweeps`` sweeps; each sweep visits the bits in index order,
    as dwave-neal does, and accepts a flip with probability
    min(1, exp(-beta * delta)).  Read r draws from its own PCG64 stream,
    ``SeedSequence(seed).spawn(num_reads)[r]``, its start state and then one
    uniform per step, and writes only its own final state, so the result is
    the same however the reads are grouped.  The per-read final states are
    deduplicated and sorted by energy.

    ``factors``, the (n, k) factor matrix V of the factorization machine that
    q was read off (``fm_to_qubo``), lets a step cost O(k) instead of O(n):
    q's coupling is then V Vᵀ off the diagonal, so bit i's field is
    v_i·s - |v_i|² x_i with s = Vᵀx kept per read.  A ValueError rejects
    factors whose couplings, as ``fm_to_qubo`` computes them, are not ``q.upper``
    exactly.  The sampler takes this form where it is the cheaper one, for n > 4k;
    below that, and without factors, each field sums all n couplings.  The two
    fields round differently, so a read can take another step at a near-tie.

    The sweeps run in a small C kernel, compiled at the first call after the
    sources or the compiler change and loaded from the on-disk cache after
    that.  One kernel call anneals a block of up to 16 reads, one read per
    vector lane, and draws each read's uniforms from its PCG64 state in C,
    the same numbers ``Generator.random`` would give.  The blocks, of
    near-equal size, run on up to ``min(cores, blocks, 4)`` threads with the
    interpreter lock released, on the process's one executor, made at its first
    call: it keeps at most ``min(cores, 4)`` threads for all the process's calls,
    starting one only when a block finds none idle (a forked child makes its own).
    Without a C compiler the same steps run in numpy, all reads at once, in the
    calling thread, drawing each read's uniforms one sweep at a time.
    """
    V = None if factors is None else _checked_factors(q, factors)
    if V is not None and q.n <= _FACTORED_BITS_PER_RANK * V.shape[1]:
        V = None  # the dense field costs less
    streams = np.random.SeedSequence(seed).spawn(schedule.num_reads)
    rngs = [np.random.Generator(np.random.PCG64(stream)) for stream in streams]
    x = np.array([rng.integers(0, 2, q.n) for rng in rngs], dtype=np.float64)
    lib = _native.library()
    if lib is None:
        _anneal_numpy(q, schedule.betas(), rngs, x, V)
    else:
        _anneal_blocks(lib, q, schedule.betas(), rngs, x, V)
    finals, counts = _distinct_rows(x.astype(np.uint8))
    energies = qubo_energy(q, finals)
    return _make_sample_set(finals, energies, counts, "simulated_annealing", seed=seed)


def _distinct_rows(X: np.ndarray):
    """``np.unique(X, axis=0, return_counts=True)`` for a 0/1 uint8 matrix, keyed on each row's
    packed bytes, whose order is the rows' lexicographic order."""
    packed = np.packbits(X, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return X[first], counts


def _checked_factors(q: QuboProblem, factors) -> np.ndarray:
    """factors as a C-contiguous float64 (n, k) matrix V, or a ValueError unless V gives q.upper."""
    V = np.ascontiguousarray(factors, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] != q.n or V.shape[1] == 0:
        raise ValueError(f"factors must have shape (n, k) with n={q.n} and k >= 1, got {V.shape}")
    if not np.array_equal(_coupling(V), q.upper):
        raise ValueError("factors V must give the problem's couplings, as fm_to_qubo computes them")
    return V


def _norms(V: np.ndarray) -> np.ndarray:
    """|v_i|² for each bit, summed in index order from 0.0."""
    return 0.0 + np.cumsum(V * V, axis=1)[:, -1]


def _factored_start(V: np.ndarray, x: np.ndarray) -> np.ndarray:
    """s = Vᵀx for each read, summed in index order from 0.0, as anneal_block sums it."""
    s = np.zeros((x.shape[0], V.shape[1]))
    for j in range(x.shape[1]):
        s += x[:, j, None] * V[j]
    return s


def _cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool() -> ThreadPoolExecutor:
    """The process's annealing executor, made at its first use: it keeps up to ``min(cores, 4)``
    threads, each started when a block finds none idle."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(min(_cores(), _MAX_ANNEAL_WORKERS))
    return _executor


def _forget_pool() -> None:
    """In a forked child, which has only the forking thread: make a new executor when asked."""
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()  # the parent may have held the lock


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pcg64_words(rng: np.random.Generator) -> list[int]:
    """The generator's 128-bit PCG64 state and increment as four uint64 words, low first."""
    state = rng.bit_generator.state["state"]
    low = (1 << 64) - 1
    return [state["state"] & low, state["state"] >> 64, state["inc"] & low, state["inc"] >> 64]


def _anneal_blocks(lib, q: QuboProblem, betas, rngs, x: np.ndarray, V=None) -> None:
    """The kernel's steps, a block of up to 16 reads per call; anneals the rows of x in place.

    The reads split into ``ceil(reads / 16)`` blocks of near-equal size, on any
    number of cores: a block costs its 16 lanes' sums however few it holds, so
    fewer, fuller blocks beat one more block per thread.  The blocks run on the
    process's one executor of ``min(cores, 4)`` threads (:func:`_pool`), each with
    its own lane masks and s, so concurrent calls share it.  Read r's generator
    has drawn its start state; the kernel goes on with its stream from the
    state it is handed.  With factors V each block sums its reads' s = Vᵀx
    itself; without, it reads the symmetric coupling matrix.

    A block that begins after the call has returned or raised does nothing:
    where starting a thread fails, ``submit`` has already queued that block,
    with no future for ``map`` to cancel, and the thread that did start would
    otherwise anneal it into the arrays of a call that has raised.
    """
    reads, n = x.shape
    if V is None:
        k, coupling, norms = 0, q.dense_symmetric, np.empty(0)
    else:
        k, coupling, norms = V.shape[1], V, _norms(V)
    states = np.array([_pcg64_words(rng) for rng in rngs], dtype=np.uint64)
    blocks = -(-reads // _LANES)
    bounds = [reads * b // blocks for b in range(blocks + 1)]
    over = threading.Event()

    def anneal(b: int) -> None:
        if over.is_set():
            return
        lo, hi = bounds[b], bounds[b + 1]
        masks, s = np.empty((n, _LANES), dtype=np.uint64), np.empty((k, _LANES))
        lib.anneal_block(n, k, betas.size, hi - lo, q.linear, coupling, norms, betas,
                         states[lo:hi], x[lo:hi], s, masks)

    try:
        list(_pool().map(anneal, range(blocks)))  # re-raises any block's exception
    finally:
        over.set()


def _anneal_numpy(q: QuboProblem, betas, rngs, x: np.ndarray, V=None) -> None:
    """The kernel's steps in numpy, all reads at once; anneals the rows of x in place.

    Each field is summed in the kernel's order, dense or through the factors V, each
    s is updated as the kernel updates it, and each threshold is the C library's
    exp, so both give the same reads.  Read r's uniforms come from ``rngs[r]`` one
    sweep at a time, the stream the kernel draws, so memory stays O(reads·n).
    The fallback, and the kernel's reference in tests.
    """
    reads, n = x.shape
    if V is None:
        coupling = q.dense_symmetric
    else:
        norms, s = _norms(V), _factored_start(V, x)
    for beta in betas:
        uniforms = np.array([rng.random(n) for rng in rngs])
        for i in range(n):
            if V is None:
                field = 0.0 + np.cumsum(x * coupling[i], axis=1)[:, -1]
            else:
                field = (0.0 + np.cumsum(s * V[i], axis=1)[:, -1]) - x[:, i] * norms[i]
            delta = (1.0 - 2.0 * x[:, i]) * (q.linear[i] + field)
            threshold = np.fromiter(map(math.exp, np.minimum(0.0, -beta * delta)), float, reads)
            accepted = uniforms[:, i] < threshold
            x[accepted, i] = 1.0 - x[accepted, i]
            if V is not None:
                s += (accepted * (2.0 * x[:, i] - 1.0))[:, None] * V[i]
