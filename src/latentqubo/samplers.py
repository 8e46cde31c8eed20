"""Pluggable QUBO samplers: an exact brute-force oracle and simulated annealing.

Both samplers return a :class:`SampleSet` of deduplicated binary vectors
sorted by ascending energy (ties broken lexicographically on the bits), and
are fully deterministic given their inputs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _native
from .qubo import FLOAT_FORMAT, QuboProblem, _energy_kernel, qubo_energy

__all__ = [
    "AnnealSchedule",
    "SampleEntry",
    "SampleSet",
    "brute_force_sample",
    "simulated_annealing_sample",
]

BRUTE_FORCE_MAX_BITS = 24
_CHUNK_BITS = 16  # enumerate at most 2**_CHUNK_BITS states per batch
# Annealing threads per call.  Each holds one read's draws (16 bytes per step)
# while it runs, so the cap also bounds the sampler's memory on any machine.
_MAX_ANNEAL_WORKERS = 4


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
        if not self.beta_start > 0:
            raise ValueError(f"beta_start must be > 0, got {self.beta_start}")
        if not self.beta_end > self.beta_start:
            raise ValueError(
                f"beta_end must exceed beta_start, got {self.beta_end} <= {self.beta_start}"
            )
        if self.num_sweeps < 1 or self.num_reads < 1:
            raise ValueError("num_sweeps and num_reads must both be >= 1")

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
            lines.append(f"{rank},{FLOAT_FORMAT % entry.energy},{entry.occurrences},{bits}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


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

    The states are screened a chunk of 2^16 at a time by a small C kernel
    that walks them in Gray-code order, one bit flip and O(n) work per state,
    from the package's one cached C build.  Its energies round differently
    from :func:`qubo_energy`, within a proven bound, so only the states that
    can make the top_k within that bound are rescored with the energy kernel
    itself, and every returned energy is bit-identical to ``qubo_energy``.
    Without a C compiler each chunk is scored by the energy kernel instead;
    both ways return the same SampleSet.  Memory stays O(2^16 + top_k).
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if q.n > BRUTE_FORCE_MAX_BITS:
        raise ValueError(
            f"brute force enumeration capped at {BRUTE_FORCE_MAX_BITS} bits, problem has n={q.n}"
        )
    top_k = min(top_k, 1 << q.n)
    chunk = 1 << min(q.n, _CHUNK_BITS)
    lib = _native.library()
    if lib is None:
        screens, slack = _einsum_screen(q, chunk), 0.0
    else:
        screens, slack = _gray_screen(lib, q, chunk), _screen_bound(q, chunk)
    ints, energies = np.empty(0, dtype=np.uint64), np.empty(0)
    for start, screened in screens:
        ints, energies = _merge(q, ints, energies, start, screened, top_k, slack)
    vectors = _bits_from_ints(ints, q.n)
    return _make_sample_set(vectors, energies, np.ones(top_k, dtype=int), "brute_force", seed=0)


def _exact_energies(q: QuboProblem, ints: np.ndarray) -> np.ndarray:
    """The energy kernel's energies of the states numbered ints."""
    return _energy_kernel(_bits_from_ints(ints, q.n).astype(np.float64), q.linear, q.upper, q.offset)


def _einsum_screen(q: QuboProblem, chunk: int):
    """Yield (first state, exact energies) per chunk of states, from the energy kernel."""
    for start in range(0, 1 << q.n, chunk):
        yield start, _exact_energies(q, np.arange(start, start + chunk, dtype=np.uint64))


def _gray_screen(lib, q: QuboProblem, chunk: int):
    """Yield (first state, screened energies) per chunk of states, from the compiled walk.

    One buffer is refilled for each chunk, so a yielded array holds until the next.
    """
    low = chunk.bit_length() - 1
    coupling = q.dense_symmetric
    field, energies = np.empty(low), np.empty(chunk)
    for start in range(0, 1 << q.n, chunk):
        lib.gray_scan(q.n, low, start, q.linear, coupling, q.offset, field, energies)
        yield start, energies


def _screen_bound(q: QuboProblem, chunk: int) -> float:
    """A bound delta on |screened - exact| energy over all states, for chunks of this size.

    With u = 2^-53 and gamma(k) = k u / (1 - k u), the sum of m exact terms in
    any order is within gamma(m - 1) times the sum of their magnitudes
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., 4.2).
    Every product in an energy is exact, since each x_i is 0 or 1.  Let
    A = |offset| + sum |linear| + sum |upper|, which bounds every energy and
    the magnitudes of its terms, and F = max_j (|linear_j| + sum_i |coupling_ji|),
    which does the same for every local field.  Let m = n^2 + n + 1 terms and
    T = chunk.

    - The energy kernel sums at most m terms: within gamma(m - 1) A.
    - The walk sums each field from scratch (gamma(n - 1) F), then adds one
      exact term per step: f_t <= (1 + u) f_(t-1) + u F, so after t < T
      steps a field is within gamma(n + T) F.
    - The walk's energy starts within gamma(m - 1) A.  Each step adds a
      field, so it inherits that field's error and rounds by at most u A:
      e_t <= (1 + u) (e_(t-1) + gamma(n + T) F) + u A.  Unrolled over t < T
      steps, with (1 + gamma(a)) (1 + gamma(b)) <= 1 + gamma(a + b), this is
      within gamma(m + T) A + T gamma(2T + n + 1) F.

    The two sum to at most 2 gamma(m + T) A + T gamma(2T + n + 1) F.  The
    factor 1.25 covers the rounding of A, F and this formula, and of adding
    delta to an energy (at most u (A + 2 delta), against delta >= 2 m u A).
    """
    u = 2.0**-53

    def gamma(k: int) -> float:
        return k * u / (1 - k * u)

    n, terms = q.n, q.n * q.n + q.n + 1
    energy_scale = abs(q.offset) + np.abs(q.linear).sum() + np.abs(q.upper).sum()
    field_scale = (np.abs(q.linear) + np.abs(q.dense_symmetric).sum(axis=1)).max()
    return 1.25 * (2 * gamma(terms + chunk) * energy_scale
                   + chunk * gamma(2 * chunk + n + 1) * field_scale)


def _merge(q, ints, energies, start, screened, top_k: int, slack: float):
    """Fold one chunk into the first top_k states so far by (energy, lexicographic bits).

    ints and energies are the states so far in that order, with exact
    energies; screened holds the chunk's energies, each within slack of the
    exact one.  A chunk state can make the top_k only if its exact energy is
    at most the chunk's k-th exact energy, which is at most the k-th screened
    one plus slack: so its screened energy is within 2 slack of that.  Once
    top_k states are kept, it must also not exceed the last kept energy, so
    its screened energy is at most that plus slack.  The states that pass
    both are rescored exactly and merged; a state that fails either can
    never be among the first top_k, since the kept energies only fall.
    """
    bound = np.inf
    if screened.size > top_k:
        bound = np.partition(screened, top_k - 1)[top_k - 1] + 2 * slack
    if energies.size == top_k:
        bound = min(bound, energies[-1] + slack)
    new = np.flatnonzero(screened <= bound).astype(np.uint64) + np.uint64(start)
    ints = np.concatenate([ints, new])
    energies = np.concatenate([energies, _exact_energies(q, new)])
    order = np.lexsort((*_bits_from_ints(ints, q.n).T[::-1], energies))[:top_k]
    return ints[order], energies[order]


def simulated_annealing_sample(
    q: QuboProblem, schedule: AnnealSchedule, seed: int
) -> SampleSet:
    """Single-bit Metropolis annealing with independent restarts.

    Each of ``num_reads`` restarts starts from a uniform random assignment and
    performs ``num_sweeps`` sweeps; within a sweep, bits are visited in a
    fresh random permutation and a flip is accepted with probability
    min(1, exp(-beta * delta)).  Restart randomness comes from per-read
    streams split off the given seed, and each read writes only its own final
    state, so the result is the same however many reads run at once.  The
    per-read final states are deduplicated and sorted by energy.

    The sweeps run in a small C kernel, compiled at the first call after the
    sources or the compiler change and loaded from the on-disk cache after
    that, with the reads spread over a pool of up to
    ``min(cores, num_reads, 4)`` threads; each thread draws one read's
    randomness, then anneals it with the interpreter lock released.  Without
    a C compiler the same steps run in numpy, all reads at once, in the
    calling thread.
    """
    n, reads, sweeps = q.n, schedule.num_reads, schedule.num_sweeps
    base = np.tile(np.arange(n, dtype=np.intp), (sweeps, 1))
    streams = np.random.SeedSequence(seed).spawn(reads)
    linear = q.linear
    coupling = q.dense_symmetric
    betas = schedule.betas()
    # resolved before the pool starts, so two threads never build it at once
    lib = _native.library()
    x = np.empty((reads, n))
    if lib is None:
        _anneal_numpy(linear, coupling, betas, (_read_draws(s, base) for s in streams), x)
    else:
        def anneal(r: int) -> None:
            x0, perms, uniforms = _read_draws(streams[r], base)
            mask = np.empty((n + 63) // 64, dtype=np.uint64)
            lib.anneal_read(n, sweeps, linear, coupling, betas, perms, uniforms, x0, mask)
            x[r] = x0

        with ThreadPoolExecutor(min(_cores(), reads, _MAX_ANNEAL_WORKERS)) as pool:
            list(pool.map(anneal, range(reads)))  # re-raises any read's exception

    finals, counts = np.unique(x.astype(np.uint8), axis=0, return_counts=True)
    energies = qubo_energy(q, finals)
    return _make_sample_set(finals, energies, counts, "simulated_annealing", seed=seed)


def _cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_draws(stream: np.random.SeedSequence, base: np.ndarray):
    """One read's start state, then its visiting orders and uniforms, each (sweeps, n)."""
    rng = np.random.default_rng(stream)
    x0 = rng.integers(0, 2, base.shape[1]).astype(np.float64)
    return x0, rng.permuted(base, axis=1), rng.random(base.shape)


def _anneal_numpy(linear, coupling, betas, draws, x: np.ndarray) -> None:
    """The kernel's steps in numpy, all reads at once; anneals the rows of x in place.

    Runs where no C compiler is found, and is the kernel's reference in the tests.
    """
    reads, n = x.shape
    perms = np.empty((reads, betas.size, n), dtype=np.intp)
    accept_draws = np.empty((reads, betas.size, n))
    for r, (x0, read_perms, uniforms) in enumerate(draws):
        x[r], perms[r], accept_draws[r] = x0, read_perms, uniforms
    rows = np.arange(reads)
    for t, beta in enumerate(betas):
        for p in range(n):
            idx = perms[:, t, p]
            local = linear[idx] + np.einsum("rn,rn->r", coupling[idx], x)
            delta = (1.0 - 2.0 * x[rows, idx]) * local
            accepted = accept_draws[:, t, p] < np.exp(np.minimum(0.0, -beta * delta))
            flip_rows = rows[accepted]
            flip_cols = idx[accepted]
            x[flip_rows, flip_cols] = 1.0 - x[flip_rows, flip_cols]
