"""Pluggable QUBO samplers: an exact brute-force oracle and simulated annealing.

Both samplers return a :class:`SampleSet` of deduplicated binary vectors
sorted by ascending energy (ties broken lexicographically on the bits), and
are fully deterministic given their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qubo import FLOAT_FORMAT, QuboProblem, _energy_kernel, as_binary_vector, qubo_energy

__all__ = [
    "AnnealSchedule",
    "SampleEntry",
    "SampleSet",
    "brute_force_sample",
    "simulated_annealing_sample",
    "incremental_delta",
]

BRUTE_FORCE_MAX_BITS = 24
_CHUNK_BITS = 16  # enumerate at most 2**_CHUNK_BITS states per batch


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


def _make_sample_set(counted, sampler_name: str, seed: int) -> SampleSet:
    """Sort (vector, energy, occurrences) triples by (energy, lexicographic bits)."""
    ordered = sorted(counted, key=lambda t: (t[1], t[0].tolist()))
    entries = tuple(
        SampleEntry(vector=v.astype(np.uint8), energy=float(e), occurrences=int(c))
        for v, e, c in ordered
    )
    for entry in entries:
        entry.vector.setflags(write=False)
    return SampleSet(entries=entries, sampler_name=sampler_name, seed=seed)


def _bits_from_ints(values: np.ndarray, n: int) -> np.ndarray:
    """Little-endian bit matrix: row r holds the bits of values[r], bit i = x_i."""
    shifts = np.arange(n, dtype=np.uint64)
    return ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def brute_force_sample(
    q: QuboProblem, top_k: int, max_bits: int = BRUTE_FORCE_MAX_BITS
) -> SampleSet:
    """Enumerate all 2^n assignments and return the top_k lowest-energy vectors.

    Serves as the exactness oracle for every other sampler; entry 0 is always
    a global minimum.  Rejects problems with n above ``max_bits``.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if q.n > max_bits:
        raise ValueError(
            f"brute force enumeration capped at {max_bits} bits, problem has n={q.n}"
        )
    total = 1 << q.n
    top_k = min(top_k, total)
    best_vals: np.ndarray | None = None
    best_ints: np.ndarray | None = None
    chunk = 1 << min(q.n, _CHUNK_BITS)
    for start in range(0, total, chunk):
        ints = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        bits = _bits_from_ints(ints, q.n).astype(np.float64)
        energies = _energy_kernel(bits, q.linear, q.upper, q.offset)
        if best_vals is not None:
            energies = np.concatenate([best_vals, energies])
            ints = np.concatenate([best_ints, ints])
        if energies.size > top_k:
            keep = np.argpartition(energies, top_k - 1)[:top_k]
            # argpartition alone is enough: final ordering happens at the end
            best_vals, best_ints = energies[keep], ints[keep]
        else:
            best_vals, best_ints = energies, ints
    vectors = _bits_from_ints(best_ints, q.n)
    return _make_sample_set(zip(vectors, best_vals, [1] * top_k), "brute_force", seed=0)


def incremental_delta(q: QuboProblem, bits, i: int) -> float:
    """Energy change from flipping bit i, computed in O(n)."""
    x = as_binary_vector(bits)
    if x.size != q.n:
        raise ValueError(f"dimension mismatch: problem has n={q.n}, vector has length {x.size}")
    if not (0 <= i < q.n):
        raise ValueError(f"bit index {i} out of range for n={q.n}")
    local = q.linear[i] + (q.upper[i] + q.upper[:, i]) @ x
    return float((1.0 - 2.0 * x[i]) * local)


def simulated_annealing_sample(
    q: QuboProblem, schedule: AnnealSchedule, seed: int
) -> SampleSet:
    """Single-bit Metropolis annealing with independent restarts.

    Each of ``num_reads`` restarts starts from a uniform random assignment and
    performs ``num_sweeps`` sweeps; within a sweep, bits are visited in a
    fresh random permutation and a flip is accepted with probability
    min(1, exp(-beta * delta)).  Restart randomness comes from per-read
    streams split off the given seed, so results are identical whether reads
    run serially or in parallel.  The per-read final states are deduplicated
    and sorted by energy.
    """
    n = q.n
    reads, sweeps = schedule.num_reads, schedule.num_sweeps
    streams = np.random.SeedSequence(seed).spawn(reads)

    x = np.empty((reads, n))
    perms = np.empty((reads, sweeps, n), dtype=np.intp)
    accept_draws = np.empty((reads, sweeps, n))
    base = np.tile(np.arange(n, dtype=np.intp), (sweeps, 1))
    for r, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        x[r] = rng.integers(0, 2, n)
        perms[r] = rng.permuted(base, axis=1)
        accept_draws[r] = rng.random((sweeps, n))

    linear = q.linear
    coupling = q.dense_symmetric
    betas = schedule.betas()
    rows = np.arange(reads)
    for t in range(sweeps):
        beta = betas[t]
        for p in range(n):
            idx = perms[:, t, p]
            local = linear[idx] + np.einsum("rn,rn->r", coupling[idx], x)
            delta = (1.0 - 2.0 * x[rows, idx]) * local
            accepted = accept_draws[:, t, p] < np.exp(np.minimum(0.0, -beta * delta))
            flip_rows = rows[accepted]
            flip_cols = idx[accepted]
            x[flip_rows, flip_cols] = 1.0 - x[flip_rows, flip_cols]

    finals, counts = np.unique(x.astype(np.uint8), axis=0, return_counts=True)
    energies = qubo_energy(q, finals)
    return _make_sample_set(zip(finals, energies, counts), "simulated_annealing", seed=seed)
