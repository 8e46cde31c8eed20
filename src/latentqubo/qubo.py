"""QUBO and Ising energy models with exact bidirectional conversion.

A QUBO instance is a second-order polynomial over binary vectors
``x in {0,1}^n``; the Ising form is the same polynomial over spin vectors
``s in {-1,+1}^n`` under the substitution ``s_i = 2*x_i - 1``.  Both carry an
explicit constant offset so that energies (not just argmins) are preserved
exactly by the conversions.  Each problem holds its couplings as one dense,
read-only, strictly upper-triangular matrix; the text files stay sparse.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .fm import LabelTransform

__all__ = [
    "QuboProblem",
    "IsingProblem",
    "ConnectivityReport",
    "as_binary_vector",
    "as_spin_vector",
    "binary_to_spin",
    "spin_to_binary",
    "qubo_energy",
    "ising_energy",
    "qubo_to_ising",
    "ising_to_qubo",
    "analyze_connectivity",
    "save_qubo",
    "load_qubo",
    "save_ising",
    "load_ising",
]

# Decimal precision that round-trips float64 exactly.
FLOAT_FORMAT = "%.17g"


def _checked_states(values, low: int, max_ndim: int = 1) -> np.ndarray:
    """Array of one state (or, with max_ndim=2, a batch of rows) with entries low or 1."""
    arr = np.asarray(values)
    kind, allowed = ("binary", "0 or 1") if low == 0 else ("spin", "-1 or +1")
    if not 1 <= arr.ndim <= max_ndim or arr.size == 0:
        raise ValueError(f"{kind} vector must be 1-D and nonempty, got shape {arr.shape}")
    if not np.all((arr == low) | (arr == 1)):
        raise ValueError(f"{kind} vector entries must be exactly {allowed}")
    return arr


def as_binary_vector(bits) -> np.ndarray:
    """Validate a {0,1} vector and return it as a 1-D uint8 array."""
    return _checked_states(bits, 0).astype(np.uint8)


def as_spin_vector(spins) -> np.ndarray:
    """Validate a {-1,+1} vector and return it as a 1-D int8 array."""
    return _checked_states(spins, -1).astype(np.int8)


def binary_to_spin(bits) -> np.ndarray:
    """Map x in {0,1}^n to s in {-1,+1}^n via s_i = 2*x_i - 1."""
    x = as_binary_vector(bits)
    return (2 * x.astype(np.int8) - 1).astype(np.int8)


def spin_to_binary(spins) -> np.ndarray:
    """Inverse of :func:`binary_to_spin`: x_i = (s_i + 1) / 2."""
    s = as_spin_vector(spins)
    return ((s + 1) // 2).astype(np.uint8)


def _coupling_matrix(pairs, n: int) -> np.ndarray:
    """Read-only strictly upper-triangular (n, n) matrix from a pair map or an (n, n) array."""
    if isinstance(pairs, Mapping):
        keys = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        i, j = keys.T
        bad = keys[~((0 <= i) & (i < j) & (j < n))]
        if bad.size:
            key = tuple(bad[0].tolist())
            raise ValueError(f"coupling key {key} must satisfy 0 <= i < j < n with n={n}")
        upper = np.zeros((n, n))
        upper[i, j] = np.array(list(pairs.values()), dtype=np.float64)
    else:
        upper = np.zeros((n, n)) if pairs is None else np.array(pairs, dtype=np.float64)
        if upper.shape != (n, n):
            raise ValueError(f"coupling matrix must have shape ({n}, {n}), got {upper.shape}")
    if not np.all(np.isfinite(upper)):
        raise ValueError("coupling coefficients must be finite")
    if np.tril(upper).any():
        raise ValueError("coupling matrix must be strictly upper triangular")
    upper.setflags(write=False)
    return upper


class _CoupledProblem:
    """Immutable store of both models: a first-order vector, ``upper`` and ``offset``.

    ``upper``, a read-only strictly upper-triangular float64 (n, n) matrix, is
    the only stored form of the couplings; constructors also take them as a
    ``{(i, j): c}`` map with i < j.  Equality ignores every other attribute.
    """

    _VECTOR = _WHAT = ""  # attribute name of the first-order vector; its name in errors

    def __init__(self, vector, pairs, offset):
        vector = np.array(vector, dtype=np.float64)
        if vector.ndim != 1 or vector.size == 0:
            raise ValueError(f"{self._WHAT} must form a nonempty 1-D vector, got {vector.shape}")
        if not np.all(np.isfinite(vector)):
            raise ValueError(f"{self._WHAT} must be finite")
        if not np.isfinite(float(offset)):
            raise ValueError(f"offset must be finite, got {offset!r}")
        vector.setflags(write=False)
        object.__setattr__(self, self._VECTOR, vector)
        object.__setattr__(self, "upper", _coupling_matrix(pairs, vector.size))
        object.__setattr__(self, "offset", float(offset))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.offset == other.offset
            and np.array_equal(getattr(self, self._VECTOR), getattr(other, self._VECTOR))
            and np.array_equal(self.upper, other.upper)
        )

    @property
    def n(self) -> int:
        return self.upper.shape[0]

    def _pairs(self) -> Mapping[tuple[int, int], float]:
        """Nonzero couplings as a read-only {(i, j): c} map in row-major order."""
        rows, cols = np.nonzero(self.upper)
        keys = zip(rows.tolist(), cols.tolist())
        return MappingProxyType(dict(zip(keys, self.upper[rows, cols].tolist())))


class QuboProblem(_CoupledProblem):
    """Quadratic unconstrained binary optimization problem.

    Energy of a binary assignment x:

        E(x) = offset + sum_i linear[i] * x_i + sum_{i<j} upper[i, j] * x_i * x_j

    ``quadratic`` takes the couplings as a map or a matrix (see the base
    class); read back, it is the read-only map of the nonzero ones.
    ``label_transform`` records the label negation of the surrogate the
    problem came from, so sampled energies map back to figures of merit; the
    energy and equality ignore it.
    """

    _VECTOR, _WHAT = "linear", "linear coefficients"

    def __init__(
        self, linear, quadratic=None, offset=0.0, label_transform: LabelTransform | None = None
    ):
        super().__init__(linear, quadratic, offset)
        object.__setattr__(self, "label_transform", label_transform)

    @property
    def quadratic(self) -> Mapping[tuple[int, int], float]:
        return self._pairs()

    @property
    def dense_symmetric(self) -> np.ndarray:
        """Symmetric zero-diagonal matrix upper + upper.T, built on each read."""
        return self.upper + self.upper.T


class IsingProblem(_CoupledProblem):
    """Classical Ising energy model.

    Energy of a spin assignment s in {-1,+1}^n:

        H(s) = offset + sum_i h[i] * s_i + sum_{i<j} upper[i, j] * s_i * s_j

    ``j`` plays the part of :attr:`QuboProblem.quadratic`.
    """

    _VECTOR, _WHAT = "h", "local biases"

    def __init__(self, h, j=None, offset=0.0):
        super().__init__(h, j, offset)

    @property
    def j(self) -> Mapping[tuple[int, int], float]:
        return self._pairs()


@dataclass(frozen=True)
class ConnectivityReport:
    """Connectivity summary of a QUBO against a hardware clique limit."""

    n: int
    edge_count: int
    is_fully_connected: bool
    max_supported_clique: int
    fits_hardware: bool


def _energy_kernel(X: np.ndarray, vector: np.ndarray, upper: np.ndarray, offset: float):
    """offset + x @ vector + x @ upper @ x for every float64 row x of X.

    einsum rather than BLAS matmul: a row's energy is then bit-identical
    whatever batch it is evaluated in.
    """
    return offset + np.einsum("bi,i->b", X, vector) + np.einsum("bi,ij,bj->b", X, upper, X)


def _energies(problem: _CoupledProblem, vector: np.ndarray, states, low: int):
    arr = _checked_states(states, low, max_ndim=2)
    if (size := arr.shape[-1]) != problem.n:
        raise ValueError(f"dimension mismatch: problem has n={problem.n}, vector has length {size}")
    X = np.atleast_2d(arr).astype(np.float64)
    energies = _energy_kernel(X, vector, problem.upper, problem.offset)
    return float(energies[0]) if arr.ndim == 1 else energies


def qubo_energy(q: QuboProblem, bits):
    """QUBO energy of one binary vector (a float) or of each row of a 2-D batch (an array)."""
    return _energies(q, q.linear, bits, 0)


def ising_energy(m: IsingProblem, spins):
    """Ising energy of one spin vector (a float) or of each row of a 2-D batch (an array)."""
    return _energies(m, m.h, spins, -1)


def qubo_to_ising(q: QuboProblem) -> IsingProblem:
    """Convert to the Ising form; energies agree exactly under s = 2x - 1.

    Coefficients: J_ij = Q_ij / 4, h_i = Q_i / 2 + sum_{j != i} Q_ij / 4,
    offset' = offset + sum_i Q_i / 2 + sum_{i<j} Q_ij / 4.
    """
    touching = q.upper.sum(axis=0) + q.upper.sum(axis=1)
    return IsingProblem(
        h=q.linear / 2.0 + touching / 4.0,
        j=q.upper / 4.0,
        offset=q.offset + float(np.sum(q.linear)) / 2.0 + float(q.upper.sum()) / 4.0,
    )


def ising_to_qubo(m: IsingProblem) -> QuboProblem:
    """Convert to the QUBO form; exact inverse of :func:`qubo_to_ising`."""
    touching = m.upper.sum(axis=0) + m.upper.sum(axis=1)
    return QuboProblem(
        linear=2.0 * m.h - 2.0 * touching,
        quadratic=4.0 * m.upper,
        offset=m.offset - float(np.sum(m.h)) + float(m.upper.sum()),
    )


def analyze_connectivity(q: QuboProblem, max_clique: int) -> ConnectivityReport:
    """Check whether the problem's coupling graph fits a clique-limited sampler.

    The check is conservative: no minor-embedding is attempted, so a problem
    fits exactly when its dimension does not exceed the largest fully
    connected subgraph the hardware supports.
    """
    if max_clique < 1:
        raise ValueError(f"max_clique must be >= 1, got {max_clique}")
    edge_count = int(np.count_nonzero(q.upper))
    full_edges = q.n * (q.n - 1) // 2
    return ConnectivityReport(
        n=q.n,
        edge_count=edge_count,
        is_fully_connected=edge_count == full_edges,
        max_supported_clique=max_clique,
        fits_hardware=q.n <= max_clique,
    )


def _save(problem: _CoupledProblem, path, header: str) -> None:
    vector = getattr(problem, problem._VECTOR)
    lines = [f"{header} v1 n={problem.n} offset={FLOAT_FORMAT % problem.offset}"]
    lines += [f"L {i} {FLOAT_FORMAT % c}" for i, c in enumerate(vector.tolist()) if c != 0.0]
    lines += [f"Q {i} {j} {FLOAT_FORMAT % c}" for (i, j), c in problem._pairs().items()]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_tagged(path, name: str, keys: tuple[str, str]):
    """Split a '<name> v1 <key>=.. <key>=..' file into header location, values and body.

    The QUBO, Ising and FM loaders share this and :func:`_records`.  Errors
    name the file and the 1-based line number, blank lines included.
    """
    lines = [
        (lineno, line.split())
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1)
        if line.strip()
    ]
    if not lines:
        raise ValueError(f"{path}: empty file")
    lineno, head = lines[0]
    if len(head) != 4 or head[:2] != [name, "v1"] or not all(
        field.startswith(f"{key}=") for field, key in zip(head[2:], keys)
    ):
        expected = " ".join([name, "v1", *(f"{key}=<{key}>" for key in keys)])
        raise ValueError(f"{path}:{lineno}: expected header '{expected}', got {' '.join(head)!r}")
    return f"{path}:{lineno}", [field.split("=", 1)[1] for field in head[2:]], lines[1:]


def _field(token: str, convert, valid, where: str, what: str):
    """convert(token), which valid() must accept; else a ValueError saying what it must be."""
    try:
        value = convert(token)
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise ValueError(f"{where}: {what}, got {token!r}")
    return value


def _count(token: str, key: str, where: str) -> int:
    return _field(token, int, lambda v: v >= 1, where, f"{key}= must be a positive integer")


def _records(path, lines, n: int, layout: dict[str, tuple[int, int]]):
    """Yield (where, tag, indices, values) per body line; reject malformed or repeated lines.

    ``layout`` maps each tag to its number of indices (each in [0, n)) and of values.
    """
    seen: set[tuple] = set()
    for lineno, (tag, *args) in lines:
        where = f"{path}:{lineno}"
        if tag not in layout:
            raise ValueError(f"{where}: unrecognized line starting with {tag!r}")
        n_indices, n_values = layout[tag]
        if len(args) != n_indices + n_values:
            raise ValueError(
                f"{where}: a {tag} line takes {n_indices + n_values} fields, not {len(args)}"
            )
        indices = tuple(
            _field(t, int, lambda v: 0 <= v < n, where, f"an index must lie in [0, {n})")
            for t in args[:n_indices]
        )
        if (tag, indices) in seen:
            raise ValueError(f"{where}: duplicate {tag} line")
        seen.add((tag, indices))
        values = [
            _field(t, float, np.isfinite, where, "a value must be finite") for t in args[n_indices:]
        ]
        yield where, tag, indices, values


def _load(path, header: str, problem_type):
    where, (n_text, offset_text), body = _read_tagged(path, header, ("n", "offset"))
    n = _count(n_text, "n", where)
    offset = _field(offset_text, float, np.isfinite, where, "offset= must be a finite number")
    vector = np.zeros(n)
    pairs: dict[tuple[int, int], float] = {}
    for where, tag, idx, (value,) in _records(path, body, n, {"L": (1, 1), "Q": (2, 1)}):
        if tag == "L":
            vector[idx] = value
        elif idx[0] >= idx[1]:
            raise ValueError(f"{where}: a Q line needs i < j, got {idx[0]} {idx[1]}")
        else:
            pairs[idx] = value
    return problem_type(vector, pairs, offset)


def save_qubo(q: QuboProblem, path) -> None:
    _save(q, path, "QUBO")


def load_qubo(path) -> QuboProblem:
    return _load(path, "QUBO", QuboProblem)


def save_ising(m: IsingProblem, path) -> None:
    _save(m, path, "ISING")


def load_ising(path) -> IsingProblem:
    return _load(path, "ISING", IsingProblem)
