"""QUBO and Ising energy models with exact bidirectional conversion.

A QUBO instance is a second-order polynomial over binary vectors
``x in {0,1}^n``; the Ising form is the same polynomial over spin vectors
``s in {-1,+1}^n`` under the substitution ``s_i = 2*x_i - 1``.  Both carry an
explicit constant offset so that energies (not just argmins) are preserved
exactly by the conversions.  Each problem holds its couplings as one dense,
read-only, strictly upper-triangular matrix; a QUBO file stays sparse.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from . import _native
from ._text import _count, _field, _read_tagged, _records, _zeros, float_text, write_tagged

__all__ = [
    "QuboProblem",
    "IsingProblem",
    "qubo_energy",
    "qubo_to_ising",
    "ising_to_qubo",
    "save_qubo",
    "load_qubo",
]


def _checked_states(values, max_ndim: int = 1, n: int | None = None) -> np.ndarray:
    """One binary vector, or with max_ndim=2 a batch of rows, of 0s and 1s (and length n if set)."""
    arr = np.asarray(values)
    if not 1 <= arr.ndim <= max_ndim or arr.size == 0:
        shape = "1-D" if max_ndim == 1 else "1-D (or a 2-D batch)"
        raise ValueError(f"binary vector must be {shape} and nonempty, got shape {arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("binary vector entries must be exactly 0 or 1")
    if n is not None and arr.shape[-1] != n:
        raise ValueError(f"dimension mismatch: expected n={n}, got length {arr.shape[-1]}")
    return arr


def _pair(key, n: int) -> tuple[int, int]:
    """key as (i, j); a ValueError naming it unless it is two integers, not bools, i < j < n."""
    if not (isinstance(key, tuple) and len(key) == 2
            and all(hasattr(k, "__index__") and not isinstance(k, bool) for k in key)):
        raise ValueError(f"coupling key {key!r} must be a pair of integers")
    i, j = map(operator.index, key)
    if not 0 <= i < j < n:
        raise ValueError(f"coupling key {(i, j)} must satisfy 0 <= i < j < n with n={n}")
    return i, j


def _coupling_matrix(pairs, n: int) -> np.ndarray:
    """Read-only strictly upper-triangular (n, n) matrix from a pair map or an (n, n) array."""
    if isinstance(pairs, Mapping):
        keys = np.array([_pair(key, n) for key in pairs], dtype=np.int64).reshape(-1, 2)
        upper = np.zeros((n, n))
        upper[keys[:, 0], keys[:, 1]] = np.array(list(pairs.values()), dtype=np.float64)
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
    ``{(i, j): c}`` map with i < j.  Equality compares these three fields.
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

    Energy of x: offset + sum_i linear[i] x_i + sum_{i<j} upper[i, j] x_i x_j,
    summed in the order :func:`qubo_energy` defines.  ``quadratic`` takes the
    couplings as a map or a matrix (see the base class); read back, it is the
    read-only map of the nonzero ones.
    """

    _VECTOR, _WHAT = "linear", "linear coefficients"

    def __init__(self, linear, quadratic=None, offset=0.0):
        super().__init__(linear, quadratic, offset)

    @property
    def quadratic(self) -> Mapping[tuple[int, int], float]:
        return self._pairs()

    @property
    def dense_symmetric(self) -> np.ndarray:
        """Symmetric zero-diagonal matrix upper + upper.T, built on each read."""
        return self.upper + self.upper.T


class IsingProblem(_CoupledProblem):
    """Classical Ising energy model.

    Energy of s in {-1,+1}^n: offset + sum_i h[i] s_i + sum_{i<j} upper[i, j] s_i s_j.
    ``j`` plays the part of :attr:`QuboProblem.quadratic`.
    """

    _VECTOR, _WHAT = "h", "local biases"

    def __init__(self, h, j=None, offset=0.0):
        super().__init__(h, j, offset)

    @property
    def j(self) -> Mapping[tuple[int, int], float]:
        return self._pairs()


def _energy_loop(X: np.ndarray, linear: np.ndarray, upper: np.ndarray, offset: float):
    """The energy of every 0/1 row of X, summed in qubo_energy's order.

    A sum that starts at +0.0 is never -0.0, so the +-0.0 terms of unset bits
    leave it as it is, and the same sum over set bits only gives the same bits.
    The numpy twin of both energy kernels, ``_energy.c``'s ``qubo_row_energies``
    and ``qubo_energies``, and the path where there is no compiler.
    """
    cols = np.array(X.T, dtype=np.float64, order="C")
    fields = np.repeat((0.0 + linear)[:, None], cols.shape[1], axis=1)
    for j in range(1, cols.shape[0]):
        fields[:j] += cols[j] * upper[:j, j, None]  # field i gains x_j upper[i, j], j ascending
    energies = np.full(cols.shape[1], 0.0 + offset)
    for x, field in zip(cols, fields):
        energies += x * field
    return energies


def qubo_energy(q: QuboProblem, bits):
    """QUBO energy of one binary vector (a float) or of each row of a 2-D batch (an array).

    The summation order is the definition, so any batch and the C kernels give
    the same bits: (0.0 + offset) + sum over set bits i, ascending, of ((0.0 +
    linear[i]) + sum over set bits j > i, ascending, of upper[i, j]).  The rows
    go through ``_energy.c``'s ``qubo_row_energies`` in one call, or through the
    numpy energy loop where there is no compiler.
    """
    arr = _checked_states(bits, max_ndim=2, n=q.n)
    X = np.atleast_2d(arr)
    lib = _native.library()
    if lib is None:
        energies = _energy_loop(X, q.linear, q.upper, q.offset)
    else:
        X = np.ascontiguousarray(X, dtype=np.uint8)
        energies = np.empty(X.shape[0])
        lib.qubo_row_energies(*X.shape, X, q.linear, q.upper, q.offset, np.empty(q.n, np.intp),
                              energies)
    return float(energies[0]) if arr.ndim == 1 else energies


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


def save_qubo(q: QuboProblem, path) -> None:
    lines = [f"L {i} {float_text(c)}" for i, c in enumerate(q.linear.tolist()) if c != 0.0]
    lines += [f"Q {i} {j} {float_text(c)}" for (i, j), c in q.quadratic.items()]
    write_tagged(path, "QUBO", {"n": q.n, "offset": float_text(q.offset)}, lines)


def load_qubo(path) -> QuboProblem:
    with _read_tagged(path, "QUBO", ("n", "offset")) as (head, (n_text, offset_text), body):
        n = _count(n_text, "n", head)
        offset = _field(offset_text, float, np.isfinite, head, "offset= must be a finite number")
        records = []
        for where, tag, idx, (value,) in _records(path, body, n, {"L": (1, 1), "Q": (2, 1)}):
            if tag == "Q" and idx[0] >= idx[1]:
                raise ValueError(f"{where}: a Q line needs i < j, got {idx[0]} {idx[1]}")
            records.append((tag, idx, value))
    # the whole body is read before the header's n sizes any array
    linear = _zeros(n, head)
    upper = _zeros((n, n), head)
    for tag, idx, value in records:
        (linear if tag == "L" else upper)[idx] = value
    return QuboProblem(linear, upper, offset)
