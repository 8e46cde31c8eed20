"""Labeled binary-vector datasets: rows of (latent bits, label, provenance tag)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._text import _count, _counted, _field, _read_tagged, float_rows, write_tagged
from .qubo import _checked_states, as_binary_vector

__all__ = ["LabeledDataset", "save_dataset", "load_dataset"]


def _row_keys(X: np.ndarray) -> list[bytes]:
    """Each row's ``tobytes()``, made in one pass over a 2-D uint8 array."""
    return np.ascontiguousarray(X).view(np.dtype((np.void, X.shape[1]))).ravel().tolist()


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable (X, Y) table with a free-form provenance token per row.

    X rows are binary latent vectors, Y holds real-valued figure-of-merit
    labels.  Appending returns a new dataset; a row whose vector already
    occurs keeps its first-seen label and is not re-added.
    """

    X: np.ndarray
    Y: np.ndarray
    provenance: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.X)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D (rows, bits), got shape {X.shape}")
        if X.shape[1] == 0:
            raise ValueError("X must have at least one bit column")
        if X.size and not np.all((X == 0) | (X == 1)):
            raise ValueError("X entries must be exactly 0 or 1")
        X = X.astype(np.uint8)
        Y = np.asarray(self.Y, dtype=np.float64)
        if Y.shape != (X.shape[0],):
            raise ValueError(
                f"Y must be 1-D with one label per row, got shape {Y.shape} for {X.shape[0]} rows"
            )
        if Y.size and not np.all(np.isfinite(Y)):
            raise ValueError("labels must be finite")
        tags = tuple(self.provenance)
        if len(tags) != X.shape[0]:
            raise ValueError(f"need one provenance tag per row, got {len(tags)}")
        for tag in tags:
            if tag.split() != [tag]:
                raise ValueError(f"provenance tags must be nonempty and whitespace-free: {tag!r}")
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "provenance", tags)

    @classmethod
    def empty(cls, n: int) -> "LabeledDataset":
        return cls(X=np.zeros((0, n), dtype=np.uint8), Y=np.zeros(0), provenance=())

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return self.X.shape[0]

    @cached_property
    def _keys(self) -> frozenset[bytes]:
        return frozenset(_row_keys(self.X))

    def contains(self, bits) -> bool:
        x = np.asarray(bits)
        if x.dtype != np.uint8 or x.ndim != 1 or x.size == 0 or x.max() > 1:
            x = as_binary_vector(x)  # converts a binary vector of another kind, or raises
        return x.tobytes() in self._keys

    def max_label(self) -> float:
        if len(self) == 0:
            raise ValueError("dataset is empty")
        return float(self.Y.max())

    def best_row(self) -> tuple[np.ndarray, float]:
        """Vector and label of the highest-labeled row (first on ties)."""
        idx = int(np.argmax(self.Y))
        return self.X[idx], float(self.Y[idx])

    def append_rows(self, X_new, Y_new, tags) -> tuple["LabeledDataset", int]:
        """Append rows, returning (new dataset, number actually added).

        A row is skipped when its vector matches any existing row or an
        earlier row of this same batch; the first label wins.  The whole
        batch is checked to be binary at once.
        """
        X_new = np.atleast_2d(np.asarray(X_new))
        Y_new = np.atleast_1d(np.asarray(Y_new, dtype=np.float64))
        tags = tuple(tags)
        if not (X_new.shape[0] == Y_new.shape[0] == len(tags)):
            raise ValueError("X_new, Y_new, and tags must have matching lengths")
        if X_new.shape[0] == 0:
            return self, 0
        if X_new.shape[1] != self.n:
            raise ValueError(
                f"dimension mismatch: dataset has n={self.n}, new rows have {X_new.shape[1]}"
            )
        X_new = _checked_states(X_new, 0, max_ndim=2).astype(np.uint8)
        keep = []
        seen = set(self._keys)
        for r, key in enumerate(_row_keys(X_new)):
            if key not in seen:
                seen.add(key)
                keep.append(r)
        if not keep:
            return self, 0
        merged = LabeledDataset(
            X=np.vstack([self.X, X_new[keep]]),
            Y=np.concatenate([self.Y, Y_new[keep]]),
            provenance=self.provenance + tuple(tags[r] for r in keep),
        )
        return merged, len(keep)

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return LabeledDataset(
            X=self.X[idx],
            Y=self.Y[idx],
            provenance=tuple(self.provenance[i] for i in idx),
        )


def save_dataset(data: LabeledDataset, path) -> None:
    """Write one '<bits> <label> <tag>' line per row, the label in float_text."""
    bits = np.ascontiguousarray(data.X + 48).view(f"S{data.n}").ravel().tolist()  # ASCII '0' is 48
    labels = float_rows(data.Y[:, None]).splitlines()
    lines = (f"{x.decode()} {y} {tag}" for x, y, tag in zip(bits, labels, data.provenance))
    write_tagged(path, "DATASET", {"n": data.n, "count": len(data)}, lines)


def load_dataset(path) -> LabeledDataset:
    with _read_tagged(path, "DATASET", ("n", "count")) as (head, (n_text, count_text), body):
        n = _count(n_text, "n", head)
        rows, labels, tags = [], [], []
        for where, fields in _counted(path, body, count_text, head):
            if len(fields) != 3:
                raise ValueError(
                    f"{where}: a row takes 3 fields (bits label tag), not {len(fields)}"
                )
            bits, label, tag = fields
            if len(bits) != n or bits.strip("01"):
                raise ValueError(f"{where}: expected {n} bits of 0 or 1, got {bits!r}")
            rows.append(bits)
            labels.append(_field(label, float, math.isfinite, where, "a label must be finite"))
            tags.append(tag)
    X = (np.frombuffer("".join(rows).encode(), np.uint8) - 48).reshape(-1, n)  # ASCII '0' is 48
    return LabeledDataset(X=X, Y=np.array(labels), provenance=tuple(tags))
