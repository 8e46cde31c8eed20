"""Second-order factorization machine surrogate and its exact QUBO extraction.

The model is y(x) = w0 + sum_i w_i x_i + sum_{i<j} <v_i, v_j> x_i x_j with a
rank-k factor matrix V whose row i is v_i.  Restricted to binary inputs this
is exactly a QUBO, so a trained model converts losslessly into a sampling
problem: Q_i = w_i, Q_ij = <v_i, v_j>, offset = w0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import LabeledDataset
from .qubo import FLOAT_FORMAT, QuboProblem, _count, _read_tagged, _records, as_binary_vector

__all__ = [
    "FmModel",
    "FmTrainConfig",
    "FmTrainReport",
    "LabelTransform",
    "fm_predict",
    "fm_predict_batch",
    "fm_gradients",
    "fm_train",
    "fm_to_qubo",
    "apply_label_transform",
    "save_fm",
    "load_fm",
]


@dataclass(frozen=True)
class FmModel:
    """Factorization machine parameters: global bias, linear weights, factors."""

    w0: float
    w: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64)
        V = np.array(self.V, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError(f"w must be a nonempty 1-D vector, got shape {w.shape}")
        if V.ndim != 2 or V.shape[0] != w.size or V.shape[1] == 0:
            raise ValueError(
                f"V must have shape (n, k) with n={w.size} and k >= 1, got {V.shape}"
            )
        if not (np.isfinite(self.w0) and np.all(np.isfinite(w)) and np.all(np.isfinite(V))):
            raise ValueError("model parameters must be finite")
        w.setflags(write=False)
        V.setflags(write=False)
        object.__setattr__(self, "w0", float(self.w0))
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "V", V)

    @property
    def n(self) -> int:
        return self.w.size

    @property
    def k(self) -> int:
        return self.V.shape[1]


@dataclass(frozen=True)
class FmTrainConfig:
    """Hyperparameters for per-sample Adagrad training under squared error."""

    epochs: int = 30
    learning_rate: float = 0.05
    rank: int = 8
    init_scale: float = 0.01
    split: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.rank < 1:
            raise ValueError("epochs and rank must both be >= 1")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.init_scale >= 0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")
        if len(self.split) != 3 or any(f < 0 for f in self.split):
            raise ValueError(f"split must be three nonnegative fractions, got {self.split!r}")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {self.split!r}")


@dataclass(frozen=True)
class FmTrainReport:
    final_train_mse: float
    final_val_mse: float
    test_mse: float
    test_r2: float
    loss_curve: tuple[float, ...]


@dataclass(frozen=True)
class LabelTransform:
    """Maximization-to-minimization trick: train on c - y, recover y = c - energy."""

    c: float
    margin: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c!r}")
        if not self.margin >= 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")

    def apply(self, y):
        return self.c - np.asarray(y, dtype=np.float64)

    def invert(self, energy):
        """Map a sampled energy back to the original label scale."""
        return self.c - np.asarray(energy, dtype=np.float64)


def apply_label_transform(Y, margin: float) -> tuple[np.ndarray, LabelTransform]:
    """Negate labels about c = max(Y) + margin so argmax becomes argmin."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 1 or Y.size == 0:
        raise ValueError(f"labels must form a nonempty 1-D vector, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("labels must be finite")
    t = LabelTransform(c=float(Y.max()) + float(margin), margin=float(margin))
    return t.apply(Y), t


def _check_dim(m: FmModel, x: np.ndarray) -> None:
    if x.shape[-1] != m.n:
        raise ValueError(
            f"dimension mismatch: model has n={m.n}, vector has length {x.shape[-1]}"
        )


def fm_predict(m: FmModel, bits) -> float:
    """Evaluate the model at one binary vector in O(nk).

    Uses the identity sum_{i<j} <v_i,v_j> x_i x_j
    = 0.5 * sum_f [(sum_i V_if x_i)^2 - sum_i V_if^2 x_i^2].
    """
    x = as_binary_vector(bits).astype(np.float64)
    _check_dim(m, x)
    s = m.V.T @ x
    pairwise = 0.5 * (float(s @ s) - float(np.sum(m.V**2 * (x**2)[:, None])))
    return m.w0 + float(m.w @ x) + pairwise


def fm_predict_batch(m: FmModel, X) -> np.ndarray:
    """Vectorized prediction over the rows of X."""
    X = np.atleast_2d(np.asarray(X)).astype(np.float64)
    _check_dim(m, X)
    S = X @ m.V
    pairwise = 0.5 * ((S**2).sum(axis=1) - (X**2) @ (m.V**2).sum(axis=1))
    return m.w0 + X @ m.w + pairwise


def fm_gradients(m: FmModel, bits, residual: float):
    """Squared-error gradients (d/dw0, d/dw, d/dV) at one sample.

    residual is y_pred - target; the loss is residual^2, so every partial is
    2 * residual * (partial of the prediction).
    """
    x = as_binary_vector(bits).astype(np.float64)
    _check_dim(m, x)
    r2 = 2.0 * float(residual)
    s = m.V.T @ x
    g_V = r2 * (np.outer(x, s) - m.V * (x**2)[:, None])
    return r2, r2 * x, g_V


def _split_indices(count: int, split, rng: np.random.Generator):
    perm = rng.permutation(count)
    n_train = int(np.floor(split[0] * count + 0.5))
    n_val = int(np.floor(split[1] * count + 0.5))
    n_train = max(1, min(n_train, count))
    n_val = min(n_val, count - n_train)
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def _mse(m: FmModel, X, Y) -> float:
    if len(Y) == 0:
        return float("nan")
    err = fm_predict_batch(m, X) - Y
    return float(np.mean(err**2))


def _r2(m: FmModel, X, Y) -> float:
    if len(Y) == 0:
        return float("nan")
    pred = fm_predict_batch(m, X)
    ss_res = float(np.sum((Y - pred) ** 2))
    ss_tot = float(np.sum((Y - np.mean(Y)) ** 2))
    if ss_tot < 1e-12:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def fm_train(
    data: LabeledDataset, cfg: FmTrainConfig, warm_start: FmModel | None = None
) -> tuple[FmModel, FmTrainReport]:
    """Fit the model to (X, Y) with per-parameter adaptive gradient steps.

    Pure stochastic updates (batch size 1) over a seeded shuffle each epoch;
    the squared gradient of every parameter is accumulated and used to scale
    its own learning rate.  warm_start continues from an existing model of
    matching shape instead of a fresh initialization.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    n = data.n
    rng = np.random.default_rng(cfg.seed)
    if warm_start is not None:
        if warm_start.n != n or warm_start.k != cfg.rank:
            raise ValueError(
                f"warm start shape (n={warm_start.n}, k={warm_start.k}) does not match "
                f"data n={n} and configured rank {cfg.rank}"
            )
        w0 = warm_start.w0
        w = warm_start.w.copy()
        V = warm_start.V.copy()
    else:
        w0 = 0.0
        w = np.zeros(n)
        V = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(n, cfg.rank))

    train_idx, val_idx, test_idx = _split_indices(len(data), cfg.split, rng)
    X = data.X.astype(np.float64)
    Y = data.Y

    eps = 1e-8
    acc_w0 = 0.0
    acc_w = np.zeros_like(w)
    acc_V = np.zeros_like(V)
    loss_curve = []
    for epoch in range(cfg.epochs):
        for idx in rng.permutation(train_idx):
            x = X[idx]
            s = V.T @ x
            # x is binary so x_i^2 = x_i in the O(nk) pairwise identity
            pred = w0 + float(w @ x) + 0.5 * (float(s @ s) - float((V**2 * x[:, None]).sum()))
            r2x = 2.0 * (pred - Y[idx])
            g_w0 = r2x
            g_w = r2x * x
            g_V = r2x * (np.outer(x, s) - V * x[:, None])
            acc_w0 += g_w0 * g_w0
            acc_w += g_w**2
            acc_V += g_V**2
            w0 -= cfg.learning_rate * g_w0 / (np.sqrt(acc_w0) + eps)
            w -= cfg.learning_rate * g_w / (np.sqrt(acc_w) + eps)
            V -= cfg.learning_rate * g_V / (np.sqrt(acc_V) + eps)
        snapshot = FmModel(w0=w0, w=w, V=V)
        loss_curve.append(_mse(snapshot, X[train_idx], Y[train_idx]))

    model = FmModel(w0=w0, w=w, V=V)
    report = FmTrainReport(
        final_train_mse=loss_curve[-1],
        final_val_mse=_mse(model, X[val_idx], Y[val_idx]),
        test_mse=_mse(model, X[test_idx], Y[test_idx]),
        test_r2=_r2(model, X[test_idx], Y[test_idx]),
        loss_curve=tuple(loss_curve),
    )
    return model, report


def fm_to_qubo(m: FmModel, transform: LabelTransform | None = None) -> QuboProblem:
    """Exact extraction: Q_i = w_i, Q_ij = <v_i, v_j>, offset = w0.

    The optional transform is recorded on the problem so sampled energies can
    be mapped back to original-scale labels via transform.invert.
    """
    return QuboProblem(m.w, np.triu(m.V @ m.V.T, 1), m.w0, label_transform=transform)


def save_fm(m: FmModel, path) -> None:
    lines = [f"FM v1 n={m.n} k={m.k}", f"w0 {FLOAT_FORMAT % m.w0}"]
    for i in range(m.n):
        lines.append(f"w {i} {FLOAT_FORMAT % m.w[i]}")
    for i in range(m.n):
        row = " ".join(FLOAT_FORMAT % v for v in m.V[i])
        lines.append(f"V {i} {row}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_fm(path) -> FmModel:
    where, (n_text, k_text), body = _read_tagged(path, "FM", ("n", "k"))
    n = _count(n_text, "n", where)
    k = _count(k_text, "k", where)
    w0 = None
    w = np.zeros(n)
    V = np.zeros((n, k))
    for _, tag, idx, values in _records(path, body, n, {"w0": (0, 1), "w": (1, 1), "V": (1, k)}):
        if tag == "w0":
            w0 = values[0]
        elif tag == "w":
            w[idx] = values[0]
        else:
            V[idx] = values
    if w0 is None:
        raise ValueError(f"{path}: model file is missing the w0 line")
    return FmModel(w0=w0, w=w, V=V)
