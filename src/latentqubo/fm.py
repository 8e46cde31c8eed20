"""Second-order factorization machine surrogate and its exact QUBO extraction.

The model is y(x) = w0 + sum_i w_i x_i + sum_{i<j} <v_i, v_j> x_i x_j with a
rank-k factor matrix V whose row i is v_i.  Restricted to binary inputs this
is exactly a QUBO, so a trained model converts losslessly into a sampling
problem: Q_i = w_i, Q_ij = <v_i, v_j>, offset = w0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native, _settings
from ._text import _count, _read_tagged, _records, _zeros, float_text, write_tagged
from .dataset import LabeledDataset
from .qubo import QuboProblem, _checked_states

__all__ = [
    "FmModel",
    "FmTrainConfig",
    "FmTrainReport",
    "LabelTransform",
    "fm_predict",
    "fm_gradients",
    "fm_train",
    "fm_to_qubo",
    "apply_label_transform",
    "save_fm",
    "load_fm",
]

INIT_SCALE = 0.01  # fresh factors are drawn uniformly from [-INIT_SCALE, INIT_SCALE]


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
    split: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 0

    def __post_init__(self):
        _settings.count("epochs", self.epochs)
        _settings.count("rank", self.rank)
        _settings.count("seed", self.seed, low=0)
        _settings.real("learning_rate", self.learning_rate, 0, strict=True)
        fractions = [_settings.real("split", f, 0) for f in _settings.items("split", self.split)]
        if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError(f"split must be three fractions that sum to 1, got {self.split!r}")


@dataclass(frozen=True)
class FmTrainReport:
    final_train_mse: float
    final_val_mse: float
    test_mse: float
    test_r2: float


@dataclass(frozen=True)
class LabelTransform:
    """Maximization-to-minimization trick: train on c - y, recover y = c - energy."""

    c: float

    def __post_init__(self):
        if not np.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c!r}")

    def invert(self, energy):
        """Map a sampled energy back to the original label scale; c - v is its own inverse."""
        return self.c - np.asarray(energy, dtype=np.float64)


def apply_label_transform(Y, margin: float) -> tuple[np.ndarray, LabelTransform]:
    """Negate labels about c = max(Y) + margin so argmax becomes argmin."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 1 or Y.size == 0:
        raise ValueError(f"labels must form a nonempty 1-D vector, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("labels must be finite")
    t = LabelTransform(c=float(Y.max()) + _settings.real("margin", margin, 0))
    return t.invert(Y), t


def _predict(m: FmModel, X: np.ndarray):
    """The prediction at one float64 0/1 vector X or at each row of X, in O(nk) a row.

    Uses the identity sum_{i<j} <v_i,v_j> x_i x_j
    = 0.5 * sum_f [(sum_i V_if x_i)^2 - sum_i V_if^2 x_i], as x_i^2 = x_i.
    """
    S = X @ m.V
    return m.w0 + X @ m.w + 0.5 * ((S**2).sum(-1) - X @ (m.V**2).sum(1))


def fm_predict(m: FmModel, bits):
    """The prediction at one binary vector (a float) or at each row of a (B, n) batch (an array).

    A vector is not promoted to a batch of one, so it keeps the 1-D products' bits.
    """
    X = _checked_states(bits, max_ndim=2, n=m.n).astype(np.float64)
    y = _predict(m, X)
    return float(y) if X.ndim == 1 else y


def fm_gradients(m: FmModel, bits, residual: float):
    """Squared-error gradients (d/dw0, d/dw, d/dV) at one sample; fm_train steps along these.

    residual is y_pred - target; the loss is residual^2, so every partial is
    2 * residual * (partial of the prediction).
    """
    x = _checked_states(bits, n=m.n).astype(np.float64)
    r2 = 2.0 * float(residual)
    return r2, r2 * x, r2 * (np.outer(x, x @ m.V) - m.V * x[:, None])


def _split_indices(count: int, split, rng: np.random.Generator):
    perm = rng.permutation(count)
    n_train = int(np.floor(split[0] * count + 0.5))
    n_val = int(np.floor(split[1] * count + 0.5))
    n_train = max(1, min(n_train, count))
    n_val = min(n_val, count - n_train)
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def _fit_stats(m: FmModel, X: np.ndarray, Y) -> tuple[float, float]:
    """(MSE, R^2) of the model on the float64 rows X with labels Y; both NaN without rows."""
    if len(Y) == 0:
        return float("nan"), float("nan")
    squared = (_predict(m, X) - Y) ** 2
    ss_res = float(np.sum(squared))
    ss_tot = float(np.sum((Y - np.mean(Y)) ** 2))
    if ss_tot < 1e-12:
        r2 = 1.0 if ss_res < 1e-12 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(np.mean(squared)), r2


def _ordered_sum(a: np.ndarray):
    """0.0 + a[0] + a[1] + ... along the first axis, left to right, as ``_fm.c`` sums."""
    return np.cumsum(np.concatenate((np.zeros((1, *a.shape[1:])), a)), axis=0)[-1]


def _fit_numpy(orders, X, Y, lr, w0, w, V, acc_w0, acc_w, acc_V) -> None:
    """Per-sample Adagrad over the rows of each epoch's order; steps the arrays in place.

    The steps of ``_fm.c`` in numpy, with every sum in the kernel's order, so
    both give the same bits.  Runs where no C compiler is found, and is the
    kernel's reference in the tests.  w0 and acc_w0 hold one value each.
    """
    eps = 1e-8
    for idx in orders.ravel():
        on = np.flatnonzero(X[idx])
        v = V[on]
        s = _ordered_sum(v)
        squares = _ordered_sum((v * v).ravel())
        pred = w0[0] + _ordered_sum(w[on]) + 0.5 * (_ordered_sum(s * s) - squares)
        r2 = 2.0 * (pred - Y[idx])
        acc_w0 += r2 * r2
        w0 -= lr * r2 / (np.sqrt(acc_w0) + eps)
        acc_w[on] += r2 * r2
        w[on] -= lr * r2 / (np.sqrt(acc_w[on]) + eps)
        g = r2 * (s - v)
        acc_V[on] += g * g
        V[on] -= lr * g / (np.sqrt(acc_V[on]) + eps)


def fm_train(
    data: LabeledDataset, cfg: FmTrainConfig, warm_start: FmModel | None = None
) -> tuple[FmModel, FmTrainReport]:
    """Fit the model to (X, Y) with per-parameter adaptive gradient steps.

    Pure stochastic updates (batch size 1) over a seeded shuffle each epoch;
    the squared gradient of every parameter is accumulated and used to scale
    its own learning rate.  warm_start continues from an existing model of
    matching shape instead of a fresh initialization.

    The initialization, split and every epoch's shuffle are drawn here; all
    epochs then run in one call of a small C kernel, built with the
    annealer's and cached on disk until the sources or the compiler change.
    Without a C compiler the same steps run in numpy, with the same result.
    The report's MSEs and R^2 are those of the final parameters.
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
        w0 = np.array([warm_start.w0])
        w = warm_start.w.copy()
        V = warm_start.V.copy()
    else:
        w0 = np.zeros(1)
        w = np.zeros(n)
        V = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(n, cfg.rank))

    train_idx, val_idx, test_idx = _split_indices(len(data), cfg.split, rng)
    orders = np.array([rng.permutation(train_idx) for _ in range(cfg.epochs)])
    Y = np.ascontiguousarray(data.Y)
    acc_w0, acc_w, acc_V = np.zeros(1), np.zeros_like(w), np.zeros_like(V)
    lib = _native.library()
    if lib is None:
        _fit_numpy(orders, data.X, Y, cfg.learning_rate, w0, w, V, acc_w0, acc_w, acc_V)
    else:
        lib.fm_fit(n, cfg.rank, *orders.shape, orders, data.X, Y, cfg.learning_rate,
                   w0, w, V, acc_w0, acc_w, acc_V, np.empty(cfg.rank), np.empty(n, np.intp))

    model = FmModel(w0=w0[0], w=w, V=V)
    X = data.X.astype(np.float64)
    (train_mse, _), (val_mse, _), (test_mse, test_r2) = (
        _fit_stats(model, X[idx], Y[idx]) for idx in (train_idx, val_idx, test_idx)
    )
    report = FmTrainReport(final_train_mse=train_mse, final_val_mse=val_mse,
                           test_mse=test_mse, test_r2=test_r2)
    return model, report


def _coupling(V: np.ndarray) -> np.ndarray:
    """The couplings that the factors V give a QUBO: <v_i, v_j> above the diagonal, 0 elsewhere."""
    return np.triu(V @ V.T, 1)


def fm_to_qubo(m: FmModel) -> QuboProblem:
    """Exact extraction: Q_i = w_i, Q_ij = <v_i, v_j>, offset = w0."""
    return QuboProblem(m.w, _coupling(m.V), m.w0)


def save_fm(m: FmModel, path) -> None:
    lines = [f"w0 {float_text(m.w0)}"]
    lines += [f"w {i} {float_text(m.w[i])}" for i in range(m.n)]
    lines += [f"V {i} {' '.join(map(float_text, m.V[i]))}" for i in range(m.n)]
    write_tagged(path, "FM", {"n": m.n, "k": m.k}, lines)


def load_fm(path) -> FmModel:
    with _read_tagged(path, "FM", ("n", "k")) as (where, (n_text, k_text), body):
        n = _count(n_text, "n", where)
        k = _count(k_text, "k", where)
        records = list(_records(path, body, n, {"w0": (0, 1), "w": (1, 1), "V": (1, k)}))
    w0 = next((values[0] for _, tag, _, values in records if tag == "w0"), None)
    if w0 is None:
        raise ValueError(f"{path}: model file is missing the w0 line")
    # the whole body is read before the header's n and k size any array
    w = _zeros(n, where)
    V = _zeros((n, k), where)
    for _, tag, idx, values in records:
        if tag == "w":
            w[idx] = values[0]
        elif tag == "V":
            V[idx] = values
    return FmModel(w0=w0, w=w, V=V)
