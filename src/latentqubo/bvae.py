"""Binary variational autoencoder over square grayscale patterns.

Dense encoder and decoder joined by a two-category Gumbel-softmax latent per
bit.  Training minimizes binary cross-entropy reconstruction plus a Bernoulli
KL against the uniform prior, with Adam updates and an annealed relaxation
temperature.  Forward and backward are implemented directly on numpy arrays so
gradients can be checked against finite differences; each Adam step is one call
of a small C kernel over all the parameters at once, or its numpy twin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native, _settings
from ._text import _count, _field, _read_tagged, float_rows, float_text, write_tagged
from .images import _check_images, gaussian_blur
from .qubo import _checked_states

__all__ = [
    "BvaeArchitecture",
    "BvaeModel",
    "TemperatureSchedule",
    "LossBreakdown",
    "TrainCurves",
    "gumbel_softmax",
    "sample_gumbel_noise",
    "bernoulli_kl",
    "anneal_tau",
    "bvae_loss",
    "bvae_loss_and_grads",
    "bvae_train",
    "encode",
    "decode",
    "reconstruction_accuracy",
    "save_bvae",
    "load_bvae",
]

PROB_CLAMP = 1e-7
CATEGORIES_PER_BIT = 2
VAL_FRACTION = 0.15  # share of the images bvae_train holds back for validation
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator offset

_LAYER_NAMES = (
    "enc1_w", "enc1_b",
    "enc2_w", "enc2_b",
    "enc3_w", "enc3_b",
    "dec1_w", "dec1_b",
    "dec2_w", "dec2_b",
    "dec3_w", "dec3_b",
)


@dataclass(frozen=True)
class BvaeArchitecture:
    """Layer sizing: m*m pixels in, n latent bits, two categories per bit."""

    image_side: int
    latent_bits: int
    encoder_hidden: tuple[int, int] = (512, 256)
    decoder_hidden: tuple[int, int] = (256, 512)

    def __post_init__(self):
        _settings.count("image_side", self.image_side, low=2)
        _settings.count("latent_bits", self.latent_bits)
        for name in ("encoder_hidden", "decoder_hidden"):
            sizes = getattr(self, name)
            if len(sizes) != 2:
                raise ValueError(f"{name} must be two layer sizes, got {sizes!r}")
            for size in sizes:
                _settings.count(name, size)

    def layer_shapes(self) -> dict[str, tuple[int, int]]:
        m2 = self.image_side**2
        n = self.latent_bits
        e1, e2 = self.encoder_hidden
        d1, d2 = self.decoder_hidden
        return {
            "enc1_w": (m2, e1), "enc1_b": (1, e1),
            "enc2_w": (e1, e2), "enc2_b": (1, e2),
            "enc3_w": (e2, CATEGORIES_PER_BIT * n), "enc3_b": (1, CATEGORIES_PER_BIT * n),
            "dec1_w": (n, d1), "dec1_b": (1, d1),
            "dec2_w": (d1, d2), "dec2_b": (1, d2),
            "dec3_w": (d2, m2), "dec3_b": (1, m2),
        }


@dataclass(frozen=True)
class BvaeModel:
    architecture: BvaeArchitecture
    params: dict[str, np.ndarray]
    tau: float

    def __post_init__(self):
        shapes = self.architecture.layer_shapes()
        if set(self.params) != set(shapes):
            raise ValueError(
                f"parameter names {sorted(self.params)} do not match architecture layers"
            )
        locked = {}
        for name, expected in shapes.items():
            arr = np.array(self.params[name], dtype=np.float64)
            if arr.shape != expected:
                raise ValueError(f"layer {name} has shape {arr.shape}, expected {expected}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"layer {name} contains non-finite values")
            arr.setflags(write=False)
            locked[name] = arr
        object.__setattr__(self, "params", locked)
        object.__setattr__(self, "tau", float(self.tau))


@dataclass(frozen=True)
class TemperatureSchedule:
    """Relaxation temperature state with multiplicative per-epoch decay."""

    tau: float = 5.0
    tau_max: float = 5.0
    tau_min: float = 0.4
    gamma: float = 0.0003

    def __post_init__(self):
        _settings.real("tau_min", self.tau_min, 0, strict=True)
        _settings.real("tau_max", self.tau_max, self.tau_min)
        if not self.tau_min <= self.tau <= self.tau_max:
            raise ValueError(
                f"tau must stay within [{self.tau_min}, {self.tau_max}], got {self.tau}"
            )
        _settings.real("gamma", self.gamma, 0)


def anneal_tau(s: TemperatureSchedule, epoch: int) -> TemperatureSchedule:
    """One annealing step: tau <- max(tau_min, tau * exp(-gamma * epoch)).

    The epoch index sits inside the exponent, so the decay compounds faster
    as training progresses.
    """
    _settings.count("epoch", epoch, low=0)
    tau = max(s.tau_min, s.tau * float(np.exp(-s.gamma * epoch)))
    return TemperatureSchedule(tau=tau, tau_max=s.tau_max, tau_min=s.tau_min, gamma=s.gamma)


@dataclass(frozen=True)
class LossBreakdown:
    reconstruction: float
    kl: float

    @property
    def total(self) -> float:
        return self.reconstruction + self.kl


@dataclass(frozen=True)
class TrainCurves:
    train: tuple[LossBreakdown, ...]
    validation: tuple[LossBreakdown, ...]


def sample_gumbel_noise(rng: np.random.Generator, shape) -> np.ndarray:
    u = np.clip(rng.random(shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def gumbel_softmax(logits, tau: float, noise) -> np.ndarray:
    """Relaxed categorical sample: softmax((logits + noise) / tau) per pair.

    Operates on arrays whose last axis holds the two per-bit category logits;
    outputs are strictly positive and sum to one along that axis.
    """
    _settings.real("tau", tau, 0, strict=True)
    logits = np.asarray(logits, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if logits.shape != noise.shape:
        raise ValueError(f"noise shape {noise.shape} must match logits shape {logits.shape}")
    if logits.shape[-1] != CATEGORIES_PER_BIT:
        raise ValueError(
            f"last axis must hold {CATEGORIES_PER_BIT} category logits, got {logits.shape}"
        )
    u = (logits + noise) / tau
    u = u - u.max(axis=-1, keepdims=True)
    e = np.exp(u)
    return e / e.sum(axis=-1, keepdims=True)


def bernoulli_kl(q, p: float = 0.5) -> np.ndarray:
    """KL(Bernoulli(q) || Bernoulli(p)) elementwise, with clamped logs."""
    q = np.clip(np.asarray(q, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return q * np.log(q / p) + (1.0 - q) * np.log((1.0 - q) / (1.0 - p))


def _check_batch(arch: BvaeArchitecture, batch) -> np.ndarray:
    m = arch.image_side
    arr = _check_images(batch)
    if arr.shape[1] != m:
        raise ValueError(f"expected images of shape ({m}, {m}), got {np.asarray(batch).shape}")
    return arr.reshape(arr.shape[0], m * m)


def _sigmoid(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def _mlp(params, half: str, inputs: np.ndarray):
    """One network half ("enc" or "dec"): two ReLU layers and a linear head -> (h1, h2, head)."""
    h1 = np.maximum(inputs @ params[f"{half}1_w"] + params[f"{half}1_b"], 0.0)
    h2 = np.maximum(h1 @ params[f"{half}2_w"] + params[f"{half}2_b"], 0.0)
    return h1, h2, h2 @ params[f"{half}3_w"] + params[f"{half}3_b"]


def _mlp_backward(params, half: str, inputs, h1, h2, d_head, grads) -> np.ndarray | None:
    """Backward pass of :func:`_mlp`: fill grads for the half's six layers from d(head).

    A ReLU passes gradient where its output is positive.  Returns d(inputs)
    for the decoder; the encoder's inputs are the data, which need none.
    """
    grads[f"{half}3_w"] = h2.T @ d_head
    grads[f"{half}3_b"] = d_head.sum(axis=0, keepdims=True)
    d_h2 = (d_head @ params[f"{half}3_w"].T) * (h2 > 0)
    grads[f"{half}2_w"] = h1.T @ d_h2
    grads[f"{half}2_b"] = d_h2.sum(axis=0, keepdims=True)
    d_h1 = (d_h2 @ params[f"{half}2_w"].T) * (h1 > 0)
    grads[f"{half}1_w"] = inputs.T @ d_h1
    grads[f"{half}1_b"] = d_h1.sum(axis=0, keepdims=True)
    return d_h1 @ params[f"{half}1_w"].T if half == "dec" else None


def _forward(params, arch: BvaeArchitecture, T: np.ndarray, tau: float, noise: np.ndarray):
    h1, h2, logits = _mlp(params, "enc", T)
    # gumbel_softmax checks that the noise has this (batch, bits, categories) shape
    logits = logits.reshape(T.shape[0], arch.latent_bits, CATEGORIES_PER_BIT)
    q = _sigmoid(logits[:, :, 1] - logits[:, :, 0])
    z = gumbel_softmax(logits, tau, noise)[:, :, 1]
    g1, g2, out_logits = _mlp(params, "dec", z)
    return {
        "T": T, "h1": h1, "h2": h2, "q": q, "z": z, "g1": g1, "g2": g2,
        "p": _sigmoid(out_logits), "tau": tau,
    }


def _losses(cache) -> LossBreakdown:
    B = cache["T"].shape[0]
    pc = np.clip(cache["p"], PROB_CLAMP, 1.0 - PROB_CLAMP)
    T = cache["T"]
    recon = -float(np.sum(T * np.log(pc) + (1.0 - T) * np.log(1.0 - pc))) / B
    kl = float(np.sum(bernoulli_kl(cache["q"]))) / B
    return LossBreakdown(reconstruction=recon, kl=kl)


def _backward(params, cache) -> dict[str, np.ndarray]:
    B = cache["T"].shape[0]
    grads = {}
    d_out = (cache["p"] - cache["T"]) / B
    d_z = _mlp_backward(params, "dec", cache["z"], cache["g1"], cache["g2"], d_out, grads)

    # z = sigmoid of the noisy logit gap scaled by 1/tau; q = sigmoid of the
    # clean gap; both route into d(gap), with opposite signs per category.
    z = cache["z"]
    q = cache["q"]
    qc = np.clip(q, PROB_CLAMP, 1.0 - PROB_CLAMP)
    d_gap = d_z * z * (1.0 - z) / cache["tau"]
    d_gap += (np.log(qc) - np.log(1.0 - qc)) * q * (1.0 - q) / B
    d_logits = np.stack([-d_gap, d_gap], axis=-1).reshape(B, -1)
    _mlp_backward(params, "enc", cache["T"], cache["h1"], cache["h2"], d_logits, grads)
    return grads


def bvae_loss(model: BvaeModel, batch, tau: float, noise) -> LossBreakdown:
    """Reconstruction BCE plus Bernoulli KL, both averaged per image."""
    T = _check_batch(model.architecture, batch)
    cache = _forward(model.params, model.architecture, T, tau, np.asarray(noise, dtype=np.float64))
    return _losses(cache)


def bvae_loss_and_grads(model: BvaeModel, batch, tau: float, noise):
    """Loss breakdown together with analytic gradients for every layer."""
    T = _check_batch(model.architecture, batch)
    params = model.params
    cache = _forward(params, model.architecture, T, tau, np.asarray(noise, dtype=np.float64))
    return _losses(cache), _backward(params, cache)


def _init_params(arch: BvaeArchitecture, rng: np.random.Generator):
    """Initial parameters as one flat vector, and each layer as a reshaped view into it."""
    shapes = arch.layer_shapes()
    flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    params, start = {}, 0
    for name, shape in shapes.items():
        params[name] = layer = flat[start : start + math.prod(shape)].reshape(shape)
        start += layer.size
        if not name.endswith("_b"):
            fan_in = shape[0]
            # ReLU-oriented scaling for hidden layers, unit-variance for heads
            gain = 2.0 if name not in ("enc3_w", "dec3_w") else 1.0
            layer[...] = rng.normal(0.0, np.sqrt(gain / fan_in), size=shape)
    return flat, params


def _adam_numpy(p, m, v, g, lr: float, c1: float, c2: float, scratch) -> None:
    """_adam.c's adam_step in place, with the kernel's operations in its order.

    g and scratch are overwritten; each ufunc rounds as the kernel's operation does.
    """
    np.multiply(g, 1.0 - _BETA1, out=scratch)
    m *= _BETA1
    m += scratch
    g *= g
    g *= 1.0 - _BETA2
    v *= _BETA2
    v += g
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += _EPS
    np.divide(m, c1, out=g)
    g *= lr
    g /= scratch
    p -= g


def bvae_train(
    data,
    arch: BvaeArchitecture,
    epochs: int,
    seed: int,
    learning_rate: float = 1e-3,
    batch_size: int = 32,
) -> tuple[BvaeModel, TrainCurves]:
    """Train with Adam on shuffled mini-batches, annealing tau each epoch.

    The dataset is split 85/15 into train/validation by a seeded shuffle,
    and tau follows the default :class:`TemperatureSchedule`.
    All stochastic choices (init, shuffles, Gumbel draws) come from a single
    seeded generator, so identical inputs give identical models.

    The parameters, Adam's two moment estimates and the gradient are each
    one flat vector, so each step is one call of ``_adam.c``'s kernel, built
    with the other kernels and cached on disk.  Without a C compiler the same
    step runs in numpy, with the same result.
    """
    _settings.count("epochs", epochs)
    _settings.count("batch_size", batch_size)
    _settings.real("learning_rate", learning_rate, 0, strict=True)
    _settings.count("seed", seed, low=0)
    T_all = _check_batch(arch, data)
    count = T_all.shape[0]
    if count == 0:
        raise ValueError("cannot train on an empty image set")
    rng = np.random.default_rng(seed)
    flat, params = _init_params(arch, rng)

    perm = rng.permutation(count)
    n_val = min(int(np.floor(VAL_FRACTION * count + 0.5)), count - 1)
    train_idx = perm[: count - n_val]
    val_idx = perm[count - n_val :]

    sched = TemperatureSchedule()
    mom, vel, grad = (np.zeros_like(flat) for _ in range(3))
    lib = _native.library()
    scratch = np.empty_like(flat) if lib is None else None
    step = 0
    n = arch.latent_bits

    train_curve, val_curve = [], []
    for epoch in range(epochs):
        order = rng.permutation(train_idx)
        recon_sum = kl_sum = 0.0
        for start in range(0, len(order), batch_size):
            batch = T_all[order[start : start + batch_size]]
            noise = sample_gumbel_noise(rng, (batch.shape[0], n, CATEGORIES_PER_BIT))
            cache = _forward(params, arch, batch, sched.tau, noise)
            losses = _losses(cache)
            grads = _backward(params, cache)
            recon_sum += losses.reconstruction * batch.shape[0]
            kl_sum += losses.kl * batch.shape[0]
            step += 1
            np.concatenate([grads[name] for name in params], axis=None, out=grad)
            c1, c2 = 1.0 - _BETA1**step, 1.0 - _BETA2**step
            if lib is None:
                _adam_numpy(flat, mom, vel, grad, learning_rate, c1, c2, scratch)
            else:
                lib.adam_step(flat.size, flat, mom, vel, grad, learning_rate,
                              _BETA1, _BETA2, c1, c2, _EPS)
        train_curve.append(
            LossBreakdown(recon_sum / len(order), kl_sum / len(order))
        )
        if len(val_idx):
            noise = sample_gumbel_noise(rng, (len(val_idx), n, CATEGORIES_PER_BIT))
            val_curve.append(_losses(_forward(params, arch, T_all[val_idx], sched.tau, noise)))
        else:
            val_curve.append(LossBreakdown(float("nan"), float("nan")))
        sched = anneal_tau(sched, epoch)

    model = BvaeModel(architecture=arch, params=params, tau=sched.tau)
    return model, TrainCurves(train=tuple(train_curve), validation=tuple(val_curve))


def encode(model: BvaeModel, image) -> np.ndarray:
    """Deterministic encoding: bit_i = 1 when the category-1 logit leads."""
    T = _check_batch(model.architecture, image)
    if T.shape[0] != 1:
        raise ValueError(f"encode expects a single image, got {T.shape[0]}")
    logits = _mlp(model.params, "enc", T)[2].reshape(-1, CATEGORIES_PER_BIT)
    return (logits[:, 1] > logits[:, 0]).astype(np.uint8)


def _decode_numpy(params, X: np.ndarray) -> np.ndarray:
    """_decode.c's decode_heads in numpy: each unit summed over its inputs in index order.

    Unit u is (+0.0 + the sum over j ascending of in[:, j] * W[j, u]) + b[u], then
    the hidden layers' ReLU, so each row gets the kernel's bits whatever the batch.
    """
    h = X.astype(np.float64)
    for layer in (1, 2, 3):
        w, b = params[f"dec{layer}_w"], params[f"dec{layer}_b"]
        acc = np.zeros((h.shape[0], w.shape[1]))
        for j in range(w.shape[0]):
            acc += h[:, j, None] * w[j]
        acc += b
        h = acc if layer == 3 else np.where(acc > 0, acc, 0.0)
    return h


def _decode_heads(params, X: np.ndarray) -> np.ndarray:
    """The decoder's head logits for each uint8 row of X, in one decode_heads call or in numpy."""
    lib = _native.library()
    if lib is None:
        return _decode_numpy(params, X)
    rows, n = X.shape
    d1, d2, pixels = (params[f"dec{layer}_w"].shape[1] for layer in (1, 2, 3))
    heads = np.empty((rows, pixels))
    lib.decode_heads(rows, n, d1, d2, pixels, X, *(params[name] for name in _LAYER_NAMES[6:]),
                     np.empty(n), np.empty(d1), np.empty(d2), np.empty(max(n, d1, d2), np.intp),
                     heads)
    return heads


def decode(
    model: BvaeModel, bits, blur_radius_px: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Generate from hard latent bits: (continuous image, thresholded pattern).

    bits is one vector, giving two (m, m) arrays, or a (B, n) batch, giving two
    (B, m, m) stacks; each row's result is the same alone or in any batch.  A
    nonzero blur radius applies a Gaussian filter (in pixels) to each continuous
    image before thresholding at 0.5.  The decoder runs in ``_decode.c``'s fixed
    summation order, or its numpy twin where there is no compiler, so its bits
    depend on neither the batch nor the BLAS.
    """
    arr = _checked_states(bits, 0, max_ndim=2)
    X = np.ascontiguousarray(np.atleast_2d(arr), dtype=np.uint8)
    n = model.architecture.latent_bits
    if X.shape[1] != n:
        raise ValueError(f"dimension mismatch: model has n={n}, vector has length {X.shape[1]}")
    _settings.real("blur_radius_px", blur_radius_px, 0)
    m = model.architecture.image_side
    continuous = _sigmoid(_decode_heads(model.params, X)).reshape(-1, m, m)
    if blur_radius_px > 0:
        continuous = gaussian_blur(continuous, (0, blur_radius_px, blur_radius_px))
    pattern = (continuous >= 0.5).astype(np.uint8)
    return (continuous, pattern) if arr.ndim == 2 else (continuous[0], pattern[0])


def reconstruction_accuracy(model: BvaeModel, images) -> float:
    """Mean fraction of pixels where decode(encode(img)) matches img >= 0.5.

    Each image is encoded alone and all the codes are decoded in one batch.
    """
    T = _check_batch(model.architecture, images)
    if T.shape[0] == 0:
        raise ValueError("cannot measure reconstruction on an empty image set")
    m = model.architecture.image_side
    codes = np.stack([encode(model, row.reshape(m, m)) for row in T])
    _, patterns = decode(model, codes)
    total = 0.0
    for share in (patterns.reshape(T.shape) == (T >= 0.5)).mean(axis=1).tolist():
        total += share  # left to right in image order, whatever numpy's own summation order
    return total / T.shape[0]


def save_bvae(model: BvaeModel, path) -> None:
    """Write the checkpoint, formatting each layer as it is written, so one layer's text is held."""
    arch = model.architecture

    def lines():
        for name in _LAYER_NAMES:
            arr = model.params[name]
            yield f"LAYER {name} {arr.shape[0]} {arr.shape[1]}"
            yield float_rows(arr)
        yield f"TAU {float_text(model.tau)}"

    write_tagged(path, "BVAE", {"m": arch.image_side, "n": arch.latent_bits}, lines())


def load_bvae(path) -> BvaeModel:
    with _read_tagged(path, "BVAE", ("m", "n")) as (head, (m_text, n_text), body):
        m, n = _count(m_text, "m", head), _count(n_text, "n", head)
        params: dict[str, np.ndarray] = {}
        tau = None
        for lineno, line in body:
            fields = line.split()
            where = f"{path}:{lineno}"
            if fields[0] == "TAU" and len(fields) == 2 and tau is None:
                tau = _field(fields[1], float, np.isfinite, where, "TAU must be finite")
            elif fields[0] == "LAYER" and len(fields) == 4:
                name = fields[1]
                if name not in _LAYER_NAMES or name in params:
                    raise ValueError(f"{where}: unknown or repeated layer {name!r}")
                rows, cols = (_count(t, "a layer size", where) for t in fields[2:])
                params[name] = block = body.floats(rows, cols)
                if len(block) != rows:
                    raise ValueError(
                        f"{where}: layer {name} ends after {len(block)} of {rows} rows"
                    )
            else:
                raise ValueError(
                    f"{where}: expected one TAU line or a LAYER block, got {fields[0]!r}"
                )
    if tau is None:
        raise ValueError(f"{path}: checkpoint is missing the TAU line")
    if missing := set(_LAYER_NAMES) - set(params):
        raise ValueError(f"{path}: checkpoint is missing layers: {sorted(missing)}")
    encoder = (params["enc1_w"].shape[1], params["enc2_w"].shape[1])
    decoder = (params["dec1_w"].shape[1], params["dec2_w"].shape[1])
    try:
        arch = BvaeArchitecture(m, n, encoder_hidden=encoder, decoder_hidden=decoder)
        return BvaeModel(architecture=arch, params=params, tau=tau)
    except ValueError as exc:
        raise ValueError(f"{head}: {exc}") from None
