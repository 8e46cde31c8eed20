"""Figure-of-merit objectives plus toy corpus and dataset builders.

Objectives are pure maps from an m-by-m binary pattern to a score in [0,1];
they stand in for the expensive physics evaluations a real design problem
would run, while keeping the optimization loop's interface identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _settings
from .bvae import BvaeModel, decode
from .dataset import LabeledDataset
from .images import gaussian_blur

__all__ = [
    "FigureOfMerit",
    "ProductEfficiencyObjective",
    "TargetOverlapObjective",
    "StratificationSpec",
    "evaluate_fom",
    "build_latent_dataset",
    "stratify_dataset",
    "generate_toy_corpus",
    "CORPUS_KINDS",
]

CORPUS_KINDS = ("half_planes", "blobs", "stripes")


class FigureOfMerit:
    """Behavioral contract: a named, deterministic pattern score in [0,1].

    A subclass defines ``evaluate`` for one pattern, and :func:`evaluate_fom`
    calls it once per pattern of a stack.  The built-in objectives write their
    formula once, over a stack, and score a single pattern as a stack of one.
    """

    name: str = "abstract"

    def evaluate(self, pattern: np.ndarray) -> float:
        raise NotImplementedError

    def _scores(self, patterns: np.ndarray) -> np.ndarray:
        """The scores of a (B, m, m) stack of checked patterns."""
        return np.array([self.evaluate(pattern) for pattern in patterns], dtype=np.float64)


def _check_patterns(patterns, max_ndim: int = 3) -> np.ndarray:
    """One nonempty square 0/1 pattern, or (with max_ndim=3) a stack of them."""
    arr = np.asarray(patterns)
    if not 2 <= arr.ndim <= max_ndim or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] == 0:
        kind = "a nonempty square 2-D array" + (" or a stack of them" if max_ndim == 3 else "")
        raise ValueError(f"pattern must be {kind}, got shape {arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("pattern entries must be exactly 0 or 1")
    return arr


class _StackObjective(FigureOfMerit):
    """A built-in objective: ``_scores`` holds its formula, and one pattern is a stack of one."""

    def evaluate(self, pattern: np.ndarray) -> float:
        return float(self._scores(_check_patterns(pattern, max_ndim=2)[None])[0])


@dataclass(frozen=True)
class ProductEfficiencyObjective(_StackObjective):
    """Product of a fill-factor band term and a boundary-smoothness term.

    eff_in  = exp(-(fill - target_fill)^2 / 0.02) rewards patterns whose mean
    pixel value sits near target_fill; eff_out = 1 / (1 + w * boundary_density)
    penalizes jagged patterns, where boundary_density counts unequal
    4-neighbor pixel pairs normalized by the 2m(m-1) total pairs.
    """

    target_fill: float
    smoothness_weight: float
    name: str = "product_efficiency"

    def __post_init__(self):
        _settings.real("target_fill", self.target_fill, 0, 1, strict=True)
        _settings.real("smoothness_weight", self.smoothness_weight, 0)

    def _scores(self, patterns: np.ndarray) -> np.ndarray:
        m = patterns.shape[-1]
        fill = patterns.sum(axis=(1, 2)) / (m * m)  # an exact count: each pattern's mean to the bit
        # the C library's pow, as a float's ** 2 calls it: an array's ** 2 is a product, which
        # rounds differently for some fills and targets
        eff_in = np.exp(-np.float_power(fill - self.target_fill, 2) / 0.02)
        unequal = ((patterns[:, :, 1:] != patterns[:, :, :-1]).sum(axis=(1, 2))
                   + (patterns[:, 1:, :] != patterns[:, :-1, :]).sum(axis=(1, 2)))
        boundary_density = unequal / (2 * m * (m - 1)) if m > 1 else 0.0
        eff_out = 1.0 / (1.0 + self.smoothness_weight * boundary_density)
        return eff_in * eff_out


@dataclass(frozen=True)
class TargetOverlapObjective(_StackObjective):
    """Fraction of pixels matching a fixed target; 1 exactly on the target."""

    target: np.ndarray
    name: str = "target_overlap"

    def __post_init__(self):
        target = _check_patterns(self.target, max_ndim=2).astype(np.uint8)
        target.setflags(write=False)
        object.__setattr__(self, "target", target)

    def _scores(self, patterns: np.ndarray) -> np.ndarray:
        if patterns.shape[1:] != self.target.shape:
            raise ValueError(
                f"pattern shape {patterns.shape[1:]} does not match target shape "
                f"{self.target.shape}"
            )
        return (patterns == self.target).mean(axis=(1, 2))


def evaluate_fom(obj: FigureOfMerit, patterns):
    """Score one pattern, giving a float, or a (B, m, m) stack, giving B floats.

    A built-in objective scores the whole stack at once; each score has the
    bits that scoring its pattern alone gives.
    """
    arr = _check_patterns(patterns)
    values = obj._scores(arr[None] if arr.ndim == 2 else arr)
    outside = ~((values >= 0.0) & (values <= 1.0))
    if outside.any():
        value = values[np.argmax(outside)]
        raise ValueError(f"objective {obj.name!r} returned {value}, outside [0, 1]")
    return float(values[0]) if arr.ndim == 2 else values


@dataclass(frozen=True)
class StratificationSpec:
    """Figure-of-merit bands and the fraction of the output drawn from each.

    Bands are half-open [lower, upper) except the topmost, which is closed so
    a perfect score of 1.0 still lands in a band.
    """

    bands: tuple[tuple[float, float], ...]
    fractions: tuple[float, ...]

    def __post_init__(self):
        bands = tuple((float(lo), float(hi)) for lo, hi in self.bands)
        fractions = tuple(_settings.real("fractions", f, 0) for f in self.fractions)
        if len(bands) != len(fractions) or not bands:
            raise ValueError("need one fraction per band and at least one band")
        for lo, hi in bands:
            if not lo < hi:
                raise ValueError(f"band ({lo}, {hi}) must have lower < upper")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
        ordered = sorted(bands)
        for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
            if hi > lo:
                raise ValueError(f"bands overlap at {lo}")
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "fractions", fractions)

    def band_mask(self, labels: np.ndarray, band_index: int) -> np.ndarray:
        lo, hi = self.bands[band_index]
        top = max(b[1] for b in self.bands)
        labels = np.asarray(labels)
        if hi == top:
            return (labels >= lo) & (labels <= hi)
        return (labels >= lo) & (labels < hi)


def build_latent_dataset(
    model: BvaeModel, obj: FigureOfMerit, count: int, seed: int, blur: float = 0.0
) -> LabeledDataset:
    """Label uniform random latent vectors, decoded and scored in one batch."""
    _settings.count("count", count)
    n = model.architecture.latent_bits
    rng = np.random.default_rng(_settings.count("seed", seed, low=0))
    X = rng.integers(0, 2, size=(count, n)).astype(np.uint8)
    _, patterns = decode(model, X, blur_radius_px=blur)
    return LabeledDataset(X=X, Y=evaluate_fom(obj, patterns), provenance=("random",) * count)


def stratify_dataset(
    pool: LabeledDataset, spec: StratificationSpec, total: int, seed: int
) -> LabeledDataset:
    """Draw round(fraction*total) rows per band from the pool, without replacement."""
    _settings.count("total", total, low=0)
    rng = np.random.default_rng(_settings.count("seed", seed, low=0))
    chosen: list[int] = []
    for b, (band, fraction) in enumerate(zip(spec.bands, spec.fractions)):
        quota = int(np.floor(fraction * total + 0.5))
        if quota == 0:
            continue
        members = np.flatnonzero(spec.band_mask(pool.Y, b))
        if members.size < quota:
            raise ValueError(
                f"band [{band[0]}, {band[1]}] needs {quota} rows but the pool has "
                f"{members.size} (deficit {quota - members.size})"
            )
        chosen.extend(rng.choice(members, size=quota, replace=False).tolist())
    return pool.subset(chosen)


def _half_plane_base(m: int) -> np.ndarray:
    patterns = [np.zeros((m, m)), np.ones((m, m))]
    for cut in range(1, m):
        rows = np.zeros((m, m))
        rows[:cut, :] = 1.0
        patterns.append(rows)
        cols = np.zeros((m, m))
        cols[:, :cut] = 1.0
        patterns.append(cols)
    return np.stack(patterns)


def generate_toy_corpus(kind: str, m: int, count: int, seed: int) -> np.ndarray:
    """Produce a (count, m, m) binary image corpus of the requested family.

    half_planes cycles through every axis-aligned half plane (plus the empty
    and full patterns) in shuffled order; blobs thresholds smoothed Gaussian
    noise at its median; stripes draws periodic bands of random orientation,
    pitch, and phase.
    """
    if kind not in CORPUS_KINDS:
        raise ValueError(f"unknown corpus kind {kind!r}, expected one of {CORPUS_KINDS}")
    _settings.count("image side m", m, low=4)
    _settings.count("count", count)
    rng = np.random.default_rng(_settings.count("seed", seed, low=0))
    if kind == "half_planes":
        base = _half_plane_base(m)
        reps = np.resize(np.arange(len(base)), count)
        return base[rng.permutation(reps)]
    if kind == "blobs":
        fields = gaussian_blur(rng.normal(size=(count, m, m)), (0, m / 4, m / 4))
        cutoffs = np.median(fields, axis=(1, 2), keepdims=True)
        return (fields > cutoffs).astype(np.float64)
    images = np.zeros((count, m, m))
    for i in range(count):
        pitch = int(rng.integers(2, max(3, m // 2) + 1))
        phase = int(rng.integers(0, pitch))
        coords = (np.arange(m) + phase) % pitch < (pitch + 1) // 2
        if rng.integers(0, 2):
            images[i] = np.tile(coords[:, None], (1, m))
        else:
            images[i] = np.tile(coords[None, :], (m, 1))
    return images
