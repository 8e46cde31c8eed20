"""Sample-retrain optimization loop over a learned binary latent space.

Each iteration refits a factorization-machine surrogate to the current
labeled dataset (on negated labels, so maximization becomes minimization),
extracts the equivalent QUBO, samples low-energy latent vectors, decodes and
scores them with the true objective, and appends the new rows.  Convergence
statistics are recorded per iteration and exported as plot-ready CSV.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import _settings, _text
from .bvae import BvaeModel, decode, load_bvae
from .dataset import LabeledDataset, load_dataset, save_dataset
from .fm import (
    FmModel,
    FmTrainConfig,
    FmTrainReport,
    LabelTransform,
    apply_label_transform,
    fm_predict,
    fm_to_qubo,
    fm_train,
    save_fm,
)
from .images import save_pgm
from .objectives import FigureOfMerit, evaluate_fom
from .qubo import _checked_states
from .samplers import (
    BRUTE_FORCE_MAX_BITS,
    AnnealSchedule,
    SampleSet,
    brute_force_sample,
    simulated_annealing_sample,
)

__all__ = [
    "PipelineConfig",
    "ConvergenceRecord",
    "RunState",
    "bit_flip_augment",
    "fit_and_sample",
    "run_iteration",
    "run_pipeline",
    "ConnectivityReport",
    "check_hardware_feasibility",
    "write_convergence_csv",
]

SAMPLER_NAMES = ("brute_force", "simulated_annealing")
AUGMENTATION_NAMES = ("none", "bit_flip")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one optimization run needs, file paths included."""

    latent_bits: int
    fm_rank: int
    objective: FigureOfMerit
    bvae_checkpoint: str
    dataset_path: str
    output_dir: str
    samples_per_iteration: int = 10
    iterations: int = 30
    sampler: str = "simulated_annealing"
    schedule: AnnealSchedule = AnnealSchedule()
    augmentation: str = "none"
    bit_flip_copies: int = 10
    label_margin: float = 0.05
    warm_start_fm: bool = True
    seed: int = 0
    fm_epochs: int = 30
    fm_learning_rate: float = 0.05
    decode_blur: float = 0.0

    def __post_init__(self):
        for name in ("latent_bits", "fm_rank", "samples_per_iteration", "iterations", "fm_epochs"):
            _settings.count(name, getattr(self, name))
        _settings.count("seed", self.seed, low=0)
        if self.sampler not in SAMPLER_NAMES:
            raise ValueError(f"sampler must be one of {SAMPLER_NAMES}, got {self.sampler!r}")
        if self.sampler == "brute_force" and self.latent_bits > BRUTE_FORCE_MAX_BITS:
            raise ValueError(
                f"the brute_force sampler is capped at BRUTE_FORCE_MAX_BITS = "
                f"{BRUTE_FORCE_MAX_BITS} latent bits, got latent_bits = {self.latent_bits}"
            )
        if self.augmentation not in AUGMENTATION_NAMES:
            raise ValueError(
                f"augmentation must be one of {AUGMENTATION_NAMES}, got {self.augmentation!r}"
            )
        # at most one copy per bit, where copies are drawn at all
        copies_cap = self.latent_bits if self.augmentation == "bit_flip" else np.inf
        _settings.count("bit_flip_copies", self.bit_flip_copies, high=copies_cap)
        _settings.real("label_margin", self.label_margin, 0)
        _settings.real("decode_blur", self.decode_blur, 0)
        _settings.real("fm_learning_rate", self.fm_learning_rate, 0, strict=True)
        warm = _settings.flag("warm_start_fm", self.warm_start_fm)
        object.__setattr__(self, "warm_start_fm", warm)


@dataclass(frozen=True)
class ConvergenceRecord:
    """Per-iteration statistics over the newly evaluated designs.

    surrogate_error is the mean |fm_predict(x) - (c - actual_fom(x))| over the
    iteration's designs; it is logged for trend inspection and kept out of the
    CSV schema.
    """

    iteration: int
    mean_fom: float
    std_fom: float
    max_fom: float
    running_max_fom: float
    dataset_size: int
    sampler_energy_min: float
    surrogate_error: float

    def __post_init__(self):
        if not (np.isnan(self.std_fom) or self.std_fom >= 0):
            raise ValueError(f"std_fom must be >= 0, got {self.std_fom}")


@dataclass
class RunState:
    """Mutable loop state owned by a single orchestrator; nothing derivable is stored.

    The iteration number is ``len(history)``, the running maximum ``dataset.max_label()``.
    """

    dataset: LabeledDataset
    bvae: BvaeModel
    fm: FmModel | None = None
    seed_seq: np.random.SeedSequence = dataclass_field(
        default_factory=lambda: np.random.SeedSequence(0)
    )
    history: list[ConvergenceRecord] = dataclass_field(default_factory=list)


def bit_flip_augment(bits, copies: int, seed: int) -> np.ndarray:
    """Hamming-distance-1 copies of a vector as (copies, n) uint8 rows; no bit is flipped twice."""
    x = _checked_states(bits).astype(np.uint8)
    _settings.count("copies", copies, high=x.size)
    rng = np.random.default_rng(_settings.count("seed", seed, low=0))
    positions = rng.choice(x.size, size=copies, replace=False)
    return x ^ np.eye(x.size, dtype=np.uint8)[positions]


def fit_and_sample(
    data: LabeledDataset, cfg: PipelineConfig, fm_seed: int, sampler_seed: int, warm_start=None
) -> tuple[FmModel, FmTrainReport, LabelTransform, SampleSet]:
    """Fit the surrogate to the negated labels, read it off as a QUBO and sample that.

    warm_start, an FmModel or None, is where training starts.  Returns the
    fitted model, its training report, the label transform and the samples.
    """
    transformed, transform = apply_label_transform(data.Y, cfg.label_margin)
    train_data = LabeledDataset(X=data.X, Y=transformed, provenance=data.provenance)
    fm_cfg = FmTrainConfig(
        epochs=cfg.fm_epochs, learning_rate=cfg.fm_learning_rate, rank=cfg.fm_rank, seed=fm_seed
    )
    model, report = fm_train(train_data, fm_cfg, warm_start=warm_start)
    q = fm_to_qubo(model)
    if cfg.sampler == "brute_force":
        # request enough entries that already-seen vectors cannot crowd out
        # samples_per_iteration new ones
        samples = brute_force_sample(q, top_k=cfg.samples_per_iteration + len(data))
    else:
        # the factors let each annealing step cost O(rank) instead of O(latent bits)
        samples = simulated_annealing_sample(q, cfg.schedule, seed=sampler_seed, factors=model.V)
    return model, report, transform, samples


def run_iteration(state: RunState, cfg: PipelineConfig) -> ConvergenceRecord:
    """One retrain/sample/evaluate/append cycle; mutates and returns via state."""
    fm_seed, sampler_seed, augment_seed = (
        int(child.generate_state(1)[0]) for child in state.seed_seq.spawn(3)
    )
    warm = state.fm if cfg.warm_start_fm else None
    state.fm, _, transform, sample_set = fit_and_sample(
        state.dataset, cfg, fm_seed, sampler_seed, warm_start=warm
    )

    selected: list[np.ndarray] = []
    selected_tags: list[str] = []
    seen_now: set[bytes] = set()

    def take(candidates, tag: str) -> None:
        """Select new candidates in order until samples_per_iteration are chosen."""
        for x in candidates:
            if len(selected) >= cfg.samples_per_iteration:
                return
            key = x.tobytes()
            if state.dataset.contains(x) or key in seen_now:
                continue
            seen_now.add(key)
            selected.append(x)
            selected_tags.append(tag)

    iteration = len(state.history)
    tag = f"iter{iteration}"
    take((entry.vector for entry in sample_set.entries), tag)
    if len(selected) < cfg.samples_per_iteration and cfg.augmentation == "bit_flip":
        source = selected[0] if selected else sample_set.best().vector
        take(bit_flip_augment(source, cfg.bit_flip_copies, augment_seed), f"{tag}_flip")

    if selected:
        X = np.stack(selected)
        _, patterns = decode(state.bvae, X, blur_radius_px=cfg.decode_blur)
        labels = evaluate_fom(cfg.objective, patterns)
        surrogate_gaps = np.abs(fm_predict(state.fm, X) - (transform.c - labels))
        state.dataset, _ = state.dataset.append_rows(X, labels, selected_tags)
        mean_fom = float(labels.mean())
        std_fom = float(labels.std())
        max_fom = float(labels.max())
        surrogate_error = float(surrogate_gaps.mean())
    else:
        # stagnation: the sampler produced nothing new
        mean_fom = std_fom = max_fom = float("nan")
        surrogate_error = float("nan")

    record = ConvergenceRecord(
        iteration=iteration,
        mean_fom=mean_fom,
        std_fom=std_fom,
        max_fom=max_fom,
        running_max_fom=state.dataset.max_label(),
        dataset_size=len(state.dataset),
        sampler_energy_min=sample_set.best().energy,
        surrogate_error=surrogate_error,
    )
    state.history.append(record)
    return record


def write_convergence_csv(history, path) -> None:
    fmt = _text.float_text
    lines = (
        f"{rec.iteration},{fmt(rec.mean_fom)},{fmt(rec.std_fom)},{fmt(rec.max_fom)},"
        f"{fmt(rec.running_max_fom)},{rec.dataset_size},{fmt(rec.sampler_energy_min)}"
        for rec in history
    )
    header = "iteration,mean_fom,std_fom,max_fom,running_max_fom,dataset_size,min_energy"
    _text.write_lines(path, [header, *lines])


def load_inputs(cfg: PipelineConfig) -> tuple[BvaeModel, LabeledDataset]:
    """The checkpoint and the initial dataset, checked against cfg; duplicate rows dropped.

    The first occurrence of a repeated vector is kept.  ``run-loop`` and
    ``sample-once`` both read their inputs here.
    """
    for path in (cfg.bvae_checkpoint, cfg.dataset_path):
        if not Path(path).exists():
            raise FileNotFoundError(f"required input file does not exist: {path}")
    bvae = load_bvae(cfg.bvae_checkpoint, decoder_only=True)
    if bvae.architecture.latent_bits != cfg.latent_bits:
        raise ValueError(
            f"config expects {cfg.latent_bits} latent bits but the checkpoint "
            f"has {bvae.architecture.latent_bits}"
        )
    data = load_dataset(cfg.dataset_path)
    if data.n != cfg.latent_bits:
        raise ValueError(
            f"config expects {cfg.latent_bits} latent bits but the dataset has n={data.n}"
        )
    if len(data) == 0:
        raise ValueError("initial dataset is empty")
    data, _ = LabeledDataset.empty(data.n).append_rows(data.X, data.Y, data.provenance)
    return bvae, data


def run_pipeline(cfg: PipelineConfig) -> RunState:
    """Execute the configured number of iterations and write all artifacts.

    Outputs under cfg.output_dir: convergence.csv, dataset_final.txt,
    fm_final.txt, best_design.pgm, and best_design_bits.txt.
    """
    bvae, data = load_inputs(cfg)
    state = RunState(dataset=data, bvae=bvae, seed_seq=np.random.SeedSequence(cfg.seed))
    for _ in range(cfg.iterations):
        run_iteration(state, cfg)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_convergence_csv(state.history, out / "convergence.csv")
    save_dataset(state.dataset, out / "dataset_final.txt")
    save_fm(state.fm, out / "fm_final.txt")
    best_bits, best_label = state.dataset.best_row()
    _, pattern = decode(state.bvae, best_bits, blur_radius_px=cfg.decode_blur)
    save_pgm(pattern.astype(np.float64), out / "best_design.pgm")
    best_line = f"{''.join(map(str, best_bits))} {_text.float_text(best_label)}"
    _text.write_lines(out / "best_design_bits.txt", [best_line])
    return state


@dataclass(frozen=True)
class ConnectivityReport:
    """Clique check of a fully connected problem against a hardware clique limit."""

    n: int
    edge_count: int
    is_fully_connected: bool
    max_supported_clique: int
    fits_hardware: bool


def check_hardware_feasibility(cfg: PipelineConfig, max_clique: int) -> ConnectivityReport:
    """Clique check for a fully connected problem of the configured size, answered from n."""
    _settings.count("max_clique", max_clique)
    n = cfg.latent_bits
    report = ConnectivityReport(
        n=n, edge_count=n * (n - 1) // 2, is_fully_connected=True,
        max_supported_clique=max_clique, fits_hardware=n <= max_clique,
    )
    if not report.fits_hardware:
        warnings.warn(
            f"{n} latent bits exceed the hardware clique limit of {max_clique}; "
            "sampling would require embedding or a decomposing solver",
            stacklevel=2,
        )
    return report
