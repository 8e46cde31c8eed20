"""Command-line interface: corpus generation, training, sampling, and the full loop.

Configuration is a flat INI file with [pipeline], [schedule], [objective],
and optional [stratify] sections; unknown sections or keys are rejected so
typos fail fast.  Exit codes: 0 success, 2 configuration error, 3 missing
input file, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from .bvae import BvaeArchitecture, bvae_train, decode, load_bvae, reconstruction_accuracy, save_bvae
from .dataset import load_dataset, save_dataset
from .images import load_images, load_pgm, save_images
from .objectives import (
    ProductEfficiencyObjective,
    StratificationSpec,
    TargetOverlapObjective,
    build_latent_dataset,
    evaluate_fom,
    generate_toy_corpus,
    stratify_dataset,
)
from .pipeline import (
    PipelineConfig,
    check_hardware_feasibility,
    fit_and_sample,
    run_pipeline,
)
from .samplers import AnnealSchedule

__all__ = ["ConfigError", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_RUNTIME = 4

_PIPELINE_KEYS = {
    "latent_bits", "fm_rank", "samples_per_iteration", "iterations", "sampler",
    "augmentation", "bit_flip_copies", "label_margin", "dedup", "warm_start_fm",
    "seed", "bvae_checkpoint", "dataset", "output_dir", "fm_epochs",
    "fm_learning_rate", "decode_blur",
}
_SCHEDULE_KEYS = {"beta_start", "beta_end", "num_sweeps", "num_reads"}
_OBJECTIVE_KEYS = {"kind", "target", "target_fill", "smoothness_weight"}
_STRATIFY_KEYS = {"total", "bands", "fractions"}
_SECTIONS = {
    "pipeline": _PIPELINE_KEYS,
    "schedule": _SCHEDULE_KEYS,
    "objective": _OBJECTIVE_KEYS,
    "stratify": _STRATIFY_KEYS,
}


class ConfigError(Exception):
    """Invalid or inconsistent configuration."""


def _read_ini(path: str) -> tuple[configparser.ConfigParser, Path]:
    config_path = Path(path)
    if not config_path.exists():
        raise FileNotFoundError(f"config file does not exist: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(config_path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown config section [{section}]; expected one of "
                f"{sorted(_SECTIONS)}"
            )
        unknown = set(cp[section]) - _SECTIONS[section]
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {sorted(unknown)}"
            )
    return cp, config_path.parent


def _resolve(base: Path, value: str) -> str:
    p = Path(value)
    return str(p if p.is_absolute() else base / p)


def _typed(section, key: str, convert, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing required config key {key!r}")
    raw = section[key]
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} has invalid value {raw!r}: {exc}") from exc


def _as_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def build_objective(cp: configparser.ConfigParser, base: Path):
    if "objective" not in cp:
        raise ConfigError("config is missing the [objective] section")
    section = cp["objective"]
    kind = _typed(section, "kind", str)
    if kind == "target_overlap":
        target_path = _resolve(base, _typed(section, "target", str))
        if not Path(target_path).exists():
            raise FileNotFoundError(f"objective target image does not exist: {target_path}")
        target = (load_pgm(target_path) >= 0.5).astype(np.uint8)
        return TargetOverlapObjective(target=target)
    if kind == "product_efficiency":
        return ProductEfficiencyObjective(
            target_fill=_typed(section, "target_fill", float),
            smoothness_weight=_typed(section, "smoothness_weight", float),
        )
    raise ConfigError(
        f"objective kind must be 'target_overlap' or 'product_efficiency', got {kind!r}"
    )


def build_schedule(cp: configparser.ConfigParser) -> AnnealSchedule:
    if "schedule" not in cp:
        return AnnealSchedule()
    section = cp["schedule"]
    try:
        return AnnealSchedule(
            beta_start=_typed(section, "beta_start", float, AnnealSchedule.beta_start),
            beta_end=_typed(section, "beta_end", float, AnnealSchedule.beta_end),
            num_sweeps=_typed(section, "num_sweeps", int, AnnealSchedule.num_sweeps),
            num_reads=_typed(section, "num_reads", int, AnnealSchedule.num_reads),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [schedule]: {exc}") from exc


def build_pipeline_config(
    cp: configparser.ConfigParser,
    base: Path,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> PipelineConfig:
    if "pipeline" not in cp:
        raise ConfigError("config is missing the [pipeline] section")
    section = cp["pipeline"]
    seed = seed_override if seed_override is not None else _typed(section, "seed", int, 0)
    output_dir = (
        out_override
        if out_override is not None
        else _resolve(base, _typed(section, "output_dir", str))
    )
    try:
        return PipelineConfig(
            latent_bits=_typed(section, "latent_bits", int),
            fm_rank=_typed(section, "fm_rank", int),
            objective=build_objective(cp, base),
            bvae_checkpoint=_resolve(base, _typed(section, "bvae_checkpoint", str)),
            dataset_path=_resolve(base, _typed(section, "dataset", str)),
            output_dir=output_dir,
            samples_per_iteration=_typed(section, "samples_per_iteration", int, 10),
            iterations=_typed(section, "iterations", int, 30),
            sampler=_typed(section, "sampler", str, "simulated_annealing"),
            schedule=build_schedule(cp),
            augmentation=_typed(section, "augmentation", str, "none"),
            bit_flip_copies=_typed(section, "bit_flip_copies", int, 10),
            label_margin=_typed(section, "label_margin", float, 0.05),
            dedup=_typed(section, "dedup", _as_bool, True),
            warm_start_fm=_typed(section, "warm_start_fm", _as_bool, True),
            seed=seed,
            fm_epochs=_typed(section, "fm_epochs", int, 30),
            fm_learning_rate=_typed(section, "fm_learning_rate", float, 0.05),
            decode_blur=_typed(section, "decode_blur", float, 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid pipeline configuration: {exc}") from exc


def build_stratification(cp: configparser.ConfigParser) -> tuple[StratificationSpec, int] | None:
    if "stratify" not in cp:
        return None
    section = cp["stratify"]

    def parse_bands(raw: str):
        bands = []
        for chunk in raw.split(","):
            lo, _, hi = chunk.partition(":")
            bands.append((float(lo), float(hi)))
        return tuple(bands)

    def parse_fractions(raw: str):
        return tuple(float(f) for f in raw.split(","))

    total = _typed(section, "total", int)
    bands = _typed(section, "bands", parse_bands)
    fractions = _typed(section, "fractions", parse_fractions)
    try:
        return StratificationSpec(bands=bands, fractions=fractions), total
    except ValueError as exc:
        raise ConfigError(f"invalid [stratify]: {exc}") from exc


def _cmd_gen_corpus(args) -> int:
    images = generate_toy_corpus(args.kind, args.side, args.count, args.seed)
    save_images(images, args.out)
    print(f"wrote {args.count} {args.kind} images (m={args.side}) to {args.out}")
    return EXIT_OK


def _cmd_train_bvae(args) -> int:
    if not Path(args.images).exists():
        raise FileNotFoundError(f"image file does not exist: {args.images}")
    images = load_images(args.images)
    arch = BvaeArchitecture(
        image_side=images.shape[1],
        latent_bits=args.latent_bits,
        encoder_hidden=tuple(int(s) for s in args.encoder_hidden.split(",")),
        decoder_hidden=tuple(int(s) for s in args.decoder_hidden.split(",")),
    )
    model, curves = bvae_train(
        images,
        arch,
        epochs=args.epochs,
        seed=args.seed,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
    )
    save_bvae(model, args.out)
    last = curves.train[-1]
    accuracy = reconstruction_accuracy(model, images)
    print(
        f"trained {args.epochs} epochs: reconstruction {last.reconstruction:.4f}, "
        f"kl {last.kl:.4f}, pixel accuracy {accuracy:.4f}; checkpoint at {args.out}"
    )
    return EXIT_OK


def _cmd_gen_dataset(args) -> int:
    cp, base = _read_ini(args.config)
    objective = build_objective(cp, base)
    if not Path(args.bvae).exists():
        raise FileNotFoundError(f"checkpoint does not exist: {args.bvae}")
    model = load_bvae(args.bvae)
    strat = build_stratification(cp)
    build_seed_seq, strat_seed_seq = np.random.SeedSequence(args.seed).spawn(2)
    build_seed = int(build_seed_seq.generate_state(1)[0])
    data = build_latent_dataset(model, objective, args.count, build_seed, blur=args.blur)
    if strat is not None:
        spec, total = strat
        data = stratify_dataset(data, spec, total, int(strat_seed_seq.generate_state(1)[0]))
    save_dataset(data, args.out)
    print(
        f"wrote {len(data)} labeled vectors (n={data.n}, best label "
        f"{data.max_label():.6f}) to {args.out}"
    )
    return EXIT_OK


def _cmd_run_loop(args) -> int:
    cp, base = _read_ini(args.config)
    cfg = build_pipeline_config(cp, base, args.seed, args.out)
    state = run_pipeline(cfg)
    first = state.history[0]
    last = state.history[-1]
    print(
        f"ran {cfg.iterations} iterations: running max fom "
        f"{first.running_max_fom:.6f} -> {last.running_max_fom:.6f}, "
        f"dataset grew to {last.dataset_size} rows; outputs in {cfg.output_dir}"
    )
    return EXIT_OK


def _cmd_sample_once(args) -> int:
    cp, base = _read_ini(args.config)
    cfg = build_pipeline_config(cp, base, args.seed, None)
    for path in (cfg.bvae_checkpoint, cfg.dataset_path):
        if not Path(path).exists():
            raise FileNotFoundError(f"required input file does not exist: {path}")
    data = load_dataset(cfg.dataset_path)
    # one loop iteration's fit and sample, both seeded with the configured seed
    _, report, transform, samples = fit_and_sample(data, cfg, cfg.seed, cfg.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    samples.write_csv(out)
    best = samples.best()
    print(
        f"fm test mse {report.test_mse:.6f}; best sampled energy {best.energy:.6f} "
        f"(predicted fom {transform.invert(best.energy):.6f}); samples in {out}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    cp, base = _read_ini(args.config)
    objective = build_objective(cp, base)
    if args.image is not None:
        if not Path(args.image).exists():
            raise FileNotFoundError(f"image does not exist: {args.image}")
        pattern = (load_pgm(args.image) >= 0.5).astype(np.uint8)
    else:
        if args.bits is None or args.bvae is None:
            raise ConfigError("eval needs --image, or --bits together with --bvae")
        if not Path(args.bvae).exists():
            raise FileNotFoundError(f"checkpoint does not exist: {args.bvae}")
        model = load_bvae(args.bvae)
        bits = [int(ch) for ch in args.bits]
        _, pattern = decode(model, bits, blur_radius_px=args.blur)
    value = evaluate_fom(objective, pattern)
    print(f"figure of merit: {value:.6f}")
    return EXIT_OK


def _cmd_check_hardware(args) -> int:
    cp, base = _read_ini(args.config)
    cfg = build_pipeline_config(cp, base, None, None)
    report = check_hardware_feasibility(cfg, args.max_clique)
    verdict = "fits" if report.fits_hardware else "does not fit"
    print(
        f"n={report.n} fully connected ({report.edge_count} couplings) "
        f"{verdict} a clique limit of {report.max_supported_clique}"
    )
    return EXIT_OK


def _cmd_export_csv(args) -> int:
    if not Path(args.dataset).exists():
        raise FileNotFoundError(f"dataset does not exist: {args.dataset}")
    data = load_dataset(args.dataset)
    lines = ["bits,label,provenance"]
    for r in range(len(data)):
        bits = "".join(str(b) for b in data.X[r])
        lines.append(f"{bits},{'%.17g' % data.Y[r]},{data.provenance[r]}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"exported {len(data)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentqubo",
        description="Latent-space QUBO optimization: train, sample, iterate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a toy binary image corpus")
    p.add_argument("--kind", choices=("half_planes", "blobs", "stripes"), required=True)
    p.add_argument("--side", type=int, default=8, help="image side length m")
    p.add_argument("--count", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output image grid file")
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("train-bvae", help="train the autoencoder on an image corpus")
    p.add_argument("--images", required=True, help="input image grid file")
    p.add_argument("--latent-bits", type=int, default=16)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--encoder-hidden", default="512,256")
    p.add_argument("--decoder-hidden", default="256,512")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=_cmd_train_bvae)

    p = sub.add_parser("gen-dataset", help="label random latent vectors with the objective")
    p.add_argument("--config", required=True, help="INI file with the [objective] section")
    p.add_argument("--bvae", required=True, help="autoencoder checkpoint")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blur", type=float, default=0.0)
    p.add_argument("--out", required=True, help="dataset output path")
    p.set_defaults(func=_cmd_gen_dataset)

    p = sub.add_parser("run-loop", help="run the full sample/retrain optimization loop")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p.add_argument("--out", default=None, help="override the configured output directory")
    p.set_defaults(func=_cmd_run_loop)

    p = sub.add_parser("sample-once", help="fit and sample once, as one loop iteration does")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="sample CSV output path")
    p.set_defaults(func=_cmd_sample_once)

    p = sub.add_parser("eval", help="score a pattern or latent bit string")
    p.add_argument("--config", required=True)
    p.add_argument("--image", default=None, help="PGM pattern to score")
    p.add_argument("--bits", default=None, help="latent 0/1 string to decode and score")
    p.add_argument("--bvae", default=None, help="checkpoint used with --bits")
    p.add_argument("--blur", type=float, default=0.0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check-hardware", help="check the clique-size feasibility limit")
    p.add_argument("--config", required=True)
    p.add_argument("--max-clique", type=int, default=180)
    p.set_defaults(func=_cmd_check_hardware)

    p = sub.add_parser("export-csv", help="export a dataset file as flat CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_csv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
