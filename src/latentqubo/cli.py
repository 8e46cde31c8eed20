"""Command-line interface: corpus generation, training, sampling, and the full loop.

Configuration is a flat INI file with [pipeline], [schedule], [objective],
and optional [stratify] sections; unknown sections or keys are rejected so
typos fail fast.  Exit codes: 0 success, 2 configuration error (a bad number
from an INI key or a flag among them), 3 missing input file, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import _settings, _text
from ._settings import ConfigError
from .bvae import (
    BvaeArchitecture,
    bvae_train,
    decode,
    load_bvae,
    reconstruction_accuracy,
    save_bvae,
)
from .dataset import load_dataset, save_dataset
from .images import load_images, load_pgm, save_images
from .objectives import (
    CORPUS_KINDS,
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
    load_inputs,
    run_pipeline,
)
from .samplers import AnnealSchedule

__all__ = ["ConfigError", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_RUNTIME = 4


def _as_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


# [pipeline] and [schedule] keys are the int, float, str and bool fields of
# PipelineConfig and AnnealSchedule; under postponed annotations a field's
# type is its annotation string.
_CONVERTERS = {"int": int, "float": float, "str": str, "bool": _as_bool}
_INI_NAMES = {"dataset_path": "dataset"}
_PATH_FIELDS = {"bvae_checkpoint", "dataset_path", "output_dir"}


def _ini_fields(cls):
    """(INI key, field) for each int, float, str or bool field of the dataclass cls."""
    return [(_INI_NAMES.get(f.name, f.name), f) for f in fields(cls) if f.type in _CONVERTERS]


_SECTIONS = {
    "pipeline": {key for key, _ in _ini_fields(PipelineConfig)},
    "schedule": {key for key, _ in _ini_fields(AnnealSchedule)},
    "objective": {"kind", "target", "target_fill", "smoothness_weight"},
    "stratify": {"total", "bands", "fractions"},
}


def _read_ini(path: str) -> tuple[configparser.ConfigParser, Path]:
    config_path = Path(path)
    if not config_path.exists():
        raise FileNotFoundError(f"config file does not exist: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        text = _text.file_text(config_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        cp.read_string(text, source=str(config_path))
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


def _typed(section, key: str, convert):
    if key not in section:
        raise ConfigError(f"missing required config key {key!r}")
    raw = section[key]
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} has invalid value {raw!r}: {exc}") from exc


def _read_fields(section, cls, skip=()) -> dict:
    """Keyword arguments for the dataclass cls from the keys of an INI section.

    Fields named in skip are not read.  A key left out leaves its field at the
    default; a field without a default must be set.
    """
    return {
        f.name: _typed(section, key, _CONVERTERS[f.type])
        for key, f in _ini_fields(cls)
        if f.name not in skip and (key in section or f.default is MISSING)
    }


def build_objective(cp: configparser.ConfigParser, base: Path):
    """The [objective] section's figure of merit; a bad value or target file is a ConfigError."""
    if "objective" not in cp:
        raise ConfigError("config is missing the [objective] section")
    section = cp["objective"]
    kind = _typed(section, "kind", str)
    try:
        if kind == "target_overlap":
            target_path = _resolve(base, _typed(section, "target", str))
            target = (load_pgm(target_path) >= 0.5).astype(np.uint8)
            return TargetOverlapObjective(target=target)
        if kind == "product_efficiency":
            return ProductEfficiencyObjective(
                target_fill=_typed(section, "target_fill", float),
                smoothness_weight=_typed(section, "smoothness_weight", float),
            )
    except ValueError as exc:
        raise ConfigError(f"invalid [objective]: {exc}") from exc
    raise ConfigError(
        f"objective kind must be 'target_overlap' or 'product_efficiency', got {kind!r}"
    )


def build_schedule(cp: configparser.ConfigParser) -> AnnealSchedule:
    if "schedule" not in cp:
        return AnnealSchedule()
    return AnnealSchedule(**_read_fields(cp["schedule"], AnnealSchedule))


def build_pipeline_config(
    cp: configparser.ConfigParser,
    base: Path,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> PipelineConfig:
    if "pipeline" not in cp:
        raise ConfigError("config is missing the [pipeline] section")
    given = {"seed": seed_override, "output_dir": out_override}
    given = {name: value for name, value in given.items() if value is not None}
    values = _read_fields(cp["pipeline"], PipelineConfig, skip=given)
    for name in _PATH_FIELDS - given.keys():
        values[name] = _resolve(base, values[name])
    values.update(given, objective=build_objective(cp, base), schedule=build_schedule(cp))
    try:
        return PipelineConfig(**values)
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
        spec = StratificationSpec(bands=bands, fractions=fractions)
        return spec, _settings.count("total", total, low=0)
    except ValueError as exc:
        raise ConfigError(f"invalid [stratify]: {exc}") from exc


def _cmd_gen_corpus(args) -> int:
    images = generate_toy_corpus(args.kind, args.side, args.count, args.seed)
    save_images(images, args.out)
    print(f"wrote {args.count} {args.kind} images (m={args.side}) to {args.out}")
    return EXIT_OK


def _cmd_train_bvae(args) -> int:
    images = load_images(args.images)
    try:
        arch = BvaeArchitecture(
            image_side=images.shape[1],
            latent_bits=args.latent_bits,
            encoder_hidden=tuple(int(s) for s in args.encoder_hidden.split(",")),
            decoder_hidden=tuple(int(s) for s in args.decoder_hidden.split(",")),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid autoencoder architecture: {exc}") from exc
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
    seeds = np.random.SeedSequence(_settings.count("seed", args.seed, low=0)).spawn(2)
    cp, base = _read_ini(args.config)
    objective = build_objective(cp, base)
    strat = build_stratification(cp)
    model = load_bvae(args.bvae, decoder_only=True)
    build_seed = int(seeds[0].generate_state(1)[0])
    data = build_latent_dataset(model, objective, args.count, build_seed, blur=args.blur)
    if strat is not None:
        spec, total = strat
        data = stratify_dataset(data, spec, total, int(seeds[1].generate_state(1)[0]))
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
    _, data = load_inputs(cfg)
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
        for flag, value in (("--bvae", args.bvae), ("--blur", args.blur)):
            if value is not None:
                raise ConfigError(f"{flag} is read only with --bits, not with --image")
        pattern = (load_pgm(args.image) >= 0.5).astype(np.uint8)
    else:
        if args.bvae is None:
            raise ConfigError("eval needs --bits together with --bvae")
        model = load_bvae(args.bvae, decoder_only=True)
        n = model.architecture.latent_bits
        if len(args.bits) != n or not set(args.bits) <= {"0", "1"}:
            raise ConfigError(f"--bits must be {n} characters of 0 or 1, got {args.bits!r}")
        blur = 0.0 if args.blur is None else args.blur
        _, pattern = decode(model, [int(ch) for ch in args.bits], blur_radius_px=blur)
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


def _csv_field(text: str) -> str:
    """text as an RFC 4180 field: quoted, inner quotes doubled, where it holds a comma or quote."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cmd_export_csv(args) -> int:
    data = load_dataset(args.dataset)
    rows = zip(data.X, data.Y, data.provenance)
    lines = (f"{''.join(map(str, x))},{_text.float_text(y)},{_csv_field(tag)}"
             for x, y, tag in rows)
    _text.write_lines(args.out, ["bits,label,provenance", *lines])
    print(f"exported {len(data)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentqubo",
        description="Latent-space QUBO optimization: train, sample, iterate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a toy binary image corpus")
    p.add_argument("--kind", choices=CORPUS_KINDS, required=True)
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
    scored = p.add_mutually_exclusive_group(required=True)
    scored.add_argument("--image", default=None, help="PGM pattern to score")
    scored.add_argument("--bits", default=None, help="latent 0/1 string to decode and score")
    p.add_argument("--bvae", default=None, help="checkpoint used with --bits")
    p.add_argument("--blur", type=float, default=None, help="decode blur used with --bits (0)")
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
