"""Workload definitions: the inputs each named workload builds from a seed.

A workload is a set-up (three ``latentqubo`` commands that go from nothing to
a checkpoint and a labeled dataset) plus a ``run-loop`` configuration.  The
corpus and the autoencoder use fixed seeds; the labeled rows and the loop
take the benchmark's ``--seed``, so the same seed always gives the same
inputs and ``best_fom`` varies only with the rows and the loop's own draws.  Sizes are chosen so that each layer
an optimisation is likely to touch does most of the work in one workload and
little in another; see README.md for the reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Metrics that only exist when the matching sampler runs.  A workload that
# does not run that sampler reports them as 0 and lists them as not exercised.
SA_METRICS = (
    "samplers.sa.calls",
    "samplers.sa.call_s_p50",
    "samplers.sa.flips_per_s",
    "samplers.sa.distinct_ratio",
)
OPTIMUM_HIT_METRIC = "samplers.sa.optimum_hit_ratio"
BF_METRICS = ("samplers.bf.call_s_p50", "samplers.bf.states_per_s")
QUBO_ENERGY_METRICS = ("qubo.energy.calls", "qubo.energy.call_us_p50")

# The exhaustive-minimum checks enumerate 2^n states.
ENUMERATION_MAX_BITS = 16
CORPUS_SEED = 11
BVAE_SEED = 3


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_kind: str
    side: int
    corpus_count: int
    latent_bits: int
    bvae_epochs: int
    encoder_hidden: str
    decoder_hidden: str
    dataset_count: int
    blur: float
    pipeline: dict
    schedule: dict
    objective: dict
    stratify: dict = field(default_factory=dict)
    target: str | None = None
    # criterion 08: the loop's best must beat the best initial row
    must_improve: bool = False

    @property
    def sampler(self) -> str:
        return self.pipeline["sampler"]

    @property
    def iterations(self) -> int:
        return int(self.pipeline["iterations"])

    def not_exercised(self) -> tuple[str, ...]:
        """Per-layer metrics whose layer this workload does not run by design."""
        skipped: list[str] = []
        if self.sampler == "brute_force":
            skipped += SA_METRICS + QUBO_ENERGY_METRICS + (OPTIMUM_HIT_METRIC,)
        else:
            skipped += BF_METRICS
            if self.latent_bits > ENUMERATION_MAX_BITS:
                skipped.append(OPTIMUM_HIT_METRIC)
        return tuple(skipped)

    def target_pattern(self) -> np.ndarray | None:
        if self.target is None:
            return None
        t = np.zeros((self.side, self.side), dtype=np.uint8)
        if self.target == "top_half":
            t[: self.side // 2, :] = 1
        else:
            raise ValueError(f"unknown target {self.target!r}")
        return t

    def write_inputs(self, directory: Path, seed: int) -> Path:
        """Write run.ini (and the target image) for one set-up; return the config path."""
        directory.mkdir(parents=True, exist_ok=True)
        pipeline = dict(self.pipeline)
        pipeline.update(
            latent_bits=self.latent_bits,
            bvae_checkpoint="bvae.txt",
            dataset="dataset.txt",
            output_dir="out",
            seed=seed,
            decode_blur=self.blur,
        )
        sections = {"pipeline": pipeline, "schedule": self.schedule, "objective": dict(self.objective)}
        target = self.target_pattern()
        if target is not None:
            sections["objective"]["target"] = "target.pgm"
            write_pgm(target, directory / "target.pgm")
        if self.stratify:
            sections["stratify"] = self.stratify
        lines = []
        for name, values in sections.items():
            if not values:
                continue
            lines.append(f"[{name}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
            lines.append("")
        config = directory / "run.ini"
        config.write_text("\n".join(lines))
        return config

    def setup_commands(self, directory: Path, seed: int) -> list[list[str]]:
        """The three set-up commands, as argument lists for ``latentqubo.cli.main``."""
        d = str(directory)
        return [
            ["gen-corpus", "--kind", self.corpus_kind, "--side", str(self.side),
             "--count", str(self.corpus_count), "--seed", str(CORPUS_SEED),
             "--out", f"{d}/corpus.txt"],
            ["train-bvae", "--images", f"{d}/corpus.txt",
             "--latent-bits", str(self.latent_bits), "--epochs", str(self.bvae_epochs),
             "--seed", str(BVAE_SEED), "--encoder-hidden", self.encoder_hidden,
             "--decoder-hidden", self.decoder_hidden, "--out", f"{d}/bvae.txt"],
            ["gen-dataset", "--config", f"{d}/run.ini", "--bvae", f"{d}/bvae.txt",
             "--count", str(self.dataset_count), "--seed", str(seed),
             "--blur", str(self.blur), "--out", f"{d}/dataset.txt"],
        ]


def write_pgm(pattern: np.ndarray, path: Path) -> None:
    m = pattern.shape[0]
    rows = [" ".join(str(255 * int(v)) for v in row) for row in pattern]
    path.write_text("\n".join(["P2", f"{m} {m}", "255", *rows]) + "\n")


WORKLOADS = {
    # The closed-loop scenario of acceptance criterion 08: annealing dominates
    # the loop and bVAE training dominates set-up.  The initial rows are
    # stratified to overlaps <= 0.95, so the loop has something to find: with
    # plain random rows most seeds already hold the perfect design.
    "toy_loop": Workload(
        name="toy_loop",
        corpus_kind="half_planes",
        side=8,
        corpus_count=256,
        latent_bits=16,
        bvae_epochs=50,
        encoder_hidden="512,256",
        decoder_hidden="256,512",
        dataset_count=300,
        blur=0.0,
        pipeline={
            "fm_rank": 8,
            "samples_per_iteration": 10,
            "iterations": 15,
            "sampler": "simulated_annealing",
        },
        schedule={"num_sweeps": 1000, "num_reads": 20},
        objective={"kind": "target_overlap"},
        stratify={"total": 150, "bands": "0.0:0.95", "fractions": "1.0"},
        target="top_half",
        must_improve=True,
    ),
    # n=180, the default clique limit of check-hardware: the only workload
    # where the n^2 QUBO work, the sampler's per-read buffers and the 14 MB
    # text checkpoint show.
    "wide_latent": Workload(
        name="wide_latent",
        corpus_kind="blobs",
        side=16,
        corpus_count=256,
        latent_bits=180,
        bvae_epochs=15,
        encoder_hidden="512,256",
        decoder_hidden="256,512",
        dataset_count=150,
        blur=0.7,
        pipeline={
            "fm_rank": 8,
            "samples_per_iteration": 10,
            "iterations": 3,
            "sampler": "simulated_annealing",
        },
        schedule={"num_sweeps": 200, "num_reads": 100},
        objective={"kind": "product_efficiency", "target_fill": 0.5, "smoothness_weight": 4.0},
    ),
    # A large labeled set and exhaustive sampling: FM training does most of
    # the loop's work and annealing does none.
    "fit_heavy": Workload(
        name="fit_heavy",
        corpus_kind="stripes",
        side=8,
        corpus_count=256,
        latent_bits=16,
        bvae_epochs=60,
        encoder_hidden="64,32",
        decoder_hidden="32,64",
        dataset_count=1200,
        blur=0.0,
        pipeline={
            "fm_rank": 8,
            "samples_per_iteration": 40,
            "iterations": 5,
            "sampler": "brute_force",
            "augmentation": "bit_flip",
            "bit_flip_copies": 16,
        },
        schedule={},
        objective={"kind": "product_efficiency", "target_fill": 0.4, "smoothness_weight": 2.0},
    ),
}
