"""Shared reference scenario for fixtures and the pinned convergence replay.

Everything here is deterministic: the same seeds always rebuild the same
corpus, autoencoder, dataset, and optimization trace, so the CSV produced by
golden_run_state() can be compared byte-for-byte against the checked-in copy.
"""

from functools import lru_cache
from pathlib import Path

import numpy as np

import latentqubo as lq

GOLDEN_CSV_PATH = Path(__file__).parent / "data" / "golden_convergence.csv"


def reference_corpus() -> np.ndarray:
    return lq.generate_toy_corpus("half_planes", m=8, count=256, seed=11)


def reference_bvae() -> lq.BvaeModel:
    """The reference autoencoder, trained afresh on each call."""
    arch = lq.BvaeArchitecture(
        image_side=8, latent_bits=16, encoder_hidden=(64, 32), decoder_hidden=(32, 64)
    )
    model, _ = lq.bvae_train(reference_corpus(), arch, epochs=120, seed=3)
    return model


train_reference_bvae = lru_cache(maxsize=1)(reference_bvae)


def reference_target() -> np.ndarray:
    target = np.zeros((8, 8), dtype=np.uint8)
    target[:4, :] = 1
    return target


def golden_run_state(model: lq.BvaeModel | None = None) -> lq.RunState:
    """Replay the fixed small optimization run behind the golden CSV.

    model is the reference autoencoder, by default the cached one.
    """
    model = train_reference_bvae() if model is None else model
    objective = lq.TargetOverlapObjective(target=reference_target())
    data = lq.build_latent_dataset(model, objective, count=60, seed=5)
    cfg = lq.PipelineConfig(
        latent_bits=16,
        fm_rank=4,
        objective=objective,
        bvae_checkpoint="unused",
        dataset_path="unused",
        output_dir="unused",
        samples_per_iteration=5,
        iterations=4,
        schedule=lq.AnnealSchedule(num_sweeps=200, num_reads=5),
        seed=21,
    )
    state = lq.RunState(
        dataset=data,
        bvae=model,
        seed_seq=np.random.SeedSequence(cfg.seed),
    )
    for _ in range(cfg.iterations):
        lq.run_iteration(state, cfg)
    return state
