"""One fit-and-sample path shared by the loop and ``latentqubo sample-once``."""

import textwrap

import numpy as np
import pytest

import latentqubo as lq
from latentqubo.cli import _read_ini, build_pipeline_config, main

CONFIG = """
[pipeline]
latent_bits = 16
fm_rank = 4
bvae_checkpoint = bvae.txt
dataset = data.txt
output_dir = out
samples_per_iteration = 4
iterations = 2
seed = 21
sampler = {sampler}

[schedule]
num_sweeps = 100
num_reads = 5

[objective]
kind = target_overlap
target = target.pgm
"""


@pytest.fixture
def inputs(tmp_path, toy_bvae, half_plane_target):
    lq.save_bvae(toy_bvae, tmp_path / "bvae.txt")
    lq.save_pgm(half_plane_target.astype(np.float64), tmp_path / "target.pgm")
    obj = lq.TargetOverlapObjective(target=half_plane_target)
    data = lq.build_latent_dataset(toy_bvae, obj, count=50, seed=5)
    lq.save_dataset(data, tmp_path / "data.txt")
    return tmp_path, data


def write_config(tmp_path, sampler):
    path = tmp_path / "run.ini"
    path.write_text(textwrap.dedent(CONFIG.format(sampler=sampler)))
    return str(path)


def test_brute_force_sample_once_uses_the_loop_top_k(inputs):
    tmp_path, data = inputs
    out = tmp_path / "samples.csv"
    assert main(["sample-once", "--config", write_config(tmp_path, "brute_force"),
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4 + len(data)


def test_sample_once_matches_fit_and_sample(inputs):
    tmp_path, data = inputs
    config = write_config(tmp_path, "simulated_annealing")
    out = tmp_path / "samples.csv"
    assert main(["sample-once", "--config", config, "--seed", "9", "--out", str(out)]) == 0
    cp, base = _read_ini(config)
    cfg = build_pipeline_config(cp, base, 9, None)
    model, report, transform, samples = lq.fit_and_sample(data, cfg, 9, 9)
    expected = tmp_path / "expected.csv"
    samples.write_csv(expected)
    assert out.read_bytes() == expected.read_bytes()
    assert samples.sampler_name == "simulated_annealing" and samples.seed == 9
    assert report.test_mse >= 0 and transform.c == pytest.approx(data.max_label() + 0.05)
    assert model.n == 16 and model.k == 4
