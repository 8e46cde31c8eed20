"""Byte-exact replay of the pinned reference optimization trace.

A drift anywhere in the numeric stack (surrogate training, annealing,
decoding, label bookkeeping, CSV formatting) shows up here as a byte diff.
The compiled kernels and their numpy loops must both replay it.  Regenerate
the pinned file with scripts/make_golden_run.py after intentional changes.
"""

import latentqubo as lq
import latentqubo._native as native
import latentqubo.bvae as bvae
from helpers import GOLDEN_CSV_PATH, golden_run_state, reference_bvae


def assert_replays_pinned_csv(state: lq.RunState, tmp_path):
    assert GOLDEN_CSV_PATH.exists(), "pinned trace missing; run scripts/make_golden_run.py"
    replay = tmp_path / "convergence.csv"
    lq.write_convergence_csv(state.history, replay)
    # rows first, so a failure names the rows that differ; then every byte
    assert replay.read_text().splitlines() == GOLDEN_CSV_PATH.read_text().splitlines()
    assert replay.read_bytes() == GOLDEN_CSV_PATH.read_bytes()


def test_reference_run_matches_pinned_csv(tmp_path):
    assert_replays_pinned_csv(golden_run_state(), tmp_path)


def test_reference_run_matches_pinned_csv_without_compiler(monkeypatch, tmp_path):
    # the autoencoder too is trained again here, by the numpy Adam step
    steps = []
    numpy_step = bvae._adam_numpy
    monkeypatch.setattr(bvae, "_adam_numpy", lambda *args: steps.append(1) or numpy_step(*args))
    monkeypatch.setattr(native, "library", lambda: None)
    assert_replays_pinned_csv(golden_run_state(reference_bvae()), tmp_path)
    assert steps
