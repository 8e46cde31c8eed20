"""Byte-exact replay of the pinned reference optimization trace.

A drift anywhere in the numeric stack (surrogate training, annealing,
decoding, label bookkeeping, CSV formatting) shows up here as a byte diff.
The compiled kernels and their numpy loops must both replay it.  Regenerate
the pinned file with scripts/make_golden_run.py after intentional changes.
"""

import latentqubo as lq
import latentqubo._native as native
from helpers import GOLDEN_CSV_PATH, golden_run_state


def test_reference_run_matches_pinned_csv(tmp_path):
    assert GOLDEN_CSV_PATH.exists(), "pinned trace missing; run scripts/make_golden_run.py"
    state = golden_run_state()
    replay = tmp_path / "convergence.csv"
    lq.write_convergence_csv(state.history, replay)
    # rows first, so a failure names the rows that differ; then every byte
    assert replay.read_text().splitlines() == GOLDEN_CSV_PATH.read_text().splitlines()
    assert replay.read_bytes() == GOLDEN_CSV_PATH.read_bytes()


def test_reference_run_matches_pinned_csv_without_compiler(monkeypatch, tmp_path):
    monkeypatch.setattr(native, "library", lambda: None)
    test_reference_run_matches_pinned_csv(tmp_path)
