"""The benchmark's checks pass on real outputs and fail on each corrupted artifact.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import dataclasses
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from latentqubo.cli import main as cli_main  # noqa: E402

TINY = dataclasses.replace(
    WORKLOADS["toy_loop"],
    name="tiny",
    corpus_count=64,
    latent_bits=8,
    bvae_epochs=40,
    encoder_hidden="16,8",
    decoder_hidden="8,16",
    dataset_count=40,
    pipeline={"fm_rank": 3, "samples_per_iteration": 4, "iterations": 3, "sampler": "brute_force"},
    schedule={},
    stratify={},
    must_improve=False,
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One real set-up and one traced loop of a tiny brute-force workload."""
    base = tmp_path_factory.mktemp("tiny")
    setup = base / "setup"
    ops = run.Operations()
    run.run_setup(cli_main, TINY, 7, setup, ops)
    assert ops.failed == 0, ops.messages
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        with tracer.span("cli.run_loop"):
            assert cli_main(["run-loop", "--config", str(setup / "run.ini"), "--out", str(base / "out")]) == 0
    finally:
        undo()
    return setup, base / "out", checks.Decoder.load(setup / "bvae.txt"), tracer


@pytest.fixture
def out_copy(tiny_run, tmp_path):
    shutil.copytree(tiny_run[1], tmp_path / "out")
    return tmp_path / "out"


def loop_failures(tiny_run, out):
    setup, _, decoder, _ = tiny_run
    return {k: v for k, v in checks.check_loop(TINY, setup, out, decoder).items() if v}


def rewrite_row(path: Path, row: int, edit) -> None:
    """Apply edit(bits, label, tag) -> (bits, label, tag) to one data row of a dataset file."""
    lines = path.read_text().splitlines()
    lines[row + 1] = " ".join(edit(*lines[row + 1].split()))
    path.write_text("\n".join(lines) + "\n")


def first_appended_row(out: Path) -> int:
    return next(r for r, tag in enumerate(checks.Dataset.load(out / "dataset_final.txt").tags) if tag.startswith("iter"))


def test_real_outputs_pass(tiny_run):
    setup, out, _, tracer = tiny_run
    assert not any(checks.check_setup(TINY, setup).values())
    assert loop_failures(tiny_run, out) == {}
    verified = tracer.verify_samples()
    assert verified["energies_checked"] > 0 and verified["energy_mismatches"] == 0
    assert all(verified["optimum_hits"])


def test_flipped_label_fails(tiny_run, out_copy):
    r = first_appended_row(out_copy)
    rewrite_row(out_copy / "dataset_final.txt", r, lambda b, y, t: (b, repr(float(y) - 1 / 64), t))
    assert loop_failures(tiny_run, out_copy)


def test_flipped_label_in_initial_dataset_fails(tiny_run, tmp_path):
    setup = tmp_path / "setup"
    shutil.copytree(tiny_run[0], setup)
    rewrite_row(setup / "dataset.txt", 0, lambda b, y, t: (b, repr(float(y) + 1 / 64), t))
    assert checks.check_setup(TINY, setup)[2]


def test_flipped_bit_in_initial_rows_fails(tiny_run, out_copy):
    flip = {"0": "1", "1": "0"}
    rewrite_row(out_copy / "dataset_final.txt", 0, lambda b, y, t: (flip[b[0]] + b[1:], y, t))
    assert checks.WHOLE_RUN in loop_failures(tiny_run, out_copy)


def test_flipped_bit_in_appended_row_fails(tiny_run, out_copy):
    _, _, decoder, _ = tiny_run
    data = checks.Dataset.load(out_copy / "dataset_final.txt")
    score = checks.make_scorer(TINY)
    r = first_appended_row(out_copy)
    # a bit whose flip changes the decoded design's score, so the label no longer fits
    changing = [i for i in range(TINY.latent_bits)
                if score(decoder.pattern(np.bitwise_xor(data.X[r], np.eye(TINY.latent_bits, dtype=np.uint8)[i]), 0.0))
                != data.Y[r]]
    assert changing
    i = changing[0]
    rewrite_row(out_copy / "dataset_final.txt", r,
                lambda b, y, t: (b[:i] + ("1" if b[i] == "0" else "0") + b[i + 1:], y, t))
    assert loop_failures(tiny_run, out_copy)


def test_duplicated_row_fails(tiny_run, out_copy):
    path = out_copy / "dataset_final.txt"
    lines = path.read_text().splitlines()
    count = len(lines) - 1
    lines[0] = lines[0].replace(f"count={count}", f"count={count + 1}")
    path.write_text("\n".join(lines + [lines[-1]]) + "\n")
    assert loop_failures(tiny_run, out_copy)


@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_altered_csv_energy_fails(tiny_run, out_copy, delta):
    path = out_copy / "convergence.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[-1] = repr(float(fields[-1]) + delta)
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert TINY.iterations - 1 in loop_failures(tiny_run, out_copy)


def test_wrong_best_design_fails(tiny_run, out_copy):
    path = out_copy / "best_design_bits.txt"
    bits, label = path.read_text().split()
    path.write_text(f"{bits[::-1] if bits != bits[::-1] else bits} {float(label) + 1 / 64!r}\n")
    assert checks.WHOLE_RUN in loop_failures(tiny_run, out_copy)


def test_altered_returned_energy_fails(tiny_run):
    from latentqubo.samplers import SampleSet

    *_, tracer = tiny_run
    q, sample_set = tracer.sample_sets[0]
    entry = sample_set.entries[0]
    tampered = SampleSet(
        entries=(dataclasses.replace(entry, energy=entry.energy + 1e-6),) + sample_set.entries[1:],
        sampler_name=sample_set.sampler_name,
        seed=sample_set.seed,
    )
    fake = tracing.Tracer()
    fake.sample_sets = [(q, tampered)]
    fake.qubo_models = tracer.qubo_models
    assert fake.verify_samples()["energy_mismatches"] == 1


def test_span_that_never_fires_is_missing(tiny_run):
    *_, tracer = tiny_run
    loop_spans = [s for s in tracer.spans if s["name"] != "fm.train"]
    extra = dict.fromkeys(
        [name for name, *_ in tracing.PER_LAYER], 1.0)
    metrics, missing = tracing.derive([], loop_spans, extra, TINY.not_exercised())
    assert {"fm.train.calls", "fm.train.call_s_p50", "fm.train.steps_per_s", "fm.train.test_r2_p50"} <= set(missing)
    assert "fm.train.calls" not in metrics
    assert metrics["samplers.sa.calls"]["value"] == 0  # not run by a brute-force workload
