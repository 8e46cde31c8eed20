"""Text formats: strict loaders, exact round trips, and the one atomic writer.

A malformed file fails with a ValueError naming file:line; PGM, the one
untagged format, names the file only.
"""

import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latentqubo as lq
from conftest import random_qubo
from latentqubo import _text
from latentqubo.cli import main

QUBO_HEAD = "QUBO v1 n=2 offset=0\n"
FM_HEAD = "FM v1 n=2 k=1\nw0 0.5\n"
DATASET_HEAD = "DATASET v1 n=2 count=1\n"
IMG_HEAD = "IMG v1 m=1 count=1\n"
BVAE_HEAD = "BVAE v1 m=2 n=1\n"
TINY_BVAE = lq.BvaeArchitecture(
    image_side=2, latent_bits=1, encoder_hidden=(1, 1), decoder_hidden=(1, 1)
)


def tiny_checkpoint() -> str:
    """A complete, valid all-zero checkpoint of TINY_BVAE."""
    lines = [BVAE_HEAD.strip()]
    for name, (rows, cols) in TINY_BVAE.layer_shapes().items():
        lines += [f"LAYER {name} {rows} {cols}"] + [" ".join(["0"] * cols)] * rows
    return "\n".join(lines + ["TAU 1"]) + "\n"


# (loader, file body, 1-based line number the error must name)
MALFORMED = [
    pytest.param(lq.load_qubo, QUBO_HEAD + "L -1 3.0\n", 2, id="qubo-negative-index"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "L 7 2\n", 2, id="qubo-index-out-of-range"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "Q 0 2 1\n", 2, id="qubo-pair-out-of-range"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "L x 2\n", 2, id="qubo-non-integer-index"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "Q 1 0 1.5\n", 2, id="qubo-lower-pair"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "Q 0 0 1.5\n", 2, id="qubo-diagonal-pair"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "Q 0 1 1\nQ 0 1 2\n", 3, id="qubo-duplicate-pair"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "L 0 1\nL 0 2\n", 3, id="qubo-duplicate-linear"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "L 0\n", 2, id="qubo-short-linear"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "Q 0 1 2 3\n", 2, id="qubo-long-pair"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "L 0 abc\n", 2, id="qubo-bad-number"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "L 0 nan\n", 2, id="qubo-non-finite"),
    pytest.param(lq.load_qubo, QUBO_HEAD + "X 0 1\n", 2, id="qubo-unknown-tag"),
    pytest.param(lq.load_qubo, "QUBO v1 n=2.5 offset=0\n", 1, id="qubo-non-integer-n"),
    pytest.param(lq.load_qubo, "QUBO v1 n=0 offset=0\n", 1, id="qubo-zero-n"),
    pytest.param(lq.load_qubo, "QUBO v1 n=2 offset=x\n", 1, id="qubo-bad-offset"),
    pytest.param(lq.load_qubo, "\n\nQUBO v1 n=2 offset=0\n\nL 5 1\n", 5, id="qubo-blank-lines-count"),
    pytest.param(lq.load_qubo, "QUBO v1 n=10000000 offset=0\n", 1, id="qubo-unallocatable-n"),
    pytest.param(lq.load_fm, FM_HEAD + "w -1 5\n", 3, id="fm-negative-index"),
    pytest.param(lq.load_fm, FM_HEAD + "w 2 5\n", 3, id="fm-index-out-of-range"),
    pytest.param(lq.load_fm, FM_HEAD + "w 0 1\nw 0 2\n", 4, id="fm-duplicate-w"),
    pytest.param(lq.load_fm, FM_HEAD + "V 1 1\nV 1 1\n", 4, id="fm-duplicate-V"),
    pytest.param(lq.load_fm, FM_HEAD + "w0 1\n", 3, id="fm-duplicate-w0"),
    pytest.param(lq.load_fm, FM_HEAD + "V 0 1 2\n", 3, id="fm-long-V"),
    pytest.param(lq.load_fm, FM_HEAD + "w 0\n", 3, id="fm-short-w"),
    pytest.param(lq.load_fm, "FM v1 n=2 k=x\nw0 0\n", 1, id="fm-non-integer-k"),
    pytest.param(lq.load_fm, "FM v1 n=-2 k=1\nw0 0\n", 1, id="fm-negative-n"),
    pytest.param(lq.load_fm, "FM v1 n=10000000 k=10000000\nw0 0\n", 1, id="fm-unallocatable-V"),
    pytest.param(lq.load_dataset, DATASET_HEAD + "01 0.5\n", 2, id="dataset-tagless-row"),
    pytest.param(lq.load_dataset, DATASET_HEAD + "01 0.5 a b\n", 2, id="dataset-extra-field"),
    pytest.param(lq.load_dataset, DATASET_HEAD + "0x 0.5 t\n", 2, id="dataset-bad-bit"),
    pytest.param(lq.load_dataset, DATASET_HEAD + "011 0.5 t\n", 2, id="dataset-long-bits"),
    pytest.param(lq.load_dataset, DATASET_HEAD + "01 nan t\n", 2, id="dataset-non-finite-label"),
    pytest.param(lq.load_dataset, DATASET_HEAD + "01 abc t\n", 2, id="dataset-bad-label"),
    pytest.param(lq.load_dataset, DATASET_HEAD + "01 1 t\n\n10 1 t\n", 4, id="dataset-extra-row"),
    pytest.param(lq.load_dataset, "DATASET v1 n=2 count=2\n01 1 t\n", 1, id="dataset-missing-row"),
    pytest.param(lq.load_dataset, "DATASET v1 n=2 count=-1\n", 1, id="dataset-negative-count"),
    pytest.param(lq.load_dataset, "DATASET v1 n=0 count=0\n", 1, id="dataset-zero-n"),
    pytest.param(lq.load_dataset, "\nDATA v1 n=2 count=0\n", 2, id="dataset-bad-header"),
    pytest.param(lq.load_images, IMG_HEAD + "nan\n", 2, id="img-nan-pixel"),
    pytest.param(lq.load_images, IMG_HEAD + "1.5\n", 2, id="img-pixel-above-one"),
    pytest.param(lq.load_images, IMG_HEAD + "x\n", 2, id="img-bad-number"),
    pytest.param(lq.load_images, IMG_HEAD + "0 1\n", 2, id="img-long-row"),
    pytest.param(lq.load_images, IMG_HEAD + "0\n1\n", 3, id="img-extra-row"),
    pytest.param(lq.load_images, "IMG v1 m=1 count=2\n0\n", 1, id="img-missing-row"),
    pytest.param(lq.load_images, "IMG v1 m=0 count=0\n", 1, id="img-zero-m"),
    pytest.param(lq.load_bvae, BVAE_HEAD + "LAYER bogus 1 1\n0\n", 2, id="bvae-unknown-layer"),
    pytest.param(
        lq.load_bvae, BVAE_HEAD + "LAYER enc1_b 1 1\n0\nLAYER enc1_b 1 1\n0\n", 4,
        id="bvae-duplicate-layer",
    ),
    pytest.param(lq.load_bvae, BVAE_HEAD + "LAYER enc1_b 0 1\n", 2, id="bvae-zero-rows"),
    pytest.param(lq.load_bvae, BVAE_HEAD + "LAYER enc1_b 1 x\n0\n", 2, id="bvae-bad-size"),
    pytest.param(lq.load_bvae, BVAE_HEAD + "LAYER enc1_b 2 1\n0\n", 2, id="bvae-truncated-block"),
    pytest.param(lq.load_bvae, BVAE_HEAD + "LAYER enc1_b 1 2\n0 nan\n", 3, id="bvae-nan-value"),
    pytest.param(lq.load_bvae, BVAE_HEAD + "LAYER enc1_b 1 2\n0\n", 3, id="bvae-short-row"),
    pytest.param(lq.load_bvae, BVAE_HEAD + "TAU 1\n\nTAU 1\n", 4, id="bvae-duplicate-tau"),
    pytest.param(lq.load_bvae, BVAE_HEAD + "TAU inf\n", 2, id="bvae-non-finite-tau"),
    pytest.param(lq.load_bvae, BVAE_HEAD + "TAU\n", 2, id="bvae-short-tau"),
    pytest.param(lq.load_bvae, BVAE_HEAD + "0.5 0.5\n", 2, id="bvae-stray-line"),
    pytest.param(lq.load_bvae, "BVAE v1 m=x n=1\n", 1, id="bvae-non-integer-m"),
    pytest.param(
        lq.load_bvae, tiny_checkpoint().replace("m=2", "m=3", 1), 1, id="bvae-header-vs-layers"
    ),
]

# PGM files that must fail with a ValueError naming the file
MALFORMED_PGM = [
    pytest.param("P2\n2\n", id="pgm-truncated-header"),
    pytest.param("P2\n1 1\n0\n0\n", id="pgm-zero-maxval"),
    pytest.param("P2\n0 1\n255\n", id="pgm-zero-width"),
    pytest.param("P2\n1 1\n255\n300\n", id="pgm-pixel-above-maxval"),
    pytest.param("P2\n1 1\n255\n-1\n", id="pgm-negative-pixel"),
    pytest.param("P2\n1 1\n255\n0.5\n", id="pgm-fractional-pixel"),
    pytest.param("P2\n1 1\n255\nword\n", id="pgm-word"),
    pytest.param("P2\n2 1\n255\n0\n", id="pgm-missing-pixel"),
    pytest.param("", id="pgm-empty"),
]


@pytest.mark.parametrize("loader, body, line", MALFORMED)
def test_malformed_file_names_path_and_line(tmp_path, loader, body, line):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}:")):
        loader(path)


# headers that would size 20 GB of coefficients, each followed by a malformed line 2
OVERSIZED = [
    pytest.param(lq.load_qubo, "QUBO v1 n=50000 offset=0\nL 0 abc\n", id="qubo"),
    pytest.param(lq.load_fm, "FM v1 n=50000 k=50000\nw 0 abc\n", id="fm"),
]


@pytest.mark.parametrize("loader, body", OVERSIZED)
def test_body_is_read_before_allocating(tmp_path, loader, body):
    path = tmp_path / "big.txt"
    path.write_text(body)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
            loader(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("body", MALFORMED_PGM)
def test_malformed_pgm_names_path(tmp_path, body):
    path = tmp_path / "bad.pgm"
    path.write_text(body)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        lq.load_pgm(path)


def test_every_loader_has_malformed_cases():
    loaders = {value for name, value in vars(lq).items() if name.startswith("load_")}
    tabled = {case.values[0] for case in MALFORMED} | {lq.load_pgm}
    assert len(loaders) == 6 and loaders <= tabled


def valid_samples():
    """(saver, loader, object) for one small valid object of each of the six formats."""
    rng = np.random.default_rng(21)
    q = random_qubo(rng, 7, density=0.5)
    fm = lq.FmModel(w0=rng.normal(), w=rng.normal(size=5), V=rng.normal(size=(5, 3)))
    data = lq.LabeledDataset(
        X=rng.integers(0, 2, (4, 5)), Y=rng.normal(size=4), provenance=("a", "b", "c", "d")
    )
    params = {name: rng.normal(size=shape) for name, shape in TINY_BVAE.layer_shapes().items()}
    return [
        (lq.save_qubo, lq.load_qubo, q),
        (lq.save_fm, lq.load_fm, fm),
        (lq.save_dataset, lq.load_dataset, data),
        (lq.save_images, lq.load_images, rng.random((3, 2, 2))),
        (lq.save_bvae, lq.load_bvae, lq.BvaeModel(TINY_BVAE, params, tau=rng.uniform(0.5, 5))),
        (lq.save_pgm, lq.load_pgm, rng.random((3, 3))),
    ]


def test_valid_files_round_trip_byte_for_byte(tmp_path):
    for save, load, obj in valid_samples():
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save(obj, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text("\nQUBO v1 n=2 offset=0.5\n\nL 1 1\n  \nQ 0 1 2\n\n")
    assert lq.load_qubo(path) == lq.QuboProblem(linear=[0, 1], quadratic={(0, 1): 2.0}, offset=0.5)


def test_tiny_checkpoint_is_valid(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(tiny_checkpoint())
    assert lq.load_bvae(path).architecture == TINY_BVAE


@pytest.fixture
def written(monkeypatch):
    """The paths that _text.write_lines wrote while the test ran."""
    paths = set()
    write_lines = _text.write_lines

    def spy(path, lines):
        paths.add(Path(path))
        write_lines(path, lines)

    monkeypatch.setattr(_text, "write_lines", spy)
    return paths


def test_every_writer_goes_through_write_lines(tmp_path, written):
    for save, load, obj in valid_samples():
        save(obj, tmp_path / f"{load.__name__}.txt")
    rng = np.random.default_rng(5)
    arch = lq.BvaeArchitecture(
        image_side=4, latent_bits=4, encoder_hidden=(3, 3), decoder_hidden=(3, 3)
    )
    params = {name: rng.normal(size=shape) for name, shape in arch.layer_shapes().items()}
    lq.save_bvae(lq.BvaeModel(arch, params, tau=1.0), tmp_path / "bvae.txt")
    data = lq.LabeledDataset(X=rng.integers(0, 2, (6, 4)), Y=rng.random(6), provenance=("r",) * 6)
    lq.save_dataset(data, tmp_path / "dataset.txt")
    cfg = lq.PipelineConfig(
        latent_bits=4, fm_rank=2, objective=lq.TargetOverlapObjective(target=np.eye(4)),
        bvae_checkpoint=str(tmp_path / "bvae.txt"), dataset_path=str(tmp_path / "dataset.txt"),
        output_dir=str(tmp_path / "out"), samples_per_iteration=2, iterations=1,
        sampler="brute_force",
    )
    state = lq.run_pipeline(cfg)
    lq.write_convergence_csv(state.history, tmp_path / "history.csv")
    lq.brute_force_sample(random_qubo(rng, 4), top_k=3).write_csv(tmp_path / "samples.csv")
    assert main(["export-csv", "--dataset", str(tmp_path / "dataset.txt"),
                 "--out", str(tmp_path / "dataset.csv")]) == 0
    assert {path.name for path in (tmp_path / "out").iterdir()} == {
        "convergence.csv", "dataset_final.txt", "fm_final.txt", "best_design.pgm",
        "best_design_bits.txt",
    }
    assert {path for path in tmp_path.rglob("*") if path.is_file()} == written


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("old\n")

    def body():
        yield "new"
        raise RuntimeError("midway")

    with pytest.raises(RuntimeError, match="midway"):
        _text.write_lines(path, body())
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_new_file_has_the_mode_of_a_plain_write(tmp_path, umask):
    plain, atomic = tmp_path / "plain.txt", tmp_path / "atomic.txt"
    old = os.umask(umask)
    try:
        plain.write_text("x\n")
        _text.write_lines(atomic, ["x"])
    finally:
        os.umask(old)
    assert atomic.stat().st_mode == plain.stat().st_mode
    assert atomic.read_bytes() == plain.read_bytes()


# replacement tokens for the mutation property: numbers in and out of range,
# non-numbers, and the tags and header fields of the formats
TOKENS = [
    "", "x", "0", "1", "2", "-1", "1.5", "nan", "inf", "1e999", "300",
    "P2", "LAYER", "TAU", "enc1_w", "w0", "V", "Q", "n=2", "count=9",
]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Each loader with the lines of one valid file its saver wrote, and a scratch path."""
    directory = tmp_path_factory.mktemp("valid")
    files = []
    for save, load, obj in valid_samples():
        path = directory / f"{load.__name__}.txt"
        save(obj, path)
        files.append((load, path.read_text().splitlines()))
    return files, directory / "mutated.txt"


@settings(derandomize=True, max_examples=400)
@given(data=st.data())
def test_mutated_file_loads_or_raises_value_error_naming_it(valid_files, data):
    files, path = valid_files
    load, lines = data.draw(st.sampled_from(files), label="format")
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    edit = data.draw(st.sampled_from(["delete", "duplicate", "retoken"]), label="edit")
    if edit == "delete":
        lines = lines[:i] + lines[i + 1 :]
    elif edit == "duplicate":
        lines = lines[: i + 1] + lines[i:]
    else:
        tokens = lines[i].split()
        tokens[data.draw(st.integers(0, len(tokens) - 1), label="token")] = data.draw(
            st.sampled_from(TOKENS), label="replacement"
        )
        lines = lines[:i] + [" ".join(tokens)] + lines[i + 1 :]
    path.write_text("\n".join(lines) + "\n")
    try:
        load(path)
    except ValueError as exc:
        assert str(path) in str(exc)
