"""Text formats: strict loaders, exact round trips, the one reader and the one atomic writer.

A malformed file fails with a ValueError naming file:line; PGM, the one
untagged format, names the file only, but for a byte that is not UTF-8.
"""

import gc
import locale
import os
import pickle
import re
import threading
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latentqubo as lq
from conftest import needs_cc, random_qubo
from latentqubo import _native, _text, bvae
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


def write(path: Path, body) -> Path:
    """Write body, a str as UTF-8 or bytes as they are, to path."""
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    return path


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
    pytest.param(lq.load_qubo, b"QUBO v1 n=2 offset=0\xff\n", 1, id="qubo-undecodable-header"),
    pytest.param(
        lq.load_qubo, b"QUBO v1 n=2 offset=0\nL 0 1\x0b\xff\n", 3, id="qubo-undecodable-line"
    ),
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
    pytest.param(
        lq.load_dataset, DATASET_HEAD.encode() + b"01 0.5 t\xe9\n", 2, id="dataset-undecodable-row"
    ),
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
    pytest.param(
        lq.load_bvae, BVAE_HEAD.encode() + b"LAYER enc1_b 1 2\n0 \xff\n", 3,
        id="bvae-undecodable-row",
    ),
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
    pytest.param("P2\n2 1\n70000\n0 1\n", id="pgm-maxval-above-65535"),
    pytest.param("P2\n0 1\n255\n", id="pgm-zero-width"),
    pytest.param("P2\n1 1\n255\n300\n", id="pgm-pixel-above-maxval"),
    pytest.param("P2\n1 1\n255\n-1\n", id="pgm-negative-pixel"),
    pytest.param("P2\n1 1\n255\n0.5\n", id="pgm-fractional-pixel"),
    pytest.param("P2\n1 1\n255\nword\n", id="pgm-word"),
    pytest.param("P2\n2 1\n255\n0\n", id="pgm-missing-pixel"),
    pytest.param("", id="pgm-empty"),
    pytest.param(b"P2\n1 1\n255\n\xff\n", id="pgm-undecodable"),
]


@pytest.mark.parametrize("loader, body, line", MALFORMED)
def test_malformed_file_names_path_and_line(tmp_path, loader, body, line):
    path = write(tmp_path / "bad.txt", body)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}:")):
        loader(path)


def numpy_only():
    """Read as where no compiler is found: checkpoint rows go through numpy alone."""
    return mock.patch.object(_native, "library", lambda: None)


def load_or_error(loader, path):
    """The loaded object's pickle, so equal bits compare equal, or the ValueError's text."""
    try:
        return pickle.dumps(loader(path))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("loader, body, line", MALFORMED)
def test_malformed_file_fails_alike_without_compiler(tmp_path, loader, body, line):
    path = write(tmp_path / "bad.txt", body)
    compiled = load_or_error(loader, path)
    with numpy_only():
        assert load_or_error(loader, path) == compiled
    assert compiled.startswith(f"{path}:{line}:")


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


def test_checkpoint_block_is_read_before_allocating(tmp_path):
    # a header that would size 80 GB of values, above a row of two
    path = tmp_path / "big.txt"
    path.write_text("BVAE v1 m=2 n=1\nLAYER enc1_w 100000 100000\n0 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
            lq.load_bvae(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("body", MALFORMED_PGM)
def test_malformed_pgm_names_path(tmp_path, body):
    path = write(tmp_path / "bad.pgm", body)
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


def write_mutated_file(valid_files, data):
    """Write one valid file with one line deleted, duplicated or retokened; return its loader."""
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
    return load, path


@settings(derandomize=True, max_examples=400)
@given(data=st.data())
def test_mutated_file_loads_or_raises_value_error_naming_it(valid_files, data):
    load, path = write_mutated_file(valid_files, data)
    try:
        load(path)
    except ValueError as exc:
        assert str(path) in str(exc)


@settings(derandomize=True, max_examples=400)
@given(data=st.data())
def test_mutated_file_reads_alike_without_compiler(valid_files, data):
    """The mutated files load to the same bits, or fail with the same text, on both paths."""
    load, path = write_mutated_file(valid_files, data)
    compiled = load_or_error(load, path)
    with numpy_only():
        assert load_or_error(load, path) == compiled


# every line boundary str.splitlines() knows, each with a newline byte after it or not
SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BREAKS = SEPARATORS + [sep + "\n" for sep in SEPARATORS] + ["\n\n", " \t\n", "\r\r\n"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_lines_are_numbered_as_read_text_splits_them(valid_files, data):
    """A valid file with line breaks put anywhere reads as its read_text().splitlines() lines.

    The file loads to the same bits, or fails with the same text, on both paths and
    through buffers of any size, as the file of those lines ended by one newline each.
    """
    files, path = valid_files
    load, lines = data.draw(st.sampled_from(files), label="format")
    text = "\n".join(lines) + "\n"
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        at = data.draw(st.integers(0, len(text) - 1), label="at")
        newline = text.find("\n", at)
        if newline >= 0 and data.draw(st.booleans(), label="replace a newline"):
            at, end = newline, newline + 1  # the first newline from at
        else:
            end = at  # a break put before character at
        text = text[:at] + data.draw(st.sampled_from(BREAKS), label="break") + text[end:]
    buffer = data.draw(st.sampled_from([_text._BUFFER, 1, 2, 3, 8, 64]), label="buffer")
    path.write_bytes(text.encode())
    with mock.patch.object(_text, "_BUFFER", buffer):
        compiled = load_or_error(load, path)
        with numpy_only():
            looped = load_or_error(load, path)
    path.write_text("\n".join(path.read_text().splitlines()) + "\n")
    assert compiled == looped == load_or_error(load, path)


def test_malformed_files_fail_alike_through_a_tiny_buffer(tmp_path):
    for loader, body, _ in (case.values for case in MALFORMED):
        path = write(tmp_path / "bad.txt", body)
        expected = load_or_error(loader, path)
        with mock.patch.object(_text, "_BUFFER", 3):
            assert load_or_error(loader, path) == expected


def test_loaded_and_malformed_files_leave_no_file_open(tmp_path):
    cases = [case.values[:2] for case in MALFORMED]
    cases += [(lq.load_pgm, case.values[0]) for case in MALFORMED_PGM]
    for save, load, obj in valid_samples():
        save(obj, tmp_path / "good.txt")
        cases.append((load, (tmp_path / "good.txt").read_bytes()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for loader, body in cases:
            try:
                loader(write(tmp_path / "file.txt", body))
            except ValueError:
                pass
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def count_parses(monkeypatch) -> list:
    lib = _native.library()
    calls = []
    parse = lib.parse_floats
    monkeypatch.setattr(lib, "parse_floats", lambda *args: calls.append(1) or parse(*args))
    return calls


def parser_calls(data: bytes, buffer: int) -> int:
    """The parse_floats calls that load_bvae makes on a checkpoint whose rows all parse.

    From a LAYER block's next row, each call's chunk is buffer bytes and the rest of the
    line they end in, and the parser passes every whole row of the block in it.
    """
    lines = data.splitlines(keepends=True)
    offsets = np.cumsum([0] + [len(line) for line in lines])
    calls = 0
    for i, line in enumerate(lines):
        if line.startswith(b"LAYER "):
            start, end = offsets[i + 1], offsets[i + 1 + int(line.split()[2])]
            while start < end:
                start = min(end, data.find(b"\n", start + buffer) + 1 or len(data))
                calls += 1
    return calls


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """save(side, bits): the path and params of a random checkpoint, written once per module."""
    saved = {}

    def save(side: int, bits: int):
        if (side, bits) not in saved:
            # magnitudes from 1e-14 to 10, so some values need more than the exact integer path
            arch = lq.BvaeArchitecture(image_side=side, latent_bits=bits)
            rng = np.random.default_rng(bits)
            params = {
                name: rng.normal(size=shape) * 10.0 ** rng.integers(-14, 2, size=shape)
                for name, shape in arch.layer_shapes().items()
            }
            path = tmp_path_factory.mktemp("checkpoint") / "bvae.txt"
            lq.save_bvae(lq.BvaeModel(arch, params, tau=0.4), path)
            saved[side, bits] = path, params
        return saved[side, bits]

    return save


CHECKPOINTS = [pytest.param(8, 16, id="toy_loop"), pytest.param(16, 180, id="wide_latent")]


def check_checkpoint_reads_alike(monkeypatch, path, params, buffer: int):
    monkeypatch.setattr(_text, "_BUFFER", buffer)
    parses = count_parses(monkeypatch)
    compiled = lq.load_bvae(path)
    assert len(parses) == parser_calls(path.read_bytes(), buffer)
    with numpy_only():
        looped = lq.load_bvae(path)
    for name, values in params.items():
        assert compiled.params[name].view(np.uint64).tolist() == values.view(np.uint64).tolist()
        assert looped.params[name].view(np.uint64).tolist() == values.view(np.uint64).tolist()
    assert compiled.tau == looped.tau == 0.4


@needs_cc
@pytest.mark.parametrize("side, bits", CHECKPOINTS)
def test_checkpoint_reads_alike_on_both_paths(saved_checkpoint, monkeypatch, side, bits):
    path, params = saved_checkpoint(side, bits)
    check_checkpoint_reads_alike(monkeypatch, path, params, _text._BUFFER)


@needs_cc
@pytest.mark.parametrize("side, bits", CHECKPOINTS)
def test_checkpoint_reads_alike_through_a_tiny_buffer(saved_checkpoint, monkeypatch, side, bits):
    # 5 bytes and the rest of the row they end in: one chunk, and one parser call, per row
    path, params = saved_checkpoint(side, bits)
    check_checkpoint_reads_alike(monkeypatch, path, params, 5)


@needs_cc
def test_tiny_checkpoint_reads_alike_through_every_buffer(tmp_path, monkeypatch):
    """Chunks of 1 byte to the whole file, each read on to the end of its line, give one result.

    Valid, that is the file's bits, in the calls parser_calls counts; with a row of two values
    in a block of one column, the error naming that row.  Both as the numpy path gives them.
    """
    good = write(tmp_path / "good.txt", tiny_checkpoint())
    bad = write(tmp_path / "bad.txt", checkpoint_with("0 0"))
    with numpy_only():
        expected = [load_or_error(lq.load_bvae, good), load_or_error(lq.load_bvae, bad)]
    assert expected[1] == f"{bad}:8: expected 1 finite numbers, got 2 fields"
    parses = count_parses(monkeypatch)
    for buffer in range(1, good.stat().st_size + 1):
        monkeypatch.setattr(_text, "_BUFFER", buffer)
        parses.clear()
        assert load_or_error(lq.load_bvae, good) == expected[0]
        assert len(parses) == parser_calls(good.read_bytes(), buffer)
        assert load_or_error(lq.load_bvae, bad) == expected[1]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_checkpoint_reads_alike_from_a_pipe(saved_checkpoint, tmp_path):
    # a pipe cannot seek, so every row goes through numpy, sized by no header
    path, _ = saved_checkpoint(8, 16)
    pipe = tmp_path / "bvae.pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    try:
        piped = load_or_error(lq.load_bvae, pipe)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert piped == load_or_error(lq.load_bvae, path)


def traced_peak(load, path) -> int:
    tracemalloc.start()
    try:
        load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@needs_cc
def test_checkpoint_load_holds_no_more_than_its_arrays(saved_checkpoint):
    # the arrays, which the model locks rather than copies, and one chunk; the file is 14 MB
    path, params = saved_checkpoint(16, 180)
    arrays = sum(values.nbytes for values in params.values())
    assert traced_peak(lq.load_bvae, path) < arrays + 2**20


@needs_cc
def test_decoder_only_load_holds_no_more_than_the_decoders_arrays(saved_checkpoint):
    path, params = saved_checkpoint(16, 180)
    arrays = sum(params[name].nbytes for name in bvae._DECODER)
    assert traced_peak(load_decoder, path) < arrays + 2**20


@needs_cc
def test_checkpoint_save_holds_one_layers_text(saved_checkpoint, tmp_path):
    # each layer is formatted as it is written: its text and the formatter's buffer, not the file's
    path, params = saved_checkpoint(16, 180)
    model = lq.load_bvae(path)
    largest = max(len(_text.float_rows(values)) for values in params.values())
    again = tmp_path / "again.txt"
    tracemalloc.start()
    try:
        lq.save_bvae(model, again)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * largest + 2 * 2**20
    assert again.read_bytes() == path.read_bytes()


def load_decoder(path):
    return lq.load_bvae(path, decoder_only=True)


def decoder_bits(model) -> tuple:
    return model.architecture, model.tau, {name: values.tobytes()
                                           for name, values in model.params.items()}


@pytest.mark.parametrize("side, bits", CHECKPOINTS)
def test_decoder_only_read_gives_the_full_reads_decoder(saved_checkpoint, side, bits):
    path, _ = saved_checkpoint(side, bits)
    full = lq.load_bvae(path)
    expected = full.architecture, full.tau, {name: full.params[name].tobytes()
                                             for name in bvae._DECODER}
    assert decoder_bits(load_decoder(path)) == expected
    with numpy_only():
        assert decoder_bits(load_decoder(path)) == expected


def edited(path: Path, out: Path, layer: str, row: int, edit) -> int:
    """Write path's checkpoint to out with row `row` of layer's block replaced by edit(row's
    bytes); the row's 1-based line number in out."""
    lines = path.read_bytes().split(b"\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(f"LAYER {layer} ".encode()))
    lines[at + 1 + row] = edit(lines[at + 1 + row])
    out.write_bytes(b"\n".join(lines))
    return at + 2 + row


@pytest.mark.parametrize("token", [b"x", b"nan"])
def test_decoder_only_read_passes_a_corrupt_encoder_number(saved_checkpoint, tmp_path, token):
    path, _ = saved_checkpoint(8, 16)
    bad = tmp_path / "bad.txt"
    line = edited(path, bad, "enc2_w", 100, lambda row: token + row[row.index(b" "):])
    with pytest.raises(ValueError, match=re.escape(f"{bad}:{line}: expected 256 finite numbers")):
        lq.load_bvae(bad)
    X = np.random.default_rng(0).integers(0, 2, (5, 16))
    intact = lq.load_bvae(path)
    assert lq.decode(load_decoder(bad), X)[0].tobytes() == lq.decode(intact, X)[0].tobytes()


def test_a_short_encoder_block_fails_alike_on_both_reads(saved_checkpoint, tmp_path):
    path, _ = saved_checkpoint(8, 16)
    data = path.read_bytes()
    start = data.index(b"LAYER enc2_w")
    end = start
    for _ in range(101):  # the LAYER line and 100 of the block's 512 rows
        end = data.index(b"\n", end) + 1
    short = write(tmp_path / "short.txt", data[:end])
    line = data[:start].count(b"\n") + 1
    expected = f"{short}:{line}: layer enc2_w ends after 100 of 512 rows"
    assert load_or_error(lq.load_bvae, short) == load_or_error(load_decoder, short) == expected
    with numpy_only():
        assert load_or_error(load_decoder, short) == expected


# (body, line) of MALFORMED's checkpoints whose fault is not in an encoder block's numbers, which
# the decoder-only read passes over unread
DECODER_ONLY_MALFORMED = [
    case.values[1:] for case in MALFORMED
    if case.id.startswith("bvae-") and case.id not in ("bvae-nan-value", "bvae-short-row")
]


@pytest.mark.parametrize("body, line", DECODER_ONLY_MALFORMED)
def test_decoder_only_read_fails_as_the_full_read(tmp_path, body, line):
    path = write(tmp_path / "bad.txt", body)
    expected = load_or_error(lq.load_bvae, path)
    assert expected.startswith(f"{path}:{line}:")
    assert load_or_error(load_decoder, path) == expected
    with mock.patch.object(_text, "_BUFFER", 3):
        assert load_or_error(load_decoder, path) == expected
    with numpy_only():
        assert load_or_error(load_decoder, path) == expected


def test_decoder_only_read_numbers_an_encoder_blocks_lines_as_the_full_read(saved_checkpoint,
                                                                          tmp_path):
    # blank lines of every separator _Lines splits at after row 10 of enc1_w, and a byte that is
    # not UTF-8 in row 20 (21 pieces between newlines on); the skip hands both lines back
    path, _ = saved_checkpoint(8, 16)
    spaced, bad = tmp_path / "spaced.txt", tmp_path / "bad.txt"
    edited(path, spaced, "enc1_w", 10, lambda row: row + "\n \t\r\v\f\x1c\x85\u2028\r\n".encode())
    edited(spaced, bad, "enc1_w", 21, lambda row: row[:50] + b"\xff" + row[50:])
    data = bad.read_bytes()
    line = len(data[: data.index(b"\xff")].decode().splitlines())  # as read_text() numbers it
    expected = load_or_error(lq.load_bvae, bad)
    assert expected.startswith(f"{bad}:{line}: not UTF-8 text")
    assert load_or_error(load_decoder, bad) == expected
    with numpy_only():
        assert load_or_error(load_decoder, bad) == expected
    assert decoder_bits(load_decoder(spaced)) == decoder_bits(load_decoder(path))
    assert decoder_bits(lq.load_bvae(spaced)) == decoder_bits(lq.load_bvae(path))


# tokens on which the compiled parser and numpy may part: numpy reads 1_0 and the
# Arabic-Indic digit one, the compiled parser refuses both and hands the line back
EDGE_TOKENS = ["1_0", "\u0661", "+.5", "5.", "-0", "5e-324", "1e-400", "1e400", "inf", "nan",
               "0x1p-2", "1,5"]


def checkpoint_with(token: str) -> str:
    """tiny_checkpoint() with token as the enc1_b value, the rows around it all plain."""
    return tiny_checkpoint().replace("LAYER enc1_b 1 1\n0\n", f"LAYER enc1_b 1 1\n{token}\n")


def read_alike(tmp_path, body: str):
    path = tmp_path / "model.txt"
    path.write_text(body)
    compiled = load_or_error(lq.load_bvae, path)
    with numpy_only():
        assert load_or_error(lq.load_bvae, path) == compiled
    return compiled


@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_edge_token_reads_alike_on_both_paths(tmp_path, token):
    result = read_alike(tmp_path, checkpoint_with(token))
    if token in ("1e400", "inf", "nan", "0x1p-2", "1,5"):
        assert result == f"{tmp_path / 'model.txt'}:8: expected 1 finite numbers, got 1 fields"
    else:
        assert pickle.loads(result).params["enc1_b"][0, 0] == float(token.replace("\u0661", "1"))


@needs_cc
def test_refused_lines_resume_the_compiled_parser(tmp_path, monkeypatch):
    # a 2-byte UTF-8 character and numpy-only tokens scattered through one 40-row block
    arch = lq.BvaeArchitecture(image_side=4, latent_bits=3, encoder_hidden=(5, 4),
                               decoder_hidden=(4, 40))
    rng = np.random.default_rng(3)
    params = {name: rng.normal(size=shape) for name, shape in arch.layer_shapes().items()}
    path = tmp_path / "model.txt"
    lq.save_bvae(lq.BvaeModel(arch, params, tau=1.0), path)
    lines = path.read_text().splitlines()
    first = lines.index("LAYER dec3_w 40 16") + 1
    for row, token in [(0, "\u0661"), (1, "1_0"), (7, "\u0661\u0662"), (8, "+.5"), (39, "1_5")]:
        fields = lines[first + row].split()
        fields[row % 16] = token
        lines[first + row] = " ".join(fields)
    lines.insert(first + 20, "   ")
    body = "\n".join(lines) + "\n"
    parses = count_parses(monkeypatch)
    loaded = pickle.loads(read_alike(tmp_path, body))
    # rows 0, 1, 7 and 39 hold tokens only numpy reads, so dec3_w's calls start at rows 0, 1, 2, 8
    assert len(parses) == len(params) + 3
    rows = loaded.params["dec3_w"]
    assert rows[0, 0] == 1 and rows[1, 1] == 10 and rows[7, 7] == 12 and rows[8, 8] == 0.5
    assert rows[39, 39 % 16] == 15
    params["dec3_w"][[0, 1, 7, 8, 39], [0, 1, 7, 8, 39 % 16]] = rows[[0, 1, 7, 8, 39], [0, 1, 7, 8, 7]]
    assert all(np.array_equal(loaded.params[name], values) for name, values in params.items())


def near_ties(count: int) -> list[str]:
    """Decimals at, just below and just above the midpoints between neighbouring doubles.

    Each midpoint is written exactly and to 19 significant digits, one unit either side too,
    with decimal exponents from -34 to 8, so the parser's integer rounding meets exact ties,
    and remainders and products past 64 bits whose cut-off bits decide the rounding alone.
    """
    rng = np.random.default_rng(11)
    tokens = []
    for x in rng.uniform(1, 10, count) * 10.0 ** rng.integers(-16, 27, count):
        with localcontext() as exact:
            exact.prec = 80
            mid = (Decimal(x) + Decimal(np.nextafter(x, np.inf))) / 2
        digits, exponent = f"{mid:.18e}".split("e")
        last = int(digits.replace(".", ""))
        tokens += [f"{mid:f}"[:60]] + [f"{last + step}e{int(exponent) - 18}" for step in (-1, 0, 1)]
    ties = rng.integers(1 << 52, 1 << 53, count) * 2 + 1  # odd integers in [2^53, 2^54): exact ties
    return tokens + [str(t) for t in ties] + [f"{t}0e-1" for t in ties]


def test_near_ties_read_as_float_reads_them(tmp_path):
    tokens = near_ties(500)
    expected = np.array([float(t) for t in tokens]).view(np.uint64).tolist()
    path = tmp_path / "near-ties.txt"
    path.write_text(" ".join(tokens) + "\n")
    with _text._Lines(path) as lines:
        assert lines.floats(1, len(tokens))[0].view(np.uint64).tolist() == expected
    with numpy_only(), _text._Lines(path) as lines:
        assert lines.floats(1, len(tokens))[0].view(np.uint64).tolist() == expected


COMMA_LOCALES = ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "ru_RU.UTF-8", "nl_NL.UTF-8")


@pytest.fixture
def comma_locale():
    """The process in a locale whose decimal point is a comma, or a skip where none is installed."""
    old = locale.setlocale(locale.LC_ALL)
    try:
        for name in COMMA_LOCALES:
            try:
                locale.setlocale(locale.LC_ALL, name)
            except locale.Error:
                continue
            if locale.localeconv()["decimal_point"] == ",":
                yield name
                return
        pytest.skip("no locale with a comma decimal point is installed")
    finally:
        locale.setlocale(locale.LC_ALL, old)


@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_edge_token_reads_alike_under_a_comma_locale(tmp_path, comma_locale, token):
    in_comma_locale = read_alike(tmp_path, checkpoint_with(token))
    locale.setlocale(locale.LC_ALL, "C")
    assert read_alike(tmp_path, checkpoint_with(token)) == in_comma_locale


def test_checkpoint_writes_alike_under_a_comma_locale(tmp_path, comma_locale):
    # values the compiled writer hands to snprintf, whose decimal point follows the locale
    params = {name: np.zeros(shape) for name, shape in TINY_BVAE.layer_shapes().items()}
    params["dec3_w"][:] = [[1e-300, 5e-324, 1e20, -0.0]]
    model = lq.BvaeModel(TINY_BVAE, params, tau=1e-300)
    lq.save_bvae(model, tmp_path / "comma.txt")
    locale.setlocale(locale.LC_ALL, "C")
    lq.save_bvae(model, tmp_path / "c.txt")
    assert (tmp_path / "comma.txt").read_bytes() == (tmp_path / "c.txt").read_bytes()


def eighteenth_digit_ties(rng) -> np.ndarray:
    """Doubles exactly halfway between two 17-digit decimals: c / 2^j for odd c < 2^53.

    Their decimal digits are those of c * 5^j, 18 of them here, the last a 5.
    """
    ties = []
    for j in range(3, 26):
        low, high = -(-(10**17) // 5**j), min((10**18 - 1) // 5**j, 2**53 - 1)
        odd = rng.integers(low, high + 1, 1000) | 1
        ties.append(odd[odd <= high] / 2.0**j)
    return np.concatenate(ties)


def formatter_cases(rng) -> np.ndarray:
    """Over a million doubles on which a %.17g writer can go wrong, signs both ways.

    Random bit patterns over every exponent (NaN payloads among them), 10^k and its neighbours,
    subnormals, zeros, the extremes, and ties at the 18th significant digit.
    """
    powers = 10.0 ** np.arange(-20, 21)
    tiny = np.finfo(np.float64).smallest_normal
    edges = [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), [0.0, 5e-324, tiny,
             np.nextafter(tiny, 0), np.finfo(np.float64).max, 1e-16, 1e17, 1e-4, 1e-5]]
    subnormals = rng.integers(1, 1 << 52, 10_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([*edges, subnormals, eighteenth_digit_ties(rng)])
    bits = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False).view(np.float64)
    return np.concatenate([values, -values, bits])


def test_ties_fall_on_the_18th_digit():
    ties = eighteenth_digit_ties(np.random.default_rng(1))
    assert ties.size > 20_000
    assert all(len(d) == 18 and d[-1] == 5 for d in (Decimal(x).as_tuple().digits for x in ties))


def test_float_rows_give_float_texts_bytes_on_both_paths():
    values = formatter_cases(np.random.default_rng(24))
    assert values.size > 1_000_000
    block = np.resize(values, (values.size // 997 + 1, 997))
    with numpy_only():  # "\n".join(" ".join(map(float_text, row)) for row in block)
        expected = _text.float_rows(block)
    compiled = _text.float_rows(block)
    # the values that differ, so that a failure does not diff 25 MB of text
    wrong = [(x, a, b) for x, a, b in zip(block.ravel(), compiled.split(), expected.split()) if a != b]
    assert wrong == []
    assert compiled == expected


def test_float_rows_write_nan_and_inf_as_python_does():
    # glibc writes a NaN with its sign bit set as -nan; Python writes nan
    block = np.array([[np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf], [-0.0, 0.0, 1.0, -1.0]])
    assert np.signbit(block[0, 1])
    assert _text.float_rows(block) == "nan nan inf -inf\n-0 0 1 -1"
    with numpy_only():
        assert _text.float_rows(block) == "nan nan inf -inf\n-0 0 1 -1"


def test_checkpoint_of_edge_values_round_trips_bit_for_bit(tmp_path):
    # finite formatter cases in every layer, written on both paths and loaded back
    values = formatter_cases(np.random.default_rng(7))
    values = values[np.isfinite(values)]
    arch = lq.BvaeArchitecture(image_side=4, latent_bits=3, encoder_hidden=(5, 4),
                               decoder_hidden=(4, 40))
    params = {name: np.resize(np.roll(values, i * 101), shape)
              for i, (name, shape) in enumerate(arch.layer_shapes().items())}
    model = lq.BvaeModel(arch, params, tau=5e-324)
    lq.save_bvae(model, tmp_path / "compiled.txt")
    with numpy_only():
        lq.save_bvae(model, tmp_path / "looped.txt")
    assert (tmp_path / "compiled.txt").read_bytes() == (tmp_path / "looped.txt").read_bytes()
    loaded = lq.load_bvae(tmp_path / "compiled.txt")
    for name, array in params.items():
        assert loaded.params[name].view(np.uint64).tolist() == array.view(np.uint64).tolist()
    assert loaded.tau == 5e-324
