"""Strict QUBO, Ising and FM text loaders: malformed files fail with file:line errors."""

import re

import numpy as np
import pytest

import latentqubo as lq
from conftest import random_qubo

QUBO_HEAD = "QUBO v1 n=2 offset=0\n"
ISING_HEAD = "ISING v1 n=2 offset=0\n"
FM_HEAD = "FM v1 n=2 k=1\nw0 0.5\n"

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
    pytest.param(lq.load_ising, ISING_HEAD + "L -1 3.0\n", 2, id="ising-negative-index"),
    pytest.param(lq.load_ising, ISING_HEAD + "Q 0 1 1\n\nQ 0 1 1\n", 4, id="ising-duplicate-pair"),
    pytest.param(lq.load_ising, ISING_HEAD + "Q 1 0 1\n", 2, id="ising-lower-pair"),
    pytest.param(lq.load_fm, FM_HEAD + "w -1 5\n", 3, id="fm-negative-index"),
    pytest.param(lq.load_fm, FM_HEAD + "w 2 5\n", 3, id="fm-index-out-of-range"),
    pytest.param(lq.load_fm, FM_HEAD + "w 0 1\nw 0 2\n", 4, id="fm-duplicate-w"),
    pytest.param(lq.load_fm, FM_HEAD + "V 1 1\nV 1 1\n", 4, id="fm-duplicate-V"),
    pytest.param(lq.load_fm, FM_HEAD + "w0 1\n", 3, id="fm-duplicate-w0"),
    pytest.param(lq.load_fm, FM_HEAD + "V 0 1 2\n", 3, id="fm-long-V"),
    pytest.param(lq.load_fm, FM_HEAD + "w 0\n", 3, id="fm-short-w"),
    pytest.param(lq.load_fm, "FM v1 n=2 k=x\nw0 0\n", 1, id="fm-non-integer-k"),
    pytest.param(lq.load_fm, "FM v1 n=-2 k=1\nw0 0\n", 1, id="fm-negative-n"),
]


@pytest.mark.parametrize("loader, body, line", MALFORMED)
def test_malformed_file_names_path_and_line(tmp_path, loader, body, line):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}:")):
        loader(path)


def test_valid_files_round_trip_byte_for_byte(tmp_path):
    rng = np.random.default_rng(21)
    q = random_qubo(rng, 7, density=0.5)
    m = lq.qubo_to_ising(q)
    fm = lq.FmModel(w0=rng.normal(), w=rng.normal(size=5), V=rng.normal(size=(5, 3)))
    for save, load, obj in (
        (lq.save_qubo, lq.load_qubo, q),
        (lq.save_ising, lq.load_ising, m),
        (lq.save_fm, lq.load_fm, fm),
    ):
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save(obj, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text("\nQUBO v1 n=2 offset=0.5\n\nL 1 1\n  \nQ 0 1 2\n\n")
    assert lq.load_qubo(path) == lq.QuboProblem(linear=[0, 1], quadratic={(0, 1): 2.0}, offset=0.5)
