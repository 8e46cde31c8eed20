"""The shared build of the C kernels: built once per process, numpy without it."""

import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import latentqubo as lq
import latentqubo._native as native
import latentqubo.fm as fm
import latentqubo.samplers as samplers
from conftest import random_qubo
from test_fm import assert_models_close, random_dataset

SCHEDULE = lq.AnnealSchedule(num_sweeps=50, num_reads=4)


@pytest.fixture
def fresh_build():
    """Forget the loaded library before and after the test, so it builds again."""
    native.library.cache_clear()
    yield
    native.library.cache_clear()


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(1) or original(*args, **kw))
    return calls


def fm_case():
    return random_dataset(16, 100, seed=3), lq.FmTrainConfig(epochs=4, rank=8, seed=1)


def test_without_compiler_fm_train_runs_the_numpy_loop(monkeypatch, fresh_build):
    data, cfg = fm_case()
    compiled, _ = lq.fm_train(data, cfg)
    epochs = count_calls(monkeypatch, fm, "_epoch_numpy")
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    native.library.cache_clear()
    looped, _ = lq.fm_train(data, cfg)
    assert native.library() is None
    assert len(epochs) == cfg.epochs
    assert_models_close(looped, compiled)


def test_failing_compiler_warns_once_and_both_kernels_fall_back(
    monkeypatch, tmp_path, fresh_build
):
    compiler = tmp_path / "cc"
    compiler.write_text("#!/bin/sh\necho 'cc: error: toolchain is broken' >&2\nexit 1\n")
    compiler.chmod(0o755)
    monkeypatch.setattr(native.shutil, "which", lambda name: str(compiler))
    epochs = count_calls(monkeypatch, fm, "_epoch_numpy")
    sweeps = count_calls(monkeypatch, samplers, "_anneal_numpy")
    data, cfg = fm_case()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lq.fm_train(data, cfg)
        lq.simulated_annealing_sample(random_qubo(np.random.default_rng(0), 8), SCHEDULE, seed=0)
        lq.fm_train(data, cfg)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "toolchain is broken" in str(caught[0].message)
    assert len(epochs) == 2 * cfg.epochs
    assert len(sweeps) == 1


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_training_and_annealing_run_the_compiler_once(monkeypatch, fresh_build):
    # the first call anneals its four reads on four threads
    builds = count_calls(monkeypatch, native.subprocess, "run")
    monkeypatch.setattr(samplers, "_cores", lambda: 4)
    data, cfg = fm_case()
    q = random_qubo(np.random.default_rng(1), 8)
    lq.simulated_annealing_sample(q, SCHEDULE, seed=0)
    lq.fm_train(data, cfg)
    lq.simulated_annealing_sample(q, SCHEDULE, seed=1)
    lq.fm_train(data, cfg)
    assert len(builds) == 1
    assert native.library() is not None


def test_every_c_source_is_built_and_packaged():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    root = Path(__file__).resolve().parents[1]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    packaged = pyproject["tool"]["setuptools"]["package-data"]["latentqubo"]
    sources = sorted(path.name for path in (root / "src" / "latentqubo").glob("*.c"))
    assert sources == sorted(native.SOURCES)
    assert set(sources) <= set(packaged)
