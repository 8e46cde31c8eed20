import ctypes
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import latentqubo as lq
import latentqubo._native as native
import latentqubo.samplers as samplers
from helpers import reference_corpus, reference_target, train_reference_bvae

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def random_qubo(rng: np.random.Generator, n: int, density: float = 1.0) -> lq.QuboProblem:
    linear = rng.uniform(-1, 1, n)
    quadratic = {
        (i, j): float(rng.uniform(-1, 1))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    }
    return lq.QuboProblem(linear=linear, quadratic=quadratic, offset=float(rng.uniform(-1, 1)))


def random_fm(rng: np.random.Generator, n: int, k: int) -> lq.FmModel:
    """An FM of n bits and rank k whose couplings are of the order of random_qubo's."""
    return lq.FmModel(w0=float(rng.uniform(-1, 1)), w=rng.uniform(-1, 1, n),
                      V=rng.uniform(-1, 1, (n, k)) / np.sqrt(k))


def all_bit_vectors(n: int) -> np.ndarray:
    ints = np.arange(1 << n, dtype=np.uint64)
    shifts = np.arange(n, dtype=np.uint64)
    return ((ints[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


@pytest.fixture(scope="session")
def half_plane_corpus():
    return reference_corpus()


@pytest.fixture(scope="session")
def toy_bvae():
    """Small trained autoencoder shared by pipeline-level tests."""
    return train_reference_bvae()


@pytest.fixture(scope="session")
def half_plane_target():
    return reference_target()


@pytest.fixture(scope="session")
def session_build(tmp_path_factory) -> Path | None:
    """The session's one real build of native.SOURCES, or None where no compiler is found: a
    copy of the package's cache entry where _native trusts it, or else one compile.

    A copy, since a test may replace or remove the cache entry; and never library()'s own file,
    which for a library built in this process is the temporary name that _load renamed away.
    """
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    sources = [Path(native.__file__).with_name(name) for name in native.SOURCES]
    entry = native._CACHE_DIR / native._entry_name(compiler, sources)
    out = tmp_path_factory.mktemp("session_build") / "_latentqubo.so"
    if native._trusted(entry):
        shutil.copyfile(entry, out)
    else:
        native._compile(compiler, sources, out)
    return out


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """Forget the loaded library and cache it in a new directory, so the compiler runs again."""
    cache = tmp_path / "__pycache__"
    monkeypatch.setattr(native, "_CACHE_DIR", cache)
    native._built.clear()
    yield cache
    native._built.clear()


@pytest.fixture
def fresh_build(monkeypatch, session_build, fresh_cache):
    """fresh_cache, with native._compile replaced by a stand-in that installs the session's
    build at out, as the compiler would have built it, and loads it."""
    def install(compiler, sources, out: Path):
        shutil.copyfile(session_build, out)
        out.chmod(0o755)
        return ctypes.CDLL(str(out))

    monkeypatch.setattr(native, "_compile", install)
    return fresh_cache


@pytest.fixture
def cores(monkeypatch):
    """A function that makes samplers see a given number of cores and forgets its annealing
    executor, so that the next call makes one of that width; the executors it made are shut
    down after the test, and the process's own comes back."""
    made = []

    def use(count: int) -> None:
        made.append(samplers._executor)
        monkeypatch.setattr(samplers, "_cores", lambda: count)
        monkeypatch.setattr(samplers, "_executor", None)

    own = samplers._executor
    yield use
    for executor in {*made, samplers._executor} - {own, None}:
        executor.shutdown()
