import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import latentqubo as lq
from helpers import reference_corpus, reference_target, train_reference_bvae

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


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
