import numpy as np
import pytest

from spinpair.states import DensityMatrix, SpinSystemParams

SEED = 20260819


def random_density(rng) -> DensityMatrix:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a @ a.conj().T
    return DensityMatrix(h / np.trace(h).real)


def count_exp_values(monkeypatch) -> list:
    """Patch np.exp to record the number of values of each call."""
    sizes, exp = [], np.exp

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    return sizes


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def random_states():
    r = np.random.default_rng(SEED)
    return [random_density(r) for _ in range(1000)]


@pytest.fixture(scope="session")
def params():
    return SpinSystemParams()
