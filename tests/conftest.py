import numpy as np
import pytest

from lejabounds import (build_green_model, leja_sequence, make_union,
                        quasi_leja_sequence)

QUASI_TAUS = (0.99, 0.9, 0.7)
QUASI_SEEDS = (0, 1, 2)


@pytest.fixture(scope="session")
def K_unit():
    return make_union([(-1.0, 1.0)])


@pytest.fixture(scope="session")
def K_two():
    return make_union([(0.0, 1.0), (2.0, 3.0)])


@pytest.fixture(scope="session")
def K_sym():
    return make_union([(-1.0, -0.3), (0.3, 1.0)])


@pytest.fixture(scope="session")
def model_unit(K_unit):
    return build_green_model(K_unit)


@pytest.fixture(scope="session")
def model_two(K_two):
    return build_green_model(K_two)


@pytest.fixture(scope="session")
def model_sym(K_sym):
    return build_green_model(K_sym)


@pytest.fixture(scope="session")
def leja_unit_100(K_unit):
    return leja_sequence(K_unit, 100)


@pytest.fixture(scope="session")
def leja_two_100(K_two):
    return leja_sequence(K_two, 100)


@pytest.fixture(scope="session")
def quasi_unit_seqs(K_unit):
    """(tau, seed) -> 60-term quasi sequence on [-1, 1]."""
    return {(tau, seed): quasi_leja_sequence(K_unit, 60, tau, rng_seed=seed)
            for tau in QUASI_TAUS for seed in QUASI_SEEDS}


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def G_calls(monkeypatch):
    """The delta lists of the GreenModel.neighborhood_max calls of the test."""
    from lejabounds.green import GreenModel
    calls = []
    original = GreenModel.neighborhood_max

    def counted(self, delta, *deltas):
        calls.append((delta,) + deltas)
        return original(self, delta, *deltas)

    monkeypatch.setattr(GreenModel, "neighborhood_max", counted)
    return calls
