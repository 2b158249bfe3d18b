import numpy as np
import pytest

from fieldlab.lagrangian import parse_lagrangian


@pytest.fixture
def free_lagr():
    return parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*m^2*z^2", {"m": 1.0})


@pytest.fixture
def quartic_lagr():
    return parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", {})


def mode_frequencies(cfg, mass):
    """The free lattice dispersion omega_k = sqrt(mass^2 + (4/a^2) sin^2(pi k / N)), k < N."""
    k = np.arange(cfg.n_sites)
    return np.sqrt(mass ** 2 + (4.0 / cfg.spacing ** 2) * np.sin(np.pi * k / cfg.n_sites) ** 2)


def random_state(cfg, rng):
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    return psi


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
