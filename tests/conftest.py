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


def kinetic_phase(op, dt):
    """exp(-i dt T / h) on the full Fourier grid, T the separable operator's momentum part.

    Summed term by term from each term's 1-D multiplier, the kinetic square
    with its constant: the phase an FFT oracle multiplies by between ``fftn``
    and ``ifftn``.
    """
    cfg = op.cfg
    mult = np.zeros(cfg.shape)
    for term in op.terms:
        mult = mult + term.mult.reshape(cfg.axis_shape(term.site))
    return np.exp(-1j * dt * mult / cfg.hbar)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
