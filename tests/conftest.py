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


def gaussian_reference(density, cfg, centers, covariance, t, slopes=None):
    """The exact psi(t) from init_wavefunctional(GaussianStateSpec(centers, covariance=...))
    under the compiled operator of a density quadratic in (z, p), for the spectral derivative.

    The operator is the Weyl quantization of its symbol: the cross term
    (f P + P f) / 2 is Weyl ordered for a linear f, and the fd stencil is not
    p^2, hence spectral only.  Read off ``density.coefficients`` at each site
    slope, the symbol is H = 1/2 Y^T W Y in Y = (z, pi, 1), pi_j = a p_j the
    momentum conjugate to z_j.  A Gaussian stays Gaussian (Heller, J. Chem.
    Phys. 62, 1544 (1975); Littlejohn, Phys. Rep. 138, 193 (1986)): with the
    linear flow (A B; C D) of (z, pi) and the centre (q, p) it moves,
        psi_t(z) = det(A + B G0)^(-1/2) exp(i/h [d^T G d / 2 + p d + sigma]),
    d = z - q, G = (C + D G0)(A + B G0)^-1, G0 = i h C0^-1, and sigma the
    action of the centre, integral of p dq/dt - H, by Van Loan's block
    exponential.  The square root follows det from 1 at t = 0.
    """
    from scipy.linalg import expm

    from fieldlab.lattice import WaveFunctional, norm

    n, a, h = cfg.n_sites, cfg.spacing, cfg.hbar
    m = 2 * n
    v = np.zeros(n) if slopes is None else np.asarray(slopes, dtype=float)
    assert len(density.potential) <= 3, "the reference needs a quadratic potential"
    e = np.eye(m + 1)
    w = np.zeros((m + 1, m + 1))

    def add(coeff, factors):  # coeff times the product of two linear forms in Y
        factors = factors + [e[m]] * (2 - len(factors))
        w[...] += coeff * (np.outer(*factors) + np.outer(*factors[::-1]))

    for j in range(n):
        zs, p = (e[(j + 1) % n] - e[j]) / a, e[n + j] / a
        for (ip, k), coeff in density.coefficients(v[j]).items():
            add(a * coeff, [p] * ip + [zs] * k)
        for k, coeff in enumerate(density.potential):
            add(a * coeff, [e[j]] * k)
    flow = np.zeros((m + 1, m + 1))  # d/dt Y: dz/dt = dH/dpi, dpi/dt = -dH/dz
    flow[:n], flow[n:m] = w[n:m], -w[:n]
    on_pi = np.diag([0.0] * n + [1.0] * n + [0.0])
    lagr = 0.5 * (on_pi @ w + w @ on_pi) - 0.5 * w  # pi dz/dt - H as a form in Y
    van_loan = expm(t * np.block([[-flow.T, lagr], [np.zeros_like(flow), flow]]))
    step = van_loan[m + 1:, m + 1:]
    y0 = np.concatenate([centers, np.zeros(n), [1.0]])
    sigma = y0 @ step.T @ van_loan[:m + 1, m + 1:] @ y0
    q, p = (step @ y0)[:n], (step @ y0)[n:m]

    g0 = 1j * h * np.linalg.inv(np.asarray(covariance, dtype=float))
    dets = [np.linalg.det(s[:n, :n] + s[:n, n:m] @ g0)
            for s in (expm(tau * flow) for tau in np.linspace(0.0, t, 257))]
    amp = np.abs(dets[-1]) ** -0.5 * np.exp(-0.5j * np.unwrap(np.angle(dets))[-1])
    gamma = (step[n:m, :n] + step[n:m, n:m] @ g0) @ np.linalg.inv(step[:n, :n] + step[:n, n:m] @ g0)

    def gaussian(gam, centre, momentum):
        d = [cfg.z_values().reshape(cfg.axis_shape(j)) - centre[j] for j in range(n)]
        form = sum(0.5 * gam[j, k] * d[j] * d[k] + (momentum[j] * d[j] if j == k else 0.0)
                   for j in range(n) for k in range(n))
        return np.exp(1j / h * np.broadcast_to(form, cfg.shape))

    scale = 1.0 / norm(WaveFunctional(cfg, gaussian(g0, centers, np.zeros(n))))
    return WaveFunctional(cfg, scale * amp * np.exp(1j * sigma / h) * gaussian(gamma, q, p))
