"""Compiled operators against independently assembled dense matrices."""

import itertools

import numpy as np
import pytest

from fieldlab.errors import NotSpacelike, UnsupportedOrdering
from fieldlab.lagrangian import diagonal_density, legendre_transform, parse_lagrangian
from fieldlab.lattice import LatticeConfig, WaveFunctional, inner
from fieldlab.operators import DENSE_GUARD, compile_hamiltonian


def density_parts(density, v, zj, zs):
    """[p-free part, p coefficient, p^2 coefficient] of the density at slope v.

    Read off the coefficient table, each power of p summed over zs; V(zj) is
    summed here term by term and added to the p-free part.
    """
    parts = [0.0, 0.0, 0.0]
    for (ip, k), coeff in density.coefficients(v).items():
        parts[ip] = parts[ip] + coeff * zs ** k
    parts[0] = parts[0] + sum(c * zj ** k for k, c in enumerate(density.potential))
    return parts


def dense_oracle_fd(density, cfg):
    """Kron-assembled dense flat operator from stencil and diagonal pieces.

    Everything is rebuilt here from scratch: circulant 3-point stencils for
    the derivatives and explicit python loops for the diagonal, so the only
    shared ingredient with the compiled operator is the grid itself.
    """
    n, q, a, h = cfg.n_sites, cfg.q_points, cfg.spacing, cfg.hbar
    dz = cfg.dz
    zg = cfg.z_values()
    eye = np.eye(q)
    d2 = (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1) - 2 * eye) / dz ** 2
    d1 = (np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)) / (2 * dz)

    def site_operator(mat, j):
        ops = [eye] * n
        ops[j] = mat
        out = ops[0]
        for op in ops[1:]:
            out = np.kron(out, op)
        return out

    dim = q ** n
    total = np.zeros((dim, dim), dtype=complex)
    p2 = -(h ** 2 / a ** 2) * d2          # p_j^2 matrix on one axis
    p1 = -1j * (h / a) * d1               # p_j matrix on one axis
    _, lin, quad = (a * part for part in density_parts(density, 0.0, 0.0, 0.0))
    for j in range(n):
        total += quad * site_operator(p2, j) + lin * site_operator(p1, j)
    for flat, idx in enumerate(itertools.product(range(q), repeat=n)):
        value = 0.0
        for j in range(n):
            zj = zg[idx[j]]
            zs = (zg[idx[(j + 1) % n]] - zj) / a if n > 1 else 0.0
            value += a * float(density_parts(density, 0.0, zj, zs)[0])
        total[flat, flat] += value
    return total


def dense_oracle_spectral(density, cfg):
    """Same assembly with explicit DFT differentiation matrices."""
    n, q, a, h = cfg.n_sites, cfg.q_points, cfg.spacing, cfg.hbar
    zg = cfg.z_values()
    dft = np.exp(-2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q)
    idft = dft.conj().T / q
    k = 2 * np.pi * np.fft.fftfreq(q, d=cfg.dz)
    k1 = k.copy()
    k1[q // 2] = 0.0
    d2 = (idft * (-k ** 2)) @ dft
    d1 = (idft * (1j * k1)) @ dft
    eye = np.eye(q)

    def site_operator(mat, j):
        ops = [eye] * n
        ops[j] = mat
        out = ops[0]
        for op in ops[1:]:
            out = np.kron(out, op)
        return out

    dim = q ** n
    total = np.zeros((dim, dim), dtype=complex)
    _, lin, quad = (a * part for part in density_parts(density, 0.0, 0.0, 0.0))
    for j in range(n):
        total += quad * site_operator(-(h ** 2 / a ** 2) * d2, j)
        total += lin * site_operator(-1j * (h / a) * d1, j)
    for flat, idx in enumerate(itertools.product(range(q), repeat=n)):
        value = 0.0
        for j in range(n):
            zj = zg[idx[j]]
            zs = (zg[idx[(j + 1) % n]] - zj) / a if n > 1 else 0.0
            value += a * float(density_parts(density, 0.0, zj, zs)[0])
        total[flat, flat] += value
    return total


def test_dense_oracle_fd(free_lagr):
    cfg = LatticeConfig(2, 1.0, 4, 6.0, derivative="fd")
    density = legendre_transform(free_lagr)
    compiled = compile_hamiltonian(density, cfg).dense_matrix()
    oracle = dense_oracle_fd(density, cfg)
    assert np.max(np.abs(compiled - oracle)) < 1e-12


def test_dense_oracle_fd_with_linear_term():
    lagr = parse_lagrangian("0.5*zt^2 + 0.2*zt - 0.5*zx^2 - 0.5*z^2")
    cfg = LatticeConfig(2, 1.0, 4, 6.0, derivative="fd")
    density = legendre_transform(lagr)
    compiled = compile_hamiltonian(density, cfg).dense_matrix()
    oracle = dense_oracle_fd(density, cfg)
    assert np.max(np.abs(compiled - oracle)) < 1e-12


def test_dense_oracle_spectral(free_lagr):
    cfg = LatticeConfig(2, 1.0, 8, 6.0)
    density = legendre_transform(free_lagr)
    compiled = compile_hamiltonian(density, cfg).dense_matrix()
    oracle = dense_oracle_spectral(density, cfg)
    assert np.max(np.abs(compiled - oracle)) < 1e-11


def test_potential_only_is_diagonal(rng):
    density = diagonal_density(0.0, (0.0, 0.0, 0.5, 0.0, 0.1))
    cfg = LatticeConfig(2, 1.0, 8, 6.0)
    op = compile_hamiltonian(density, cfg)
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    zg = cfg.z_values()
    expected = np.zeros(cfg.shape)
    for idx in itertools.product(range(8), repeat=2):
        expected[idx] = sum(cfg.spacing * (0.5 * zg[i] ** 2 + 0.1 * zg[i] ** 4) for i in idx)
    assert np.max(np.abs(op.apply(psi) - expected * psi)) < 1e-12
    assert op.separable


def test_linearity(free_lagr, rng):
    cfg = LatticeConfig(2, 1.0, 8, 6.0)
    op = compile_hamiltonian(legendre_transform(free_lagr), cfg, 0.4)
    p1 = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    p2 = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    alpha, beta = 0.7 - 0.2j, -1.1 + 0.5j
    lhs = op.apply(alpha * p1 + beta * p2)
    rhs = alpha * op.apply(p1) + beta * op.apply(p2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("derivative", ["spectral", "fd"])
def test_hermiticity_sloped(free_lagr, rng, derivative):
    cfg = LatticeConfig(2, 1.0, 16, 8.0, derivative=derivative)
    op = compile_hamiltonian(legendre_transform(free_lagr), cfg, 0.5)
    for _ in range(20):
        phi = WaveFunctional(cfg, rng.standard_normal(cfg.shape)
                             + 1j * rng.standard_normal(cfg.shape))
        psi = WaveFunctional(cfg, rng.standard_normal(cfg.shape)
                             + 1j * rng.standard_normal(cfg.shape))
        lhs = inner(phi, WaveFunctional(cfg, op.apply(psi.psi)))
        rhs = np.conj(inner(psi, WaveFunctional(cfg, op.apply(phi.psi))))
        assert abs(lhs - rhs) < 1e-10


def test_slope_continuity_at_zero(free_lagr, rng):
    cfg = LatticeConfig(2, 1.0, 16, 8.0)
    density = legendre_transform(free_lagr)
    flat = compile_hamiltonian(density, cfg)
    tilted = compile_hamiltonian(density, cfg, 1e-8)
    for _ in range(10):
        psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
        psi /= np.linalg.norm(psi)
        assert np.linalg.norm(tilted.apply(psi) - flat.apply(psi)) < 1e-6


def test_not_spacelike_guard(free_lagr):
    cfg = LatticeConfig(2, 1.0, 8, 6.0)
    with pytest.raises(NotSpacelike):
        compile_hamiltonian(legendre_transform(free_lagr), cfg, 1.0)


def test_unsupported_ordering_guard(free_lagr):
    """A sloped operator has cross terms, so it has no global Fourier multiplier."""
    cfg = LatticeConfig(2, 1.0, 8, 6.0)
    density = legendre_transform(free_lagr)
    sloped = compile_hamiltonian(density, cfg, 0.5)
    assert not sloped.separable
    with pytest.raises(UnsupportedOrdering):
        sloped.kinetic_multiplier()
    # a flat operator is separable and has one
    assert compile_hamiltonian(density, cfg).kinetic_multiplier().shape == cfg.shape


def test_cross_term_matches_dense_symmetrization(free_lagr):
    """Sloped compile equals the explicitly symmetrized dense assembly."""
    cfg = LatticeConfig(2, 1.0, 8, 6.0)
    density = legendre_transform(free_lagr)
    v = 0.4
    op = compile_hamiltonian(density, cfg, v)
    compiled = op.dense_matrix()

    q, a, h = cfg.q_points, cfg.spacing, cfg.hbar
    zg = cfg.z_values()
    dft = np.exp(-2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q)
    idft = dft.conj().T / q
    k = 2 * np.pi * np.fft.fftfreq(q, d=cfg.dz)
    k1 = k.copy()
    k1[q // 2] = 0.0
    p1 = (idft * (h / a * k1)) @ dft
    p2 = (idft * ((h / a) ** 2 * k ** 2)) @ dft
    eye = np.eye(q)
    dim = q ** 2
    oracle = np.zeros((dim, dim), dtype=complex)
    for j in range(2):
        quad = a * density_parts(density, v, 0.0, 0.0)[2]
        mats = [eye, eye]
        mats[j] = p2
        oracle += quad * np.kron(mats[0], mats[1])
        mats[j] = p1
        pj = np.kron(mats[0], mats[1])
        f_diag = np.zeros(dim)
        d_diag = np.zeros(dim)
        for flat, (m0, m1) in enumerate(itertools.product(range(q), repeat=2)):
            idx = (m0, m1)
            zj = zg[idx[j]]
            zs = (zg[idx[(j + 1) % 2]] - zj) / a
            scalar, lin, _ = density_parts(density, v, zj, zs)
            f_diag[flat] = a * float(lin)
            d_diag[flat] = a * float(scalar)
        f_mat = np.diag(f_diag)
        oracle += 0.5 * (f_mat @ pj + pj @ f_mat) + np.diag(d_diag)
    assert np.max(np.abs(compiled - oracle)) < 1e-11


QUARTIC = "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4"
LINEAR_ZT = "0.5*zt^2 + 0.3*zt - 0.5*zx^2 - 0.5*z^2"
FREE = "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2"

# (text, n_sites, derivative, link slopes, sites, real structure)
DENSE_CASES = {
    "flat_real": (QUARTIC, 2, "spectral", None, None, True),
    "linear_zt": (LINEAR_ZT, 2, "spectral", None, None, False),
    "sloped_cross": (FREE, 3, "spectral", [0.1, -0.2, 0.05], None, False),
    "sloped_wrapping_site": (LINEAR_ZT, 3, "spectral", [0.3, -0.1, 0.2], [2], False),
    "one_site": ("0.5*zt^2 - 0.5*z^2 - 0.1*z^4", 1, "spectral", None, None, True),
    "fd_flat": (FREE, 2, "fd", None, None, True),
    "fd_sloped": (FREE, 3, "fd", [0.1, 0.2, -0.3], None, False),
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_dense_matrix_structural_assembly(case, rng):
    """dense_matrix is exactly Hermitian, real exactly when the structure is, and equals apply."""
    text, n, derivative, slopes, sites, real = DENSE_CASES[case]
    cfg = LatticeConfig(n, 1.0, 8 if n == 3 else 16, 6.0, derivative=derivative)
    op = compile_hamiltonian(legendre_transform(parse_lagrangian(text)), cfg, slopes, sites)
    mat = op.dense_matrix()
    assert mat.dtype == (np.float64 if real else np.complex128)
    assert np.array_equal(mat, mat.conj().T)
    for _ in range(3):
        x = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
        x /= np.linalg.norm(x)
        assert np.max(np.abs(mat @ x.ravel() - op.apply(x).ravel())) < 1e-12


def test_dense_matrix_diagonal_density_is_real_diagonal():
    cfg = LatticeConfig(2, 1.0, 8, 6.0)
    mat = compile_hamiltonian(diagonal_density(0.5, (0.0, 0.0, 0.5)), cfg, 0.3).dense_matrix()
    assert mat.dtype == np.float64
    assert np.array_equal(mat, np.diag(np.diag(mat)))


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_field_diagonal_matches_dense(case):
    """The Jacobi diagonal is the dense matrix's diagonal, cross terms included."""
    text, n, derivative, slopes, sites, _ = DENSE_CASES[case]
    cfg = LatticeConfig(n, 1.0, 8 if n == 3 else 16, 6.0, derivative=derivative)
    op = compile_hamiltonian(legendre_transform(parse_lagrangian(text)), cfg, slopes, sites)
    diagonal = op.field_diagonal
    assert diagonal.shape == cfg.shape and diagonal.dtype == np.float64
    assert np.max(np.abs(diagonal.ravel() - np.diag(op.dense_matrix()))) < 1e-12
    assert op.field_diagonal is diagonal


@pytest.mark.parametrize("text,slopes,sites,derivative", [
    (LINEAR_ZT, [0.3, -0.1], None, "spectral"),
    (FREE, [0.2, -0.4], [1], "spectral"),
    (QUARTIC, [-0.25, 0.15], None, "fd"),
])
def test_fused_cross_term_apply_matches_dense(text, slopes, sites, derivative, rng):
    """The cross term applied as i (f R + R f) on the block table matches the dense matrix."""
    cfg = LatticeConfig(2, 1.0, 16, 6.0, derivative=derivative)
    op = compile_hamiltonian(legendre_transform(parse_lagrangian(text)), cfg, slopes, sites)
    assert not op.separable
    mat = op.dense_matrix()
    x = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    x /= np.linalg.norm(x)
    y = rng.standard_normal(cfg.shape)  # a real state is upcast
    y /= np.linalg.norm(y)
    hx = op.apply(x)
    hy = op.apply(y)  # a second call must leave hx unchanged
    assert np.max(np.abs(hx.ravel() - mat @ x.ravel())) < 1e-12
    assert np.max(np.abs(hy.ravel() - mat @ y.ravel())) < 1e-12
    assert np.array_equal(op.apply(x), hx)


def fft_reference_apply(density, cfg, link_slopes, psi):
    """H psi from per-axis np.fft multipliers, rebuilt from the density.

    Site j carries a * [p_quad P_j^2 + (c_j P_j + P_j c_j) / 2 + scalar part],
    with c_j the field-dependent p coefficient, P_j = (h/a) k1 and P_j^2 =
    (h/a)^2 k^2 as Fourier multipliers on axis j, and the slope at a site
    the mean of its two links.
    """
    n, a, h = cfg.n_sites, cfg.spacing, cfg.hbar
    k = 2 * np.pi * np.fft.fftfreq(cfg.q_points, d=cfg.dz)
    k1 = k.copy()
    k1[cfg.q_points // 2] = 0.0
    zg = cfg.z_values()
    links = np.zeros(n) if link_slopes is None else np.asarray(link_slopes, dtype=float)

    def along(mult, x, j):
        shape = [1] * n
        shape[j] = -1
        return np.fft.ifft(mult.reshape(shape) * np.fft.fft(x, axis=j), axis=j)

    out = np.zeros(cfg.shape, dtype=complex)
    for j in range(n):
        v = 0.5 * (links[j - 1] + links[j])
        shape_j, shape_next = [1] * n, [1] * n
        shape_j[j] = -1
        shape_next[(j + 1) % n] = -1
        zj = zg.reshape(shape_j)
        zs = (zg.reshape(shape_next) - zj) / a
        scalar, lin, quad = density_parts(density, v, zj, zs)
        c = np.broadcast_to(a * lin, cfg.shape)
        out += a * scalar * psi
        out += a * quad * along((h / a) ** 2 * k ** 2, psi, j)
        out += 0.5 * (c * along(h / a * k1, psi, j) + along(h / a * k1, c * psi, j))
    return out


@pytest.mark.parametrize("n,q,slopes", [
    (3, 32, None),
    (3, 32, [0.1, -0.2, 0.05]),
    (2, 128, None),
], ids=["n3-q32-flat", "n3-q32-sloped", "n2-q128-flat"])
def test_apply_past_dense_guard_matches_fft_reference(n, q, slopes, rng):
    """Past DENSE_GUARD, the per-axis block apply equals the Fourier-multiplier formula."""
    cfg = LatticeConfig(n, 1.0, q, 10.0)
    assert cfg.dim > DENSE_GUARD
    density = legendre_transform(parse_lagrangian(QUARTIC))
    op = compile_hamiltonian(density, cfg, slopes)
    x = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    reference = fft_reference_apply(density, cfg, slopes, x)
    assert np.linalg.norm(op.apply(x) - reference) <= 1e-12 * np.linalg.norm(reference)
