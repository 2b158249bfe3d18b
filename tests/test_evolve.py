"""Integrator hierarchy: exact exponential, Strang splitting, Crank-Nicolson."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from fieldlab.errors import DimensionTooLarge, NonSeparableHamiltonian, SolverDivergence
from fieldlab.evolve import (
    MAX_STEPS,
    EvolveParams,
    ExactPropagator,
    crank_nicolson_step,
    evolve_crank_nicolson,
    evolve_exact,
    evolve_strang,
    observables,
)
from fieldlab.lagrangian import diagonal_density, legendre_transform, parse_lagrangian
from fieldlab.lattice import (
    GaussianStateSpec,
    LatticeConfig,
    WaveFunctional,
    free_ground_state_covariance,
    init_wavefunctional,
    norm,
    normalize,
    site_moments,
)
from fieldlab.operators import LatticeHamiltonian, compile_hamiltonian


def coherent_center(t, z0, omega=1.0):
    """Closed-form <z>(t) of an oscillator coherent state released at rest."""
    return z0 * np.cos(omega * t)


def oscillator_setup(q=128, lq=16.0):
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*z^2")
    cfg = LatticeConfig(1, 1.0, q, lq)
    op = compile_hamiltonian(legendre_transform(lagr), cfg)
    return cfg, op


def free_setup(n=2, q=16, lq=8.0, mass=1.0):
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*m^2*z^2", {"m": mass})
    cfg = LatticeConfig(n, 1.0, q, lq)
    op = compile_hamiltonian(legendre_transform(lagr), cfg)
    state = init_wavefunctional(free_ground_state_covariance(cfg, mass), cfg)
    return cfg, op, state


def test_exact_t0_identity(rng):
    cfg, op, state = free_setup()
    out = evolve_exact(op, state, 0.0)
    assert np.array_equal(out.psi, state.psi)


def test_exact_real_operator_keeps_real_eigenvectors(rng):
    """A flat operator takes the real eigh; propagation matches the complex one."""
    cfg, op, _ = free_setup()
    prop = ExactPropagator(op)
    assert all(eigvecs.dtype == np.float64 for _, _, _, eigvecs in prop.sectors)
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    state = normalize(WaveFunctional(cfg, psi))
    w, vecs = np.linalg.eigh(op.dense_matrix().astype(np.complex128))
    expected = vecs @ (np.exp(-0.7j * w) * (vecs.conj().T @ state.psi.ravel()))
    assert np.max(np.abs(prop.propagate(state, 0.7).psi.ravel() - expected)) < 1e-12


FREE_TEXT = "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2"
DRIFT_TEXT = "0.5*zt^2 + 0.25*zt - 0.5*zx^2 - 0.5*z^2"
PERIOD_2 = (0.25, -0.25, 0.25, -0.25)


@pytest.mark.parametrize("text,n,a,q,lq,v_links,v_sites,sites,order", [
    (FREE_TEXT, 1, 1.0, 16, 8.0, None, None, None, 1),
    (FREE_TEXT + " - 0.1*z^4", 2, 1.0, 8, 6.0, None, None, None, 2),
    (FREE_TEXT + " - 0.125*z^4", 3, 1.0, 8, 8.0, None, None, None, 3),
    (FREE_TEXT, 4, 1.0, 4, 4.0, None, None, None, 4),
    (DRIFT_TEXT, 3, 1.0, 8, 8.0, None, None, None, 3),
    (DRIFT_TEXT, 4, 1.0, 4, 4.0, None, None, None, 4),
    (FREE_TEXT, 2, 1.0, 8, 6.0, 0.25, None, None, 2),
    (FREE_TEXT, 3, 1.0, 8, 8.0, [0.25, -0.25, 0.0], None, None, 1),
    (FREE_TEXT, 3, 1.0, 8, 8.0, None, None, [0], 1),
    (FREE_TEXT, 2, 1.0, 8, 6.0, None, None, [1], 1),
    ("0.5*zt^2 - 0.5*zx^2 - 0.3*z^2 - 0.1*z^4", 3, 0.7, 8, 5.0, None, None, None, 3),
    (FREE_TEXT, 3, 1.0, 8, 8.0, 0.25, None, None, 3),
    (FREE_TEXT, 4, 1.0, 4, 4.0, 0.25, None, None, 4),
    (DRIFT_TEXT, 3, 1.0, 8, 5.0, None, None, None, 3),
    (FREE_TEXT, 4, 1.0, 4, 4.0, None, PERIOD_2, None, 1),
], ids=["n1", "n2-quartic", "n3-quartic", "n4", "n3-drift", "n4-drift", "n2-slope",
        "n3-v-links", "n3-site-0", "n2-site-1", "n3-quartic-a07", "n3-slope", "n4-slope",
        "n3-drift-lq5", "n4-period-2"])
def test_exact_momentum_sectors_match_dense_eigh(text, n, a, q, lq, v_links, v_sites, sites,
                                                 order, rng):
    """One block per momentum of the unit site shift when the site terms are translates,
    one block otherwise.

    The terms are compared, not the dense operator, so non-dyadic grids and
    coefficients split too.  The N = 4 lattice has orbits of 1, 2 and 4
    configurations.  ``v_sites`` gives each term its own slope, which no set
    of link slopes does: period-2 site slopes are left to one block.
    """
    cfg = LatticeConfig(n, a, q, lq)
    density = legendre_transform(parse_lagrangian(text))
    if v_sites is None:
        op = compile_hamiltonian(density, cfg, v_links, sites)
    else:
        op = LatticeHamiltonian(cfg, [compile_hamiltonian(density, cfg, v, [j]).terms[0]
                                      for j, v in enumerate(v_sites)])
    prop = ExactPropagator(op)
    assert [k for k, _, _, _ in prop.sectors] == list(range(order))
    assert sum(len(rows) for _, rows, _, _ in prop.sectors) == cfg.dim
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    state = normalize(WaveFunctional(cfg, psi))
    w, vecs = np.linalg.eigh(op.dense_matrix().astype(np.complex128))
    expected = vecs @ (np.exp(-0.7j * w) * (vecs.conj().T @ state.psi.ravel()))
    assert np.max(np.abs(prop.propagate(state, 0.7).psi.ravel() - expected)) < 1e-12
    assert abs(prop.ground_energy() - w[0]) < 1e-12


def test_exact_unitarity(rng):
    cfg, op, _ = free_setup()
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    state = normalize(WaveFunctional(cfg, psi))
    out = evolve_exact(op, state, 1.0)
    assert abs(norm(out) - 1.0) < 1e-12


def test_exact_guard():
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*z^2")
    cfg = LatticeConfig(2, 1.0, 128, 16.0)
    op = compile_hamiltonian(legendre_transform(lagr), cfg)
    state = init_wavefunctional(GaussianStateSpec((0.0, 0.0), widths=(1.0, 1.0)), cfg)
    with pytest.raises(DimensionTooLarge):
        evolve_exact(op, state, 0.1)


def test_coherent_state_center():
    cfg, op = oscillator_setup()
    state = init_wavefunctional(GaussianStateSpec((1.0,), widths=(1.0,)), cfg)
    propagator = ExactPropagator(op)
    for t in (0.5, 1.0):
        moved = propagator.propagate(state, t)
        z_mean, _ = site_moments(moved)
        assert abs(z_mean[0] - coherent_center(t, 1.0)) < 1e-6


def test_strang_kinetic_only_exact(rng):
    lagr = parse_lagrangian("0.5*zt^2")
    cfg = LatticeConfig(2, 1.0, 16, 8.0)
    op = compile_hamiltonian(legendre_transform(lagr), cfg)
    state = init_wavefunctional(GaussianStateSpec((0.0, 0.0), widths=(1.0, 1.0)), cfg)
    one = evolve_strang(op, state, EvolveParams(0.3, 1))
    exact = evolve_exact(op, state, 0.3)
    assert np.max(np.abs(one.psi - exact.psi)) < 1e-12


def test_strang_zero_steps_identity():
    cfg, op, state = free_setup()
    out = evolve_strang(op, state, EvolveParams(0.1, 0))
    assert np.array_equal(out.psi, state.psi)


def test_strang_rejects_cross_terms():
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2")
    cfg = LatticeConfig(2, 1.0, 8, 6.0)
    op = compile_hamiltonian(legendre_transform(lagr), cfg, 0.4)
    state = init_wavefunctional(GaussianStateSpec((0.0, 0.0), widths=(1.0, 1.0)), cfg)
    with pytest.raises(NonSeparableHamiltonian):
        evolve_strang(op, state, EvolveParams(0.1, 1))


def test_strang_second_order():
    cfg, op, state = free_setup(q=16)
    t_total = 0.5
    exact = ExactPropagator(op).propagate(state, t_total)
    errors = []
    for dt in (0.01, 0.005):
        out = evolve_strang(op, state, EvolveParams(dt, int(round(t_total / dt))))
        errors.append(norm(WaveFunctional(cfg, out.psi - exact.psi)))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_crank_nicolson_matches_exact():
    cfg, op, state = free_setup(q=16)
    state = init_wavefunctional(
        GaussianStateSpec((0.3, 0.0),
                          covariance=free_ground_state_covariance(cfg, 1.0).covariance),
        cfg)
    t_total = 0.5
    params = EvolveParams(1e-3, 500, "crank_nicolson")
    out = evolve_crank_nicolson(op, state, params)
    exact = ExactPropagator(op).propagate(state, t_total)
    assert norm(WaveFunctional(cfg, out.psi - exact.psi)) < 1e-6


def test_crank_nicolson_norm_drift():
    cfg, op, state = free_setup(q=16)
    out = evolve_crank_nicolson(op, state, EvolveParams(1e-2, 1, "crank_nicolson"))
    assert abs(norm(out) - 1.0) < 1e-9


def test_crank_nicolson_second_order():
    cfg, op, state = free_setup(q=16)
    state = init_wavefunctional(
        GaussianStateSpec((0.4, -0.2),
                          covariance=free_ground_state_covariance(cfg, 1.0).covariance),
        cfg)
    t_total = 0.4
    exact = ExactPropagator(op).propagate(state, t_total)
    errors = []
    for dt in (0.02, 0.01):
        steps = int(round(t_total / dt))
        out = evolve_crank_nicolson(op, state, EvolveParams(dt, steps, "crank_nicolson"))
        errors.append(norm(WaveFunctional(cfg, out.psi - exact.psi)))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_crank_nicolson_divergence():
    cfg, op, state = free_setup(q=16)
    params = EvolveParams(0.1, 1, "crank_nicolson", cn_tol=1e-14, cn_maxiter=1)
    with pytest.raises(SolverDivergence):
        evolve_crank_nicolson(op, state, params)


def test_observables_ground_state():
    cfg, op, state = free_setup(n=1, q=64, lq=12.0)
    obs = observables(state, op)
    assert np.max(np.abs(obs["z_mean"])) < 1e-10
    assert abs(obs["norm"] - 1.0) < 1e-12
    e_min = ExactPropagator(op).ground_energy()
    assert abs(obs["energy"] - 0.5 * cfg.hbar) < 1e-6
    assert abs(obs["energy"] - e_min) < 1e-6


def test_energy_conservation_exact_and_strang():
    cfg, op, state = free_setup(q=16)
    state = init_wavefunctional(
        GaussianStateSpec((0.5, 0.0),
                          covariance=free_ground_state_covariance(cfg, 1.0).covariance),
        cfg)
    e0 = op.expectation(state)
    moved = ExactPropagator(op).propagate(state, 1.0)
    assert abs(op.expectation(moved) - e0) / abs(e0) < 1e-8
    strang = evolve_strang(op, state, EvolveParams(1e-3, 1000))
    assert abs(op.expectation(strang) - e0) / abs(e0) < 1e-5


def test_method_agreement_quartic():
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")
    cfg = LatticeConfig(2, 1.0, 16, 8.0)
    op = compile_hamiltonian(legendre_transform(lagr), cfg)
    state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
    t_total = 0.2
    exact = ExactPropagator(op).propagate(state, t_total)
    strang = evolve_strang(op, state, EvolveParams(1e-3, 200))
    cn = evolve_crank_nicolson(op, state, EvolveParams(1e-3, 200, "crank_nicolson"))
    assert norm(WaveFunctional(cfg, strang.psi - exact.psi)) < 1e-5
    assert norm(WaveFunctional(cfg, cn.psi - exact.psi)) < 1e-5


def test_unitarity_all_integrators(rng):
    cfg, op, _ = free_setup(q=16)
    for _ in range(10):
        psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
        state = normalize(WaveFunctional(cfg, psi))
        assert abs(norm(evolve_exact(op, state, 0.3)) - 1.0) < 1e-12
        assert abs(norm(evolve_strang(op, state, EvolveParams(0.05, 6))) - 1.0) < 1e-12
        cn = evolve_crank_nicolson(op, state, EvolveParams(0.05, 2, "crank_nicolson"))
        assert abs(norm(cn) - 1.0) < 1e-9


def test_mode_rotation_commutes_swap():
    """Site swap is an exact orthogonal mode transform for two sites."""
    cfg, op, state = free_setup(q=16)
    state = init_wavefunctional(
        GaussianStateSpec((0.5, -0.3),
                          covariance=free_ground_state_covariance(cfg, 1.0).covariance),
        cfg)
    propagator = ExactPropagator(op)
    evolved_then_swapped = propagator.propagate(state, 0.7).psi.T
    swapped = WaveFunctional(cfg, state.psi.T)
    swapped_then_evolved = propagator.propagate(swapped, 0.7).psi
    assert np.max(np.abs(evolved_then_swapped - swapped_then_evolved)) < 1e-8


def test_mode_rotation_commutes_cyclic():
    # translation equivariance is exact whatever the grid resolution
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2")
    cfg = LatticeConfig(3, 1.0, 8, 5.0)
    op = compile_hamiltonian(legendre_transform(lagr), cfg)
    state = init_wavefunctional(
        GaussianStateSpec((0.5, -0.3, 0.1),
                          covariance=free_ground_state_covariance(cfg, 1.0).covariance),
        cfg)
    propagator = ExactPropagator(op)
    rolled_after = np.moveaxis(propagator.propagate(state, 0.5).psi, (0, 1, 2), (1, 2, 0))
    rolled_state = WaveFunctional(cfg, np.moveaxis(state.psi, (0, 1, 2), (1, 2, 0)))
    rolled_before = propagator.propagate(rolled_state, 0.5).psi
    assert np.max(np.abs(rolled_after - rolled_before)) < 1e-8


def test_gaussian_moment_rotation_covariance():
    """Orthogonal relabelings transform the moment vectors covariantly."""
    cfg, op, _ = free_setup(q=16)
    cov = np.asarray(free_ground_state_covariance(cfg, 1.0).covariance)
    mu = np.array([0.6, -0.1])
    rot = np.array([[0.0, 1.0], [1.0, 0.0]])  # swap, the exact lattice choice
    state_a = init_wavefunctional(
        GaussianStateSpec(tuple(mu), covariance=tuple(map(tuple, cov))), cfg)
    state_b = init_wavefunctional(
        GaussianStateSpec(tuple(rot @ mu),
                          covariance=tuple(map(tuple, rot @ cov @ rot.T))), cfg)
    propagator = ExactPropagator(op)
    za, _ = site_moments(propagator.propagate(state_a, 0.9))
    zb, _ = site_moments(propagator.propagate(state_b, 0.9))
    assert np.allclose(rot @ za, zb, atol=1e-8)


def test_strang_leaves_input_state_untouched():
    cfg, op, state = free_setup()
    before = state.psi.copy()
    evolve_strang(op, state, EvolveParams(0.05, 3))
    assert np.array_equal(state.psi, before)


def test_crank_nicolson_jacobi_preconditioner_saves_matvecs():
    """One preconditioned step meets cn_tol on the true residual in fewer matvecs."""
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")
    cfg = LatticeConfig(3, 1.0, 16, 8.0)
    op = compile_hamiltonian(legendre_transform(lagr), cfg)
    state = init_wavefunctional(GaussianStateSpec((0.3, -0.2, 0.1), widths=(1.0,) * 3), cfg)
    dt, tol = 0.01, 1e-10
    alpha = 0.5 * dt / cfg.hbar
    calls = []
    apply = op.apply

    def counted(psi):
        calls.append(1)
        return apply(psi)

    op.apply = counted

    def system(x):
        arr = x.reshape(cfg.shape)
        return (arr + 1j * alpha * counted(arr)).ravel()

    rhs = (state.psi - 1j * alpha * apply(state.psi)).ravel()
    out = crank_nicolson_step(op, state.psi, dt, tol, 500)
    preconditioned = len(calls)
    residual = np.linalg.norm(system(out.ravel()) - rhs) / np.linalg.norm(rhs)
    assert residual <= tol

    calls.clear()
    plain = spla.LinearOperator((cfg.dim, cfg.dim), matvec=system, dtype=np.complex128)
    _, info = spla.gmres(plain, rhs, x0=state.psi.ravel(), rtol=tol, atol=0.0, maxiter=500)
    assert info == 0
    assert preconditioned < len(calls)


def test_evolve_params_step_guard():
    assert EvolveParams(0.1, MAX_STEPS).steps == MAX_STEPS
    with pytest.raises(DimensionTooLarge, match="step guard"):
        EvolveParams(0.1, MAX_STEPS + 1)


@pytest.mark.parametrize("cn_tol", [0.0, -1e-10])
def test_evolve_params_reject_non_positive_cn_tol(cn_tol):
    """GMRES cannot meet a zero tolerance and rejects a negative one."""
    with pytest.raises(ValueError, match="cn_tol"):
        EvolveParams(0.1, 1, "crank_nicolson", cn_tol=cn_tol)


def cn_true_residual(op, psi, out, dt):
    """||(1 + i a H) out - (1 - i a H) psi|| / ||(1 - i a H) psi|| from the dense matrix."""
    mat = op.dense_matrix()
    alpha = 0.5 * dt / op.cfg.hbar
    rhs = psi.ravel() - 1j * alpha * (mat @ psi.ravel())
    lhs = out.ravel() + 1j * alpha * (mat @ out.ravel())
    return np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)


@pytest.mark.parametrize("text,n,slopes", [
    ("0.5*zt^2 + 0.3*zt - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", 2, None),
    ("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", 3, [0.1, -0.2, 0.05]),
], ids=["linear-zt", "sloped-cross"])
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_crank_nicolson_step_meets_tol_on_true_residual(text, n, slopes, tol, rng):
    """The GMRES answer meets cn_tol on the true residual of the Cayley system."""
    cfg = LatticeConfig(n, 1.0, 16 if n == 2 else 8, 6.0)
    op = compile_hamiltonian(legendre_transform(parse_lagrangian(text)), cfg, slopes)
    assert not np.isrealobj(op.dense_matrix())
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    psi /= np.linalg.norm(psi)
    out = crank_nicolson_step(op, psi, 0.05, tol, 500)
    assert cn_true_residual(op, psi, out, 0.05) <= tol


@pytest.mark.filterwarnings("error")
def test_crank_nicolson_happy_breakdown_is_exact():
    """On a diagonal operator Jacobi inverts the system, so Arnoldi breaks down at once."""
    cfg = LatticeConfig(2, 1.0, 16, 6.0)
    op = compile_hamiltonian(diagonal_density(0.5, (0.0, 0.3, 0.5, 0.0, 0.1)), cfg)
    assert np.array_equal(op.dense_matrix(), np.diag(op.diag.ravel()))
    calls = []
    apply = op.apply
    op.apply = lambda psi: calls.append(1) or apply(psi)
    psi = np.zeros(cfg.shape, dtype=complex)
    psi[3, 5] = 1.0  # an eigenvector
    dt = 0.1
    alpha = 0.5 * dt / cfg.hbar
    out = crank_nicolson_step(op, psi, dt, 1e-14, 500)
    lam = op.diag[3, 5]
    expected = np.zeros_like(psi)
    expected[3, 5] = (1 - 1j * alpha * lam) / (1 + 1j * alpha * lam)
    assert np.max(np.abs(out - expected)) < 1e-15
    assert len(calls) == 3  # H psi, one Arnoldi step, the true residual


def test_crank_nicolson_maxiter_counts_restart_cycles():
    """cn_maxiter=1 allows one cycle of 20 Arnoldi steps; cn_tol 1e-14 is out of reach."""
    cfg, op, state = free_setup(q=16)
    calls = []
    apply = op.apply
    op.apply = lambda psi: calls.append(1) or apply(psi)
    with pytest.raises(SolverDivergence, match="after 1 cycles"):
        crank_nicolson_step(op, state.psi, 0.1, 1e-14, 1)
    assert len(calls) == 1 + 20 + 1


def test_crank_nicolson_non_finite_state_fails_at_once():
    cfg, op, state = free_setup(q=16)
    psi = state.psi.copy()
    psi[0, 0] = np.nan
    with pytest.raises(SolverDivergence, match="nan"):
        crank_nicolson_step(op, psi, 0.1, 1e-10, 500)
