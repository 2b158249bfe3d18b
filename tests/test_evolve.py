"""Integrator hierarchy: exact exponential, Strang splitting, Crank-Nicolson."""

import numpy as np
import pytest

from fieldlab import evolve
from fieldlab.errors import DimensionTooLarge, NonSeparableHamiltonian, SolverDivergence
from fieldlab.evolve import (
    MAX_STEPS,
    EvolveParams,
    ExactPropagator,
    crank_nicolson_step,
    evolve_crank_nicolson,
    evolve_strang,
    observables,
    trajectory,
)
from fieldlab.feynman import PathIntegralSpec, TransferOperator
from fieldlab.lagrangian import diagonal_density, legendre_transform, parse_lagrangian
from fieldlab.lattice import (
    GaussianStateSpec,
    LatticeConfig,
    WaveFunctional,
    free_ground_state_covariance,
    init_wavefunctional,
    norm,
    normalize,
    refinement_verdict,
    site_moments,
)
from fieldlab.operators import DENSE_GUARD, compile_hamiltonian

from conftest import gaussian_reference, kinetic_phase


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


@pytest.mark.parametrize("text,n,a,q,lq,v_sites,sites,order", [
    (FREE_TEXT, 1, 1.0, 16, 8.0, None, None, 1),
    (FREE_TEXT + " - 0.1*z^4", 2, 1.0, 8, 6.0, None, None, 2),
    (FREE_TEXT + " - 0.125*z^4", 3, 1.0, 8, 8.0, None, None, 3),
    (FREE_TEXT, 4, 1.0, 4, 4.0, None, None, 4),
    (DRIFT_TEXT, 3, 1.0, 8, 8.0, None, None, 3),
    (DRIFT_TEXT, 4, 1.0, 4, 4.0, None, None, 4),
    (FREE_TEXT, 2, 1.0, 8, 6.0, 0.25, None, 2),
    (FREE_TEXT, 3, 1.0, 8, 8.0, [0.125, 0.0, -0.125], None, 1),
    (FREE_TEXT, 3, 1.0, 8, 8.0, None, [0], 1),
    (FREE_TEXT, 2, 1.0, 8, 6.0, None, [1], 1),
    ("0.5*zt^2 - 0.5*zx^2 - 0.3*z^2 - 0.1*z^4", 3, 0.7, 8, 5.0, None, None, 3),
    (FREE_TEXT, 3, 1.0, 8, 8.0, 0.25, None, 3),
    (FREE_TEXT, 4, 1.0, 4, 4.0, 0.25, None, 4),
    (DRIFT_TEXT, 3, 1.0, 8, 5.0, None, None, 3),
    (FREE_TEXT, 4, 1.0, 4, 4.0, PERIOD_2, None, 1),
], ids=["n1", "n2-quartic", "n3-quartic", "n4", "n3-drift", "n4-drift", "n2-slope",
        "n3-v-links", "n3-site-0", "n2-site-1", "n3-quartic-a07", "n3-slope", "n4-slope",
        "n3-drift-lq5", "n4-period-2"])
def test_exact_momentum_sectors_match_dense_eigh(text, n, a, q, lq, v_sites, sites, order, rng):
    """One block per momentum of the unit site shift when the site terms are translates,
    one block otherwise.

    The terms are compared, not the dense operator, so non-dyadic grids and
    coefficients split too.  The N = 4 lattice has orbits of 1, 2 and 4
    configurations.  Period-2 site slopes, which no set of link slopes
    gives, are left to one block.
    """
    cfg = LatticeConfig(n, a, q, lq)
    op = compile_hamiltonian(legendre_transform(parse_lagrangian(text)), cfg, v_sites, sites)
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
    out = ExactPropagator(op).propagate(state, 1.0)
    assert abs(norm(out) - 1.0) < 1e-12


def test_exact_guard():
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*z^2")
    cfg = LatticeConfig(2, 1.0, 128, 16.0)
    op = compile_hamiltonian(legendre_transform(lagr), cfg)
    with pytest.raises(DimensionTooLarge):
        ExactPropagator(op)


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
    exact = ExactPropagator(op).propagate(state, 0.3)
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


@pytest.mark.parametrize("derivative", ["spectral", "fd"])
@pytest.mark.parametrize("n, q", [(1, 16), (2, 16), (3, 8)])
def test_strang_blocks_match_fft_oracle(derivative, n, q, rng):
    """Per-axis kinetic blocks give the whole-grid Fourier step: half phase, fftn,
    the multiplier's phase, ifftn, half phase.  The linear zt term puts a K_imag
    part in every momentum block."""
    lagr = parse_lagrangian("0.5*zt^2 + 0.3*zt - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")
    cfg = LatticeConfig(n, 0.5, q, 6.0, hbar=0.7, derivative=derivative)
    op = compile_hamiltonian(legendre_transform(lagr), cfg)
    dt = 0.05
    half_phase = np.exp(-0.5j * dt * op.diag / cfg.hbar)
    kin_phase = kinetic_phase(op, dt)
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    oracle = psi
    for steps in range(1, 51):
        oracle = half_phase * np.fft.ifftn(kin_phase * np.fft.fftn(half_phase * oracle))
        if steps in (1, 50):
            out = evolve_strang(op, WaveFunctional(cfg, psi), EvolveParams(dt, steps))
            assert np.max(np.abs(out.psi - oracle)) < 1e-12


def test_crank_nicolson_matches_exact():
    cfg, op, state = free_setup(q=16)
    state = init_wavefunctional(
        GaussianStateSpec((0.3, 0.0),
                          covariance=free_ground_state_covariance(cfg, 1.0).covariance),
        cfg)
    t_total = 0.5
    params = EvolveParams(1e-3, 500)
    out = evolve_crank_nicolson(op, state, params)
    exact = ExactPropagator(op).propagate(state, t_total)
    assert norm(WaveFunctional(cfg, out.psi - exact.psi)) < 1e-6


def test_crank_nicolson_norm_drift():
    cfg, op, state = free_setup(q=16)
    out = evolve_crank_nicolson(op, state, EvolveParams(1e-2, 1))
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
        out = evolve_crank_nicolson(op, state, EvolveParams(dt, steps))
        errors.append(norm(WaveFunctional(cfg, out.psi - exact.psi)))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_crank_nicolson_divergence(monkeypatch):
    """A Lanczos run capped short of what cn_tol 1e-14 needs certifies no step."""
    cfg, op, state = free_setup(q=16)
    monkeypatch.setattr(evolve, "LANCZOS_MAXITER", 3)
    params = EvolveParams(0.1, 1, cn_tol=1e-14)
    with pytest.raises(SolverDivergence, match="no crank-nicolson step"):
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
    cn = evolve_crank_nicolson(op, state, EvolveParams(1e-3, 200))
    assert norm(WaveFunctional(cfg, strang.psi - exact.psi)) < 1e-5
    assert norm(WaveFunctional(cfg, cn.psi - exact.psi)) < 1e-5


def test_unitarity_all_integrators(rng):
    cfg, op, _ = free_setup(q=16)
    propagator = ExactPropagator(op)
    for _ in range(10):
        psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
        state = normalize(WaveFunctional(cfg, psi))
        assert abs(norm(propagator.propagate(state, 0.3)) - 1.0) < 1e-12
        assert abs(norm(evolve_strang(op, state, EvolveParams(0.05, 6))) - 1.0) < 1e-12
        cn = evolve_crank_nicolson(op, state, EvolveParams(0.05, 2))
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


def counting_apply(op):
    """Record each ``op.apply`` input, copied: the vectors H acted on, in order."""
    inputs = []
    apply = op.apply

    def counted(psi):
        inputs.append(psi.copy())
        return apply(psi)

    op.apply = counted
    return inputs


def quartic_setup():
    """A flat quartic operator at N=3, Q=16 and a Gaussian away from its centre."""
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")
    cfg = LatticeConfig(3, 1.0, 16, 8.0)
    op = compile_hamiltonian(legendre_transform(lagr), cfg)
    return cfg, op, init_wavefunctional(
        GaussianStateSpec((0.3, -0.2, 0.1), widths=(1.0,) * 3), cfg)


def test_crank_nicolson_chunk_saves_matvecs():
    """A 10-step chunk takes fewer than 10 x 9 products, one Lanczos run for all ten steps,
    and lands within its tolerance of ten one-step runs."""
    cfg, op, state = quartic_setup()
    dt, tol = 0.01, 1e-10
    stepped = state
    for _ in range(10):
        stepped = evolve_crank_nicolson(op, stepped, EvolveParams(dt, 1, cn_tol=tol))
    inputs = counting_apply(op)
    out = evolve_crank_nicolson(op, state, EvolveParams(dt, 10, cn_tol=tol))
    assert len(inputs) < 10 * 9
    assert norm(WaveFunctional(cfg, out.psi - stepped.psi)) < 2 * 10 * tol


def test_crank_nicolson_logged_steps_share_lanczos_runs():
    """32 steps logged after every step share one Lanczos run: they take at most half the
    products of 32 one-step runs, and end on the state of one unlogged run of 32."""
    cfg, op, state = quartic_setup()
    params = EvolveParams(0.01, 32)
    inputs = counting_apply(op)
    stepped = state
    for _ in range(32):
        stepped = evolve_crank_nicolson(op, stepped, EvolveParams(params.dt, 1))
    one_step_runs = len(inputs)
    inputs.clear()
    rows = list(trajectory(op, state, "crank_nicolson", params, 1))
    assert [n for n, _ in rows] == list(range(33))
    assert 2 * len(inputs) <= one_step_runs
    assert np.array_equal(rows[-1][1].psi, evolve_crank_nicolson(op, state, params).psi)
    assert norm(WaveFunctional(cfg, rows[-1][1].psi - stepped.psi)) < 2 * 32 * params.cn_tol


@pytest.mark.parametrize("method", ["exact", "strang", "crank_nicolson"])
def test_trajectory_yields_the_logged_steps(method):
    """Rows at 0, every log_every steps and the last step; zero steps yield the initial
    state alone, as a copy."""
    cfg, op, state = free_setup()
    steps = [n for n, _ in trajectory(op, state, method, EvolveParams(0.01, 10), 4)]
    assert steps == [0, 4, 8, 10]
    [(n, out)] = trajectory(op, state, method, EvolveParams(0.01, 0), 4)
    assert n == 0 and out is not state and np.array_equal(out.psi, state.psi)
    for bad_method, log_every in ((method, 0), ("leapfrog", 1)):
        with pytest.raises(ValueError):
            next(trajectory(op, state, bad_method, EvolveParams(0.01, 10), log_every))


def test_evolve_params_step_guard():
    assert EvolveParams(0.1, MAX_STEPS).steps == MAX_STEPS
    with pytest.raises(DimensionTooLarge, match="step guard"):
        EvolveParams(0.1, MAX_STEPS + 1)


@pytest.mark.parametrize("cn_tol", [0.0, -1e-10])
def test_evolve_params_reject_non_positive_cn_tol(cn_tol):
    """A Lanczos run cannot meet a zero tolerance, and a negative one is meaningless."""
    with pytest.raises(ValueError, match="cn_tol"):
        EvolveParams(0.1, 1, cn_tol=cn_tol)


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
    """The Lanczos answer meets cn_tol on the true residual of the Cayley system."""
    cfg = LatticeConfig(n, 1.0, 16 if n == 2 else 8, 6.0)
    op = compile_hamiltonian(legendre_transform(parse_lagrangian(text)), cfg, slopes)
    assert not np.isrealobj(op.dense_matrix())
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    psi /= np.linalg.norm(psi)
    out = crank_nicolson_step(op, psi, 0.05, tol)
    assert cn_true_residual(op, psi, out, 0.05) <= tol


@pytest.mark.parametrize("text,n,slopes", [
    ("0.5*zt^2 + 0.3*zt - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", 2, None),
    ("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", 3, [0.1, -0.2, 0.05]),
], ids=["linear-zt", "sloped-cross"])
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_crank_nicolson_chunk_steps_meet_tol_on_true_residual(text, n, slopes, tol, rng,
                                                             monkeypatch):
    """Every step of one 8-step Lanczos run meets cn_tol on the dense true residual.

    The run's states phi_j = |psi| V y_j are rebuilt from the vectors H acted on
    and the run's T, with y_j from dense Cayley solves; phi_8 is the output.
    """
    cfg = LatticeConfig(n, 1.0, 16 if n == 2 else 8, 6.0)
    op = compile_hamiltonian(legendre_transform(parse_lagrangian(text)), cfg, slopes)
    mat = op.dense_matrix()
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    psi /= np.linalg.norm(psi)
    dt, steps = 0.05, 8
    alpha = 0.5 * dt / cfg.hbar
    runs = []  # the (a, b) lists each Lanczos step appends to
    lanczos_vector = evolve._lanczos_vector
    monkeypatch.setattr(evolve, "_lanczos_vector", lambda hv, v, v_prev, i, a, b: runs.append(
        (a, b)) or lanczos_vector(hv, v, v_prev, i, a, b))
    inputs = counting_apply(op)
    out = evolve_crank_nicolson(op, WaveFunctional(cfg, psi), EvolveParams(dt, steps, tol))
    a, b = runs[-1]
    assert all(run[0] is a for run in runs)  # one run
    k = len(a)
    basis = np.array([v.ravel() for v in inputs[:k]]).T  # the first pass's v_0 .. v_(k-1)
    tri = np.diag(a) + np.diag(b[:-1], 1) + np.diag(b[:-1], -1)
    eye = np.eye(k)
    y = [eye[0]]
    for _ in range(steps):
        y.append(np.linalg.solve(eye + 1j * alpha * tri, (eye - 1j * alpha * tri) @ y[-1]))
    phi = [basis @ yj for yj in y]
    for prev, nxt in zip(phi, phi[1:]):
        lhs = nxt + 1j * alpha * (mat @ nxt)
        rhs = prev - 1j * alpha * (mat @ prev)
        assert np.linalg.norm(lhs - rhs) <= tol
    assert np.max(np.abs(out.psi.ravel() - phi[-1])) < 1e-12


def test_crank_nicolson_small_and_large_store_agree_bit_for_bit(monkeypatch):
    """Remade Lanczos vectors equal the held ones bit for bit, so a store of 2 vectors and
    one of every vector give identical states; the small store takes more products."""
    cfg, op, state = free_setup(q=16)
    inputs = counting_apply(op)
    products, outs = [], []
    for store in (2, evolve.LANCZOS_MAXITER):
        monkeypatch.setattr(evolve, "LANCZOS_STORE", store)
        inputs.clear()
        outs.append(evolve_crank_nicolson(op, state, EvolveParams(0.02, 12)).psi)
        products.append(len(inputs))
    assert np.array_equal(outs[0], outs[1])
    assert products[0] > products[1]


@pytest.mark.filterwarnings("error")
def test_crank_nicolson_happy_breakdown_is_exact():
    """An eigenvector spans an invariant subspace: b_0 = 0 after one product, so the
    Lanczos run gives the exact Cayley factor, checked on one more product."""
    cfg = LatticeConfig(2, 1.0, 16, 6.0)
    op = compile_hamiltonian(diagonal_density(0.5, (0.0, 0.3, 0.5, 0.0, 0.1)), cfg)
    assert np.array_equal(op.dense_matrix(), np.diag(op.diag.ravel()))
    inputs = counting_apply(op)
    psi = np.zeros(cfg.shape, dtype=complex)
    psi[3, 5] = 1.0  # an eigenvector
    dt = 0.1
    alpha = 0.5 * dt / cfg.hbar
    out = crank_nicolson_step(op, psi, dt, 1e-14)
    lam = op.diag[3, 5]
    expected = np.zeros_like(psi)
    expected[3, 5] = (1 - 1j * alpha * lam) / (1 + 1j * alpha * lam)
    assert np.max(np.abs(out - expected)) < 1e-15
    assert len(inputs) == 2  # one Lanczos product, the true residual


def test_crank_nicolson_lanczos_cap_counts_products(monkeypatch):
    """LANCZOS_MAXITER = 20 allows 20 products on H; one step at cn_tol 1e-14 needs 25."""
    cfg, op, state = free_setup(q=16)
    monkeypatch.setattr(evolve, "LANCZOS_MAXITER", 20)
    inputs = counting_apply(op)
    with pytest.raises(SolverDivergence, match="no crank-nicolson step met 1e-14 in 20 products"):
        crank_nicolson_step(op, state.psi, 0.1, 1e-14)
    assert len(inputs) == 20


def test_crank_nicolson_tolerance_below_roundoff_fails_on_the_true_residual():
    """At cn_tol 1e-17 the run's scalar certificate passes, but the real product that ends
    the run sees the roundoff floor, so the step fails instead of returning."""
    cfg, op, state = free_setup(q=16)
    with pytest.raises(SolverDivergence, match="crank-nicolson residual .* above"):
        crank_nicolson_step(op, state.psi, 0.1, 1e-17)


def test_crank_nicolson_non_finite_state_fails_at_once():
    cfg, op, state = free_setup(q=16)
    psi = state.psi.copy()
    psi[0, 0] = np.nan
    with pytest.raises(SolverDivergence, match="nan"):
        crank_nicolson_step(op, psi, 0.1, 1e-10)


def test_crank_nicolson_overflowing_right_hand_side_fails():
    """At dt 1e200 the right-hand side's norm, and so the tolerance, overflow to inf; the step
    fails instead of accepting the zero change."""
    cfg, op = oscillator_setup(q=16, lq=8.0)
    state = init_wavefunctional(GaussianStateSpec((0.0,), widths=(1.0,)), cfg)
    with np.errstate(over="ignore"), pytest.raises(SolverDivergence, match="inf"):
        crank_nicolson_step(op, state.psi, 1e200, 1e-10)


def test_strang_is_the_transfer_product_between_half_phases(quartic_lagr, rng):
    """n Strang steps are h (K P)^n h^-1: n fresnel_exact transfer steps, each the compiled
    operator's Lie-Trotter step, between the half phase h and its inverse conj(h)."""
    cfg = LatticeConfig(2, 0.8, 16, 6.0, hbar=0.7)
    op = compile_hamiltonian(legendre_transform(quartic_lagr), cfg)
    dt, steps = 0.05, 7
    half = np.exp(-0.5j * dt * op.diag / cfg.hbar)
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    transfer = TransferOperator(PathIntegralSpec(steps - 1, dt), quartic_lagr, cfg)
    product = half * transfer.evolve(WaveFunctional(cfg, half.conj() * psi)).psi
    strang = evolve_strang(op, WaveFunctional(cfg, psi), EvolveParams(dt, steps))
    assert np.max(np.abs(strang.psi - product)) < 1e-13


GAUSSIAN_CASES = {
    # text, n_sites, q_points, q_extent, centers, covariance, site slopes, tolerance
    "oscillator": ("0.5*zt^2 - 0.5*z^2", 1, 128, 16.0, [1.0], [[0.6]], None, 1e-8),
    # the grid floor at Q=32: measured 4.0e-6
    "sloped-linear": ("0.5*zt^2 + 0.3*zt - 0.5*zx^2 - 0.5*z^2 - 0.2*z", 2, 32, 10.0,
                      [0.5, -0.3], [[0.9, 0.3], [0.3, 0.7]], [0.3, -0.2], 1e-5),
}


@pytest.mark.parametrize("case", GAUSSIAN_CASES, ids=list(GAUSSIAN_CASES))
def test_gaussian_reference_matches_exact_propagator(case):
    text, n, q, extent, centers, cov, slopes, tol = GAUSSIAN_CASES[case]
    density = legendre_transform(parse_lagrangian(text))
    cfg = LatticeConfig(n, 1.0, q, extent)
    spec = GaussianStateSpec(tuple(centers), covariance=tuple(map(tuple, cov)))
    state = init_wavefunctional(spec, cfg)
    exact = ExactPropagator(compile_hamiltonian(density, cfg, slopes)).propagate(state, 0.7)
    reference = gaussian_reference(density, cfg, centers, cov, 0.7, slopes)
    assert norm(WaveFunctional(cfg, reference.psi - exact.psi)) < tol


def test_strang_ladder_past_the_dense_guard_is_second_order():
    """N=3, Q=64 has no dense ground truth; the Gaussian reference is exact there."""
    density = legendre_transform(parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2"))
    cfg = LatticeConfig(3, 1.0, 64, 16.0)
    assert cfg.dim > DENSE_GUARD
    centers, cov = [0.8, -0.4, 0.2], [[1.0, 0.3, 0.1], [0.3, 0.8, -0.2], [0.1, -0.2, 1.2]]
    spec = GaussianStateSpec(tuple(centers), covariance=tuple(map(tuple, cov)))
    state = init_wavefunctional(spec, cfg)
    reference = gaussian_reference(density, cfg, centers, cov, 0.8)
    op = compile_hamiltonian(density, cfg)
    dt_values, errors = [0.1, 0.05, 0.025], []
    for dt in dt_values:
        out = evolve_strang(op, state, EvolveParams(dt, int(round(0.8 / dt))))
        errors.append(norm(WaveFunctional(cfg, out.psi - reference.psi)))
    assert abs(refinement_verdict(dt_values, errors)[2] - 2.0) <= 0.05


@pytest.mark.parametrize("dt,steps,message", [
    (0.0, 1, "dt must be positive"),
    (-1e-3, 1, "dt must be positive"),
    (1e-3, -1, "steps must be nonnegative"),
], ids=["zero-dt", "negative-dt", "negative-steps"])
def test_evolve_params_refusals(dt, steps, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EvolveParams(dt, steps)
