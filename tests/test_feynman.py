"""History sums, transfer operators, and the factorization identity."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from fieldlab.errors import EnumerationTooLarge, ShapeMismatch
from fieldlab.feynman import (
    KERNELS,
    PathIntegralSpec,
    TransferOperator,
    brute_force_amplitudes,
    check_enumerable,
    discrete_action,
    feynman_vs_schrodinger,
    ladder_specs,
)
from fieldlab.lagrangian import legendre_transform, parse_lagrangian
from fieldlab.lattice import (
    GaussianStateSpec,
    LatticeConfig,
    WaveFunctional,
    free_ground_state_covariance,
    init_wavefunctional,
)
from fieldlab.operators import compile_hamiltonian

from conftest import kinetic_phase


def slow_action_oracle(history, dt, a, lagr):
    """Deliberately naive double-loop re-evaluation of the discrete action."""
    slices, n = history.shape
    total = 0.0
    for t in range(slices - 1):
        for j in range(n):
            zdot = (history[t + 1, j] - history[t, j]) / dt
            zx = (history[t, (j + 1) % n] - history[t, j]) / a
            z = history[t, j]
            f = (lagr.kinetic_coeff * zdot ** 2 + lagr.kinetic_linear * zdot
                 + lagr.gradient_coeff * zx ** 2
                 - sum(c * z ** k for k, c in enumerate(lagr.potential)))
            total += dt * a * f
    return total


def reference_history_sum(state, pspec, lagr):
    """The history sum one history at a time in Python: the reference for the block sum."""
    cfg = state.cfg
    check_enumerable(pspec, cfg)
    n, q = cfg.n_sites, cfg.q_points
    zg = cfg.z_values()
    n_free = pspec.t_steps + 1
    out = np.zeros(cfg.shape, dtype=np.complex128)
    riemann = pspec.kernel == "lagrangian_riemann"
    if riemann:
        c2 = lagr.kinetic_coeff
        nu_dz = cfg.dz * np.sqrt(c2 * cfg.spacing / (np.pi * cfg.hbar * pspec.dt)) \
            * np.exp(-0.25j * np.pi)
        measure = nu_dz ** (n * n_free)
    else:
        transfer = TransferOperator(pspec, lagr, cfg)
        kin, diag_phase = transfer.kinetic, transfer.diag_phase

    site_range = range(q)
    for final_idx in itertools.product(site_range, repeat=n):
        total = 0.0 + 0.0j
        for flat_hist in itertools.product(site_range, repeat=n * n_free):
            idx = np.asarray(flat_hist, dtype=int).reshape(n_free, n)
            first = tuple(idx[0])
            if riemann:
                history = np.vstack([zg[idx], zg[np.asarray(final_idx)][None, :]])
                s_val = discrete_action(history, pspec, lagr, cfg)
                total += measure * np.exp(1j * s_val / cfg.hbar) * state.psi[first]
            else:
                factor = state.psi[first]
                for t in range(n_free):
                    factor *= diag_phase[tuple(idx[t])]
                    nxt = idx[t + 1] if t + 1 < n_free else np.asarray(final_idx)
                    for j in range(n):
                        factor *= kin[nxt[j], idx[t, j]]
                total += factor
        out[final_idx] = total
    return out


def test_action_zero_history(free_lagr):
    cfg = LatticeConfig(2, 1.0, 4, 4.0)
    pspec = PathIntegralSpec(1, 0.3)
    history = np.zeros((3, 2))
    assert discrete_action(history, pspec, free_lagr, cfg) == 0.0


def test_action_single_kinetic_step():
    lagr = parse_lagrangian("0.5*zt^2")
    cfg = LatticeConfig(1, 1.0, 4, 4.0)
    pspec = PathIntegralSpec(0, 1.0)
    history = np.array([[0.0], [1.0]])
    assert discrete_action(history, pspec, lagr, cfg) == pytest.approx(0.5)


def test_action_matches_slow_oracle(quartic_lagr, rng):
    cfg = LatticeConfig(3, 0.8, 4, 4.0)
    pspec = PathIntegralSpec(3, 0.17)
    history = rng.uniform(-1.5, 1.5, size=(5, 3))
    fast = discrete_action(history, pspec, quartic_lagr, cfg)
    slow = slow_action_oracle(history, 0.17, 0.8, quartic_lagr)
    assert abs(fast - slow) < 1e-12


def test_action_shape_guard(free_lagr):
    cfg = LatticeConfig(2, 1.0, 4, 4.0)
    with pytest.raises(ShapeMismatch):
        discrete_action(np.zeros((2, 2)), PathIntegralSpec(1, 0.1), free_lagr, cfg)
    for shape in [(3, 4, 2, 2), (3, 4, 3, 3), (3,), ()]:
        with pytest.raises(ShapeMismatch):
            discrete_action(np.zeros(shape), PathIntegralSpec(1, 0.1), free_lagr, cfg)


@pytest.mark.parametrize("n_sites", [1, 2])
def test_batched_action_equals_each_history(quartic_lagr, rng, n_sites):
    """Leading axes index histories; each entry is the single-history action bit for bit."""
    cfg = LatticeConfig(n_sites, 0.8, 8, 4.0)
    pspec = PathIntegralSpec(2, 0.17)
    grid = cfg.z_values()
    histories = grid[rng.integers(0, cfg.q_points, size=(3, 4, pspec.t_steps + 2, n_sites))]
    batched = discrete_action(histories, pspec, quartic_lagr, cfg)
    assert batched.shape == (3, 4)
    singles = [[discrete_action(h, pspec, quartic_lagr, cfg) for h in row] for row in histories]
    assert np.array_equal(batched, np.array(singles))


@pytest.mark.parametrize("kernel", ["fresnel_exact", "lagrangian_riemann"])
def test_single_step_transfer_identity(free_lagr, kernel):
    cfg = LatticeConfig(1, 1.0, 8, 6.0)
    state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
    pspec = PathIntegralSpec(0, 0.3, kernel)
    brute = brute_force_amplitudes(state, pspec, free_lagr)
    transfer = TransferOperator(pspec, free_lagr, cfg).evolve(state)
    assert np.max(np.abs(brute - transfer.psi)) < 1e-12


@pytest.mark.parametrize("kernel", ["fresnel_exact", "lagrangian_riemann"])
def test_factorization_identity_n1(free_lagr, kernel):
    cfg = LatticeConfig(1, 1.0, 8, 6.0)
    state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
    pspec = PathIntegralSpec(2, 0.25, kernel)
    brute = brute_force_amplitudes(state, pspec, free_lagr)
    transfer = TransferOperator(pspec, free_lagr, cfg).evolve(state)
    assert np.max(np.abs(brute - transfer.psi)) < 1e-12


def test_factorization_identity_n2(quartic_lagr):
    cfg = LatticeConfig(2, 1.0, 4, 5.0)
    state = init_wavefunctional(
        GaussianStateSpec((0.2, -0.1), widths=(1.6, 1.5)), cfg)
    pspec = PathIntegralSpec(1, 0.2, "lagrangian_riemann")
    brute = brute_force_amplitudes(state, pspec, quartic_lagr)
    transfer = TransferOperator(pspec, quartic_lagr, cfg).evolve(state)
    assert np.max(np.abs(brute - transfer.psi)) < 1e-12


@pytest.mark.parametrize("kernel", ["fresnel_exact", "lagrangian_riemann"])
def test_factorization_identity_with_drift(kernel):
    """Linear zt term: both kernels must carry the drift phase identically."""
    lagr = parse_lagrangian("0.5*zt^2 + 0.2*zt - 0.5*zx^2 - 0.5*z^2")
    cfg = LatticeConfig(1, 1.0, 8, 6.0)
    state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
    pspec = PathIntegralSpec(1, 0.3, kernel)
    brute = brute_force_amplitudes(state, pspec, lagr)
    transfer = TransferOperator(pspec, lagr, cfg).evolve(state)
    assert np.max(np.abs(brute - transfer.psi)) < 1e-12


def test_delta_initial_reads_kernel_entry():
    lagr = parse_lagrangian("0.5*zt^2")  # no diagonal part at one site
    cfg = LatticeConfig(1, 1.0, 8, 6.0)
    psi = np.zeros(cfg.shape, dtype=complex)
    psi[2] = 1.0
    state = WaveFunctional(cfg, psi)
    pspec = PathIntegralSpec(0, 0.3, "lagrangian_riemann")
    brute = brute_force_amplitudes(state, pspec, lagr)
    kernel = TransferOperator(pspec, lagr, cfg).kinetic
    assert np.max(np.abs(brute - kernel[:, 2])) < 1e-14


def test_enumeration_guard(free_lagr):
    cfg = LatticeConfig(2, 1.0, 64, 10.0)
    state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
    with pytest.raises(EnumerationTooLarge):
        brute_force_amplitudes(state, PathIntegralSpec(2, 0.1), free_lagr)


def test_linearity_in_initial_functional(free_lagr, rng):
    cfg = LatticeConfig(1, 1.0, 8, 6.0)
    psi1 = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    psi2 = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    alpha, beta = 0.6 - 0.3j, -0.8 + 0.1j
    pspec = PathIntegralSpec(1, 0.2)
    mix = brute_force_amplitudes(
        WaveFunctional(cfg, alpha * psi1 + beta * psi2), pspec, free_lagr)
    separate = (alpha * brute_force_amplitudes(WaveFunctional(cfg, psi1), pspec, free_lagr)
                + beta * brute_force_amplitudes(WaveFunctional(cfg, psi2), pspec, free_lagr))
    assert np.max(np.abs(mix - separate)) < 1e-12


def test_fresnel_step_is_one_trotter_step(free_lagr, rng):
    """fresnel_exact transfer = exp(-i dt T/h) exp(-i dt D/h) of the compiled split."""
    cfg = LatticeConfig(2, 1.0, 16, 8.0)
    op = compile_hamiltonian(legendre_transform(free_lagr), cfg)
    dt, h = 0.17, cfg.hbar
    kin_phase = kinetic_phase(op, dt)
    diag_phase = np.exp(-1j * dt * op.diag / h)
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    manual = np.fft.ifftn(kin_phase * np.fft.fftn(diag_phase * psi))
    pspec = PathIntegralSpec(0, dt, "fresnel_exact")
    transfer = TransferOperator(pspec, free_lagr, cfg).step(psi)
    assert np.max(np.abs(manual - transfer)) < 1e-12


def test_fresnel_step_with_linear_kinetic_is_one_trotter_step(rng):
    """The same split with a linear zt term, a != 1 and h != 1: the kernel carries the
    constant c1^2/(4 c2) of H that the compiled operator keeps in its multiplier."""
    lagr = parse_lagrangian("0.5*zt^2 + 0.3*zt - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")
    cfg = LatticeConfig(2, 0.5, 16, 8.0, hbar=0.7)
    op = compile_hamiltonian(legendre_transform(lagr), cfg)
    dt, h = 0.13, cfg.hbar
    kin_phase = kinetic_phase(op, dt)
    diag_phase = np.exp(-1j * dt * op.diag / h)
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    manual = np.fft.ifftn(kin_phase * np.fft.fftn(diag_phase * psi))
    transfer = TransferOperator(PathIntegralSpec(0, dt, "fresnel_exact"), lagr, cfg).step(psi)
    assert np.max(np.abs(manual - transfer)) < 1e-12


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("n, q", [(1, 16), (2, 16), (3, 8)])
def test_transfer_step_matches_tensordot_oracle(kernel, n, q, rng):
    """The step applies the kinetic kernel along each site axis bit for bit as a
    tensordot over that axis, moved back into place, would."""
    lagr = parse_lagrangian("0.5*zt^2 + 0.3*zt - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")
    cfg = LatticeConfig(n, 0.5, q, 6.0, hbar=0.7)
    transfer = TransferOperator(PathIntegralSpec(0, 0.13, kernel), lagr, cfg)
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    oracle = transfer.diag_phase * psi
    for j in range(n):
        oracle = np.moveaxis(np.tensordot(transfer.kinetic, oracle, axes=([1], [j])), 0, j)
    assert np.array_equal(transfer.step(psi), oracle)


def test_kernel_consistency_under_grid_refinement(free_lagr):
    """Riemann step approaches the grid kinetic step as Q, Lq grow.

    Convergence holds on resolved states (the full operator norm is dominated
    by unresolvable high-wavenumber columns), so the distance is measured on
    the ground-state Gaussian of each grid.
    """
    pspec = PathIntegralSpec(0, 0.3, "lagrangian_riemann")
    fres = PathIntegralSpec(0, 0.3, "fresnel_exact")
    distances = []
    # Q must outpace Lq^2 so the oscillatory kernel phase stays resolved
    for q, lq in ((32, 8.0), (64, 10.0), (128, 12.0)):
        cfg = LatticeConfig(1, 1.0, q, lq)
        psi = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg).psi
        k_r = TransferOperator(pspec, free_lagr, cfg).kinetic
        k_f = TransferOperator(fres, free_lagr, cfg).kinetic
        distances.append(np.sqrt(cfg.dz) * np.linalg.norm((k_r - k_f) @ psi))
    assert distances[1] < distances[0]
    assert distances[2] < distances[1]


def test_h_scaling_invariance(free_lagr):
    """h -> s*h with z -> sqrt(s) z leaves free-field amplitudes invariant."""
    scale = 0.5
    pspec = PathIntegralSpec(2, 0.2, "fresnel_exact")
    cfg1 = LatticeConfig(1, 1.0, 16, 8.0, hbar=1.0)
    state1 = init_wavefunctional(free_ground_state_covariance(cfg1, 1.0), cfg1)
    amp1 = TransferOperator(pspec, free_lagr, cfg1).evolve(state1).psi

    cfg2 = LatticeConfig(1, 1.0, 16, 8.0 * np.sqrt(scale), hbar=scale)
    psi2 = state1.psi / scale ** 0.25
    amp2 = TransferOperator(pspec, free_lagr, cfg2).evolve(
        WaveFunctional(cfg2, psi2)).psi
    assert np.max(np.abs(amp2 * scale ** 0.25 - amp1)) < 1e-12


def test_pure_kinetic_matches_exact_evolution():
    lagr = parse_lagrangian("0.5*zt^2")
    cfg = LatticeConfig(1, 1.0, 64, 12.0)
    state = init_wavefunctional(GaussianStateSpec((0.0,), widths=(1.0,)), cfg)
    pspec = PathIntegralSpec(0, 0.05, "fresnel_exact")
    report, _ = feynman_vs_schrodinger(state, ladder_specs(pspec, 2, cfg), lagr)
    assert max(report["distances"]) < 1e-8


def test_quartic_first_order_ladder(quartic_lagr):
    cfg = LatticeConfig(1, 1.0, 32, 10.0)
    state = init_wavefunctional(GaussianStateSpec((0.3,), widths=(1.0,)), cfg)
    pspec = PathIntegralSpec(3, 0.05, "fresnel_exact")
    report, _ = feynman_vs_schrodinger(state, ladder_specs(pspec, 3, cfg), quartic_lagr)
    d = report["distances"]
    assert d[0] / d[1] >= 1.8
    assert d[1] / d[2] >= 1.8
    assert report["fitted_order"] >= 1.0


def test_zero_time_distance_zero(free_lagr):
    cfg = LatticeConfig(1, 1.0, 16, 8.0)
    state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
    pspec = PathIntegralSpec(0, 0.0, "fresnel_exact")
    report, _ = feynman_vs_schrodinger(state, ladder_specs(pspec, 2, cfg), free_lagr)
    assert report["distances"] == [0.0, 0.0]
    brute = brute_force_amplitudes(state, pspec, free_lagr)
    assert np.max(np.abs(brute - state.psi)) < 1e-12


def test_riemann_requires_positive_dt():
    """The spec refuses dt = 0 for the Riemann kernel, so no consumer divides by it."""
    with pytest.raises(ValueError, match="needs dt > 0"):
        PathIntegralSpec(0, 0.0, "lagrangian_riemann")
    PathIntegralSpec(0, 0.0, "fresnel_exact")


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("n_sites,q,t_steps", [
    (1, 8, 0), (1, 8, 1), (1, 4, 2), (2, 4, 0), (2, 4, 1), (3, 4, 0),
])
def test_block_history_sum_matches_reference(kernel, n_sites, q, t_steps, rng):
    """The block sum equals the per-history loop, with a drift term and a complex state."""
    lagr = parse_lagrangian("0.5*zt^2 + 0.2*zt - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")
    cfg = LatticeConfig(n_sites, 0.9, q, 5.0)
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    state = WaveFunctional(cfg, psi)
    pspec = PathIntegralSpec(t_steps, 0.2, kernel)
    reference = reference_history_sum(state, pspec, lagr)
    block = brute_force_amplitudes(state, pspec, lagr)
    assert np.max(np.abs(block - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("kernel,t_steps", [("fresnel_exact", 2), ("lagrangian_riemann", 1)])
def test_history_sum_memory_is_bounded_by_its_block(quartic_lagr, kernel, t_steps):
    """64**(t_steps + 1) histories for each of 64 finals: peak allocation stays under 32 MB.

    The Riemann case runs 64**2 histories, which builds the same blocks as 64**3 in a
    sixteenth of the time.
    """
    cfg = LatticeConfig(1, 1.0, 64, 12.0)
    state = init_wavefunctional(GaussianStateSpec((0.3,), widths=(1.0,)), cfg)
    pspec = PathIntegralSpec(t_steps, 0.05, kernel)
    tracemalloc.start()
    try:
        brute_force_amplitudes(state, pspec, quartic_lagr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


@pytest.mark.parametrize("call,message", [
    (lambda: PathIntegralSpec(-1, 0.1), "t_steps must be nonnegative"),
    (lambda: PathIntegralSpec(0, -0.1), "dt must be nonnegative"),
    (lambda: PathIntegralSpec(0, 0.1, "fresnel"), f"kernel must be one of {KERNELS}"),
    (lambda: ladder_specs(PathIntegralSpec(1, 5e-324, "lagrangian_riemann"), 2,
                          LatticeConfig(1, 1.0, 8, 6.0)),
     "ladder level 1 (dt = 5e-324 / 2**1 = 0.0): the lagrangian_riemann kernel needs dt > 0"),
], ids=["negative-t_steps", "negative-dt", "unknown-kernel", "ladder-step-underflow"])
def test_path_integral_spec_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("t_steps,dt", [(2, 0.1), (0, 0.3), (4, 0.07), (1, 5e-3)])
def test_ladder_level_zero_is_the_configured_spec(kernel, t_steps, dt):
    """Level 0 is the spec itself, and every level spans its total time exactly."""
    pspec = PathIntegralSpec(t_steps, dt, kernel)
    specs = ladder_specs(pspec, 4, LatticeConfig(1, 1.0, 8, 6.0))
    assert specs[0] == pspec
    assert [spec.dt for spec in specs] == [dt, dt / 2, dt / 4, dt / 8]
    assert [spec.t_steps + 1 for spec in specs] == [(t_steps + 1) * 2 ** k for k in range(4)]
    assert all(spec.total_time == pspec.total_time for spec in specs)
