"""Grid, state storage, Gaussian initial data, serialization, and refinement verdicts."""

import re
import warnings

import numpy as np
import pytest

from fieldlab.errors import (
    ConfigMismatch,
    GridUnresolved,
    MasslessZeroMode,
    NonFiniteResult,
    NonPositiveCovariance,
    NotSpacelike,
)
from fieldlab.lagrangian import legendre_transform
from fieldlab.lattice import (
    ROUNDOFF_FLOOR,
    GaussianStateSpec,
    LatticeConfig,
    WaveFunctional,
    free_ground_state_covariance,
    init_wavefunctional,
    inner,
    link_difference,
    load_state,
    norm,
    normalize,
    refinement_verdict,
    save_state,
    site_moments,
    spacelike,
    state_to_csv,
)
from fieldlab.operators import DENSE_GUARD, compile_hamiltonian

from conftest import mode_frequencies


def site_covariance(state):
    """<z_j z_k> - <z_j><z_k> matrix over sites."""
    first, second_diag = site_moments(state)
    prob = np.abs(state.psi) ** 2
    total = prob.sum()
    zg = state.cfg.z_values()
    n = state.cfg.n_sites
    second = np.diag(second_diag)
    for j in range(n):
        for k in range(j + 1, n):
            axes = tuple(m for m in range(n) if m not in (j, k))
            marg = prob.sum(axis=axes) if axes else prob
            second[j, k] = second[k, j] = (marg * np.outer(zg, zg)).sum() / total
    return second - np.outer(first, first)


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(0, 1.0, 8, 6.0)
    with pytest.raises(ValueError):
        LatticeConfig(1, 1.0, 12, 6.0)  # not a power of two
    with pytest.raises(ValueError):
        LatticeConfig(1, 1.0, 256, 6.0)
    with pytest.raises(ValueError):
        LatticeConfig(5, 1.0, 128, 6.0)  # 128^5 over the memory guard
    with pytest.raises(ValueError):
        LatticeConfig(1, -1.0, 8, 6.0)
    with pytest.raises(ValueError):
        LatticeConfig(1, 1.0, 8, 6.0, derivative="upwind")
    with pytest.raises(ValueError):
        LatticeConfig(10 ** 18, 1.0, 8, 6.0)  # rejected without computing Q^N
    with pytest.raises(ValueError):
        LatticeConfig(1, 1.0, 8, float("inf"))
    with pytest.raises(ValueError):
        LatticeConfig(1, float("nan"), 8, 6.0)


def test_constant_functional_norm():
    cfg = LatticeConfig(3, 1.0, 8, 5.0)
    psi = np.full(cfg.shape, 1.0 / np.sqrt(cfg.q_extent ** 3), dtype=complex)
    assert abs(norm(WaveFunctional(cfg, psi)) - 1.0) < 1e-12


def test_index_round_trip():
    cfg = LatticeConfig(3, 1.0, 4, 5.0)
    for flat in range(cfg.dim):
        idx = np.unravel_index(flat, cfg.shape)
        assert np.ravel_multi_index(idx, cfg.shape) == flat
    # row-major convention: last site is the fastest axis
    psi = np.zeros(cfg.shape, dtype=complex)
    psi[1, 2, 3] = 1.0
    assert psi.ravel()[1 * 16 + 2 * 4 + 3] == 1.0


def test_gaussian_norm_and_errors():
    cfg = LatticeConfig(1, 1.0, 64, 10.0)
    state = init_wavefunctional(GaussianStateSpec((0.0,), widths=(1.0,)), cfg)
    assert abs(norm(state) - 1.0) < 1e-12
    with pytest.raises(NonPositiveCovariance):
        init_wavefunctional(GaussianStateSpec((0.0,), widths=(0.0,)), cfg)
    with pytest.raises(GridUnresolved):
        init_wavefunctional(GaussianStateSpec((0.0,), widths=(0.1,)), cfg)
    with pytest.warns(UserWarning, match="barely resolves"):
        init_wavefunctional(GaussianStateSpec((0.0,), widths=(0.2,)), cfg)
    with pytest.warns(UserWarning, match="wrap-around"):
        init_wavefunctional(GaussianStateSpec((0.0,), widths=(3.0,)), cfg)
    with pytest.raises(ValueError):
        GaussianStateSpec((0.0,))
    with pytest.raises(ValueError):
        GaussianStateSpec((0.0,), widths=(1.0,), covariance=((1.0,),))


def test_gaussian_phase():
    cfg = LatticeConfig(1, 1.0, 32, 8.0)
    flat = init_wavefunctional(GaussianStateSpec((0.0,), widths=(1.0,)), cfg)
    turned = init_wavefunctional(GaussianStateSpec((0.0,), widths=(1.0,), phase=0.7), cfg)
    assert np.allclose(turned.psi, flat.psi * np.exp(0.7j), atol=1e-14)


def test_gaussian_moments():
    cfg = LatticeConfig(2, 1.0, 64, 12.0)
    cov = ((0.8, 0.3), (0.3, 0.9))
    spec = GaussianStateSpec((0.4, -0.2), covariance=cov)
    state = init_wavefunctional(spec, cfg)
    z_mean, _ = site_moments(state)
    assert np.allclose(z_mean, [0.4, -0.2], atol=1e-6)
    # probability covariance of exp(-1/2 d^T C^-1 d) amplitudes is C/2
    measured = site_covariance(state)
    assert np.allclose(measured, np.asarray(cov) / 2.0, rtol=1e-4, atol=1e-6)


def test_ground_state_single_site():
    cfg = LatticeConfig(1, 1.0, 64, 12.0)
    spec = free_ground_state_covariance(cfg, 1.0)
    # sigma^2 = h / omega with omega = mass = 1
    assert np.asarray(spec.covariance)[0, 0] == pytest.approx(cfg.hbar, abs=1e-12)


def test_ground_state_two_sites_dispersion(free_lagr):
    cfg = LatticeConfig(2, 1.0, 32, 10.0)
    freqs = mode_frequencies(cfg, 1.0)
    assert np.allclose(sorted(freqs), [1.0, np.sqrt(5.0)], atol=1e-12)
    # cross-check against gaps of the dense spectrum (single-quantum levels
    # sit among the lowest excitations)
    dense = compile_hamiltonian(legendre_transform(free_lagr), cfg).dense_matrix()
    eigvals = np.linalg.eigvalsh(dense)
    gaps = eigvals[1:6] - eigvals[0]
    assert min(abs(gaps - 1.0)) < 1e-6
    assert min(abs(gaps - np.sqrt(5.0))) < 1e-6


def test_ground_state_energy_matches_dense(free_lagr):
    cfg = LatticeConfig(2, 1.0, 32, 10.0)
    state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
    op = compile_hamiltonian(legendre_transform(free_lagr), cfg)
    e_min = np.linalg.eigvalsh(op.dense_matrix())[0]
    assert abs(op.expectation(state) - e_min) / abs(e_min) < 1e-6


@pytest.mark.parametrize("n_sites,spacing,q_points,q_extent,hbar", [
    (3, 1.0, 64, 16.0, 1.0),
    (4, 1.0, 32, 12.0, 1.0),
    (3, 0.8, 64, 16.0, 0.7),
])
def test_vacuum_energy_is_the_zero_point_sum_past_the_dense_guard(free_lagr, n_sites, spacing,
                                                                  q_points, q_extent, hbar):
    """Without normal ordering the free ground state's energy is (hbar/2) sum_k omega_k.

    The operator's mean is taken matrix-free, on lattices too large for its dense matrix.
    """
    cfg = LatticeConfig(n_sites, spacing, q_points, q_extent, hbar)
    assert cfg.dim > DENSE_GUARD
    state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
    energy = compile_hamiltonian(legendre_transform(free_lagr), cfg).expectation(state)
    zero_point = 0.5 * hbar * mode_frequencies(cfg, 1.0).sum()
    assert abs(energy - zero_point) <= 1e-12 * zero_point


def test_massless_zero_mode():
    cfg = LatticeConfig(2, 1.0, 16, 8.0)
    with pytest.raises(MasslessZeroMode):
        free_ground_state_covariance(cfg, 0.0)


@pytest.mark.parametrize("n_sites,spacing,mass,needle", [
    (1, 1.0, 1e-300, "omega = 0"),     # mass^2 underflows
    (3, 1.0, 1e-155, "omega = 0"),     # mass^2 below the roundoff of the link coupling
    (1, 1e-160, 1e-160, "overflows"),  # omega is positive, (hbar/a)/omega is not finite
])
def test_ground_state_refuses_an_undamped_or_infinite_mode(n_sites, spacing, mass, needle):
    with pytest.raises(MasslessZeroMode, match=needle):
        free_ground_state_covariance(LatticeConfig(n_sites, spacing, 16, 8.0), mass)


@pytest.mark.parametrize("spacing,mass,needle", [
    (1.0, 1e200, "mass^2 = (1e+200)^2"),
    (1e200, 1.0, "lattice.spacing^2 = (1e+200)^2"),
])
def test_ground_state_refuses_an_overflowing_square(spacing, mass, needle):
    with pytest.raises(NonFiniteResult, match=re.escape(needle)):
        free_ground_state_covariance(LatticeConfig(2, spacing, 16, 8.0), mass)


def test_inner_product_properties(rng):
    cfg = LatticeConfig(2, 1.0, 8, 6.0)
    a = WaveFunctional(cfg, rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape))
    b = WaveFunctional(cfg, rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape))
    assert inner(a, a).real >= 0.0
    assert abs(inner(a, a).imag) < 1e-14
    assert abs(inner(a, b) - np.conj(inner(b, a))) < 1e-14
    basis1 = np.zeros(cfg.shape, dtype=complex)
    basis2 = np.zeros(cfg.shape, dtype=complex)
    basis1[0, 1] = 1.0
    basis2[3, 2] = 1.0
    assert inner(WaveFunctional(cfg, basis1), WaveFunctional(cfg, basis2)) == 0.0
    with pytest.raises(ConfigMismatch):
        inner(a, WaveFunctional(LatticeConfig(2, 1.0, 8, 7.0), b.psi))
    assert abs(norm(normalize(a)) - 1.0) < 1e-12


def test_serialization_round_trip(tmp_path, rng):
    cfg = LatticeConfig(2, 0.7, 8, 6.5, hbar=0.9)
    state = WaveFunctional(cfg, rng.standard_normal(cfg.shape)
                           + 1j * rng.standard_normal(cfg.shape))
    path = tmp_path / "state.bin"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded.cfg == LatticeConfig(2, 0.7, 8, 6.5, hbar=0.9)
    assert np.array_equal(loaded.psi, state.psi)
    csv_path = tmp_path / "state.csv"
    state_to_csv(state, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 1 + cfg.dim
    flat = state.psi.ravel()
    assert lines[1:] == [f"{i},{float(a.real)!r},{float(a.imag)!r}" for i, a in enumerate(flat)]
    state_to_csv(state, csv_path, {"config_sha256": "ab12", "version": "9.9", "seed": 3})
    assert csv_path.read_text().splitlines() == ["# config_sha256=ab12 version=9.9"] + lines


@pytest.mark.parametrize("keep", [0, 20, 40, 40 + 16 * 63, 40 + 16 * 65])
def test_load_state_rejects_length_mismatch(tmp_path, keep):
    cfg = LatticeConfig(2, 1.0, 8, 6.0)
    path = tmp_path / "state.bin"
    save_state(WaveFunctional(cfg, np.ones(cfg.shape)), path)
    raw = path.read_bytes() + b"\0" * 16
    path.write_bytes(raw[:keep])
    with pytest.raises(ValueError):
        load_state(path)


@pytest.mark.parametrize("width", [-1.0, 0.0, float("nan")])
def test_gaussian_rejects_non_positive_widths(width):
    """A width enters only through its square, so the spec itself must reject width <= 0."""
    with pytest.raises(NonPositiveCovariance, match="widths must be positive"):
        GaussianStateSpec((0.0, 0.0), widths=(1.0, width))


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_site_fields_match_explicit_broadcast(n_sites):
    cfg = LatticeConfig(n_sites, 0.7, 8, 6.0)
    grids = np.meshgrid(*[cfg.z_values()] * n_sites, indexing="ij")
    for j in range(n_sites):
        assert cfg.axis_shape(j) == tuple(8 if k == j else 1 for k in range(n_sites))
        zj, zs = cfg.site_fields(j)
        assert zj.shape == cfg.axis_shape(j)
        assert zs.shape == cfg.axis_shape(j, (j + 1) % n_sites)
        assert np.array_equal(np.broadcast_to(zj, cfg.shape), grids[j])
        expected = (grids[(j + 1) % n_sites] - grids[j]) / 0.7
        assert np.array_equal(np.broadcast_to(zs, cfg.shape), expected)
    if n_sites == 1:
        # the site is its own neighbour: zs is +0.0, never -0.0
        assert np.all(zs == 0.0) and not np.any(np.signbit(zs))


def test_link_difference_is_periodic_forward():
    x = np.array([[0.0, 1.0, 3.0], [2.0, 2.0, -1.0]])
    assert np.array_equal(link_difference(x, 0.5), [[2.0, 4.0, -6.0], [0.0, -6.0, 6.0]])
    assert np.array_equal(link_difference(x, 0.5, axis=0), [[4.0, 2.0, -8.0], [-4.0, -2.0, 8.0]])
    # one site is its own neighbour: the difference is +0.0, never -0.0
    for single in ([-0.3], (2.5,), np.array([[-1.0], [4.0]])):
        diff = link_difference(single, 0.3)
        assert np.all(diff == 0.0) and not np.any(np.signbit(diff))


def test_spacelike_bound_is_strict():
    ok = np.array([1.0 - 1e-12, -(1.0 - 1e-12), 0.0])
    assert spacelike(ok) is ok
    for edge in (1.0, -1.0):
        with pytest.raises(NotSpacelike, match=r"t0 link slopes .* violate \|v\| < 1"):
            spacelike(np.array([0.0, edge]), "t0 link slopes")


# (steps, errors) -> (ratios, degenerate, fitted order), the edges the command reports pin
@pytest.mark.parametrize("steps,errors,verdict", [
    ([0.05, 0.025], [0.0, 0.0], ([None], True, 0.0)),
    ([0.05, 0.05], [0.3, 0.3], ([1.0], False, 0.0)),
    ([5e-324, 5e-324 / 2], [0.2, 0.1], ([2.0], False, 0.0)),
    ([1e-2, 5e-3], [-4e-6, 1e-6], ([-4.0], False, 0.0)),
    ([1e-2, 5e-3], [-4e-6, -1e-6], ([4.0], False, 0.0)),
    ([0.1, 0.05, 0.025, 0.0125], [5.65e-15, 5.64e-15, 5.87e-15, 6.22e-15],
     ([5.65e-15 / 5.64e-15, 5.64e-15 / 5.87e-15, 5.87e-15 / 6.22e-15], True, 0.0)),
    ([0.1, 0.05, 0.025], [ROUNDOFF_FLOOR, -ROUNDOFF_FLOOR, 0.0], ([-1.0, None], True, 0.0)),
    ([0.1, 0.05], [0.0, 2 * ROUNDOFF_FLOOR], ([0.0], False, 0.0)),
    ([0.1, 0.05, 0.025], [8e-3, 2e-3, 5e-4], ([4.0, 4.0], False, 2.0)),
], ids=["zero-over-zero", "repeated-step", "subnormal-step-halves-to-zero", "signed-ratio",
        "negative-errors", "roundoff-ladder", "at-the-floor", "one-error-above-the-floor", "second-order"])
def test_refinement_verdict_edges(steps, errors, verdict):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a repeated step leaves polyfit nothing to fit: no RankWarning
        ratios, degenerate, order = refinement_verdict(steps, errors)
    assert ratios == verdict[0]
    assert degenerate is verdict[1]
    assert order == pytest.approx(verdict[2], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec,error,message", [
    (GaussianStateSpec((0.0,), widths=(1.0,)), ValueError, "centers must have length 2"),
    (GaussianStateSpec((0.0, 0.0), widths=(1.0,)), ValueError, "covariance must be 2x2"),
    (GaussianStateSpec((0.0, 0.0), covariance=((1.0, 0.0, 0.0),) * 3), ValueError,
     "covariance must be 2x2"),
    (GaussianStateSpec((0.0, 0.0), covariance=((1.0, 0.0), (0.0, -1.0))),
     NonPositiveCovariance, "covariance eigenvalues [-1.  1.]"),
], ids=["centers", "widths", "covariance-shape", "covariance-not-positive"])
def test_init_wavefunctional_refusals(spec, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        init_wavefunctional(spec, LatticeConfig(2, 1.0, 8, 6.0))
