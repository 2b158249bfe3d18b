"""Extremal solves, boundary momenta, and Hamilton-Jacobi residuals."""

import numpy as np
import pytest
from scipy.linalg import lapack

import fieldlab.classical
from fieldlab.classical import (
    BoundaryData,
    _ActionGrid,
    _factor,
    _inverse_norm_estimate,
    boundary_momenta,
    grid_rows,
    hj_residuals,
    hj_variations,
    reparameterization_check,
    solve_extremal,
)
from fieldlab.errors import DimensionTooLarge, NewtonDivergence, NotSpacelike, SingularBVP
from fieldlab.lagrangian import parse_lagrangian
from fieldlab.lattice import LatticeConfig, mode_frequencies


def oscillator_action(z0, z1, total_time, omega=1.0):
    """Closed-form two-time action of a unit-mass oscillator."""
    s = np.sin(omega * total_time)
    return omega / (2.0 * s) * ((z0 ** 2 + z1 ** 2) * np.cos(omega * total_time)
                                - 2.0 * z0 * z1)


def mode_boundary_velocity(z0, z1, total_time, omega, at_end=True):
    """Velocity of the oscillator two-point solution at a boundary."""
    s = np.sin(omega * total_time)
    if at_end:
        return omega * (z1 * np.cos(omega * total_time) - z0) / s
    return omega * (z1 - z0 * np.cos(omega * total_time)) / s


def test_boundary_validation():
    with pytest.raises(ValueError):
        BoundaryData((0.0,), (0.0,), (0.1,), (0.2,))  # t1 not above t0
    with pytest.raises(NotSpacelike):
        BoundaryData((0.0, 1.5), (2.0, 2.0), (0.0, 0.0), (0.0, 0.0))
    BoundaryData((0.0, 0.4), (1.0, 1.3), (0.1, 0.2), (0.3, -0.1))


@pytest.mark.parametrize("n_sites", [1, 2])
@pytest.mark.parametrize("spacing", [0.0, -1.0, float("nan")])
def test_boundary_rejects_non_positive_spacing(n_sites, spacing):
    with pytest.raises(ValueError, match="spacing must be positive"):
        BoundaryData((0.0,) * n_sites, (1.0,) * n_sites, (0.3,) * n_sites,
                     (-0.4,) * n_sites, spacing)


def test_zero_boundary_gives_zero(quartic_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0))
    sol = solve_extremal(bd, quartic_lagr, 1e-2)
    assert np.max(np.abs(sol.z)) < 1e-12
    assert abs(sol.action) < 1e-12
    assert sol.residual < 1e-10


TWO_STEP_BOUNDARY = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.12, -0.1), (-0.1, 0.09))


def test_newton_iteration_cap_raises(quartic_lagr, monkeypatch):
    """A quartic solve whose first Newton step leaves a residual near 2e-7 fails under a cap of 1."""
    solve_extremal(TWO_STEP_BOUNDARY, quartic_lagr, 1e-2)
    monkeypatch.setattr(fieldlab.classical, "NEWTON_MAXITER", 1)
    with pytest.raises(NewtonDivergence, match="no convergence after 1 iterations"):
        solve_extremal(TWO_STEP_BOUNDARY, quartic_lagr, 1e-2)


def test_oscillator_principal_function():
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*z^2")
    bd = BoundaryData((0.0,), (1.0,), (0.3,), (-0.4,))
    sol = solve_extremal(bd, lagr, 1e-3)
    assert sol.residual < 1e-10
    assert abs(sol.action - oscillator_action(0.3, -0.4, 1.0)) < 1e-6


def test_oscillator_resonance_raises():
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*z^2")
    bd = BoundaryData((0.0,), (np.pi,), (0.3,), (-0.4,))
    with pytest.raises(SingularBVP):
        solve_extremal(bd, lagr, 1e-3)


def test_static_extremal_momenta():
    # minimum of V at z = 0.3 with V(min) = 0.2
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*(z - 0.3)^2 - 0.2")
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, 0.3), (0.3, 0.3))
    sol = solve_extremal(bd, lagr, 1e-2)
    assert np.max(np.abs(sol.z - 0.3)) < 1e-12
    mom = boundary_momenta(sol, lagr)
    assert np.max(np.abs(mom.final.p)) < 1e-10
    assert np.allclose(mom.final.energy, 0.2, atol=1e-10)
    assert np.max(np.abs(mom.final.flux)) < 1e-10


def test_momenta_match_mode_oracle(free_lagr):
    """N=2 free field: discrete boundary momenta against the exact mode solve."""
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.4), 1.0)
    dt_c = 1e-3
    sol = solve_extremal(bd, free_lagr, dt_c)
    mom = boundary_momenta(sol, free_lagr)
    cfg = LatticeConfig(2, 1.0, 4, 4.0)
    omegas = mode_frequencies(cfg, 1.0)
    # orthonormal modes of the 2-site ring: symmetric and antisymmetric
    basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    u0 = basis @ np.asarray(bd.z0)
    u1 = basis @ np.asarray(bd.z1)
    udot1 = np.array([
        mode_boundary_velocity(u0[k], u1[k], 1.0, omegas[k], at_end=True)
        for k in range(2)
    ])
    p_expected = basis.T @ udot1  # p = zdot for kinetic_coeff 1/2
    assert np.max(np.abs(mom.final.p - p_expected)) < 1e-5


def test_flux_zero_for_constant_data(free_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.2, 0.2), (-0.1, -0.1))
    sol = solve_extremal(bd, free_lagr, 1e-2)
    mom = boundary_momenta(sol, free_lagr)
    assert np.max(np.abs(mom.final.flux)) < 1e-10
    assert np.max(np.abs(mom.initial.flux)) < 1e-10


def test_tangential_identity_curved(free_lagr):
    bd = BoundaryData((0.0, 0.3), (1.2, 1.0), (0.25, -0.15), (0.05, 0.35))
    sol = solve_extremal(bd, free_lagr, 2e-3)
    mom = boundary_momenta(sol, free_lagr)
    assert np.max(np.abs(mom.final.tangential)) < 1e-12
    assert np.max(np.abs(mom.initial.tangential)) < 1e-12


def test_hj_residuals_free_field(free_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.4))
    report = hj_residuals(solve_extremal(bd, free_lagr, 1e-3), free_lagr, 1e-4)
    assert np.max(report["dSdz_final_rel"]) < 1e-4
    assert np.max(report["dSdt_final_rel"]) < 1e-4
    assert np.max(report["dSdz_initial_rel"]) < 1e-4
    assert np.max(report["hj_resid"]) < 1e-4
    assert np.max(report["tangential_final"]) < 1e-8
    assert np.max(report["tangential_initial"]) < 1e-8


def test_reparameterization_zero_boundary_ratio_is_null(free_lagr):
    """Zero boundary data give zero actions at every refinement, so the ratio is 0/0."""
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0))
    report = reparameterization_check(solve_extremal(bd, free_lagr, 1e-2), free_lagr)
    assert report["refinement_actions"] == [0.0, 0.0, 0.0]
    assert report["refinement_ratio"] is None


def test_hj_residuals_zero_boundary(free_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0))
    report = hj_residuals(solve_extremal(bd, free_lagr, 1e-2), free_lagr, 1e-4)
    assert np.max(report["dSdz_final_rel"]) < 1e-10
    assert np.max(report["hj_resid"]) < 1e-10
    assert np.max(report["tangential_final"]) < 1e-10


def test_action_additivity(free_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.4))
    dt_c = 1e-2
    sol = solve_extremal(bd, free_lagr, dt_c)
    mid = sol.n_rows // 2
    t_mid = sol.row_times[mid]
    z_mid = sol.z[mid]
    first = BoundaryData(bd.t0, tuple(t_mid), bd.z0, tuple(z_mid))
    second = BoundaryData(tuple(t_mid), bd.t1, tuple(z_mid), bd.z1)
    s1 = solve_extremal(first, free_lagr, dt_c).action
    s2 = solve_extremal(second, free_lagr, dt_c).action
    assert abs((s1 + s2) - sol.action) < 1e-8


def test_reparameterization_exact_symmetries():
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2")
    bd = BoundaryData((0.0, 0.2, -0.1), (1.1, 1.0, 1.3),
                      (0.3, -0.2, 0.1), (0.0, 0.25, -0.3))
    report = reparameterization_check(solve_extremal(bd, lagr, 5e-3), lagr)
    assert report["cyclic_diff"] < 1e-12
    assert report["parity_diff"] < 1e-12
    assert report["time_shift_diff"] < 1e-12


def test_reparameterization_refinement_ratio(free_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.4))
    report = reparameterization_check(solve_extremal(bd, free_lagr, 4e-3), free_lagr)
    assert 3.5 <= report["refinement_ratio"] <= 4.5


def test_quartic_newton_converges(quartic_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.5, -0.4), (0.2, 0.6))
    sol = solve_extremal(bd, quartic_lagr, 2e-3)
    assert sol.residual < 1e-8
    assert np.array_equal(sol.z[0], bd.z0)
    assert np.array_equal(sol.z[-1], bd.z1)
    # small quartic coupling stays near the quadratic extremal
    free = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2")
    sol_free = solve_extremal(bd, free, 2e-3)
    assert abs(sol.action - sol_free.action) < 0.1
    assert sol.action != sol_free.action


def test_interior_row_guard(free_lagr):
    bd = BoundaryData((0.0,), (1.0,), (0.1,), (0.2,))
    with pytest.raises(ValueError):
        solve_extremal(bd, free_lagr, 0.5)


def test_time_shift_bitwise(free_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.4))
    shifted = bd.shifted(2.25)
    s0 = solve_extremal(bd, free_lagr, 1e-2).action
    s1 = solve_extremal(shifted, free_lagr, 1e-2).action
    assert abs(s0 - s1) < 1e-12


def test_with_entry_replaces_one_entry_and_validates():
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.4), spacing=2.0)
    moved = bd.with_entry("z1", 1, 0.5)
    assert moved == BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.5), spacing=2.0)
    assert bd.z1 == (0.1, 0.4)
    with pytest.raises(ValueError):
        bd.with_entry("t1", 0, -1.0)


def test_hj_variations_move_each_entry_by_epsilon():
    bd = BoundaryData((0.0, 0.1), (1.0, 1.2), (0.3, -0.2), (0.1, 0.4))
    variations = hj_variations(bd, 0.25)
    assert sorted(variations) == [(name, j) for name in ("t1", "z0", "z1") for j in (0, 1)]
    up, down = variations["t1", 1]
    assert up == bd.with_entry("t1", 1, 1.45) and down == bd.with_entry("t1", 1, 0.95)
    for eps in (0.0, -1e-4):
        with pytest.raises(ValueError, match="fd_epsilon"):
            hj_variations(bd, eps)
    with pytest.raises(ValueError, match="t0_j < t1_j"):
        hj_variations(BoundaryData((0.0,), (1.0,), (0.3,), (0.1,)), 1.5)
    with pytest.raises(NotSpacelike):
        hj_variations(bd, 0.9)  # t1 +- eps tilts the final surface past |v| < 1


def test_hj_residuals_rejects_zero_epsilon(free_lagr):
    bd = BoundaryData((0.0,), (1.0,), (0.3,), (-0.4,))
    with pytest.raises(ValueError, match="fd_epsilon"):
        hj_residuals(solve_extremal(bd, free_lagr, 1e-2), free_lagr, fd_epsilon=0.0)


def test_grid_rows_guard(monkeypatch):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.1, 0.2), (0.3, 0.4))
    assert grid_rows(bd, 1e-2) == 100
    with pytest.raises(ValueError, match="interior rows"):
        grid_rows(bd, 1.0)
    with pytest.raises(DimensionTooLarge):
        grid_rows(bd, 1e-9)
    with pytest.raises(DimensionTooLarge):
        grid_rows(bd, 5e-324)  # the row count overflows to inf
    monkeypatch.setattr(fieldlab.classical, "MAX_GRID_POINTS", 202)
    assert grid_rows(bd, 1e-2) == 100  # (100 + 1) * 2 points, exactly at the guard
    with pytest.raises(DimensionTooLarge):
        grid_rows(bd, 1e-2 * 100 / 101)


# --- banded kernel ----------------------------------------------------------------

def dense_from_band(band):
    """The square matrix held as band[b + row - col, col]."""
    b = band.shape[0] // 2
    m = band.shape[1]
    dense = np.zeros((m, m))
    for k, diag in enumerate(band):
        cols = np.arange(max(0, b - k), min(m, m + b - k))
        dense[cols + k - b, cols] = diag[cols]
    return dense


def interior_system(bd, lagr, dt_c):
    """The grid, a non-trivial field on it and its interior system in dgbtrf's layout."""
    grid = _ActionGrid(bd, lagr, grid_rows(bd, dt_c))
    z_flat = grid.flatten(grid.interpolant())
    z_flat[grid.interior] += 0.05 * np.sin(np.arange(z_flat[grid.interior].size))
    size = grid.interior.stop - grid.interior.start
    system = grid.interior_system(z_flat, np.empty((3 * grid.b + 1, size), order="F"))
    return grid, z_flat, system


BOUNDARIES = {
    (1, "flat"): BoundaryData((0.0,), (1.0,), (0.3,), (-0.4,)),
    (1, "curved"): BoundaryData((0.2,), (1.1,), (0.3,), (-0.4,)),
    (2, "flat"): BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.4)),
    (2, "curved"): BoundaryData((0.0, 0.1), (1.0, 1.15), (0.3, -0.2), (0.1, 0.4)),
    (3, "flat"): BoundaryData((0.0,) * 3, (1.0,) * 3, (0.3, -0.2, 0.1), (0.1, 0.4, -0.3)),
    (3, "curved"): BoundaryData((0.0, 0.1, 0.05), (1.0, 1.2, 1.1), (0.3, -0.2, 0.1),
                                (0.1, 0.4, -0.3)),
}


@pytest.mark.parametrize("lagr_name", ["free_lagr", "quartic_lagr"])
@pytest.mark.parametrize("key", list(BOUNDARIES), ids=lambda k: f"{k[0]}-{k[1]}")
def test_band_hessian_matches_gradient_jacobian(request, lagr_name, key):
    lagr = request.getfixturevalue(lagr_name)
    grid, z_flat, system = interior_system(BOUNDARIES[key], lagr, 0.1)
    h = 1e-5
    jacobian = np.empty((z_flat.size, z_flat.size))
    for i in range(z_flat.size):
        step = np.zeros(z_flat.size)
        step[i] = h
        jacobian[:, i] = (grid.gradient(z_flat + step) - grid.gradient(z_flat - step)) / (2 * h)
    hessian = dense_from_band(grid.band) - np.diag(
        grid._w_pot_flat * lagr.potential_second_derivative(z_flat))
    scale = np.max(np.abs(jacobian))
    assert np.max(np.abs(hessian - jacobian)) <= 1e-8 * scale
    inner = grid.interior
    interior = dense_from_band(system[grid.b:])
    assert np.max(np.abs(interior - jacobian[inner, inner])) <= 1e-8 * scale
    assert not system[:grid.b].any()


@pytest.mark.parametrize("key,lagr_text,total_time", [
    ((3, "curved"), "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", 1.0),
    ((2, "flat"), "0.5*zt^2 - 0.5*zx^2", 1.0),
    ((1, "flat"), "0.5*zt^2 - 0.5*z^2", np.pi - 1e-3),   # next to the oscillator resonance
    ((1, "flat"), "0.5*zt^2 - 0.5*z^2", np.pi + 1e-3),
])
def test_inverse_norm_estimate_bounds_the_exact_norm(key, lagr_text, total_time):
    bd = BOUNDARIES[key]
    bd = BoundaryData(bd.t0, tuple(t + total_time - 1.0 for t in bd.t1), bd.z0, bd.z1)
    grid, _, system = interior_system(bd, parse_lagrangian(lagr_text), 0.05)
    exact = np.abs(np.linalg.inv(dense_from_band(system[grid.b:]))).sum(axis=0).max()
    lu, ipiv, info = lapack.dgbtrf(system, grid.b, grid.b)
    assert info == 0

    def solve(rhs, trans=0):
        return lapack.dgbtrs(lu, grid.b, grid.b, rhs, ipiv, trans=trans)[0]

    estimate = _inverse_norm_estimate(solve, system.shape[1])
    # a lower bound up to the roundoff of the two inverses (it is often exact)
    assert exact / 3.0 <= estimate <= exact * (1.0 + 1e-9)


def test_nan_hessian_raises_singular_bvp(free_lagr):
    grid, _, system = interior_system(BOUNDARIES[2, "flat"], free_lagr, 0.1)
    system[2 * grid.b, 3] = np.nan
    with pytest.raises(SingularBVP):
        _factor(system, grid.b)
