"""Extremal solves, boundary momenta, and Hamilton-Jacobi residuals."""

import numpy as np
import pytest
from scipy.linalg import lapack

import fieldlab.classical
from fieldlab.classical import (
    NEWTON_TOL,
    ROUNDOFF_MARGIN,
    BoundaryData,
    _ActionGrid,
    _factor,
    _flapack,
    _inverse_norm_estimate,
    _newton_tol,
    boundary_momenta,
    grid_rows,
    hj_residuals,
    hj_variations,
    reparameterization_check,
    solve_extremal,
)
from fieldlab.errors import DimensionTooLarge, NewtonDivergence, NotSpacelike, SingularBVP
from fieldlab.lagrangian import parse_lagrangian
from fieldlab.feynman import PathIntegralSpec, discrete_action
from fieldlab.lattice import LatticeConfig, link_difference

from conftest import mode_frequencies


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


def test_newton_start_keeps_the_boundary_rows_exact(quartic_lagr):
    """The straight-line start ends on z1 itself: 0.1 + 1.0 * (-0.3 - 0.1) is not -0.3."""
    bd = BoundaryData((0.0,), (1.0,), (0.1,), (-0.3,))
    sol = solve_extremal(bd, quartic_lagr, 1e-2)
    assert np.array_equal(sol.z[0], bd.z0) and np.array_equal(sol.z[-1], bd.z1)


TWO_STEP_BOUNDARY = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.12, -0.1), (-0.1, 0.09))


def test_newton_iteration_cap_raises(quartic_lagr, monkeypatch):
    """A quartic solve whose first Newton step leaves a residual near 2e-7 fails under a cap of 1."""
    solve_extremal(TWO_STEP_BOUNDARY, quartic_lagr, 1e-2)
    monkeypatch.setattr(fieldlab.classical, "NEWTON_MAXITER", 1)
    with pytest.raises(NewtonDivergence, match="no convergence after 1 iterations"):
        solve_extremal(TWO_STEP_BOUNDARY, quartic_lagr, 1e-2)


def test_newton_cap_counts_steps(quartic_lagr, monkeypatch):
    """A solve that converges on its last allowed step succeeds, with one factorization per step."""
    calls = []
    real = fieldlab.classical._factor

    def counting(system, b):
        calls.append(b)
        return real(system, b)

    monkeypatch.setattr(fieldlab.classical, "_factor", counting)
    monkeypatch.setattr(fieldlab.classical, "NEWTON_MAXITER", 2)
    sol = solve_extremal(TWO_STEP_BOUNDARY, quartic_lagr, 1e-2)
    assert sol.residual <= NEWTON_TOL
    assert len(calls) == 3      # two Newton steps and the condition check at the extremal


def test_newton_stops_at_the_gradient_roundoff_floor():
    """A quartic swing of 60 in a time of 0.1: the gradient sums terms near 1e6, so
    rounding alone leaves a residual above NEWTON_TOL."""
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*z^2 - 0.1*z^4")
    bd = BoundaryData((0.0,), (0.1,), (30.0,), (-30.0,))
    sol = solve_extremal(bd, lagr, 1e-4)
    grid = _ActionGrid(bd, lagr, sol.n_rows)
    floor = grid.gradient_floor(grid.flatten(sol.z))
    assert NEWTON_TOL < sol.residual <= ROUNDOFF_MARGIN * floor
    assert _newton_tol(grid, grid.flatten(sol.z)) == ROUNDOFF_MARGIN * floor


def test_newton_tol_is_absolute_on_small_boundaries():
    """On boundary data like the benchmark's, the roundoff floor lies far below NEWTON_TOL."""
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")
    bd = BoundaryData((0.0,) * 3, (1.0,) * 3, (-0.15, -0.08, -0.12), (0.14, 0.09, 0.15))
    sol = solve_extremal(bd, lagr, 1e-3)
    grid = _ActionGrid(bd, lagr, sol.n_rows)
    for z_flat in (grid.flatten(grid.interpolant(bd.z0, bd.z1)), grid.flatten(sol.z)):
        assert 0.0 < grid.gradient_floor(z_flat) < 1e-2 * NEWTON_TOL
        assert _newton_tol(grid, z_flat) == NEWTON_TOL
    assert sol.residual <= NEWTON_TOL


def count_newton_work(monkeypatch):
    """Gradient and factor calls of the solves that follow: the start and each line-search
    trial take a gradient, the start and each accepted step a factor call."""
    calls = {"gradient": 0, "factor": 0}
    gradient, factor = _ActionGrid.gradient, _ActionGrid.factor

    def counting_gradient(self, z_flat):
        calls["gradient"] += 1
        return gradient(self, z_flat)

    def counting_factor(self, z_flat, work):
        calls["factor"] += 1
        return factor(self, z_flat, work)

    monkeypatch.setattr(_ActionGrid, "gradient", counting_gradient)
    monkeypatch.setattr(_ActionGrid, "factor", counting_factor)
    return calls


def test_newton_line_search_stalls_on_a_large_swing(monkeypatch):
    """A 3-site quartic swing from +8 to -8 in unit time: steps 3 to 5 are accepted after
    6, 7 and 9 halvings, and the sixth finds no descent in 12 halvings, 34 in all."""
    calls = count_newton_work(monkeypatch)
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")
    bd = BoundaryData((0.0,) * 3, (1.0,) * 3, (8.0,) * 3, (-8.0,) * 3)
    with pytest.raises(NewtonDivergence, match=r"^line search stalled at residual 7\.290e-01$"):
        solve_extremal(bd, lagr, 1e-2)
    assert calls["factor"] == 6                         # the start and five accepted steps
    assert calls["gradient"] - calls["factor"] == 34    # the halvings


def test_newton_converges_after_a_halved_step(monkeypatch):
    """A one-site quartic swing from -3 to 1.3 over t = 2 takes one step at half length and
    then converges in 7 steps, to an extremal whose action refines at second order."""
    calls = count_newton_work(monkeypatch)
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*z^2 - 0.1*z^4")
    bd = BoundaryData((0.0,), (2.0,), (-3.0,), (1.3,))
    sol = solve_extremal(bd, lagr, 1e-2)
    assert sol.residual <= NEWTON_TOL
    assert calls["factor"] == 8 and calls["gradient"] - calls["factor"] == 1
    actions = [solve_extremal(bd, lagr, dt_c).action for dt_c in (4e-2, 2e-2)] + [sol.action]
    assert 3.5 <= (actions[0] - actions[1]) / (actions[1] - actions[2]) <= 4.5


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
    _, final = boundary_momenta(sol)
    assert np.max(np.abs(final.p)) < 1e-10
    assert np.allclose(final.energy, 0.2, atol=1e-10)
    assert np.max(np.abs(final.flux)) < 1e-10


def test_momenta_match_mode_oracle(free_lagr):
    """N=2 free field: discrete boundary momenta against the exact mode solve."""
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.4), 1.0)
    dt_c = 1e-3
    sol = solve_extremal(bd, free_lagr, dt_c)
    _, final = boundary_momenta(sol)
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
    assert np.max(np.abs(final.p - p_expected)) < 1e-5


def test_flux_zero_for_constant_data(free_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.2, 0.2), (-0.1, -0.1))
    sol = solve_extremal(bd, free_lagr, 1e-2)
    initial, final = boundary_momenta(sol)
    assert np.max(np.abs(final.flux)) < 1e-10
    assert np.max(np.abs(initial.flux)) < 1e-10


def test_tangential_identity_curved(free_lagr):
    bd = BoundaryData((0.0, 0.3), (1.2, 1.0), (0.25, -0.15), (0.05, 0.35))
    sol = solve_extremal(bd, free_lagr, 2e-3)
    initial, final = boundary_momenta(sol)
    assert np.max(np.abs(final.tangential)) < 1e-12
    assert np.max(np.abs(initial.tangential)) < 1e-12


def test_hj_residuals_free_field(free_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.4))
    report = hj_residuals(solve_extremal(bd, free_lagr, 1e-3), 1e-4)
    assert np.max(report["dSdz_final_rel"]) < 1e-4
    assert np.max(report["dSdt_final_rel"]) < 1e-4
    assert np.max(report["dSdz_initial_rel"]) < 1e-4
    assert np.max(report["hj_resid"]) < 1e-4
    assert np.max(report["tangential_final"]) < 1e-8
    assert np.max(report["tangential_initial"]) < 1e-8


def test_reparameterization_zero_boundary_ratio_is_null(free_lagr):
    """Zero boundary data give zero actions at every refinement, so the ratio is 0/0."""
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0))
    report = reparameterization_check(solve_extremal(bd, free_lagr, 1e-2))
    assert report["refinement_actions"] == [0.0, 0.0, 0.0]
    assert report["refinement_ratio"] is None


def test_hj_residuals_zero_boundary(free_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0))
    report = hj_residuals(solve_extremal(bd, free_lagr, 1e-2), 1e-4)
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
    report = reparameterization_check(solve_extremal(bd, lagr, 5e-3))
    assert report["cyclic_diff"] < 1e-12
    assert report["parity_diff"] < 1e-12
    assert report["time_shift_diff"] < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_oscillator_near_resonance_solves_or_raises(k):
    """At T = pi + 10^-k the Hessian's condition grows like 10^k: up to k = 5 the one Newton
    loop, refining with its first factorization, reaches its tolerance; at k = 6 the
    condition estimate passes COND_LIMIT."""
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*z^2")
    bd = BoundaryData((0.0,), (np.pi + 10.0 ** -k,), (0.3,), (-0.4,))
    if k >= 6:
        with pytest.raises(SingularBVP, match="condition estimate"):
            solve_extremal(bd, lagr, 1e-3)
        return
    sol = solve_extremal(bd, lagr, 1e-3)
    grid = _ActionGrid(bd, lagr, sol.n_rows)
    assert sol.residual <= _newton_tol(grid, grid.flatten(sol.z))
    assert np.isfinite(sol.action)


def test_reparameterization_refinement_ratio(free_lagr):
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.4))
    report = reparameterization_check(solve_extremal(bd, free_lagr, 4e-3))
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


def test_quartic_factorizations_are_newton_steps_plus_one(quartic_lagr, monkeypatch):
    """One factorization at the start and one after each accepted step, the last of them
    the condition check at the extremal.  The step count is the smallest cap that converges."""
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.5, -0.4), (0.2, 0.6))
    handle = _flapack()
    calls = []
    real = handle.dgbtrf

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(handle, "dgbtrf", counting)
    solve_extremal(bd, quartic_lagr, 2e-3)
    factorizations = len(calls)
    for steps in range(1, fieldlab.classical.NEWTON_MAXITER + 1):
        monkeypatch.setattr(fieldlab.classical, "NEWTON_MAXITER", steps)
        try:
            solve_extremal(bd, quartic_lagr, 2e-3)
            break
        except NewtonDivergence:
            pass
    assert steps >= 2
    assert factorizations == steps + 1


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
        hj_residuals(solve_extremal(bd, free_lagr, 1e-2), fd_epsilon=0.0)


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
    z_flat = grid.flatten(grid.interpolant(bd.z0, bd.z1))
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


@pytest.mark.parametrize("key", list(BOUNDARIES), ids=lambda k: f"{k[0]}-{k[1]}")
def test_free_field_residual_meets_the_newton_tolerance(free_lagr, key):
    """A quadratic solve stops on the same rule as a quartic one."""
    bd = BOUNDARIES[key]
    sol = solve_extremal(bd, free_lagr, 1e-2)
    grid = _ActionGrid(bd, free_lagr, sol.n_rows)
    assert sol.residual <= _newton_tol(grid, grid.flatten(sol.z))


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


@pytest.mark.parametrize("lagr_name", ["free_lagr", "quartic_lagr"])
@pytest.mark.parametrize("key", list(BOUNDARIES), ids=lambda k: f"{k[0]}-{k[1]}")
def test_flapack_handle_matches_scipy_lapack(request, lagr_name, key):
    """The directly loaded extension factors and solves bit for bit as scipy.linalg.lapack.

    scipy.linalg is imported by this module, so the handle is a second load of
    the same extension.
    """
    grid, _, system = interior_system(BOUNDARIES[key], request.getfixturevalue(lagr_name), 0.1)
    handle = _flapack()
    assert handle.dgbtrf is not lapack.dgbtrf
    b = grid.b
    lu, ipiv, info = handle.dgbtrf(system.copy(order="F"), b, b, overwrite_ab=1)
    lu_ref, ipiv_ref, info_ref = lapack.dgbtrf(system.copy(order="F"), b, b, overwrite_ab=1)
    assert info == info_ref == 0
    assert lu.tobytes() == lu_ref.tobytes() and ipiv.tobytes() == ipiv_ref.tobytes()
    rhs = np.sin(1.0 + np.arange(system.shape[1]))
    for trans in (0, 1):
        x, solve_info = handle.dgbtrs(lu, b, b, rhs, ipiv, trans=trans)
        x_ref, solve_info_ref = lapack.dgbtrs(lu_ref, b, b, rhs, ipiv_ref, trans=trans)
        assert solve_info == solve_info_ref == 0
        assert x.tobytes() == x_ref.tobytes()


def test_nan_hessian_raises_singular_bvp(free_lagr):
    grid, _, system = interior_system(BOUNDARIES[2, "flat"], free_lagr, 0.1)
    system[2 * grid.b, 3] = np.nan
    with pytest.raises(SingularBVP):
        _factor(system, grid.b)


# --- one grid per set of surfaces -------------------------------------------------

THREE_SITE = {
    "flat": BoundaryData((0.0,) * 3, (1.0,) * 3, (-0.12, 0.1, -0.14), (0.11, -0.09, 0.15)),
    "curved": BoundaryData((0.0, 0.06, -0.04), (1.05, 0.96, 1.1), (-0.12, 0.1, -0.14),
                           (0.11, -0.09, 0.15)),
}


def report_bits(report):
    return {key: None if value is None else np.asarray(value, dtype=float).tobytes()
            for key, value in report.items()}


@pytest.mark.parametrize("lagr_name", ["free_lagr", "quartic_lagr"])
@pytest.mark.parametrize("shape", list(THREE_SITE))
def test_checks_on_the_base_grid_match_fresh_solves(request, monkeypatch, lagr_name, shape):
    """Both checks give bit for bit what a fresh solve_extremal per varied boundary gives."""
    lagr = request.getfixturevalue(lagr_name)
    base = solve_extremal(THREE_SITE[shape], lagr, 1e-2)
    shared = [report_bits(hj_residuals(base, 1e-4)),
              report_bits(reparameterization_check(base))]
    monkeypatch.setattr(fieldlab.classical, "_resolve",
                        lambda base, bd, dt_c: solve_extremal(bd, base.grid.lagr, dt_c))
    fresh = [report_bits(hj_residuals(base, 1e-4)),
             report_bits(reparameterization_check(base))]
    assert shared == fresh


@pytest.mark.parametrize("lagr_name", ["free_lagr", "quartic_lagr"])
def test_flat_checks_build_ten_grids(request, monkeypatch, lagr_name):
    """Of the 24 solves of a flat 3-site run with both checks, 15 share the base grid: the
    z1 and z0 variations and both relabelings.  The t1 variations, the time shift and the
    two refinements build one grid each, 10 in all, and the free Lagrangian factors each once."""
    lagr = request.getfixturevalue(lagr_name)
    builds, factorizations = [], []
    init = _ActionGrid.__init__
    handle = _flapack()
    dgbtrf = handle.dgbtrf

    def counting_init(self, *args):
        builds.append(None)
        init(self, *args)

    def counting_dgbtrf(*args, **kwargs):
        factorizations.append(None)
        return dgbtrf(*args, **kwargs)

    monkeypatch.setattr(_ActionGrid, "__init__", counting_init)
    monkeypatch.setattr(handle, "dgbtrf", counting_dgbtrf)
    base = solve_extremal(THREE_SITE["flat"], lagr, 1e-2)
    hj_residuals(base, 1e-4)
    reparameterization_check(base)
    assert len(builds) == 10
    if lagr_name == "free_lagr":
        assert len(factorizations) == 10


FIVE_SITE = {
    "flat": BoundaryData((0.0,) * 5, (1.0,) * 5, (0.3, -0.2, 0.1, 0.05, -0.1),
                         (0.1, 0.4, -0.3, 0.2, 0.0)),
    "curved": BoundaryData((0.0, 0.1, 0.05, -0.08, 0.02), (1.0, 1.2, 1.1, 0.95, 1.05),
                           (0.3, -0.2, 0.1, 0.05, -0.1), (0.1, 0.4, -0.3, 0.2, 0.0)),
}


@pytest.mark.parametrize("extra", ["", " + 0.3*zt", " - 0.1*z^4", " + 0.3*zt - 0.1*z^4"])
@pytest.mark.parametrize("bd,flat", [(BOUNDARIES[3, "flat"], True),
                                     (BOUNDARIES[3, "curved"], False),
                                     (FIVE_SITE["flat"], True), (FIVE_SITE["curved"], False)],
                         ids=["3-flat", "3-curved", "5-flat", "5-curved"])
def test_interior_system_is_symmetric(bd, flat, extra):
    """_factor answers the condition estimator's solves with A^T with A: the Hessian is
    symmetric bit for bit between flat surfaces, and to roundoff between curved ones."""
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2" + extra)
    grid, _, system = interior_system(bd, lagr, 0.05)
    dense = dense_from_band(system[grid.b:])
    asymmetry = np.abs(dense - dense.T).sum(axis=0).max()
    if flat:
        assert asymmetry == 0.0
    else:
        assert asymmetry <= 4.0 * np.finfo(float).eps * np.abs(dense).sum(axis=0).max()


@pytest.mark.parametrize("n_sites, spacing", [(1, 1.0), (3, 0.8)])
def test_grid_action_is_the_history_action_under_the_trapezoid_rule(n_sites, spacing, rng):
    """One action, two rules: on flat surfaces the trapezoid grid action less the Riemann
    history action of the same rows is (a dt / 2) sum_j [(g zs^2 - V)(z_R) - (g zs^2 - V)(z_0)]."""
    lagr = parse_lagrangian("0.5*zt^2 + 0.3*zt - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")
    n_rows, total_time = 12, 0.9
    bd = BoundaryData((0.0,) * n_sites, (total_time,) * n_sites,
                      (0.0,) * n_sites, (0.0,) * n_sites, spacing)
    z = rng.uniform(-1.5, 1.5, size=(n_rows + 1, n_sites))
    grid_action = _ActionGrid(bd, lagr, n_rows).action(z)
    dt = total_time / n_rows
    history_action = discrete_action(z, PathIntegralSpec(n_rows - 1, dt), lagr,
                                     LatticeConfig(n_sites, spacing, 8, 4.0))

    def row_terms(row):
        return lagr.gradient_coeff * link_difference(row, spacing) ** 2 - lagr.potential_value(row)

    expected = 0.5 * spacing * dt * np.sum(row_terms(z[-1]) - row_terms(z[0]))
    assert abs(grid_action - history_action - expected) <= 1e-13 * abs(grid_action)


@pytest.mark.parametrize("call,error,message", [
    (lambda: grid_rows(BoundaryData((0.0,), (1.0,), (0.1,), (0.2,)), 0.0),
     ValueError, "dt_c must be positive"),
    (lambda: grid_rows(BoundaryData((0.0,), (1.0,), (0.1,), (0.2,)), -1e-3),
     ValueError, "dt_c must be positive"),
    # a zero band of width 1 over 3 unknowns: dgbtrf meets a zero first pivot
    (lambda: _factor(np.zeros((4, 3)), 1),
     SingularBVP, "boundary problem factorization failed: pivot 1 is zero"),
], ids=["zero-dt_c", "negative-dt_c", "zero-pivot"])
def test_classical_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
