"""Single-site deformations, schedules, and the path-independence study."""

import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import fieldlab.surface
from fieldlab.errors import DimensionTooLarge, NotSpacelike, ScheduleMismatch
from fieldlab.evolve import EvolveParams, crank_nicolson_step, evolve_strang
from fieldlab.lagrangian import diagonal_density, legendre_transform, parse_lagrangian
from fieldlab.lattice import (
    GaussianStateSpec,
    LatticeConfig,
    WaveFunctional,
    free_ground_state_covariance,
    init_wavefunctional,
    norm,
)
from fieldlab.operators import compile_hamiltonian
from fieldlab.surface import (
    DeformationSchedule,
    SpacelikeSurface,
    SurfaceEvolver,
    integrability_test,
    shared_endpoints,
)


def free_setup(n=3, q=16, lq=8.0):
    lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2")
    density = legendre_transform(lagr)
    cfg = LatticeConfig(n, 1.0, q, lq)
    state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
    return cfg, density, state


def site_slopes(surf):
    """The surface's slope at each site, as ``compile_hamiltonian`` takes it."""
    return [surf.site_slope(k) for k in range(surf.n_sites)]


def test_surface_validation():
    SpacelikeSurface((0.0, 0.5, 0.1))
    with pytest.raises(NotSpacelike):
        SpacelikeSurface((0.0, 1.0, 0.0))
    surf = SpacelikeSurface.flat(3)
    with pytest.raises(NotSpacelike):
        surf.advanced(0, 1.0)
    assert surf.advanced(0, 0.5).times == (0.5, 0.0, 0.0)


def test_flat_reduction(rng):
    cfg, density, _ = free_setup()
    flat_op = compile_hamiltonian(density, cfg)
    surf = SpacelikeSurface.flat(cfg.n_sites)
    psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    total = np.zeros_like(psi)
    for j in range(cfg.n_sites):
        total += compile_hamiltonian(density, cfg, site_slopes(surf), sites=[j]).apply(psi)
    assert np.max(np.abs(total - flat_op.apply(psi))) < 1e-12


def test_local_density_hermitian(rng):
    cfg, density, _ = free_setup(n=2)
    surf = SpacelikeSurface((0.0, 0.5), 1.0)
    op = compile_hamiltonian(density, cfg, site_slopes(surf), sites=[0])
    weight = cfg.dz ** cfg.n_sites
    for _ in range(10):
        phi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
        psi = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
        lhs = weight * np.vdot(phi, op.apply(psi))
        rhs = np.conj(weight * np.vdot(psi, op.apply(phi)))
        assert abs(lhs - rhs) < 1e-10


def test_potential_only_deformations_commute():
    cfg = LatticeConfig(3, 1.0, 8, 6.0)
    density = diagonal_density(0.0, (0.0, 0.0, 0.5))
    state = init_wavefunctional(GaussianStateSpec((0.0,) * 3, widths=(1.0,) * 3), cfg)
    evolver = SurfaceEvolver(density, cfg, "exact")
    surf = SpacelikeSurface.flat(3)
    a_first = evolver.deform_step(state, surf, 0, 0.3)
    a_both = evolver.deform_step(a_first, surf.advanced(0, 0.3), 2, 0.2)
    b_first = evolver.deform_step(state, surf, 2, 0.2)
    b_both = evolver.deform_step(b_first, surf.advanced(2, 0.2), 0, 0.3)
    assert np.max(np.abs(a_both.psi - b_both.psi)) < 1e-14


def test_zero_step_identity():
    cfg, density, state = free_setup()
    evolver = SurfaceEvolver(density, cfg, "exact")
    surf = SpacelikeSurface.flat(3)
    out = evolver.deform_step(state, surf, 1, 0.0)
    assert np.array_equal(out.psi, state.psi)
    assert surf.advanced(1, 0.0) == surf


def flat_reference(cfg, density, state, total):
    """High-resolution Strang run; splitting error is far below what the
    sweep comparisons measure and it avoids a 4096-dim dense eigh."""
    op = compile_hamiltonian(density, cfg)
    steps = max(1, int(round(total / 1e-3)))
    return evolve_strang(op, state, EvolveParams(total / steps, steps))


def test_sweep_vs_flat_step_second_order():
    cfg, density, state = free_setup()
    evolver = SurfaceEvolver(density, cfg, "exact")
    start = SpacelikeSurface.flat(3)
    errors = []
    for dt in (0.04, 0.02):
        swept = evolver.run_schedule(state, DeformationSchedule.sweep(start, dt, dt))
        flat = flat_reference(cfg, density, state, dt)
        errors.append(norm(WaveFunctional(cfg, swept.psi - flat.psi)))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_empty_schedule():
    cfg, density, state = free_setup()
    evolver = SurfaceEvolver(density, cfg, "exact")
    out = evolver.run_schedule(state, DeformationSchedule(SpacelikeSurface.flat(3), ()))
    assert np.array_equal(out.psi, state.psi)


def test_schedule_move_counts_checked_before_building(monkeypatch):
    start = SpacelikeSurface.flat(3)
    monkeypatch.setattr(fieldlab.surface, "MAX_MOVES", 12)
    assert len(DeformationSchedule.sweep(start, 0.2, 0.05).moves) == 12  # exactly at the guard
    with pytest.raises(DimensionTooLarge):
        DeformationSchedule.sweep(start, 0.2, 0.04)
    with pytest.raises(DimensionTooLarge):
        DeformationSchedule.sweep(start, 0.2, 1e-300)
    with pytest.raises(ValueError, match="too small"):
        DeformationSchedule.sweep(start, 0.2, 5e-324)  # the round count overflows to inf
    with pytest.raises(ValueError, match="not a multiple"):
        DeformationSchedule.sweep(start, 0.2, 0.07)
    moves = [(0, 0.05), (2, 0.04)]
    assert len(DeformationSchedule.refined(start, moves, 0.01).moves) == 10
    with pytest.raises(DimensionTooLarge):
        DeformationSchedule.refined(start, moves, 0.005)
    with pytest.raises(ValueError, match="too small"):
        DeformationSchedule.refined(start, moves, 5e-324)


def test_refined_guard_counts_the_rounded_split():
    """6,000 moves at 1.6 rounds each split in 2: 12,000 moves, over the guard."""
    start = SpacelikeSurface.flat(3)
    moves = [(j % 3, 0.001) for j in range(6000)]
    with pytest.raises(DimensionTooLarge, match=r"needs 1\.2e\+04 moves"):
        DeformationSchedule.refined(start, moves, 0.000625)
    assert len(DeformationSchedule.refined(start, moves[:5000], 0.000625).moves) == 10_000


def test_refined_schedule_splits_each_move():
    start = SpacelikeSurface.flat(3)
    moves = [(0, 0.05), (2, -0.02)]
    assert DeformationSchedule.refined(start, moves, 0.1).moves == (
        (0, Fraction("0.05")), (2, Fraction("-0.02")))
    half, fifth = Fraction("0.025"), Fraction("-0.01")
    assert DeformationSchedule.refined(start, moves, 0.025).moves == (
        (0, half), (0, half), (2, fifth), (2, fifth))
    assert DeformationSchedule.refined(start, [], 0.025).moves == ()


def test_schedule_reversal_inverts():
    cfg, density, state = free_setup()
    evolver = SurfaceEvolver(density, cfg, "exact")
    start = SpacelikeSurface.flat(3)
    moves = ((0, 0.05), (1, 0.08), (2, 0.04), (1, -0.03))
    forward = DeformationSchedule(start, moves)
    end = forward.end()
    backward = DeformationSchedule(end, tuple((j, -dt) for j, dt in reversed(moves)))
    out = evolver.run_schedule(evolver.run_schedule(state, forward), backward)
    assert np.max(np.abs(out.psi - state.psi)) < 1e-12


def test_sweep_matches_flat_evolution():
    # The single-site product formula carries an intrinsic first-order
    # ordering error of ~2e-3 on this instance (the slope-free product alone
    # gives 1.35e-3), so the pinned value is the measured one, with the
    # linear-in-dt decay asserted alongside.
    cfg, density, state = free_setup()
    total = 0.2
    evolver = SurfaceEvolver(density, cfg, "exact")
    flat = flat_reference(cfg, density, state, total)
    swept = evolver.run_schedule(
        state, DeformationSchedule.sweep(SpacelikeSurface.flat(3), total, 1e-2))
    diff = norm(WaveFunctional(cfg, swept.psi - flat.psi))
    assert 1.5e-3 < diff < 2.5e-3
    swept_half = evolver.run_schedule(
        state, DeformationSchedule.sweep(SpacelikeSurface.flat(3), total, 5e-3))
    diff_half = norm(WaveFunctional(cfg, swept_half.psi - flat.psi))
    assert diff_half < 0.6 * diff


def test_endpoint_consistency_under_merging():
    """Sweeping to a flat surface then flat-evolving matches the merged sweep
    within the first-order step budget, improving as dt shrinks."""
    cfg, density, state = free_setup()
    evolver = SurfaceEvolver(density, cfg, "exact")
    start = SpacelikeSurface.flat(3)
    diffs = []
    for dt in (0.02, 0.01):
        half = evolver.run_schedule(state, DeformationSchedule.sweep(start, 0.1, dt))
        then_flat = flat_reference(cfg, density, half, 0.1)
        merged = evolver.run_schedule(state, DeformationSchedule.sweep(start, 0.2, dt))
        diffs.append(norm(WaveFunctional(cfg, then_flat.psi - merged.psi)))
    assert diffs[0] < 1e-2
    assert diffs[1] < 0.6 * diffs[0]


def test_norm_preserved_along_schedule():
    cfg, density, state = free_setup()
    evolver = SurfaceEvolver(density, cfg, "exact")
    sched = DeformationSchedule.sweep(SpacelikeSurface.flat(3), 0.2, 0.05, "right_left")
    out = evolver.run_schedule(state, sched)
    assert abs(norm(out) - 1.0) < 1e-12


def test_crank_nicolson_step_matches_local_exact():
    cfg, density, state = free_setup()
    surf = SpacelikeSurface((0.0, 0.05, -0.02), 1.0)
    exact_step = SurfaceEvolver(density, cfg, "exact").deform_step(state, surf, 1, 1e-3)
    cn_step = SurfaceEvolver(density, cfg, "crank_nicolson").deform_step(state, surf, 1, 1e-3)
    assert norm(WaveFunctional(cfg, exact_step.psi - cn_step.psi)) < 1e-6


# zx^2 terms (a slope brings in the p*zs cross term); a linear zt term makes the blocks complex
BLOCK_TEXTS = ("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", "0.5*zt^2 + 0.3*zt - 0.5*zx^2 - 0.5*z^2")


def block_cases():
    for n in (1, 2, 3):
        for derivative in ("spectral", "fd"):
            for times in dict.fromkeys([(0.0,) * n, (0.0, 0.05, -0.02)[:n]]):  # flat, sloped
                for text in BLOCK_TEXTS:
                    yield n, derivative, times, text


def block_setup(n, derivative, times, text):
    cfg = LatticeConfig(n, 1.0, 8, 5.0, derivative=derivative)
    density = legendre_transform(parse_lagrangian(text))
    centers = tuple(0.2 * (j + 1) for j in range(n))
    state = init_wavefunctional(GaussianStateSpec(centers, widths=(1.0,) * n, phase=0.4), cfg)
    return cfg, density, state, SpacelikeSurface(times, 1.0)


@pytest.mark.parametrize("n,derivative,times,text", list(block_cases()))
def test_crank_nicolson_deform_step_matches_full_lattice_solve(n, derivative, times, text):
    """The Cayley factor on the blocks is the full-lattice CN step solved to roundoff."""
    cfg, density, state, surf = block_setup(n, derivative, times, text)
    evolver = SurfaceEvolver(density, cfg, "crank_nicolson")
    for site in range(n):
        step = evolver.deform_step(state, surf, site, 0.05)
        op = compile_hamiltonian(density, cfg, site_slopes(surf), sites=[site])
        full = crank_nicolson_step(op, state.psi, 0.05, tol=1e-13)
        assert np.max(np.abs(step.psi - full)) <= 1e-12


@pytest.mark.parametrize("n,derivative,times,text", list(block_cases()))
def test_exact_deform_step_matches_expm_of_local_density(n, derivative, times, text):
    cfg, density, state, surf = block_setup(n, derivative, times, text)
    evolver = SurfaceEvolver(density, cfg, "exact")
    for site in range(n):
        step = evolver.deform_step(state, surf, site, 0.05)
        mat = compile_hamiltonian(density, cfg, site_slopes(surf), sites=[site]).dense_matrix()
        full = (expm(-0.05j * mat / cfg.hbar) @ state.psi.ravel()).reshape(cfg.shape)
        assert np.max(np.abs(step.psi - full)) <= 1e-12


def test_site_blocks_need_a_local_density_on_the_pair_lattice():
    _, density, _ = free_setup()
    with pytest.raises(ValueError, match="at most two sites"):
        compile_hamiltonian(density, LatticeConfig(3, 1.0, 8, 6.0), sites=[0]).site_blocks()
    pair = LatticeConfig(2, 1.0, 8, 6.0)
    with pytest.raises(ValueError, match="site 0 only"):
        compile_hamiltonian(density, pair, sites=[1]).site_blocks()
    assert compile_hamiltonian(density, pair, sites=[0]).site_blocks().shape == (8, 8, 8)


def sweep_pairs(start, total, dt_values, directions=("left_right", "right_left")):
    """One (schedule_a, schedule_b) pair of sweeps per step."""
    return [tuple(DeformationSchedule.sweep(start, total, dt, d) for d in directions)
            for dt in dt_values]


def test_integrability_identical_schedules():
    cfg, density, state = free_setup()
    pairs = sweep_pairs(SpacelikeSurface.flat(3), 0.1, [0.05, 0.025], ("left_right",) * 2)
    report = integrability_test(state, density, pairs, [0.05, 0.025])
    assert report["discrepancies"] == [0.0, 0.0]
    assert report["degenerate"]
    assert report["flags"] == []


def test_integrability_potential_only():
    cfg = LatticeConfig(3, 1.0, 8, 6.0)
    density = diagonal_density(0.0, (0.0, 0.0, 0.5))
    state = init_wavefunctional(GaussianStateSpec((0.0,) * 3, widths=(1.0,) * 3), cfg)
    pairs = sweep_pairs(SpacelikeSurface.flat(3), 0.1, [0.05, 0.025])
    report = integrability_test(state, density, pairs, [0.05, 0.025])
    assert max(report["discrepancies"]) <= 1e-12
    # roundoff discrepancies (about 5e-17) whose ratio is below the floor raise no flag
    assert report["degenerate"] and report["fitted_order"] == 0.0 and report["flags"] == []


def test_integrability_free_field_first_order():
    cfg, density, state = free_setup()
    dt_values = [0.05, 0.025, 0.0125]
    pairs = sweep_pairs(SpacelikeSurface.flat(3), 0.1, dt_values)
    report = integrability_test(state, density, pairs, dt_values)
    assert all(r >= 1.8 for r in report["ratios"])
    assert report["fitted_order"] >= 0.85
    assert report["flags"] == []


def test_schedule_mismatch():
    cfg, density, state = free_setup()
    start = SpacelikeSurface.flat(3)
    pairs = [(DeformationSchedule.sweep(start, 0.1, dt, "left_right"),
              DeformationSchedule.sweep(start, 0.2, dt, "right_left")) for dt in (0.05, 0.025)]
    with pytest.raises(ScheduleMismatch):
        integrability_test(state, density, pairs, [0.05, 0.025])


def test_deform_step_not_spacelike():
    """The schedule's walk refuses the surface a move would reach, before the move runs."""
    cfg, density, state = free_setup()
    evolver = SurfaceEvolver(density, cfg, "exact")
    with pytest.raises(NotSpacelike):
        evolver.run_schedule(state, DeformationSchedule(SpacelikeSurface.flat(3), ((0, 2.0),)))


def test_pair_cache_one_entry_per_slope():
    """The sample sweep ladder meets 7 distinct site slopes and 9 (slope, dt) pairs, not 21."""
    config = json.loads((Path(__file__).parents[1] / "configs" / "surface_sweeps.json").read_text())
    lattice, block = config["lattice"], config["surface"]
    cfg = LatticeConfig(lattice["n_sites"], 1.0, lattice["q_points"], lattice["q_extent"])
    density = legendre_transform(parse_lagrangian(config["lagrangian"]["text"]))
    state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
    start = SpacelikeSurface.flat(cfg.n_sites)
    for integrator in ("exact", "crank_nicolson"):
        evolver = SurfaceEvolver(density, cfg, integrator)
        for dt in block["dt_values"]:
            for name in ("schedule_a", "schedule_b"):
                direction = block[name]["direction"]
                schedule = DeformationSchedule.sweep(start, block["total_time"], dt, direction)
                evolver.run_schedule(state, schedule)
        assert (len(evolver._eig_cache), len(evolver._prop_cache)) == (7, 9), integrator


def level_keys(pair):
    """The (site slope, step) propagator keys the moves of a level's two schedules take."""
    return {(surface.site_slope(site), float(dt)) for sched in pair
            for surface, (site, dt) in zip(sched.surfaces, sched.moves) if dt}


@pytest.mark.parametrize("kind,builds", [("sweep", 9), ("moves", 30)])
def test_ladder_holds_one_level_of_pair_propagators(kind, builds, monkeypatch):
    """Each (slope, step) propagator of a 3-level ladder is built once, as many as a ladder
    that kept every level's would build, and while a level runs the cache holds its keys alone.

    The ladders are the benchmark's flat sweep and curved ``moves`` ladders; no two of
    their levels share a step.
    """
    cfg, density, state = free_setup(q=8, lq=4.0)
    dt_values = [0.05, 0.025, 0.0125]
    if kind == "sweep":
        pairs = sweep_pairs(SpacelikeSurface.flat(3), 0.2, dt_values)
    else:
        start = SpacelikeSurface((0.06, -0.02, -0.04))
        moves = [[(j, (0.05, 0.04, 0.03)[j]) for _ in range(2) for j in order]
                 for order in ([0, 1, 2], [2, 1, 0])]
        pairs = [tuple(DeformationSchedule.refined(start, m, dt) for m in moves)
                 for dt in dt_values]
    levels = [level_keys(pair) for pair in pairs]
    held, built = [], []
    propagator = SurfaceEvolver._propagator

    def recorded(self, v_site, dt):
        before = len(self._prop_cache)
        u = propagator(self, v_site, dt)
        built.append(len(self._prop_cache) > before)
        held.append((dt, set(self._prop_cache)))
        return u

    monkeypatch.setattr(SurfaceEvolver, "_propagator", recorded)
    integrability_test(state, density, pairs, dt_values)
    assert sum(built) == len(set().union(*levels)) == builds
    for dt, keys in held:
        [level] = [keys_ for keys_ in levels if dt in {step for _, step in keys_}]
        assert keys <= level


def test_every_ladder_level_ends_on_level_zeros_end():
    """A sweep advances every site by exactly its total time, and ``refined`` splits each
    advance into exact parts, so every level of a ladder ends on level 0's end surface."""
    start = SpacelikeSurface((0.0, 0.1, 0.05))
    total = 0.3
    for direction in ("left_right", "right_left"):
        ladder = [DeformationSchedule.sweep(start, total, dt, direction)
                  for dt in (0.1, 0.05, 0.03, 0.015, 0.01, 0.003)]
        assert len({len(sched.moves) for sched in ladder}) == len(ladder)
        assert all(sched.end() == ladder[0].end() for sched in ladder)
        assert ladder[0].end().times == tuple(t + Fraction("0.3") for t in start.times)
        with pytest.raises(ValueError, match="not a multiple"):  # 4 rounds would end at 0.28
            DeformationSchedule.sweep(start, total, 0.07, direction)
    moves = [(0, 0.1), (1, -0.05), (2, 0.0), (0, 0.2), (2, 0.07), (1, 0.13)]
    ladder = [DeformationSchedule.refined(start, moves, dt)
              for dt in (0.2, 0.07, 0.03, 0.011, 0.007)]
    assert len({len(sched.moves) for sched in ladder}) == len(ladder)
    assert all(sched.end() == ladder[0].end() for sched in ladder)
    assert ladder[0].end().times == (Fraction("0.3"), Fraction("0.18"), Fraction("0.12"))


FLAT3 = SpacelikeSurface.flat(3)


@pytest.mark.parametrize("call,error,message", [
    (lambda: SpacelikeSurface(()), ValueError, "surface needs at least one site"),
    (lambda: fieldlab.surface._rounds(0.1, 0.0, 3), ValueError, "step 0.0 must be positive"),
    (lambda: fieldlab.surface._rounds(0.1, -0.05, 3), ValueError, "step -0.05 must be positive"),
    (lambda: DeformationSchedule.sweep(FLAT3, 0.1, 0.05, "up_down"), ValueError,
     "unknown direction 'up_down'"),
    (lambda: SurfaceEvolver(free_setup()[1], LatticeConfig(3, 1.0, 8, 6.0), "euler"), ValueError,
     "unknown integrator 'euler'"),
    (lambda: shared_endpoints(DeformationSchedule(FLAT3, ((2, 0.1),)),
                              DeformationSchedule(SpacelikeSurface((0.0, 0.0, 0.1)), ())),
     ScheduleMismatch, "schedules start on different surfaces"),
], ids=["no-sites", "zero-step", "negative-step", "unknown-direction", "unknown-integrator",
        "different-starts"])
def test_surface_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
