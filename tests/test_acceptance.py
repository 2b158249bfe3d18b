"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test measures its own wall time against the stated budget.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from fieldlab.classical import (
    BoundaryData,
    hj_residuals,
    reparameterization_check,
    solve_extremal,
)
from fieldlab.cli import main as cli_main
from fieldlab.errors import SingularBVP
from fieldlab.evolve import (
    EvolveParams,
    ExactPropagator,
    crank_nicolson_step,
    evolve_crank_nicolson,
    evolve_strang,
)
from fieldlab.feynman import PathIntegralSpec, TransferOperator, brute_force_amplitudes, feynman_vs_schrodinger
from fieldlab.lagrangian import LagrangianSpec, diagonal_density, legendre_transform, parse_lagrangian
from fieldlab.lattice import (
    GaussianStateSpec,
    LatticeConfig,
    WaveFunctional,
    free_ground_state_covariance,
    init_wavefunctional,
    norm,
    site_moments,
)
from fieldlab.operators import compile_hamiltonian
from fieldlab.surface import DeformationSchedule, SpacelikeSurface, integrability_test

FREE = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*m^2*z^2", {"m": 1.0})
QUARTIC = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")


class budget:
    """Assert the body stays under the stated wall-time budget."""

    def __init__(self, seconds, label):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label}: {elapsed:.1f}s over the {self.seconds}s budget")
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")
        return False


def sampled_legendre_oracle(spec, z, zs, p, v):
    """Solve p = dF/d(zdot) numerically (quadratic F: the fd derivative is exact)."""
    eps = 1e-5

    def deriv(zdot):
        up = spec.evaluate(z, zdot + eps, zs - (zdot + eps) * v)
        dn = spec.evaluate(z, zdot - eps, zs - (zdot - eps) * v)
        return (up - dn) / (2.0 * eps)

    zdot = brentq(lambda x: deriv(x) - p, -1e4, 1e4, xtol=1e-13, rtol=8.9e-16)
    return p * zdot - float(spec.evaluate(z, zdot, zs - zdot * v))


def test_criterion_1_legendre_identity():
    rng = np.random.default_rng(101)
    with budget(1.0, "1 legendre-identity"):
        for _ in range(100):
            c2 = rng.uniform(0.2, 2.0)
            spec = LagrangianSpec(
                c2,
                rng.uniform(-1.0, 1.0),
                rng.uniform(-c2, 1.0),  # keeps c2 + g v^2 > 0 for |v| < 1
                tuple(rng.uniform(-1.0, 1.0, size=rng.integers(0, 5))),
            )
            density = legendre_transform(spec)
            for _ in range(3):
                z, zs, p = rng.uniform(-1.5, 1.5, size=3)
                v = rng.uniform(-0.9, 0.9)
                closed = float(density.evaluate(z, zs, p, v))
                assert abs(closed - sampled_legendre_oracle(spec, z, zs, p, v)) < 1e-10
            back = density.to_lagrangian()
            assert abs(back.kinetic_coeff - spec.kinetic_coeff) < 1e-12
            assert abs(back.kinetic_linear - spec.kinetic_linear) < 1e-12
            assert abs(back.gradient_coeff - spec.gradient_coeff) < 1e-12
            assert np.allclose(back.potential, spec.potential, atol=1e-12)


def test_criterion_2_operator_ground_truth():
    import test_operators

    with budget(1.0, "2 operator-ground-truth"):
        cfg = LatticeConfig(2, 1.0, 4, 6.0, derivative="fd")
        density = legendre_transform(FREE)
        compiled = compile_hamiltonian(density, cfg).dense_matrix()
        oracle = test_operators.dense_oracle_fd(density, cfg)
        assert np.max(np.abs(compiled - oracle)) < 1e-12


def test_criterion_3_flat_evolution():
    with budget(30.0, "3 flat-evolution"):
        cfg = LatticeConfig(2, 1.0, 32, 10.0)
        op = compile_hamiltonian(legendre_transform(FREE), cfg)
        state = init_wavefunctional(
            GaussianStateSpec((0.3, 0.0),
                              covariance=free_ground_state_covariance(cfg, 1.0).covariance),
            cfg)
        propagator = ExactPropagator(op)
        exact = propagator.propagate(state, 1.0)
        assert abs(norm(exact) - 1.0) < 1e-12

        errors = {"strang": [], "crank_nicolson": []}
        for dt in (1e-3, 5e-4):
            steps = int(round(1.0 / dt))
            s_out = evolve_strang(op, state, EvolveParams(dt, steps))
            c_out = evolve_crank_nicolson(op, state, EvolveParams(dt, steps))
            errors["strang"].append(norm(WaveFunctional(cfg, s_out.psi - exact.psi)))
            errors["crank_nicolson"].append(norm(WaveFunctional(cfg, c_out.psi - exact.psi)))
            if dt == 1e-3:
                assert errors["strang"][-1] < 1e-5
                assert errors["crank_nicolson"][-1] < 1e-5
                assert abs(norm(s_out) - 1.0) < 1e-9
        for method, errs in errors.items():
            order = np.log2(errs[0] / errs[1])
            assert 1.7 <= order <= 2.3, f"{method} order {order}"
        # Crank-Nicolson norm drift per step at tolerance 1e-10
        stepped = crank_nicolson_step(op, state.psi, 1e-3, 1e-10)
        assert abs(norm(WaveFunctional(cfg, stepped)) - 1.0) < 1e-9

        # oscillator coherent-state center (independent closed form)
        cfg1 = LatticeConfig(1, 1.0, 128, 16.0)
        op1 = compile_hamiltonian(legendre_transform(FREE), cfg1)
        coherent = init_wavefunctional(GaussianStateSpec((1.0,), widths=(1.0,)), cfg1)
        prop1 = ExactPropagator(op1)
        for t in (0.5, 1.0):
            z_mean, _ = site_moments(prop1.propagate(coherent, t))
            assert abs(z_mean[0] - np.cos(t)) < 1e-6


def test_criterion_4_feynman_identity():
    with budget(10.0, "4a feynman-identity"):
        cfg1 = LatticeConfig(1, 1.0, 8, 6.0)
        state1 = init_wavefunctional(free_ground_state_covariance(cfg1, 1.0), cfg1)
        cfg2 = LatticeConfig(2, 1.0, 4, 5.0)
        state2 = init_wavefunctional(
            GaussianStateSpec((0.2, -0.1), widths=(1.6, 1.5)), cfg2)
        for kernel in ("fresnel_exact", "lagrangian_riemann"):
            spec1 = PathIntegralSpec(2, 0.25, kernel)
            brute = brute_force_amplitudes(state1, spec1, FREE)
            transfer = TransferOperator(spec1, FREE, cfg1).evolve(state1)
            assert np.max(np.abs(brute - transfer.psi)) < 1e-12

            spec2 = PathIntegralSpec(1, 0.2, kernel)
            brute = brute_force_amplitudes(state2, spec2, FREE)
            transfer = TransferOperator(spec2, FREE, cfg2).evolve(state2)
            assert np.max(np.abs(brute - transfer.psi)) < 1e-12

    # 8**4 histories for each of 64 finals per kernel: the history sum runs in numpy blocks
    with budget(1.0, "4c brute-force-identity N=2 Q=8"):
        cfg3 = LatticeConfig(2, 1.0, 8, 6.0)
        state3 = init_wavefunctional(GaussianStateSpec((0.2, -0.1), widths=(1.2, 1.1)), cfg3)
        for kernel in ("fresnel_exact", "lagrangian_riemann"):
            spec3 = PathIntegralSpec(1, 0.2, kernel)
            brute = brute_force_amplitudes(state3, spec3, QUARTIC)
            transfer = TransferOperator(spec3, QUARTIC, cfg3).evolve(state3)
            assert np.max(np.abs(brute - transfer.psi)) < 1e-12

    with budget(60.0, "4b feynman-vs-schrodinger"):
        cfg = LatticeConfig(1, 1.0, 64, 12.0)
        state = init_wavefunctional(GaussianStateSpec((0.3,), widths=(1.0,)), cfg)
        report = feynman_vs_schrodinger(state, PathIntegralSpec(3, 0.05), QUARTIC, levels=3)
        d = report["distances"]
        assert d[0] / d[1] >= 1.8 and d[1] / d[2] >= 1.8
        assert report["fitted_order"] >= 1.0


def test_criterion_5_integrability():
    with budget(120.0, "5 integrability"):
        cfg = LatticeConfig(3, 1.0, 16, 8.0)
        density = legendre_transform(FREE)
        state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
        start = SpacelikeSurface.flat(3)
        dt_values = [0.05, 0.025, 0.0125]
        pairs = [(DeformationSchedule.sweep(start, 0.2, dt, "left_right"),
                  DeformationSchedule.sweep(start, 0.2, dt, "right_left")) for dt in dt_values]

        report = integrability_test(state, density, pairs, dt_values, integrator="exact")
        assert all(r >= 1.8 for r in report["ratios"]), report["ratios"]
        assert report["fitted_order"] >= 0.85
        assert report["flags"] == []

        control = diagonal_density(0.0, (0.0, 0.0, 0.5))
        control_state = init_wavefunctional(
            GaussianStateSpec((0.0,) * 3, widths=(1.0,) * 3), cfg)
        control_report = integrability_test(control_state, control, pairs[:2],
                                            dt_values[:2], integrator="exact")
        assert max(control_report["discrepancies"]) <= 1e-12


def test_criterion_6_hamilton_jacobi():
    with budget(60.0, "6 hamilton-jacobi"):
        bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (0.1, 0.4))
        report = hj_residuals(solve_extremal(bd, FREE, 1e-3), 1e-4)
        assert np.max(report["dSdz_final_rel"]) < 1e-4
        assert np.max(report["dSdt_final_rel"]) < 1e-4
        assert np.max(report["hj_resid"]) < 1e-4
        assert np.max(report["tangential_final"]) < 1e-8
        assert np.max(report["tangential_initial"]) < 1e-8

        osc = parse_lagrangian("0.5*zt^2 - 0.5*z^2")
        sol = solve_extremal(BoundaryData((0.0,), (1.0,), (0.3,), (-0.4,)), osc, 1e-3)
        closed = 1.0 / (2.0 * np.sin(1.0)) * (
            (0.3 ** 2 + 0.4 ** 2) * np.cos(1.0) - 2.0 * 0.3 * (-0.4))
        assert abs(sol.action - closed) < 1e-6

        with pytest.raises(SingularBVP):
            solve_extremal(BoundaryData((0.0,), (np.pi,), (0.3,), (-0.4,)), osc, 1e-3)


def test_criterion_7_reparameterization_symmetries():
    with budget(10.0, "7 reparameterization"):
        lagr = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2")
        bd = BoundaryData((0.0, 0.2, -0.1), (1.1, 1.0, 1.3),
                          (0.3, -0.2, 0.1), (0.0, 0.25, -0.3))
        report = reparameterization_check(solve_extremal(bd, lagr, 5e-3))
        assert report["cyclic_diff"] < 1e-12
        assert report["parity_diff"] < 1e-12
        assert report["time_shift_diff"] < 1e-12


def _tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_criterion_8_cli_determinism(tmp_path):
    with budget(10.0, "8 cli-determinism"):
        base = {
            "lagrangian": {"text": "0.5*zt^2 - 0.5*zx^2 - 0.5*m^2*z^2",
                           "params": {"m": 1.0}},
            "lattice": {"n_sites": 1, "q_points": 16, "q_extent": 8.0},
            "seed": 7,
        }
        commands = {
            "legendre": {"legendre": {}},
            "evolve": {"evolve": {"method": "strang", "dt": 1e-2, "steps": 10,
                                  "log_every": 5,
                                  "initial": {"kind": "ground_state", "mass": 1.0}}},
            "surface": {
                "lattice": {"n_sites": 3, "q_points": 8, "q_extent": 5.0},
                "surface": {"total_time": 0.1, "dt_values": [0.05, 0.025],
                            "integrator": "exact",
                            "initial": {"kind": "ground_state", "mass": 1.0},
                            "schedule_a": {"kind": "sweep", "direction": "left_right"},
                            "schedule_b": {"kind": "sweep", "direction": "right_left"}},
            },
            "feynman": {"feynman": {"kernel": "fresnel_exact", "dt": 0.1, "t_steps": 1,
                                    "levels": 2, "identity_check": "auto",
                                    "initial": {"kind": "ground_state", "mass": 1.0}}},
            "classical": {"classical": {"boundary": {"t0": [0.0], "t1": [1.0],
                                                     "z0": [0.3], "z1": [-0.4]},
                                        "dt_c": 1e-2, "checks": ["hj_residuals"]}},
        }
        for name, block in commands.items():
            payload = dict(base)
            payload.update(block)
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(payload))
            for suffix in ("a", "b"):
                code = cli_main(["run", str(config_path),
                                 "--out", str(tmp_path / f"{name}_{suffix}")])
                assert code == 0, name
            assert _tree_digest(tmp_path / f"{name}_a") == \
                _tree_digest(tmp_path / f"{name}_b"), name
