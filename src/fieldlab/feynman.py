"""Constructive path integral: brute-force history sums and transfer operators.

The amplitude at a final field configuration is the sum over all grid-valued
field histories of measure * exp(i S / h) * psi0(initial slice), with S the
classical extremals' ``lattice.field_action`` under the Riemann rule (1, 0).
The same sum factorizes into iterated one-step transfer operators; that
identity is exact for any kernel and is the module's central test.

Two kinetic kernels are provided: ``fresnel_exact`` is the compiled
operator's Lie-Trotter kinetic block (the transfer step is then the
operator's Lie-Trotter step, the one Strang splitting repeats), and
``lagrangian_riemann`` is the literal Riemann-sum reading with the Gaussian
kinetic phase taken from the discrete action itself, normalized per site and
step by sqrt(2 c2 a / (2 pi i h dt)).  The two agree as the field grid is
refined.  Both take their diagonal phase from the compiled operator, whose
flat field diagonal is the Lagrangian's non-kinetic part; the Riemann
history sum evaluates the discrete action instead, so its identity also
checks the compiled diagonal against the Lagrangian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, EnumerationTooLarge, ShapeMismatch
from .evolve import MAX_STEPS, ExactPropagator
from .lagrangian import LagrangianSpec, legendre_transform
from .lattice import (ROUNDOFF_FLOOR, LatticeConfig, WaveFunctional, field_action, norm,
                      refinement_verdict)
from .operators import _trotter_steps, check_dense, compile_hamiltonian

ENUMERATION_GUARD = 2 ** 22
AUTO_IDENTITY_HISTORIES = 2 ** 14  # the most histories an "auto" identity check sums
BLOCK_TERMS = 2 ** 14  # history-final terms the history sum forms at once

KERNELS = ("fresnel_exact", "lagrangian_riemann")


@dataclass(frozen=True)
class PathIntegralSpec:
    """Slice layout: t_steps intermediate slices, so t_steps + 1 kernel steps."""

    t_steps: int
    dt: float
    kernel: str = "fresnel_exact"

    def __post_init__(self):
        if self.t_steps < 0:
            raise ValueError("t_steps must be nonnegative")
        if self.dt < 0:
            raise ValueError("dt must be nonnegative")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")
        if self.kernel == "lagrangian_riemann" and self.dt == 0.0:
            raise ValueError("the lagrangian_riemann kernel needs dt > 0")

    @property
    def total_time(self) -> float:
        return (self.t_steps + 1) * self.dt


def discrete_action(histories: np.ndarray, pspec: PathIntegralSpec,
                    lagr: LagrangianSpec, cfg: LatticeConfig) -> np.ndarray:
    """S = sum_t sum_j dt a F(z_j^t, forward dz/dt, forward dz/dx), ``field_action``'s rule (1, 0).

    The last two axes of ``histories`` are its t_steps + 2 slices, both
    boundary slices included, and its sites; the leading axes, if any, index
    histories, and the result has their shape.
    """
    histories = np.asarray(histories, dtype=float)
    expected = (pspec.t_steps + 2, cfg.n_sites)
    if histories.shape[-2:] != expected:
        raise ShapeMismatch(f"history shape {histories.shape}, expected (..., {expected})")
    return field_action(histories, lagr, cfg.spacing, pspec.dt, (1.0, 0.0))


def _riemann_measure(pspec: PathIntegralSpec, lagr: LagrangianSpec,
                     cfg: LatticeConfig) -> complex:
    """dz sqrt(c2 a / (pi h dt)) e^(-i pi / 4): the quadrature weight dz times the
    Gaussian normalization sqrt(2 c2 a / (2 pi i h dt)), per site and step."""
    return cfg.dz * np.sqrt(lagr.kinetic_coeff * cfg.spacing / (np.pi * cfg.hbar * pspec.dt)) \
        * np.exp(-0.25j * np.pi)


class TransferOperator:
    """One time-step map: diagonal action phase then the (Q, Q) kinetic kernel per site.

    The diagonal phase and the ``fresnel_exact`` kernel are the compiled flat
    operator's ``trotter_factors`` (its site terms share one kinetic block), so
    that kernel's step is the operator's Lie-Trotter step.  The
    ``lagrangian_riemann`` kernel is the discrete action's kinetic part,
    quadrature weight included.
    """

    def __init__(self, pspec: PathIntegralSpec, lagr: LagrangianSpec, cfg: LatticeConfig):
        self.pspec = pspec
        self.cfg = cfg
        op = compile_hamiltonian(legendre_transform(lagr), cfg)
        self.diag_phase, blocks = op.trotter_factors(pspec.dt)
        self.kinetic = blocks[0][1]
        if pspec.kernel == "lagrangian_riemann":
            # a dt (c2 (delta/dt)^2 + c1 delta/dt)
            a, h, dt = cfg.spacing, cfg.hbar, pspec.dt
            c2, c1 = lagr.kinetic_coeff, lagr.kinetic_linear
            delta = np.subtract.outer(cfg.z_values(), cfg.z_values())
            self.kinetic = (_riemann_measure(pspec, lagr, cfg)
                            * np.exp(1j * a * (c2 * delta ** 2 / dt + c1 * delta) / h))
        self.blocks = [(j, self.kinetic) for j in range(cfg.n_sites)]

    def step(self, psi: np.ndarray) -> np.ndarray:
        return _trotter_steps(self.diag_phase, self.blocks, psi[None].copy(), 1)[0]

    def evolve(self, state: WaveFunctional) -> WaveFunctional:
        psi = state.psi
        for _ in range(self.pspec.t_steps + 1):
            psi = self.step(psi)
        return WaveFunctional(self.cfg, psi)


def history_count(pspec: PathIntegralSpec, cfg: LatticeConfig) -> int:
    """Q^(N (t_steps + 1)): the grid histories of the free slices, the initial one included."""
    return cfg.q_points ** (cfg.n_sites * (pspec.t_steps + 1))


def check_enumerable(pspec: PathIntegralSpec, cfg: LatticeConfig) -> int:
    """The history count, or EnumerationTooLarge above ENUMERATION_GUARD.

    A grid has at least two points, so a count over as many free site values
    as the guard has bits is past it; such a count, which at a ``t_steps``
    near 2**62 has about 10**19 digits, is refused without being formed.
    """
    slices = cfg.n_sites * (pspec.t_steps + 1)
    count = history_count(pspec, cfg) if slices < ENUMERATION_GUARD.bit_length() else None
    if count is None or count > ENUMERATION_GUARD:
        shown = f"{cfg.q_points}^{slices}" if count is None else count
        raise EnumerationTooLarge(
            f"{shown} histories exceed the enumeration guard {ENUMERATION_GUARD}")
    return count


def brute_force_amplitudes(state: WaveFunctional, pspec: PathIntegralSpec,
                           lagr: LagrangianSpec) -> np.ndarray:
    """Literal history sum for every final configuration (the exact oracle).

    Free slices are the initial slice (weighted by psi0, summed over) and the
    t_steps intermediates; the final slice indexes the output array.
    Histories are enumerated in blocks of consecutive indices, each a digit
    string (slice-major, then site) over the Q grid points.  Every history's
    weight is formed whole, then summed over the block for each final.
    """
    cfg = state.cfg
    count = check_enumerable(pspec, cfg)
    n, q = cfg.n_sites, cfg.q_points
    n_free = pspec.t_steps + 1
    places = q ** np.arange(n * n_free - 1, -1, -1)
    block = max(1, BLOCK_TERMS // cfg.dim)
    site_places = q ** np.arange(n - 1, -1, -1)  # a slice's digits to its grid index
    finals = np.indices(cfg.shape).reshape(n, -1).T
    psi0 = state.psi.ravel()
    riemann = pspec.kernel == "lagrangian_riemann"
    if riemann:
        measure = _riemann_measure(pspec, lagr, cfg) ** (n * n_free)
        zg = cfg.z_values()
        z_final = zg[finals][:, None, None, :]
    else:
        transfer = TransferOperator(pspec, lagr, cfg)
        kin, diag_phase = transfer.kinetic, transfer.diag_phase.ravel()

    out = np.zeros(len(finals), dtype=np.complex128)
    for start in range(0, count, block):
        hist = np.arange(start, min(start + block, count))
        idx = (hist[:, None] // places % q).reshape(-1, n_free, n)  # (B, slice, site)
        weight = psi0[idx[:, 0] @ site_places]
        if riemann:
            histories = np.empty((len(finals), len(hist), n_free + 1, n))
            histories[:, :, :-1] = zg[idx]
            histories[:, :, -1:] = z_final
            s_val = discrete_action(histories, pspec, lagr, cfg)
            terms = measure * np.exp(1j * s_val / cfg.hbar) * weight  # (F, B)
        else:
            for t in range(n_free):
                weight = weight * diag_phase[idx[:, t] @ site_places]
                if t + 1 < n_free:
                    for j in range(n):
                        weight = weight * kin[idx[:, t + 1, j], idx[:, t, j]]
            terms = weight * kin[finals[:, :1], idx[:, -1, 0]]  # (F, B)
            for j in range(1, n):
                terms *= kin[finals[:, j:j + 1], idx[:, -1, j]]
        out += terms.sum(axis=1)
    return out.reshape(cfg.shape)


def ladder_specs(pspec: PathIntegralSpec, levels: int,
                 cfg: LatticeConfig) -> list[PathIntegralSpec]:
    """The dt ladder: level l takes (t_steps + 1) * 2**l kernel steps of dt / 2**l.

    Scaling by a power of two is exact, so level 0 is ``pspec`` and every level
    spans ``pspec.total_time``.  Raises DimensionTooLarge when the finest level
    would take more than MAX_STEPS kernel steps, ValueError naming the first level
    whose spec is refused (a Riemann step that underflows to 0), and, through
    ``check_dense``, DimensionTooLarge when a nonzero time has no dense exact reference.
    """
    if pspec.t_steps + 1 > MAX_STEPS >> max(levels - 1, 0):
        raise DimensionTooLarge(f"{levels} levels of {pspec.t_steps + 1} kernel steps "
                                f"exceed the {MAX_STEPS} step guard at the finest level")
    specs = []
    for level in range(levels):
        dt = pspec.dt / 2 ** level
        try:
            specs.append(PathIntegralSpec((pspec.t_steps + 1) * 2 ** level - 1, dt, pspec.kernel))
        except ValueError as exc:
            raise ValueError(f"ladder level {level} (dt = {pspec.dt!r} / 2**{level} = {dt!r}): "
                             f"{exc}") from None
    if pspec.total_time:
        check_dense(cfg)
    return specs


def feynman_vs_schrodinger(state: WaveFunctional, specs: list[PathIntegralSpec],
                           lagr: LagrangianSpec) -> tuple[dict, WaveFunctional]:
    """Transfer-operator evolution down a ``ladder_specs`` ladder against the exact exponential.

    Returns the report and level 0's transfer state.  The report carries L2
    distances, ``refinement_verdict``'s fitted order in dt, and a flag for each level
    whose distance grew past ROUNDOFF_FLOOR as dt halved (a ladder that diverges, not
    a failure).  At zero total time every distance is 0, and only level 0 is evolved.
    """
    cfg, total_time = state.cfg, specs[0].total_time
    if total_time:
        # the dense propagator first; after the transfer runs, peak RSS rose 0.4 MB (N=2, Q=32)
        density = legendre_transform(lagr)
        exact = ExactPropagator(compile_hamiltonian(density, cfg)).propagate(state, total_time)
        evolved = [TransferOperator(spec, lagr, cfg).evolve(state) for spec in specs]
        distances = [norm(WaveFunctional(cfg, level.psi - exact.psi)) for level in evolved]
    else:
        evolved = [TransferOperator(specs[0], lagr, cfg).evolve(state)]
        distances = [0.0] * len(specs)
    dt_values = [spec.dt for spec in specs]
    _, _, order = refinement_verdict(dt_values, distances)
    flags = [f"level {i}: distance grew from {distances[i - 1]:.3e} to {distances[i]:.3e} "
             f"as dt halved to {dt_values[i]}"
             for i in range(1, len(specs)) if distances[i] > max(distances[i - 1], ROUNDOFF_FLOOR)]
    return {
        "dt_values": dt_values,
        "distances": distances,
        "fitted_order": order,
        "flags": flags,
        "kernel": specs[0].kernel,
        "total_time": total_time,
    }, evolved[0]
