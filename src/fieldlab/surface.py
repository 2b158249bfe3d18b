"""Evolution of wavefunctionals under deformations of a spacelike surface.

A surface is a per-site time graph t_j with periodic link slopes
(t_{j+1} - t_j)/a bounded below the characteristic speed.  Elementary
deformations advance one site's time; the generator is the single-site
density operator a * H_j built with the mean of the adjacent link slopes.
Exact path independence would need commuting densities at distinct sites,
which fails at finite spacing, so same-endpoint schedules are compared under
step refinement instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionTooLarge, ScheduleMismatch
from .lagrangian import HamiltonianDensity
from .lattice import LatticeConfig, WaveFunctional, link_difference, norm, spacelike
from .operators import LatticeHamiltonian, compile_hamiltonian, site_slopes_from_links

MAX_MOVES = 10_000  # moves in one schedule; the largest committed ladder builds 48


@dataclass(frozen=True)
class SpacelikeSurface:
    """Per-site times with the spacelike link-slope bound |v| < 1."""

    times: tuple[float, ...]
    spacing: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if len(self.times) < 1:
            raise ValueError("surface needs at least one site")
        spacelike(self.link_slopes())

    @property
    def n_sites(self) -> int:
        return len(self.times)

    def link_slopes(self) -> np.ndarray:
        return link_difference(self.times, self.spacing)

    def site_slopes(self) -> np.ndarray:
        return site_slopes_from_links(self.link_slopes())

    def advanced(self, site: int, dt: float) -> "SpacelikeSurface":
        t = list(self.times)
        t[site] += dt
        return SpacelikeSurface(tuple(t), self.spacing)

    @classmethod
    def flat(cls, n_sites: int, t: float = 0.0, spacing: float = 1.0) -> "SpacelikeSurface":
        return cls((t,) * n_sites, spacing)


def _rounds(span: float, dt: float, moves_per_round: int) -> int:
    """round(span / dt), at least 1: the rounds at step ``dt``, checked before any move is built.

    Raises ValueError for a step that is not positive or whose count is not
    finite, and DimensionTooLarge when the rounds hold more than MAX_MOVES moves.
    """
    if not dt > 0:
        raise ValueError(f"step {dt} must be positive")
    rounds = span / dt
    if not math.isfinite(rounds):
        raise ValueError(f"step {dt} is too small to count the rounds in {span}")
    n_rounds = max(1, round(rounds))
    moves = float(n_rounds) * moves_per_round  # float: a huge int count cannot take :.3g
    if moves > MAX_MOVES:
        raise DimensionTooLarge(f"step {dt:g} needs {moves:.3g} moves, "
                                f"above the {MAX_MOVES} move schedule guard")
    return n_rounds


def surfaces_equal(a: SpacelikeSurface, b: SpacelikeSurface, tol: float = 1e-12) -> bool:
    return (a.n_sites == b.n_sites and a.spacing == b.spacing
            and np.allclose(a.times, b.times, rtol=0.0, atol=tol))


@dataclass(frozen=True)
class DeformationSchedule:
    """Ordered single-site advances; every intermediate surface is validated."""

    start: SpacelikeSurface
    moves: tuple[tuple[int, float], ...]

    def end(self) -> SpacelikeSurface:
        surface = self.start
        for site, dt in self.moves:
            surface = surface.advanced(site, dt)
        return surface

    @classmethod
    def sweep(cls, start: SpacelikeSurface, total_time: float, dt: float,
              direction: str = "left_right") -> "DeformationSchedule":
        """Repeated full sweeps advancing each site by dt until total_time."""
        n_rounds = _rounds(total_time, dt, start.n_sites)
        if abs(total_time / dt - n_rounds) > 1e-9:
            raise ValueError(f"total_time {total_time} is not a multiple of dt {dt}")
        if direction == "left_right":
            order = list(range(start.n_sites))
        elif direction == "right_left":
            order = list(range(start.n_sites - 1, -1, -1))
        else:
            raise ValueError(f"unknown direction {direction!r}")
        moves = tuple((j, dt) for _ in range(n_rounds) for j in order)
        return cls(start, moves)

    @classmethod
    def refined(cls, start: SpacelikeSurface, moves, dt: float) -> "DeformationSchedule":
        """``moves`` with each advance split into round(largest advance / dt) equal parts."""
        base = max((abs(step) for _, step in moves), default=1.0)
        split = _rounds(base, dt, len(moves))
        return cls(start, tuple((j, step / split) for j, step in moves for _ in range(split)))


def local_density_operator(density: HamiltonianDensity, cfg: LatticeConfig,
                           surface: SpacelikeSurface, site: int) -> LatticeHamiltonian:
    """The single term a * H_site on the full lattice, slopes from the surface."""
    if surface.n_sites != cfg.n_sites:
        raise ValueError("surface and lattice site counts differ")
    return compile_hamiltonian(density, cfg, surface.link_slopes(), sites=[site])


class SurfaceEvolver:
    """Applies elementary deformations with a chosen integrator.

    The generator a * H_j of a move at site j has momentum on axis j alone,
    and z_{j+1} enters it only as a multiplier, so it splits into Q Hermitian
    Q x Q blocks, one per neighbour value.  Their batched eigendecomposition
    is built once per site slope on the pair lattice, and a move applies
    V g(w) V^H block by block: g is the exponential for ``'exact'`` and the
    Cayley factor of one Crank-Nicolson step, solved exactly, for
    ``'crank_nicolson'``.
    """

    def __init__(self, density: HamiltonianDensity, cfg: LatticeConfig,
                 integrator: str = "crank_nicolson"):
        if integrator not in ("exact", "crank_nicolson"):
            raise ValueError(f"unknown integrator {integrator!r}")
        self.density = density
        self.cfg = cfg
        self.integrator = integrator
        self._eig_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._prop_cache: dict[tuple[float, float], np.ndarray] = {}

    def _propagator(self, v_site: float, dt: float) -> np.ndarray:
        """(Q_nb, Q, Q) one-move propagator blocks V g(w) V^H, from the slope's cached eigh."""
        if v_site not in self._eig_cache:
            n_mini = min(self.cfg.n_sites, 2)
            mini = compile_hamiltonian(self.density, replace(self.cfg, n_sites=n_mini),
                                       np.full(n_mini, v_site), sites=[0])
            self._eig_cache[v_site] = np.linalg.eigh(mini.site_blocks())
        key = (v_site, dt)
        if key not in self._prop_cache:
            w, vecs = self._eig_cache[v_site]
            x = dt * w / self.cfg.hbar
            g = np.exp(-1j * x) if self.integrator == "exact" else (1 - 0.5j * x) / (1 + 0.5j * x)
            self._prop_cache[key] = (vecs * g[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        return self._prop_cache[key]

    def deform_step(self, state: WaveFunctional, surface: SpacelikeSurface,
                    site: int, dt: float):
        """Advance t_site by dt; the generator is frozen at the input surface."""
        new_surface = surface.advanced(site, dt)  # raises NotSpacelike first
        if dt == 0.0:
            return state.copy(), new_surface
        # surface times accumulate roundoff; rounding the slope gives equal
        # slopes one cache key, and the blocks are built from the key
        v_site = round(float(surface.site_slopes()[site]), 12)
        u = self._propagator(v_site, dt)
        cfg, axes = self.cfg, ((site + 1) % self.cfg.n_sites, site)
        if cfg.n_sites == 1:  # a lone site is one block
            return WaveFunctional(cfg, u[0] @ state.psi), new_surface
        # (neighbour, site, rest) axes: a batched matmul applies one block per neighbour value
        moved = np.moveaxis(state.psi, axes, (0, 1))
        out = (u @ moved.reshape(len(u), cfg.q_points, -1)).reshape(moved.shape)
        return WaveFunctional(cfg, np.moveaxis(out, (0, 1), axes)), new_surface

    def run_schedule(self, state: WaveFunctional,
                     schedule: DeformationSchedule) -> WaveFunctional:
        surface = schedule.start
        for site, dt in schedule.moves:
            state, surface = self.deform_step(state, surface, site, dt)
        return state


def fit_order(dt_values, errors) -> float:
    """Least-squares slope of log error against log dt."""
    dt_values = np.asarray(dt_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = np.isfinite(errors) & (errors > 0) & (dt_values > 0)
    if mask.sum() < 2:
        return 0.0
    slope = np.polyfit(np.log(dt_values[mask]), np.log(errors[mask]), 1)[0]
    return float(slope)


def shared_endpoints(sched_a: DeformationSchedule, sched_b: DeformationSchedule,
                     reference: tuple[SpacelikeSurface, SpacelikeSurface] | None = None):
    """The (start, end) surfaces two schedules share, also with ``reference`` when given.

    Raises ScheduleMismatch when the schedules start or end on different
    surfaces, or when their endpoints differ from ``reference`` (the first
    level of a refinement ladder).
    """
    start, end = sched_a.start, sched_a.end()
    if not surfaces_equal(start, sched_b.start):
        raise ScheduleMismatch("schedules start on different surfaces")
    if not surfaces_equal(end, sched_b.end(), tol=1e-9):
        raise ScheduleMismatch("schedules end on different surfaces")
    if reference is None:
        return start, end
    if not (surfaces_equal(reference[0], start) and surfaces_equal(reference[1], end, tol=1e-9)):
        raise ScheduleMismatch("refinement levels changed the endpoint surfaces")
    return reference


def integrability_test(state: WaveFunctional, density: HamiltonianDensity,
                       build_a, build_b, dt_values,
                       integrator: str = "exact", ratio_floor: float = 1.8) -> dict:
    """Compare two same-endpoint schedule families under step refinement.

    ``build_a`` / ``build_b`` map a step size to a DeformationSchedule; all
    schedules must share start and end surfaces.  The report carries the L2
    discrepancies, consecutive-halving ratios, the fitted convergence order,
    and flags for any ratio below ``ratio_floor`` (a flagged run is a
    reported finding, not a failure: path independence here is a conjecture).
    """
    dt_values = [float(dt) for dt in dt_values]
    evolver = SurfaceEvolver(density, state.cfg, integrator)
    discrepancies = []
    reference = None
    for dt in dt_values:
        sched_a, sched_b = build_a(dt), build_b(dt)
        reference = shared_endpoints(sched_a, sched_b, reference)
        psi_a = evolver.run_schedule(state, sched_a)
        psi_b = evolver.run_schedule(state, sched_b)
        diff = WaveFunctional(state.cfg, psi_a.psi - psi_b.psi)
        discrepancies.append(norm(diff))

    ratios = []
    flags = []
    for i in range(len(discrepancies) - 1):
        later = discrepancies[i + 1]
        ratio = discrepancies[i] / later if later > 0 else None  # undefined, reported as null
        ratios.append(ratio)
        if ratio is not None and ratio < ratio_floor and discrepancies[i] > 1e-14:
            flags.append(
                f"ratio {ratio:.3f} between dt={dt_values[i]} and dt={dt_values[i + 1]} "
                f"below floor {ratio_floor}"
            )
    degenerate = all(d <= 1e-14 for d in discrepancies)
    order = 0.0 if degenerate else fit_order(dt_values, discrepancies)
    return {
        "dt_values": dt_values,
        "discrepancies": discrepancies,
        "ratios": ratios,
        "fitted_order": order,
        "degenerate": degenerate,
        "flags": flags,
    }
