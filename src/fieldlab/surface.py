"""Evolution of wavefunctionals under deformations of a spacelike surface.

A surface is a per-site time graph t_j with periodic link slopes
(t_{j+1} - t_j)/a bounded below the characteristic speed.  Elementary
deformations advance one site's time; the generator is the single-site
density operator a * H_j at the site slope ``SpacelikeSurface.site_slope``,
the mean of the two adjacent link slopes.  Exact path independence would
need commuting densities at distinct sites, which fails at finite spacing,
so same-endpoint schedules are compared under step refinement instead.
Times are exact decimals (0.1 is 1/10): a sweep step must divide its total
time exactly, and schedules share an endpoint only when its times are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DimensionTooLarge, ScheduleMismatch
from .lagrangian import HamiltonianDensity
from .lattice import (ROUNDOFF_FLOOR, LatticeConfig, WaveFunctional, link_difference, norm,
                      refinement_verdict, spacelike)
from .operators import compile_hamiltonian

MAX_MOVES = 10_000  # moves in one schedule; the largest committed ladder builds 48
MAX_LADDER_MOVES = 100_000  # moves in all schedules of one ladder; configs/surface_sweeps.json builds 168


def _exact(value) -> Fraction:
    """``value`` as the decimal it prints as, so that 0.1 + 0.2 == 0.3; a Fraction as it is."""
    return value if isinstance(value, Fraction) else Fraction(repr(float(value)))


@dataclass(frozen=True, slots=True)
class SpacelikeSurface:
    """Exact per-site times with the spacelike link-slope bound |v| < 1."""

    times: tuple[Fraction, ...]
    spacing: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(map(_exact, self.times)))
        if len(self.times) < 1:
            raise ValueError("surface needs at least one site")
        spacelike(self.link_slopes())

    @property
    def n_sites(self) -> int:
        return len(self.times)

    def link_slopes(self) -> np.ndarray:
        return link_difference(self.times, self.spacing).astype(float)  # exact differences, rounded

    def site_slope(self, site: int) -> float:
        """Mean of the two link slopes at ``site``, (t_{j+1} - t_{j-1}) / 2a, rounded once."""
        t = self.times
        return float(t[(site + 1) % len(t)] - t[site - 1]) / (2 * self.spacing)

    def advanced(self, site: int, dt) -> "SpacelikeSurface":
        t = list(self.times)
        t[site] += _exact(dt)
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


@dataclass(frozen=True)
class DeformationSchedule:
    """Ordered single-site advances; a float step counts as the decimal it prints as."""

    start: SpacelikeSurface
    moves: tuple[tuple[int, Fraction], ...]

    @cached_property
    def surfaces(self) -> tuple[SpacelikeSurface, ...]:
        """The start and the surface after each move, walked and validated once."""
        walk = [self.start]
        for site, dt in self.moves:
            walk.append(walk[-1].advanced(site, dt))
        return tuple(walk)

    def end(self) -> SpacelikeSurface:
        return self.surfaces[-1]

    @classmethod
    def sweep(cls, start: SpacelikeSurface, total_time: float, dt: float,
              direction: str = "left_right") -> "DeformationSchedule":
        """Repeated full sweeps advancing each site by dt until total_time, which dt must divide."""
        n_rounds = _rounds(total_time, dt, start.n_sites)
        step = _exact(dt)
        if _exact(total_time) != n_rounds * step:
            raise ValueError(f"total_time {total_time} is not a multiple of dt {dt}")
        if direction not in ("left_right", "right_left"):
            raise ValueError(f"unknown direction {direction!r}")
        order = range(start.n_sites)[::1 if direction == "left_right" else -1]
        return cls(start, tuple((j, step) for _ in range(n_rounds) for j in order))

    @classmethod
    def refined(cls, start: SpacelikeSurface, moves, dt: float) -> "DeformationSchedule":
        """``moves`` with each advance split into round(largest advance / dt) equal parts."""
        base = max((abs(step) for _, step in moves), default=1.0)
        split = _rounds(base, dt, len(moves))
        parts = [(j, _exact(step) / split) for j, step in moves]
        return cls(start, tuple(part for part in parts for _ in range(split)))


class SurfaceEvolver:
    """Applies elementary deformations with a chosen integrator.

    The generator a * H_j of a move at site j has momentum on axis j alone,
    and z_{j+1} enters it only as a multiplier, so it splits into Q Hermitian
    Q x Q blocks, one per neighbour value.  Their batched eigendecomposition
    is built once per site slope on the pair lattice, and a move applies
    V g(w) V^H block by block: g is the exponential for ``'exact'`` and the
    Cayley factor of one Crank-Nicolson step, solved exactly, for
    ``'crank_nicolson'``.  Slopes are rounded once from exact times, so
    equal slopes share one cache entry.  The eigh cache lives as long as the
    evolver; ``keep_steps`` drops the propagators of steps no later move takes.
    """

    def __init__(self, density: HamiltonianDensity, cfg: LatticeConfig, integrator: str):
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
                                       v_site, sites=[0])
            self._eig_cache[v_site] = np.linalg.eigh(mini.site_blocks())
        key = (v_site, dt)
        if key not in self._prop_cache:
            w, vecs = self._eig_cache[v_site]
            x = dt * w / self.cfg.hbar
            g = np.exp(-1j * x) if self.integrator == "exact" else (1 - 0.5j * x) / (1 + 0.5j * x)
            self._prop_cache[key] = (vecs * g[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        return self._prop_cache[key]

    def keep_steps(self, steps) -> None:
        """Drop the cached propagators of every step outside ``steps``."""
        self._prop_cache = {key: u for key, u in self._prop_cache.items() if key[1] in steps}

    def deform_step(self, state: WaveFunctional, surface: SpacelikeSurface,
                    site: int, dt) -> WaveFunctional:
        """Advance t_site by dt from ``surface``, where the generator is frozen;
        the schedule's walk has validated the surface it reaches."""
        if dt == 0:
            return state.copy()
        u = self._propagator(surface.site_slope(site), float(dt))
        cfg, axes = self.cfg, ((site + 1) % self.cfg.n_sites, site)
        if cfg.n_sites == 1:  # a lone site is one block
            return WaveFunctional(cfg, u[0] @ state.psi)
        # (neighbour, site, rest) axes: a batched matmul applies one block per neighbour value
        moved = np.moveaxis(state.psi, axes, (0, 1))
        out = (u @ moved.reshape(len(u), cfg.q_points, -1)).reshape(moved.shape)
        return WaveFunctional(cfg, np.moveaxis(out, (0, 1), axes))

    def run_schedule(self, state: WaveFunctional,
                     schedule: DeformationSchedule) -> WaveFunctional:
        """Apply every move from the surface the schedule's walk reached before it."""
        for surface, (site, dt) in zip(schedule.surfaces, schedule.moves):
            state = self.deform_step(state, surface, site, dt)
        return state


def shared_endpoints(sched_a: DeformationSchedule, sched_b: DeformationSchedule):
    """The (start, end) surfaces two schedules share.

    Raises ScheduleMismatch when the schedules start or end on different
    surfaces; surfaces match only when their times are exactly equal.  The
    levels of a refinement ladder need no check against each other: a sweep
    advances every site by exactly its total time, and ``refined`` splits each
    advance into exact parts, so every level ends where level 0 ends.
    """
    start, end = sched_a.start, sched_a.end()
    if start != sched_b.start:
        raise ScheduleMismatch("schedules start on different surfaces")
    if end != sched_b.end():
        raise ScheduleMismatch("schedules end on different surfaces")
    return start, end


def integrability_test(state: WaveFunctional, density: HamiltonianDensity,
                       schedules, dt_values,
                       integrator: str = "exact", ratio_floor: float = 1.8) -> dict:
    """Compare two same-endpoint schedule families under step refinement.

    ``schedules`` holds one (schedule_a, schedule_b) pair per step of
    ``dt_values``, the ladder that ``DeformationSchedule.sweep`` or ``refined``
    builds; each pair must share its start and end surfaces (``shared_endpoints``).
    The report carries the L2 discrepancies, ``refinement_verdict``'s ratios,
    fitted order and ``degenerate`` verdict, and flags each ratio below ``ratio_floor``
    whose coarser discrepancy is above ROUNDOFF_FLOOR (a flagged run is a reported
    finding, not a failure: path independence here is a conjecture).  Once a level
    is run, the propagators of the steps no later level takes are dropped, so the
    ladder holds about one level of them and builds each once.
    """
    dt_values = [float(dt) for dt in dt_values]
    for pair in schedules:
        shared_endpoints(*pair)
    steps = [{float(dt) for sched in pair for _, dt in sched.moves} for pair in schedules]
    evolver = SurfaceEvolver(density, state.cfg, integrator)
    discrepancies = []
    for i, (sched_a, sched_b) in enumerate(schedules):
        psi_a = evolver.run_schedule(state, sched_a).psi
        psi_b = evolver.run_schedule(state, sched_b).psi
        discrepancies.append(norm(WaveFunctional(state.cfg, psi_a - psi_b)))
        evolver.keep_steps(set().union(*steps[i + 1:]))

    ratios, degenerate, order = refinement_verdict(dt_values, discrepancies)
    flags = [f"ratio {ratio:.3f} between dt={dt_values[i]} and dt={dt_values[i + 1]} "
             f"below floor {ratio_floor}"
             for i, ratio in enumerate(ratios)
             if ratio is not None and ratio < ratio_floor and discrepancies[i] > ROUNDOFF_FLOOR]
    return {
        "dt_values": dt_values,
        "discrepancies": discrepancies,
        "ratios": ratios,
        "fitted_order": order,
        "degenerate": degenerate,
        "flags": flags,
    }
