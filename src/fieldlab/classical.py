"""Discrete action extremals between two surfaces and boundary variations.

The domain between the surfaces t0_j < t1_j is covered by a grid with a
shared row count R: site j steps uniformly from t0_j to t1_j, so row 0 is
the first surface and row R the second, and intermediate rows are slanted
surfaces whose link slopes feed the slope-corrected spatial derivative
zx = zs - zdot * v.  The action is the history sum's ``lattice.field_action``
under the trapezoid rule (1/2, 1/2), so its value converges at second order
in the row step; the kinetic term uses forward differences, which keeps the
stationary equations of Verlet type.

Boundary momenta and the energy / flux densities come from one-sided
second-order differences at the boundary rows; with the sign conventions
used here the energy density of a static extremal sitting at a potential
minimum equals +V(const).
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .errors import DimensionTooLarge, NewtonDivergence, SingularBVP
from .lagrangian import LagrangianSpec, legendre_transform
from .lattice import field_action, link_difference, refinement_verdict, spacelike

COND_LIMIT = 1e12
NEWTON_TOL = 1e-10
ROUNDOFF_MARGIN = 4.0  # Newton also stops within this many roundoff floors of the gradient
NEWTON_MAXITER = 60
# (R+1)*N.  A 32-site solve at the guard peaks near 0.3 GB; the boundary checks keep the
# base grid while they solve on another, which for a free field (whose grid keeps its
# factorization) takes the peak to 0.53 GB
MAX_GRID_POINTS = 250_000

_FLAPACK = None  # scipy's compiled LAPACK extension, loaded by _flapack() when first needed


@dataclass(frozen=True)
class BoundaryData:
    """Two non-intersecting spacelike surfaces with field values on them."""

    t0: tuple[float, ...]
    t1: tuple[float, ...]
    z0: tuple[float, ...]
    z1: tuple[float, ...]
    spacing: float = 1.0

    def __post_init__(self):
        for name in ("t0", "t1", "z0", "z1"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        n = len(self.t0)
        if not (len(self.t1) == len(self.z0) == len(self.z1) == n) or n < 1:
            raise ValueError("boundary arrays must share a common nonzero length")
        if any(b <= a for a, b in zip(self.t0, self.t1)):
            raise ValueError("surfaces must satisfy t0_j < t1_j at every site")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        for name in ("t0", "t1"):
            spacelike(link_difference(getattr(self, name), self.spacing), f"{name} link slopes")

    @property
    def n_sites(self) -> int:
        return len(self.t0)

    def with_entry(self, name: str, j: int, value: float) -> "BoundaryData":
        """Copy with entry ``j`` of the array ``name`` (t0, t1, z0 or z1) set to ``value``."""
        values = list(getattr(self, name))
        values[j] = value
        return dataclasses.replace(self, **{name: tuple(values)})

    def relabeled(self, shift: int) -> "BoundaryData":
        roll = lambda arr: tuple(np.roll(np.asarray(arr), shift))
        return BoundaryData(roll(self.t0), roll(self.t1), roll(self.z0), roll(self.z1),
                            self.spacing)

    def reflected(self) -> "BoundaryData":
        rev = lambda arr: tuple(reversed(arr))
        return BoundaryData(rev(self.t0), rev(self.t1), rev(self.z0), rev(self.z1),
                            self.spacing)

    def shifted(self, dt: float) -> "BoundaryData":
        move = lambda arr: tuple(x + dt for x in arr)
        return BoundaryData(move(self.t0), move(self.t1), self.z0, self.z1, self.spacing)


def _ring_order(n: int) -> np.ndarray:
    """Sites in the order 0, n-1, 1, n-2, ...: ring neighbours sit at most two places apart."""
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    return order


def _band_matvec(band: np.ndarray, x: np.ndarray, absolute: bool = False) -> np.ndarray:
    """``A @ x`` for a square A held in band storage, ``band[b + row - col, col]``.

    With ``absolute``, ``|A| @ x``, taking one diagonal's magnitudes at a time.
    """
    b = band.shape[0] // 2
    m = x.size
    y = np.zeros(m)
    for k, diag in enumerate(band):
        if absolute:
            diag = np.abs(diag)
        d = k - b
        if d >= 0:
            y[d:] += diag[:m - d] * x[:m - d]
        else:
            y[:d] += diag[-d:] * x[-d:]
    return y


class _ActionGrid:
    """Vectorized action, gradient, and banded Hessian on the row grid.

    Site-local terms (kinetic, potential) carry the site measure a*delta_j;
    link terms carry the link-symmetric measure a*(delta_j + delta_{j+1})/2
    and couple the slope to the link-centered time derivative
    (q_j + q_{j+1})/2, which makes cyclic and reflected site relabelings
    exact symmetries of the discrete action even between curved surfaces.

    Flat vectors (``gradient``, ``interior_system``) run row by row with each
    row's sites in ``_ring_order``, so the Hessian's half-bandwidth is
    ``b = n + 2`` at most rather than ``2n - 1``; ``flatten`` and ``unflatten``
    convert from and to the (R+1, N) site order.
    """

    def __init__(self, bd: BoundaryData, lagr: LagrangianSpec, n_rows: int):
        self.surfaces = (bd.t0, bd.t1, bd.spacing)
        self.lagr = lagr
        self.R = n_rows
        self.n = bd.n_sites
        self.a = bd.spacing
        t0 = np.asarray(bd.t0)
        t1 = np.asarray(bd.t1)
        self.delta = (t1 - t0) / n_rows                      # per-site row step
        rows = np.arange(n_rows + 1)[:, None]
        self.row_times = t0[None, :] + rows * self.delta[None, :]
        self.v_rows = link_difference(self.row_times, self.a, axis=1)
        self.w = self.a * self.delta                         # site cell measure
        self.w_link = self.a * 0.5 * (self.delta + np.roll(self.delta, -1))
        weights = np.ones((n_rows + 1, self.n))
        weights[0] = weights[-1] = 0.5
        self.w_pot = weights * self.w[None, :]               # trapezoid potential weights
        self.n_points = (n_rows + 1) * self.n
        self.order = _ring_order(self.n)
        self.rank = np.argsort(self.order)                   # place of site j within a row
        self.b = self.n + int(np.max(np.abs(self.rank - np.roll(self.rank, -1))))
        self.interior = slice(self.n, self.n_points - self.n)
        self._w_pot_flat = self.flatten(self.w_pot)
        self._assemble_quadratic()
        self._solve = None      # the factorization of a constant Hessian, once made

    def flatten(self, z: np.ndarray) -> np.ndarray:
        return z[:, self.order].ravel()

    def unflatten(self, z_flat: np.ndarray) -> np.ndarray:
        z = np.empty((self.R + 1, self.n))
        z[:, self.order] = z_flat.reshape(self.R + 1, self.n)
        return z

    def _slot_indices(self):
        r, j = np.meshgrid(np.arange(self.R), np.arange(self.n), indexing="ij")
        here = r * self.n + self.rank[j]
        right = r * self.n + self.rank[(j + 1) % self.n]
        return r, j, (here, here + self.n, right, right + self.n)

    def _functionals(self, r, j):
        """Coefficient stacks (4 slots, cells) of the linear maps q, X0, X1.

        X_rho = zs_rho - (q_j + q_{j+1})/2 * v_rho; the link-centered time
        derivative keeps X odd under site reflection.
        """
        inv_d = 1.0 / self.delta[j]
        inv_dn = 1.0 / self.delta[(j + 1) % self.n]
        v0 = self.v_rows[r, j]
        v1 = self.v_rows[r + 1, j]
        inv_a = np.full_like(inv_d, 1.0 / self.a)
        zero = np.zeros_like(inv_d)
        cq = np.stack([-inv_d, inv_d, zero, zero])
        cx0 = np.stack([-inv_a + 0.5 * v0 * inv_d, -0.5 * v0 * inv_d,
                        inv_a + 0.5 * v0 * inv_dn, -0.5 * v0 * inv_dn])
        cx1 = np.stack([0.5 * v1 * inv_d, -inv_a - 0.5 * v1 * inv_d,
                        0.5 * v1 * inv_dn, inv_a - 0.5 * v1 * inv_dn])
        return cq, cx0, cx1

    def _assemble_quadratic(self):
        """The quadratic Hessian part as ``band[b + row - col, col]`` and the linear term."""
        lagr = self.lagr
        r, j, slots = self._slot_indices()
        r, j = r.ravel(), j.ravel()
        slots = [s.ravel() for s in slots]
        cq, cx0, cx1 = self._functionals(r, j)
        w = self.w[j]
        w_link = self.w_link[j]
        terms = [(coeffs, scale) for coeffs, scale in
                 ((cq, 2.0 * lagr.kinetic_coeff * w),
                  (cx0, lagr.gradient_coeff * w_link),
                  (cx1, lagr.gradient_coeff * w_link)) if np.any(scale)]
        b, m = self.b, self.n_points
        self.band = np.zeros((2 * b + 1, m))
        flat = self.band.reshape(-1)
        for alpha in range(4):
            for beta in range(4):
                vals = sum(scale * coeffs[alpha] * coeffs[beta] for coeffs, scale in terms)
                if np.any(vals):
                    # one cell per column slot, so the targets of a slot pair are distinct
                    flat[(b + slots[alpha] - slots[beta]) * m + slots[beta]] += vals
        lin = np.zeros(m)
        c1w = lagr.kinetic_linear * w
        for alpha in range(4):
            np.add.at(lin, slots[alpha], c1w * cq[alpha])
        self.lin = lin

    # -- evaluation ---------------------------------------------------------

    def action(self, z: np.ndarray) -> float:
        return float(field_action(z, self.lagr, self.a, self.delta, (0.5, 0.5), self.v_rows))

    def gradient(self, z_flat: np.ndarray) -> np.ndarray:
        pot = self._w_pot_flat * self.lagr.potential_derivative(z_flat)
        return _band_matvec(self.band, z_flat) + self.lin - pot

    def gradient_floor(self, z_flat: np.ndarray) -> float:
        """Roundoff floor of the interior gradient at ``z_flat``.

        eps times the largest interior row sum of the magnitudes of the
        gradient's terms, ``|band| |z| + |lin| + |pot|``: a residual below it
        is rounding noise.
        """
        pot = self._w_pot_flat * self.lagr.potential_derivative(z_flat)
        terms = (_band_matvec(self.band, np.abs(z_flat), absolute=True)
                 + np.abs(self.lin) + np.abs(pot))
        return float(np.finfo(float).eps * terms[self.interior].max())

    def interior_system(self, z_flat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The Hessian block of the interior rows at ``z_flat``, written into ``out``.

        ``out`` is a Fortran-ordered (3b+1, interior points) array in dgbtrf's layout: the
        band sits in rows b..3b and rows 0..b-1 are left for the fill-in.
        """
        b, inner = self.b, self.interior
        m = out.shape[1]
        out[:b] = 0.0
        out[b:] = self.band[:, inner]
        for k in range(2 * b + 1):      # entries whose row lies outside the interior
            d = k - b
            if d < 0:
                out[b + k, :-d] = 0.0
            elif d > 0:
                out[b + k, m - d:] = 0.0
        out[2 * b] -= self._w_pot_flat[inner] * self.lagr.potential_second_derivative(z_flat[inner])
        return out

    def factor(self, z_flat: np.ndarray, work: np.ndarray):
        """``solve(rhs)`` with the interior Hessian at ``z_flat``, factored by ``_factor``.

        The factorization overwrites ``work``, an ``interior_system`` array.
        A potential of degree at most 2 has a constant Hessian: its first
        factorization, with its condition check, stays with the grid and
        serves every later call, which leaves their ``work`` unused.
        """
        if self._solve is not None:
            return self._solve
        solve = _factor(self.interior_system(z_flat, work), self.b)
        if len(self.lagr.potential) <= 3:
            self._solve = solve
        return solve

    def interpolant(self, z0, z1) -> np.ndarray:
        """The straight line between the boundary values; its end rows are z0 and z1 exactly."""
        z = np.empty((self.R + 1, self.n))
        z[0], z[-1] = z0, z1
        z[1:-1] = z[0] + np.arange(1, self.R)[:, None] / self.R * (z[-1] - z[0])
        return z


@dataclass
class ExtremalSolution:
    """Stationary field of the discrete action with its value and residual."""

    bd: BoundaryData
    z: np.ndarray               # (R+1, N) including boundary rows
    action: float
    residual: float
    dt_c: float                 # the row step the grid was built from
    grid: _ActionGrid = field(repr=False, compare=False)  # the grid it was solved on

    @property
    def n_rows(self) -> int:
        return self.z.shape[0] - 1

    @property
    def row_times(self) -> np.ndarray:
        """(R+1, N) times of the grid rows."""
        return self.grid.row_times


def _inverse_norm_estimate(solve, m: int) -> float:
    """Lower bound on ||A^-1||_1 for an m x m matrix (m >= 2) from solves with A and A^T.

    Hager's method (SIAM J. Sci. Stat. Comput. 5, 1984) with Higham's
    refinements (ACM TOMS 14, 1988), step for step as LAPACK's dlacn2: up to
    five sign-vector iterations, then the alternating test vector.
    ``solve(rhs, trans)`` returns A^-1 rhs (trans=0) or A^-T rhs (trans=1).
    """
    y = solve(np.full(m, 1.0 / m), 0)
    est = np.abs(y).sum()
    signs = np.where(y >= 0, 1.0, -1.0)
    j = int(np.argmax(np.abs(solve(signs, 1))))
    for _ in range(4):
        unit = np.zeros(m)
        unit[j] = 1.0
        y = solve(unit, 0)
        est_old, est = est, np.abs(y).sum()
        new_signs = np.where(y >= 0, 1.0, -1.0)
        if np.array_equal(new_signs, signs) or est <= est_old:
            break
        signs = new_signs
        x = solve(signs, 1)
        j_last, j = j, int(np.argmax(np.abs(x)))
        if x[j_last] == abs(x[j]):
            break
    alternating = np.where(np.arange(m) % 2, -1.0, 1.0) * (1.0 + np.arange(m) / (m - 1))
    return float(np.maximum(est, 2.0 * np.abs(solve(alternating, 0)).sum() / (3.0 * m)))


def _flapack():
    """scipy's LAPACK extension ``scipy/linalg/_flapack``, loaded without importing scipy.

    ``scipy.linalg.lapack`` re-exports this module's ``dgbtrf`` and ``dgbtrs``,
    but importing it runs the ``scipy`` and ``scipy.linalg`` package set-up
    (about 0.35 s in a fresh interpreter); the extension alone loads in about
    7 ms.  It is cached in ``_FLAPACK`` and kept out of ``sys.modules``.
    """
    global _FLAPACK
    if _FLAPACK is None:
        package = importlib.util.find_spec("scipy").submodule_search_locations[0]
        paths = [os.path.join(package, "linalg", "_flapack" + suffix)
                 for suffix in EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"scipy's LAPACK extension is not in {package}")
        loader = ExtensionFileLoader("_flapack", path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location("_flapack", path, loader=loader))
        loader.exec_module(module)
        if sys.modules.get("_flapack") is module:    # single-phase init registers the module
            del sys.modules["_flapack"]
        _FLAPACK = module
    return _FLAPACK


def _factor(system: np.ndarray, b: int):
    """LU-factor a banded Hessian in dgbtrf's layout (overwritten) after checking its condition.

    Returns ``solve(rhs)``.  Raises SingularBVP when a pivot is exactly zero
    or the 1-norm condition estimate ||A||_1 * est(||A^-1||_1) is not finite
    or exceeds COND_LIMIT.  The estimator asks for solves with A^T as well;
    they are answered with A, because the action Hessian is symmetric: bit
    for bit between flat surfaces, to a few roundoffs between curved ones,
    where the link terms are summed in another order, so the estimate moves
    only by roundoff.  A dgbtrs solve with trans=1 took 0.32 ms against
    0.17 ms for trans=0 on a 3-site grid (m = 2997, b = 5; one BLAS thread,
    best of 7).
    """
    # dgbtrf and dgbtrs are looked up on the handle at each call, so a wrapper
    # installed on the handle sees every call
    lapack = _flapack()

    column_sums = np.zeros(system.shape[1])
    for diagonal in system[b:]:               # row by row: no band-sized temporary
        column_sums += np.abs(diagonal)
    a_norm = column_sums.max()
    lu, ipiv, info = lapack.dgbtrf(system, b, b, overwrite_ab=1)
    if info > 0:
        raise SingularBVP(f"boundary problem factorization failed: pivot {info} is zero")

    def solve(rhs):
        return lapack.dgbtrs(lu, b, b, rhs, ipiv)[0]

    # not lapack.dgbcon: it gives the same estimate, but on a 3-site extremal
    # grid (m = 2997, b = 5; one BLAS thread, best of 7) it took 5.0 ms against
    # 0.58 ms for the dgbtrs solves below, and on a band of b = 10 it was 15x slower
    est = a_norm * _inverse_norm_estimate(lambda rhs, trans: solve(rhs), system.shape[1])
    if not est <= COND_LIMIT:
        raise SingularBVP(f"condition estimate {est:.3e} exceeds {COND_LIMIT:.0e}")
    return solve


def grid_rows(bd: BoundaryData, dt_c: float) -> int:
    """Row count R of the extremal grid at step ``dt_c``, checked before anything is built.

    Raises ValueError for a step that leaves fewer than two interior rows and
    DimensionTooLarge for a grid of more than MAX_GRID_POINTS points.
    """
    if dt_c <= 0:
        raise ValueError("dt_c must be positive")
    spans = np.asarray(bd.t1) - np.asarray(bd.t0)
    rows = float(spans.mean()) / dt_c
    if (rows + 1) * bd.n_sites > MAX_GRID_POINTS:
        raise DimensionTooLarge(f"dt_c {dt_c:g} needs {rows:.3g} rows x {bd.n_sites} sites, "
                                f"above the {MAX_GRID_POINTS} point grid guard")
    n_rows = int(round(rows))
    if n_rows < 3:
        raise ValueError("domain must contain at least two interior rows")
    return n_rows


def _newton_tol(grid: _ActionGrid, z_flat: np.ndarray) -> float:
    """Newton's stopping residual at ``z_flat``: NEWTON_TOL, or ROUNDOFF_MARGIN floors if larger."""
    return max(NEWTON_TOL, ROUNDOFF_MARGIN * grid.gradient_floor(z_flat))


def solve_extremal(bd: BoundaryData, lagr: LagrangianSpec, dt_c: float) -> ExtremalSolution:
    """Stationary point of the discrete action between the two surfaces.

    Builds the grid of ``bd``'s surfaces at step ``dt_c`` and solves on it
    with ``_newton``.  The solution keeps the grid, and with it the
    Lagrangian, so it is the one handle the checks below take.
    """
    return _newton(_ActionGrid(bd, lagr, grid_rows(bd, dt_c)), bd, dt_c)


def _resolve(base: ExtremalSolution, bd: BoundaryData, dt_c: float) -> ExtremalSolution:
    """``solve_extremal(bd, base.grid.lagr, dt_c)``, on ``base``'s grid when the surfaces and
    row count match.

    Nothing on a grid depends on the boundary values, so the grid is the same
    when only they differ, or when a relabeling maps the surfaces onto
    themselves; otherwise a new one is built.
    """
    grid, n_rows = base.grid, grid_rows(bd, dt_c)
    if (bd.t0, bd.t1, bd.spacing) != grid.surfaces or n_rows != grid.R:
        grid = _ActionGrid(bd, grid.lagr, n_rows)
    return _newton(grid, bd, dt_c)


def _newton(grid: _ActionGrid, bd: BoundaryData, dt_c: float) -> ExtremalSolution:
    """The extremal on ``grid`` whose boundary rows are ``bd.z0`` and ``bd.z1``.

    A damped Newton iteration from the straight-line interpolant, of at most
    NEWTON_MAXITER steps, until the residual reaches ``_newton_tol``.  The
    Hessian is factored at the start and, for a potential of degree above 2,
    again after each accepted step, so its last factorization is the
    condition check at the extremal; a potential of degree at most 2 has a
    constant Hessian, which the grid's first factorization serves
    throughout, in this solve and every later one on the grid.
    Near-singular two-time problems (the resonances of the oscillator
    family) raise SingularBVP instead of returning garbage.
    """
    inner = grid.interior
    work = np.empty((3 * grid.b + 1, inner.stop - inner.start), order="F")
    z_flat = grid.flatten(grid.interpolant(bd.z0, bd.z1))
    solve = grid.factor(z_flat, work)
    grad = grid.gradient(z_flat)[inner]
    best = np.max(np.abs(grad))
    # converged after a step when the residual is down to NEWTON_TOL, or to the roundoff
    # floor where that lies above it (the floor is only computed in that case)
    converged = lambda: best <= NEWTON_TOL or best <= _newton_tol(grid, z_flat)
    for _ in range(NEWTON_MAXITER):
        if converged():
            break
        step = solve(-grad)
        scale = 1.0
        for _ in range(12):
            trial = z_flat.copy()
            trial[inner] += scale * step
            trial_grad = grid.gradient(trial)[inner]
            trial_norm = np.max(np.abs(trial_grad))
            if trial_norm < best:
                z_flat, grad, best = trial, trial_grad, trial_norm
                break
            scale *= 0.5
        else:
            raise NewtonDivergence(f"line search stalled at residual {best:.3e}")
        solve = grid.factor(z_flat, work)
    else:
        if not converged():    # the cap counts steps: the last one gets its check too
            raise NewtonDivergence(f"no convergence after {NEWTON_MAXITER} iterations "
                                   f"(residual {best:.3e})")

    z_final = grid.unflatten(z_flat)
    return ExtremalSolution(bd, z_final, grid.action(z_final), float(best), dt_c, grid)


@dataclass
class BoundarySideMomenta:
    p: np.ndarray          # momentum density per site
    energy: np.ndarray     # time component of the boundary density (Hj0)
    flux: np.ndarray       # spatial flux component (Hj1)
    tangential: np.ndarray  # p*zs - energy*v - flux, an algebraic identity check


def _link_momenta(lagr: LagrangianSpec, zb, zdot, zs, v):
    """Momentum, energy and flux densities from one link's (zs, v) pair."""
    zx = zs - zdot * v
    f_val = lagr.evaluate(zb, zdot, zx)
    f_zdot = 2.0 * lagr.kinetic_coeff * zdot + lagr.kinetic_linear
    f_zx = 2.0 * lagr.gradient_coeff * zx
    p = f_zdot - f_zx * v
    energy = (f_zdot * zdot - f_val) - f_zx * zdot * v
    flux = f_zdot * zx - (f_zx * zx - f_val) * v
    tangential = p * zs - energy * v - flux
    return p, energy, flux, tangential


def _adjacent_links(times, z, a: float):
    """(v_left, v_right, zs_left, zs_right): slopes and field differences of each site's two links."""
    v_right = link_difference(times, a)
    zs_right = link_difference(z, a)
    return np.roll(v_right, 1), v_right, np.roll(zs_right, 1), zs_right


def boundary_momenta(sol: ExtremalSolution) -> tuple[BoundarySideMomenta, BoundarySideMomenta]:
    """(initial, final) boundary densities of the extremal under its own Lagrangian.

    Each side takes the one-sided O(dt^2) time derivative at its boundary row
    (its sign flips on the initial surface, whose next rows lie later) and
    the mean of the two adjacent-link evaluations.  The discrete action
    assigns each link half its energy to either end (the link-symmetric
    measure), so the per-site conjugate densities are averages of per-link
    formulas sharing the site's time derivative.  The tangential combination
    vanishes identically link by link, hence also after averaging.
    """
    z, delta, lagr = sol.z, sol.grid.delta, sol.grid.lagr
    sides = []
    for (zb, zb1, zb2), sign, times in ((z[:3], -1.0, sol.bd.t0), (z[:-4:-1], 1.0, sol.bd.t1)):
        zdot = sign * (3.0 * zb - 4.0 * zb1 + zb2) / (2.0 * delta)
        v_left, v_right, zs_left, zs_right = _adjacent_links(times, zb, sol.bd.spacing)
        left = _link_momenta(lagr, zb, zdot, zs_left, v_left)
        right = _link_momenta(lagr, zb, zdot, zs_right, v_right)
        sides.append(BoundarySideMomenta(*(0.5 * (l + r) for l, r in zip(left, right))))
    return tuple(sides)


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-10)


def hj_variations(bd: BoundaryData, fd_epsilon: float) -> dict:
    """The varied boundaries hj_residuals solves, keyed ``(name, j) -> (up, down)``.

    Entry j of z1, t1 and z0 moves by +-fd_epsilon.  Raises ValueError (or
    NotSpacelike) for a step that is not positive or that moves a surface out
    of the valid region.
    """
    if not fd_epsilon > 0:
        raise ValueError("fd_epsilon must be positive")
    variations = {}
    for j in range(bd.n_sites):
        for name in ("z1", "t1", "z0"):
            x = getattr(bd, name)[j]
            variations[name, j] = (bd.with_entry(name, j, x + fd_epsilon),
                                   bd.with_entry(name, j, x - fd_epsilon))
    return variations


def hj_residuals(base: ExtremalSolution, fd_epsilon: float) -> dict:
    """Finite-difference boundary variations of S around the extremal ``base``, under the
    Lagrangian it was solved with.

    Checks, per final-surface site: dS/dz vs a*p and dS/dt vs -a*energy
    (central differences, re-solving the varied problems at ``base.dt_c``), the
    Hamilton-Jacobi residual dS/dt/a + H(z, zs, dS/dz/a; v) with the fitted
    derivatives, and the tangential identity on both surfaces.  Initial-
    surface variations carry the opposite orientation sign.  The z1 and z0
    variations keep the surfaces, so they re-solve on ``base``'s grid; each
    t1 variation builds its own.
    """
    bd, dt_c = base.bd, base.dt_c
    variations = hj_variations(bd, fd_epsilon)
    initial, final = boundary_momenta(base)
    density = legendre_transform(base.grid.lagr)
    a = bd.spacing
    n = bd.n_sites
    eps = fd_epsilon

    z1 = np.asarray(bd.z1)
    v1_left, v1_right, zs1_left, zs1_right = _adjacent_links(bd.t1, z1, a)

    dsdz_rel = np.empty(n)
    dsdt_rel = np.empty(n)
    eq10_resid = np.empty(n)
    dsdz0_rel = np.empty(n)

    def central_difference(name, j):
        up, down = variations[name, j]
        s_up = _resolve(base, up, dt_c).action
        s_down = _resolve(base, down, dt_c).action
        return (s_up - s_down) / (2.0 * eps)

    for j in range(n):
        fd_z = central_difference("z1", j)
        dsdz_rel[j] = _rel_err(fd_z, a * final.p[j])

        fd_t = central_difference("t1", j)
        dsdt_rel[j] = _rel_err(fd_t, -a * final.energy[j])

        # the density at a site is the mean of its two adjacent-link values,
        # matching the link-symmetric energy split of the discrete action
        h_links = 0.5 * (float(density.evaluate(z1[j], zs1_left[j], fd_z / a, v1_left[j]))
                         + float(density.evaluate(z1[j], zs1_right[j], fd_z / a, v1_right[j])))
        eq10_resid[j] = abs(fd_t / a + h_links)

        fd_z0 = central_difference("z0", j)
        dsdz0_rel[j] = _rel_err(fd_z0, -a * initial.p[j])

    return {
        "action": base.action,
        "residual": base.residual,
        "dSdz_final_rel": dsdz_rel,
        "dSdt_final_rel": dsdt_rel,
        "dSdz_initial_rel": dsdz0_rel,
        "hj_resid": eq10_resid,
        "tangential_final": np.abs(final.tangential),
        "tangential_initial": np.abs(initial.tangential),
        "p_final": final.p,
        "energy_final": final.energy,
        "fd_epsilon": eps,
        "dt_c": dt_c,
    }


def reparameterizations(bd: BoundaryData, dt_c: float) -> list[tuple[BoundaryData, float]]:
    """The (boundary, row step) solves reparameterization_check compares with ``bd`` at
    ``dt_c``: a cyclic relabeling, the reflection, a time shift, dt_c / 2 and dt_c / 4."""
    return [(bd.relabeled(1), dt_c), (bd.reflected(), dt_c), (bd.shifted(0.37), dt_c),
            (bd, dt_c / 2.0), (bd, dt_c / 4.0)]


def reparameterization_check(base: ExtremalSolution) -> dict:
    """``base.action`` against exact lattice relabelings and a row refinement, at ``base.dt_c``,
    each solved under ``base``'s Lagrangian.

    Cyclic and reflected site orders are exact symmetries of the periodic
    lattice (reflection needs the zx-even densities this grammar produces);
    the refinement ratio of successive action differences (``refinement_verdict``'s,
    signed) quantifies the O(dt^2) discretization movement.
    A relabeling that maps the surfaces onto themselves (flat ones, say)
    re-solves on ``base``'s grid; the other solves build their own.
    """
    bd, dt_c, s_base = base.bd, base.dt_c, base.action
    s_cyclic, s_parity, s_shift, s_half, s_quarter = (
        _resolve(base, varied, dt).action for varied, dt in reparameterizations(bd, dt_c))
    (ratio,), _, _ = refinement_verdict((dt_c, dt_c / 2.0),
                                        (s_base - s_half, s_half - s_quarter))
    return {
        "action": s_base,
        "cyclic_diff": abs(s_cyclic - s_base),
        "parity_diff": abs(s_parity - s_base),
        "time_shift_diff": abs(s_shift - s_base),
        "refinement_actions": [s_base, s_half, s_quarter],
        "refinement_ratio": ratio,
        "dt_c": dt_c,
    }
