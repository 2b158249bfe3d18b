"""Flat-surface time integration of wavefunctionals.

Three integrators with a ground-truth hierarchy: a dense eigendecomposition
exponential (exact, small dimensions), Strang splitting, and a matrix-free
Crank--Nicolson step for operators with cross terms.

Strang splitting repeats the operator's Lie-Trotter step, the transfer step
of ``feynman``, between half phases.  Its kinetic blocks are exact for the
grid's derivative (spectral or fd), so splitting is the only error.  At N=3,
Q=32 a step takes about half the time of the whole-grid ``fftn``/``ifftn``
pair; at N=2, Q=128 it takes about 1.4 times as long.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NonSeparableHamiltonian, SolverDivergence
from .lattice import LatticeConfig, WaveFunctional, norm as state_norm, site_moments
from .operators import DENSE_GUARD, LatticeHamiltonian, _trotter_steps

MAX_STEPS = 100_000  # time steps in one run; committed configs and benchmarks take at most 1000
CN_MAXITER = 500  # GMRES restart cycles in one Crank-Nicolson step


@dataclass
class EvolveParams:
    dt: float
    steps: int
    cn_tol: float = 1e-10

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.steps > MAX_STEPS:
            raise DimensionTooLarge(f"{self.steps} steps exceed the {MAX_STEPS} step guard")
        if self.cn_tol <= 0:
            raise ValueError("cn_tol must be positive")


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec for complex vec, without upcasting a real mat to complex."""
    if np.isrealobj(mat):
        return mat @ vec.real + 1j * (mat @ vec.imag)
    return mat @ vec


def _shift_orbits(cfg: LatticeConfig, shift: bool) -> np.ndarray:
    """(M, R) flat indices S^m r of the orbits of the cyclic group {S^m}; row 0 holds
    the representatives r, the least index of each orbit.

    S moves every site label one site on, so M = n_sites, when ``shift``; otherwise
    the group is trivial, M = 1, with one orbit per index.
    """
    index = np.arange(cfg.dim)
    orbits = [index]
    if shift:
        perm = index.reshape(cfg.shape).transpose(np.roll(np.arange(cfg.n_sites), 1)).ravel()
        for _ in range(cfg.n_sites - 1):
            orbits.append(perm[orbits[-1]])
    orbits = np.array(orbits)
    return orbits[:, orbits.min(axis=0) == index]


def _sector_block(mat: np.ndarray, orbits: np.ndarray, k: int, scale: np.ndarray) -> np.ndarray:
    """H_k[a, b] = s_a s_b sum_m w^(k m) mat[r_a, S^m r_b], w = exp(2 pi i / M), over the
    orbit columns ``orbits`` (M, R_k) with s = sqrt(L / M), L the orbit lengths.

    Real when ``mat`` is and w^k = +-1.
    """
    m_order, reps = len(orbits), orbits[0]
    block = mat[np.ix_(reps, reps)]
    for m in range(1, m_order):
        turns = 2 * k * m / m_order  # w^(k m) = exp(i pi turns)
        phase = (-1.0) ** turns if turns.is_integer() else np.exp(1j * np.pi * turns)
        block = block + phase * mat[np.ix_(reps, orbits[m])]
    block *= scale[:, None]
    block *= scale
    return block


class ExactPropagator:
    """Dense Hermitian eigendecomposition of the compiled operator, one block per momentum sector.

    When the operator's site terms are translates of one another, the unit
    site shift S commutes with H, the lattice momentum k of its group (order
    M = n_sites) is conserved, and H splits into one block per k over the
    orbit basis |r, k> = L^-1/2 sum_{m<L} w^(k m) |S^m r> (w = exp(2 pi i / M),
    L the orbit length; k needs k L = 0 mod M).  Each block takes one
    ``eigh``; a real operator takes the real ``eigh`` in sectors k = 0 and
    M/2 and keeps real eigenvectors there, and serves sector M - k with the
    complex conjugate of sector k.  Otherwise (per-site slopes or a ``sites``
    subset) the group is trivial and the one block is H itself.
    """

    def __init__(self, hamiltonian: LatticeHamiltonian):
        if hamiltonian.cfg.dim > DENSE_GUARD:
            raise DimensionTooLarge(
                f"dimension {hamiltonian.cfg.dim} exceeds dense guard {DENSE_GUARD}")
        self.cfg = hamiltonian.cfg
        self._orbits = _shift_orbits(self.cfg, hamiltonian.translation_invariant)
        mat = hamiltonian.dense_matrix()
        m_order = len(self._orbits)
        length = m_order // np.sum(self._orbits == self._orbits[0], axis=0)
        self._scale = np.sqrt(length) / m_order
        rows = [np.flatnonzero(k * length % m_order == 0) for k in range(m_order)]
        conjugate = np.isrealobj(mat)  # then sector M - k is the conjugate of sector k
        blocks = {k: _sector_block(mat, self._orbits[:, rows[k]], k,
                                   np.sqrt(length[rows[k]] / m_order))
                  for k in range(m_order) if not (conjugate and 2 * k > m_order)}
        del mat  # freed before the eigh calls, which read only the blocks
        self.sectors = []  # (k, representative columns, eigenvalues, eigenvectors)
        for k in range(m_order):
            if k in blocks:
                eigvals, eigvecs = np.linalg.eigh(blocks.pop(k))
            else:
                _, _, eigvals, eigvecs = self.sectors[m_order - k]
                eigvecs = eigvecs.conj()
            self.sectors.append((k, rows[k], eigvals, eigvecs))

    def propagate(self, state: WaveFunctional, t: float) -> WaveFunctional:
        amps = np.fft.fft(state.psi.ravel()[self._orbits], axis=0) * self._scale
        out = np.zeros_like(amps)
        for k, rows, eigvals, eigvecs in self.sectors:
            coeff = _matvec(eigvecs.conj().T, amps[k, rows])
            coeff = coeff * np.exp(-1j * t * eigvals / self.cfg.hbar)
            out[k, rows] = _matvec(eigvecs, coeff)
        psi = np.empty(self.cfg.dim, dtype=np.complex128)
        psi[self._orbits] = np.fft.ifft(out, axis=0) / self._scale
        return WaveFunctional(self.cfg, psi)

    def ground_energy(self) -> float:
        return min(float(eigvals[0]) for _, _, eigvals, _ in self.sectors)


def evolve_strang(hamiltonian: LatticeHamiltonian, state: WaveFunctional,
                  params: EvolveParams) -> WaveFunctional:
    """(h K h)^n = h (K P)^n h^-1: n Lie-Trotter steps K P of the operator between the
    half phase h and its inverse, since the half phases of consecutive steps meet as P."""
    if not hamiltonian.separable:
        raise NonSeparableHamiltonian("Strang splitting needs a kinetic + diagonal operator")
    if params.steps == 0:
        return state.copy()  # h h^-1 is 1 only up to roundoff
    phase, blocks = hamiltonian.trotter_factors(params.dt)
    half_phase = np.exp(-0.5j * params.dt * hamiltonian.diag / hamiltonian.cfg.hbar)
    psi = _trotter_steps(phase, blocks, (half_phase.conj() * state.psi)[None], params.steps)
    return WaveFunctional(hamiltonian.cfg, half_phase * psi[0])


GMRES_RESTART = 20  # Arnoldi steps per GMRES cycle


def _givens(a: complex, b: float) -> tuple[float, complex]:
    """(c, s), c real, with [[c, s], [-conj(s), c]] mapping (a, b) to (r, 0)."""
    if a == 0:
        return 0.0, 1.0
    rho = np.hypot(abs(a), b)
    return abs(a) / rho, (a / abs(a)) * b / rho


def _norm(v: np.ndarray) -> float:
    """2-norm of a complex vector; np.linalg.norm takes about three times as long."""
    return float(np.sqrt(np.vdot(v, v).real))


def _gmres(matvec, b: np.ndarray, precond: np.ndarray, atol: float, maxiter: int) -> np.ndarray:
    """x with ||b - A x|| <= atol, by restarted GMRES from x = 0 (Saad & Schultz 1986).

    Right preconditioned by the diagonal ``precond``: Arnoldi runs on A M,
    so its least-squares residual estimates the true one.  A cycle stops
    after ``GMRES_RESTART`` steps, once the estimate is within ``atol``, or
    on a happy breakdown (the Krylov space is invariant and the solution
    exact); it then ends on the true residual.
    """
    m = min(GMRES_RESTART, b.size)
    eps = np.finfo(float).eps
    x = np.zeros_like(b)
    r = b
    basis = np.empty((m + 1, b.size), dtype=np.complex128)
    for _ in range(maxiter):
        beta = _norm(r)
        if not np.isfinite(beta):  # first: an overflowed right-hand side also makes atol inf
            raise SolverDivergence(f"gmres residual is {beta}")
        if beta <= atol:
            return x
        hess = np.zeros((m, m), dtype=np.complex128)  # R of the rotated Hessenberg matrix
        rotations = []
        g = np.zeros(m + 1, dtype=np.complex128)
        g[0] = beta
        np.multiply(r, 1.0 / beta, out=basis[0])
        for k in range(m):
            w = matvec(precond * basis[k])
            w_norm = _norm(w)
            for i in range(k + 1):  # modified Gram-Schmidt
                hess[i, k] = np.vdot(basis[i], w)
                w -= hess[i, k] * basis[i]
            h_next = _norm(w)
            if h_next <= eps * w_norm:
                h_next = 0.0  # happy breakdown: the rotation below zeroes g[k + 1]
            else:
                np.multiply(w, 1.0 / h_next, out=basis[k + 1])
            for i, (c, s) in enumerate(rotations):
                hess[i:i + 2, k] = (c * hess[i, k] + s * hess[i + 1, k],
                                    c * hess[i + 1, k] - np.conj(s) * hess[i, k])
            c, s = _givens(hess[k, k], h_next)
            rotations.append((c, s))
            hess[k, k] = c * hess[k, k] + s * h_next
            g[k:k + 2] = c * g[k], -np.conj(s) * g[k]
            if abs(g[k + 1]) <= atol:
                break
        y = np.linalg.solve(hess[:k + 1, :k + 1], g[:k + 1])
        x += precond * (y @ basis[:k + 1])
        r = b - matvec(x)
    residual = _norm(r)
    if residual <= atol:
        return x
    raise SolverDivergence(f"gmres residual {residual:.3g} above {atol:.3g} "
                           f"after {maxiter} cycles")


def crank_nicolson_step(hamiltonian: LatticeHamiltonian, psi: np.ndarray,
                        dt: float, tol: float) -> np.ndarray:
    """One Cayley step (1 + i dt H / 2h) psi' = (1 - i dt H / 2h) psi, matrix-free.

    GMRES solves for the change psi' - psi, whose right-hand side -i dt H psi / h
    costs no product beyond H psi, right preconditioned by the inverse of the
    system's diagonal in the field basis (Jacobi), in at most ``CN_MAXITER``
    cycles.  It stops when the true residual is within ``tol`` of the norm of
    the full right-hand side.
    """
    cfg = hamiltonian.cfg
    alpha = 0.5 * dt / cfg.hbar

    def matvec(x):
        arr = x.reshape(cfg.shape)
        out = hamiltonian.apply(arr)
        out *= 1j * alpha
        out += arr
        return out.ravel()

    jacobi = (1.0 / (1.0 + 1j * alpha * hamiltonian.field_diagonal)).ravel()
    h_psi = hamiltonian.apply(psi)
    with np.errstate(over="ignore"):    # an overflowed norm is inf, which _gmres refuses
        rhs_norm = np.linalg.norm(psi - 1j * alpha * h_psi)
    change = _gmres(matvec, (-2j * alpha * h_psi).ravel(), jacobi, tol * rhs_norm, CN_MAXITER)
    return psi + change.reshape(cfg.shape)


def evolve_crank_nicolson(hamiltonian: LatticeHamiltonian, state: WaveFunctional,
                          params: EvolveParams) -> WaveFunctional:
    psi = state.psi
    for _ in range(params.steps):
        psi = crank_nicolson_step(hamiltonian, psi, params.dt, params.cn_tol)
    return WaveFunctional(state.cfg, psi.copy())


def observables(state: WaveFunctional, hamiltonian: LatticeHamiltonian) -> dict:
    """norm, per-site <z_j> and <z_j^2>, and <H>."""
    z_mean, z2_mean = site_moments(state)
    return {
        "norm": state_norm(state),
        "z_mean": z_mean,
        "z2_mean": z2_mean,
        "energy": hamiltonian.expectation(state),
    }
