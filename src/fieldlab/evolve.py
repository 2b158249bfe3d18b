"""Flat-surface time integration of wavefunctionals.

Three integrators with a ground-truth hierarchy: a dense eigendecomposition
exponential (exact, small dimensions), Strang splitting with the momentum
step applied in the per-site Fourier representation (exact for the spectral
derivative, so splitting is the only error), and a matrix-free
Crank--Nicolson step for operators with cross terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NonSeparableHamiltonian, SolverDivergence
from .lattice import WaveFunctional, norm as state_norm, site_moments
from .operators import DENSE_GUARD, LatticeHamiltonian

MAX_STEPS = 100_000  # time steps in one run; committed configs and benchmarks take at most 1000


@dataclass
class EvolveParams:
    dt: float
    steps: int
    method: str = "strang"
    cn_tol: float = 1e-10
    cn_maxiter: int = 500

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.steps > MAX_STEPS:
            raise DimensionTooLarge(f"{self.steps} steps exceed the {MAX_STEPS} step guard")
        if self.cn_tol <= 0:
            raise ValueError("cn_tol must be positive")
        if self.method not in ("exact", "strang", "crank_nicolson"):
            raise ValueError(f"unknown method {self.method!r}")


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec for complex vec, without upcasting a real mat to complex."""
    if np.isrealobj(mat):
        return mat @ vec.real + 1j * (mat @ vec.imag)
    return mat @ vec


class ExactPropagator:
    """Dense Hermitian eigendecomposition of the compiled operator.

    A real operator (no first-derivative terms) takes the real symmetric
    ``eigh`` and keeps real eigenvectors.
    """

    def __init__(self, hamiltonian: LatticeHamiltonian):
        if hamiltonian.cfg.dim > DENSE_GUARD:
            raise DimensionTooLarge(
                f"dimension {hamiltonian.cfg.dim} exceeds dense guard {DENSE_GUARD}")
        self.cfg = hamiltonian.cfg
        mat = hamiltonian.dense_matrix()
        self.eigvals, self.eigvecs = np.linalg.eigh(mat)

    def propagate(self, state: WaveFunctional, t: float) -> WaveFunctional:
        coeff = _matvec(self.eigvecs.conj().T, state.psi.ravel())
        coeff = coeff * np.exp(-1j * t * self.eigvals / self.cfg.hbar)
        return WaveFunctional(self.cfg, _matvec(self.eigvecs, coeff))

    def ground_energy(self) -> float:
        return float(self.eigvals[0])


def evolve_exact(hamiltonian: LatticeHamiltonian, state: WaveFunctional,
                 t: float) -> WaveFunctional:
    """psi(t) = exp(-i t H / h) psi, unitary to roundoff."""
    if t == 0.0:
        return state.copy()
    return ExactPropagator(hamiltonian).propagate(state, t)


def evolve_strang(hamiltonian: LatticeHamiltonian, state: WaveFunctional,
                  params: EvolveParams) -> WaveFunctional:
    """Half diagonal phase, full momentum step in Fourier space, half phase."""
    if not hamiltonian.separable:
        raise NonSeparableHamiltonian("Strang splitting needs a kinetic + diagonal operator")
    cfg = hamiltonian.cfg
    if params.steps == 0:
        return state.copy()
    h = cfg.hbar
    half_phase = np.exp(-0.5j * params.dt * hamiltonian.diag / h)
    kin_phase = np.exp(-1j * params.dt * hamiltonian.kinetic_multiplier() / h)
    psi = state.psi.copy()
    for _ in range(params.steps):
        psi *= half_phase
        np.fft.fftn(psi, out=psi)
        psi *= kin_phase
        np.fft.ifftn(psi, out=psi)
        psi *= half_phase
    return WaveFunctional(cfg, psi)


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
        if beta <= atol:
            return x
        if not np.isfinite(beta):
            raise SolverDivergence(f"gmres residual is {beta}")
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
                        dt: float, tol: float, maxiter: int) -> np.ndarray:
    """One Cayley step (1 + i dt H / 2h) psi' = (1 - i dt H / 2h) psi, matrix-free.

    GMRES solves for the change psi' - psi, whose right-hand side -i dt H psi / h
    costs no product beyond H psi, right preconditioned by the inverse of the
    system's diagonal in the field basis (Jacobi), in at most ``maxiter``
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

    jacobi = (1.0 / (1.0 + 1j * alpha * hamiltonian.field_diagonal())).ravel()
    h_psi = hamiltonian.apply(psi)
    rhs_norm = np.linalg.norm(psi - 1j * alpha * h_psi)
    change = _gmres(matvec, (-2j * alpha * h_psi).ravel(), jacobi, tol * rhs_norm, maxiter)
    return psi + change.reshape(cfg.shape)


def evolve_crank_nicolson(hamiltonian: LatticeHamiltonian, state: WaveFunctional,
                          params: EvolveParams) -> WaveFunctional:
    psi = state.psi
    for _ in range(params.steps):
        psi = crank_nicolson_step(hamiltonian, psi, params.dt, params.cn_tol, params.cn_maxiter)
    return WaveFunctional(state.cfg, psi.copy())


def observables(state: WaveFunctional,
                hamiltonian: LatticeHamiltonian | None = None) -> dict:
    """norm, per-site <z_j> and <z_j^2>, and <H> when an operator is given."""
    z_mean, z2_mean = site_moments(state)
    record = {
        "norm": state_norm(state),
        "z_mean": z_mean,
        "z2_mean": z2_mean,
    }
    if hamiltonian is not None:
        record["energy"] = hamiltonian.expectation(state)
    return record
