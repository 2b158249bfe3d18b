"""Flat-surface time integration of wavefunctionals.

Three integrators with a ground-truth hierarchy: a dense eigendecomposition
exponential (exact, small dimensions), Strang splitting, and matrix-free
Crank--Nicolson steps for operators with cross terms.  ``trajectory`` takes a
whole run by one of them and yields the states at the logged steps; which
steps are logged changes no state.

Strang splitting repeats the operator's Lie-Trotter step, the transfer step
of ``feynman``, between half phases built once per run.  Its kinetic blocks
are exact for the grid's derivative (spectral or fd), so splitting is the
only error.

Crank--Nicolson steps all apply one Cayley operator, so one Lanczos run on H
serves up to ``RUN_STEPS`` of them, across log rows (short-iterative Lanczos,
Park & Light, J. Chem. Phys. 85, 5870 (1986)); ``cn_tol`` bounds each step's
true residual, relative to the state's norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NonSeparableHamiltonian, SolverDivergence
from .lattice import LatticeConfig, WaveFunctional, norm as state_norm, site_moments
from .operators import LatticeHamiltonian, _trotter_steps

MAX_STEPS = 100_000  # time steps in one run; committed configs and benchmarks take at most 1000
LANCZOS_MAXITER = 500  # products on H in one Crank-Nicolson Lanczos run
LANCZOS_STORE = 12  # Lanczos vectors held at once; a longer run remakes the rest
RUN_STEPS = 32  # Cayley steps one Lanczos run considers; its small-space work is k x steps


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
        mat = hamiltonian.dense_matrix()  # refused past the dense guard before the orbits
        self.cfg = hamiltonian.cfg
        self._orbits = _shift_orbits(self.cfg, hamiltonian.translation_invariant)
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


def _norm(v: np.ndarray) -> float:
    """2-norm of a complex vector; np.linalg.norm takes about three times as long."""
    return float(np.sqrt(np.vdot(v, v).real))


def _lanczos_vector(hv: np.ndarray, v: np.ndarray, v_prev, i: int, a: list, b: list):
    """v_(i+1) = (H v_i - a_i v_i - b_(i-1) v_(i-1)) / b_i, in place in ``hv`` = H v_i.  A second
    pass reuses the a_i, b_i the first appended, so it remakes the same vectors bit for bit."""
    w = hv
    if i:
        w -= b[i - 1] * v_prev
    if i == len(a):
        a.append(float(np.vdot(v, w).real))
    w -= a[i] * v
    if i == len(b):
        b.append(_norm(w))
    if b[i]:  # b_i = 0: v_0 .. v_i span an invariant subspace
        w *= 1.0 / b[i]  # complex division takes about five times as long
    return w


def _cayley_steps(hamiltonian: LatticeHamiltonian, psi: np.ndarray, alpha: float,
                  tol: float, ends: list[int]) -> list[tuple[int, np.ndarray]]:
    """[(j, phi_j)] for the j in ``ends`` below s, then (s, phi_s): the first s <= ends[-1]
    Cayley steps (1 + i alpha H) phi_j = (1 - i alpha H) phi_(j-1) from phi_0 = ``psi``,
    by one Lanczos run.

    k products on H from v_0 = psi / |psi| give V = [v_0 .. v_(k-1)], the tridiagonal
    T and phi_j = |psi| V y_j, y_j = C(T)^j e_0, C(x) = exp(-2i atan(alpha x)).  As
    H V = V T + b_(k-1) v_k e_(k-1)^T to roundoff even once the v lose orthogonality
    (Paige 1976), step j's residual is |psi| alpha b_(k-1) |y_j[-1] + y_(j-1)[-1]|.
    The run grows until all steps meet ``tol`` |psi| (or takes those before the first
    that does not at ``LANCZOS_MAXITER``), remaking vectors past ``LANCZOS_STORE``,
    and checks its last step on a real product.  One second pass builds every state
    returned, each from its own coordinates, so none depends on what ``ends`` asks for.
    """
    steps = ends[-1]
    psi_norm = _norm(psi)
    if not np.isfinite(psi_norm):
        raise SolverDivergence(f"crank-nicolson state norm is {psi_norm}")
    a, b = [], []
    basis = np.empty((LANCZOS_STORE,) + psi.shape, dtype=np.complex128)
    v_prev, v = None, np.multiply(psi, 1.0 / psi_norm, out=basis[0])
    for i in range(LANCZOS_MAXITER):
        w = _lanczos_vector(hamiltonian.apply(v), v, v_prev, i, a, b)
        # |(1 - i alpha H) v_i|^2 >= rhs_square: no step is certified past its overflow or nan
        rhs_square = 1.0 + (alpha * a[i]) * (alpha * a[i]) + (alpha * b[i]) * (alpha * b[i])
        if not np.isfinite(rhs_square):
            raise SolverDivergence(f"crank-nicolson right-hand side norm^2 is {rhs_square}")
        if i < 32 or i % (i // 16) == 0 or i + 1 == LANCZOS_MAXITER:  # eigh costs O(k^3)
            theta, vecs = np.linalg.eigh(np.diag(a) + np.diag(b[:-1], -1))  # reads the lower half
            powers = np.exp(-2j * np.outer(np.arctan(alpha * theta), np.arange(steps + 1)))
            last = (vecs[-1] * vecs[0]) @ powers  # y_j[-1] for j = 0 .. steps
            met = alpha * b[i] * np.abs(last[1:] + last[:-1]) <= tol
            taken = steps if met.all() else int(np.argmin(met))
            if taken == steps:
                break
        if i + 1 < LANCZOS_STORE:  # copy w into the store and go on with the stored row
            basis[i + 1], w = w, basis[i + 1]
        v_prev, v = v, w
    if taken == 0:
        raise SolverDivergence(f"no crank-nicolson step met {tol:.3g} in {i + 1} products")
    inside = [j for j in ends if j < taken]
    scaled, weights = psi_norm * vecs, vecs[0][:, None] * powers  # phi_j = V scaled weights[:, j]
    coords = np.column_stack([scaled @ weights[:, j] for j in inside]
                             + [scaled @ weights[:, [taken, taken - 1]]])
    states = [np.zeros_like(psi) for _ in coords[0]]  # phi_j for j in inside, phi_s, phi_(s-1)
    term = np.empty_like(psi)
    for i, row in enumerate(coords):
        v_prev, v = v, (basis[i] if i < LANCZOS_STORE else
                        _lanczos_vector(hamiltonian.apply(v), v, v_prev, i - 1, a, b))
        for state, c in zip(states, row):
            state += np.multiply(c, v, out=term)
    new, old = states[-2:]
    residual = _norm(new - old + 1j * alpha * hamiltonian.apply(new + old))
    if not residual <= tol * psi_norm:
        raise SolverDivergence(f"crank-nicolson residual {residual:.3g} above {tol * psi_norm:.3g}")
    return [*zip(inside, states), (taken, new)]


def crank_nicolson_step(hamiltonian: LatticeHamiltonian, psi: np.ndarray,
                        dt: float, tol: float) -> np.ndarray:
    """One Cayley step (1 + i dt H / 2h) psi' = (1 - i dt H / 2h) psi, to ``tol`` |psi|."""
    return _cayley_steps(hamiltonian, psi, 0.5 * dt / hamiltonian.cfg.hbar, tol, [1])[-1][1]


def trajectory(hamiltonian: LatticeHamiltonian, state: WaveFunctional, method: str,
               params: EvolveParams, log_every: int):
    """(n, the state after n steps) for n = 0, ``log_every``, 2 ``log_every``, ... and
    ``params.steps`` by ``method``; ``log_every`` picks the states yielded and changes none.

    ``exact`` propagates the initial state to each time.  ``strang`` builds its factors
    once and, as (h K h)^n = h (K P)^n h^-1 for the half phase h = P^(1/2), stays in the
    frame h^-1, applying h to a copy at each logged step.  ``crank_nicolson`` takes runs of
    ``RUN_STEPS`` steps wherever the logged steps fall.  Zero steps build nothing.
    """
    if method not in ("exact", "strang", "crank_nicolson") or log_every < 1:
        raise ValueError(f"no {method!r} trajectory logged every {log_every} steps")
    yield 0, state.copy()
    cfg, steps = state.cfg, params.steps
    rows = [*range(log_every, steps, log_every), steps]
    if method == "exact" and steps:
        propagator = ExactPropagator(hamiltonian)
        for n in rows:
            yield n, propagator.propagate(state, n * params.dt)
    elif method == "strang" and steps:
        if not hamiltonian.separable:
            raise NonSeparableHamiltonian("Strang splitting needs a kinetic + diagonal operator")
        phase, blocks = hamiltonian.trotter_factors(params.dt)
        half_phase = np.exp(-0.5j * params.dt * hamiltonian.diag / cfg.hbar)
        batch, done = (half_phase.conj() * state.psi)[None], 0
        for n in rows:
            batch, done = _trotter_steps(phase, blocks, batch, n - done), n
            yield n, WaveFunctional(cfg, half_phase * batch[0])
    elif method == "crank_nicolson":
        psi, done, alpha = state.psi, 0, 0.5 * params.dt / cfg.hbar
        while done < steps:
            run = min(steps - done, RUN_STEPS)
            ends = [*range(log_every - done % log_every, run, log_every), run]
            for j, phi in _cayley_steps(hamiltonian, psi, alpha, params.cn_tol, ends):
                if (done + j) % log_every == 0 or done + j == steps:
                    yield done + j, WaveFunctional(cfg, phi)
            done, psi = done + j, phi  # the run's last state; its other states are freed


def evolve_strang(hamiltonian: LatticeHamiltonian, state: WaveFunctional,
                  params: EvolveParams) -> WaveFunctional:
    """The state after ``params.steps`` Strang steps h K h, K P the Lie-Trotter step."""
    return list(trajectory(hamiltonian, state, "strang", params, params.steps or 1))[-1][1]


def evolve_crank_nicolson(hamiltonian: LatticeHamiltonian, state: WaveFunctional,
                          params: EvolveParams) -> WaveFunctional:
    """The state after ``params.steps`` Cayley steps, up to ``RUN_STEPS`` per Lanczos run."""
    return list(trajectory(hamiltonian, state, "crank_nicolson", params, params.steps or 1))[-1][1]


def observables(state: WaveFunctional, hamiltonian: LatticeHamiltonian) -> dict:
    """norm, per-site <z_j> and <z_j^2>, and <H>."""
    z_mean, z2_mean = site_moments(state)
    return {
        "norm": state_norm(state),
        "z_mean": z_mean,
        "z2_mean": z2_mean,
        "energy": hamiltonian.expectation(state),
    }
