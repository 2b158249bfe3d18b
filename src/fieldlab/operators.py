"""Compile Hamiltonian densities into matrix-free lattice operators.

Discretization dictionary: the functional derivative becomes (1/a) d/dz_j,
the spatial derivative the forward link difference (z_{j+1} - z_j)/a with
periodic wrap, and the spatial integral a * sum_j.  Site momenta are
p_j = -i h (1/a) d/dz_j, realized spectrally on the per-site field grid
(3-point stencils as the ``fd`` fallback).  Operators are substituted into
the classical polynomial as written; the only factors that fail to commute
are the slope-induced products of p_j with the link difference at site j,
which are symmetrized as (A B + B A) / 2 to keep the operator Hermitian.
The p^2 coefficient depends on the slope alone, so no other monomial ever
needs an ordering rule.  Strang and the transfer step share ``trotter_factors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionTooLarge, NonFiniteResult
from .lagrangian import HamiltonianDensity
from .lattice import LatticeConfig, WaveFunctional, spacelike

DENSE_GUARD = 4096


def check_dense(cfg: LatticeConfig) -> None:
    """Refuse a dense (dim, dim) operator on ``cfg`` past DENSE_GUARD: DimensionTooLarge."""
    if cfg.dim > DENSE_GUARD:
        raise DimensionTooLarge(f"dimension {cfg.dim} exceeds dense guard {DENSE_GUARD}")


def momentum_grids(cfg: LatticeConfig):
    """(k^2 multiplier, first-derivative k multiplier) for one grid axis.

    Spectral mode returns wavenumbers (Nyquist zeroed for the first
    derivative); fd mode returns the exact DFT multipliers of the periodic
    3-point stencils, so both modes are diagonal in the Fourier basis.
    """
    q, dz = cfg.q_points, cfg.dz
    if cfg.derivative == "spectral":
        k = 2.0 * np.pi * np.fft.fftfreq(q, d=dz)
        k2 = k ** 2
        k1 = k.copy()
        if q % 2 == 0:
            k1[q // 2] = 0.0
    else:
        # checked as dz * dz: dz ** 2 raises a bare OverflowError where the square overflows
        if not math.isfinite(dz * dz):
            raise NonFiniteResult(f"the fd stencil's dz^2 = ({dz:g})^2 overflows; "
                                  f"dz = lattice.q_extent / lattice.q_points")
        m = np.arange(q)
        k2 = (2.0 - 2.0 * np.cos(2.0 * np.pi * m / q)) / dz ** 2
        k1 = np.sin(2.0 * np.pi * m / q) / dz
    return k2, k1


def momentum_multiplier(cfg: LatticeConfig, quad: float, lin: float) -> np.ndarray:
    """1-D Fourier multiplier of quad * p^2 + lin * p on one site's field grid."""
    k2, k1 = momentum_grids(cfg)
    h_over_a = cfg.hbar / cfg.spacing
    if not math.isfinite(h_over_a * h_over_a):
        raise NonFiniteResult(f"(lattice.hbar / lattice.spacing)^2 = "
                              f"({cfg.hbar:g} / {cfg.spacing:g})^2 overflows")
    return quad * (h_over_a ** 2) * k2 + lin * h_over_a * k1


def fourier_matrix(multiplier: np.ndarray) -> np.ndarray:
    """(Q, Q) matrix of a one-axis Fourier multiplier, ifft(mult * fft(column))."""
    q = multiplier.shape[0]
    return np.fft.ifft(multiplier[:, None] * np.fft.fft(np.eye(q), axis=0), axis=0)


def _hermitian_parts(multiplier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, K_imag): the real symmetric and real antisymmetric parts of a multiplier's
    Fourier matrix, so that K + i K_imag is exactly Hermitian."""
    block = fourier_matrix(multiplier)
    return 0.5 * (block.real + block.real.T), 0.5 * (block.imag - block.imag.T)


def _along(block: np.ndarray, batch: np.ndarray, axis: int) -> np.ndarray:
    """``block`` applied along state ``axis`` of a (B,) + state-shape array.

    The leading axis is a batch: ``apply`` passes the real (2,) pair of a
    state's real and imaginary parts, and a complex state goes in as
    ``psi[None]``.  One matmul over the (B Q**axis, Q, rest) view; on the
    last axis a single GEMM over the (-1, Q) rows.
    """
    q = block.shape[0]
    rest = batch[0].size // q ** (axis + 1)
    if rest == 1:
        return (batch.reshape(-1, q) @ block.T).reshape(batch.shape)
    return np.matmul(block, batch.reshape(-1, q, rest)).reshape(batch.shape)


def _trotter_steps(phase: np.ndarray, blocks, batch: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` Lie-Trotter steps of a (1,) + state-shape batch: ``phase`` in place, then each
    block.  Looping here holds no other reference to a step's input, so numpy reuses its memory."""
    for _ in range(steps):
        np.multiply(phase, batch, out=batch)
        for site, block in blocks:
            batch = _along(block, batch, site)
    return batch


def _add_turned(out: np.ndarray, b: np.ndarray) -> None:
    """out += i b, for complex arrays held as real (2,) + shape (re, im) pairs."""
    out[0] -= b[1]
    out[1] += b[0]


def _site_diagonal(mat: np.ndarray, n: int, q: int, site: int) -> np.ndarray:
    """Writable (L, R, Q, Q) view of the entries of ``mat`` that differ only on ``site``.

    Element [l, r, i, j] is the (row, column) pair (l, i, r), (l, j, r) of the
    row-major state index, so adding a Q x Q block to it adds I (x) block (x) I.
    """
    left, right = q ** site, q ** (n - site - 1)
    return np.einsum("aibajb->abij", mat.reshape(left, q, right, left, q, right))


@dataclass
class _SiteTerm:
    """One site's share a * H_j; its arrays broadcast on the site and neighbour axes.

    Its multiplier is the whole kinetic square a (p_site - c1)^2 / (4A), the
    table's constant c1^2 / (4A) included, so on a flat surface ``scalar`` is
    a (V(z) - g zs^2), the Lagrangian's non-kinetic part with its sign
    turned.  Its momentum block is K + i K_imag, with K_imag kept only when
    the term has a constant p_site part; its cross term (f P + P f) / 2 is
    i (f R + R f).  K, K_imag and R are real Q x Q arrays acting along the
    site's axis.
    """

    site: int
    scalar: np.ndarray               # the momentum-free part less c1^2 / (4A), field-diagonal
    quad: float = 0.0                # coefficient of p_site^2
    lin_const: float = 0.0           # field-independent coefficient of p_site
    cross: np.ndarray | None = None  # field-dependent coefficient of p_site, f
    mult: np.ndarray | None = None   # 1-D multiplier of the kinetic square a (p_site - c1)^2 / (4A)
    k: np.ndarray | None = None
    k_imag: np.ndarray | None = None
    r: np.ndarray | None = None


@dataclass
class LatticeHamiltonian:
    """Hermitian matrix-free operator: a sum of site terms, each a real diagonal part
    plus a momentum part."""

    cfg: LatticeConfig
    terms: list[_SiteTerm] = field(default_factory=list)

    @cached_property
    def diag(self) -> np.ndarray:
        """The field-diagonal part: the terms' scalar arrays summed in term order."""
        return sum((term.scalar for term in self.terms), np.zeros(self.cfg.shape))

    @property
    def translation_invariant(self) -> bool:
        """True when the terms are translates: one per site, in site order, and term
        j + 1 equal bit for bit to term j with every axis moved one site on."""
        n = self.cfg.n_sites
        axes = np.roll(np.arange(n), 1)

        def moved(x, y):  # y is x moved one site on, or both are None
            return x is y if x is None or y is None else np.array_equal(x.transpose(axes), y)

        return [t.site for t in self.terms] == list(range(n)) and all(
            t.quad == u.quad and t.lin_const == u.lin_const
            and moved(t.scalar, u.scalar) and moved(t.cross, u.cross)
            for t, u in zip(self.terms, self.terms[1:]))

    @property
    def separable(self) -> bool:
        """True when the operator splits into a k-diagonal plus a z-diagonal part."""
        return all(t.cross is None for t in self.terms)

    def trotter_factors(self, dt: float):
        """The Lie-Trotter factors of exp(-i dt H / h): the diagonal phase exp(-i dt diag / h)
        and, per site term with a kinetic square, (site, its Q x Q block exp(-i dt mult / h))."""
        return np.exp(-1j * dt * self.diag / self.cfg.hbar), [
            (t.site, fourier_matrix(np.exp(-1j * dt * t.mult / self.cfg.hbar)))
            for t in self.terms if t.mult is not None]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi in real arithmetic: each term's Q x Q blocks act along its axis as GEMMs.

        The state's real and imaginary parts go in as one real (2,) + shape
        array, so a real block costs one real GEMM per part.  An imaginary
        block i B adds i (B x) through ``_add_turned``.
        """
        pair = np.stack((psi.real, psi.imag))
        out = pair * self.diag
        for t in self.terms:
            if t.k is not None:
                out += _along(t.k, pair, t.site)
            if t.k_imag is not None:
                _add_turned(out, _along(t.k_imag, pair, t.site))
            if t.r is not None:
                f = t.cross
                _add_turned(out, f * _along(t.r, pair, t.site) + _along(t.r, f * pair, t.site))
        result = np.empty(psi.shape, dtype=np.complex128)
        result.real, result.imag = out
        return result

    def expectation(self, state: WaveFunctional) -> float:
        num = np.vdot(state.psi, self.apply(state.psi))
        den = np.vdot(state.psi, state.psi)
        return float((num / den).real)

    def dense_matrix(self) -> np.ndarray:
        """The operator as an exactly Hermitian (dim, dim) array, assembled from its structure.

        Each site term's blocks go in as a Kronecker sum I (x) block (x) I.
        """
        dim, n, q = self.cfg.dim, self.cfg.n_sites, self.cfg.q_points
        check_dense(self.cfg)
        return self._assembled((dim, dim), lambda mat, axis: _site_diagonal(mat, n, q, axis))

    def site_blocks(self) -> np.ndarray:
        """A local density as (Q_nb, Q, Q) Hermitian blocks, one per value of its neighbour.

        For an operator on at most two sites with momentum on site 0 only, as
        the single-site density on the pair lattice is: block b is the operator
        with site 1 at its b-th grid value, the axis-0 blocks of ``dense_matrix``.
        """
        cfg, q = self.cfg, self.cfg.q_points
        if cfg.n_sites > 2 or any(t.site != 0 for t in self.terms):
            raise ValueError("site blocks need at most two sites and momentum on site 0 only")
        return self._assembled((1, cfg.dim // q, q, q), lambda blocks, axis: blocks)[0]

    def _assembled(self, shape: tuple[int, ...], blocks_at) -> np.ndarray:
        """A zero array of ``shape`` with the operator added to its (L, R, Q, Q) blocks.

        ``blocks_at(array, axis)`` views the blocks acting on ``axis``.  A site
        term adds its momentum block and its cross term (f P + P f) / 2, and the
        diagonal goes in through axis 0.  The array is float64 when no term has
        a first-derivative part, complex128 otherwise.
        """
        real = all(t.k_imag is None and t.r is None for t in self.terms)
        out = np.zeros(shape, dtype=np.float64 if real else np.complex128)

        def laid_out(values, block):  # full-grid values as (L, R, Q), matching block
            return np.broadcast_to(values, self.cfg.shape).reshape(
                block.shape[0], self.cfg.q_points, block.shape[1]).transpose(0, 2, 1)

        for t in self.terms:
            block = blocks_at(out, t.site)
            if t.k is not None:
                block += t.k if t.k_imag is None else t.k + 1j * t.k_imag
            if t.r is not None:
                f = laid_out(t.cross, block)
                block += (f[..., :, None] + f[..., None, :]) * (1j * t.r)
        block = blocks_at(out, 0)
        np.einsum("...ii->...i", block)[...] += laid_out(self.diag, block)
        return out


def _build_site(density: HamiltonianDensity, cfg: LatticeConfig, j: int,
                v_site: float) -> _SiteTerm:
    a, shape = cfg.spacing, cfg.axis_shape(j, (j + 1) % cfg.n_sites)
    zj, zs = cfg.site_fields(j)
    h = density.coefficients(v_site)
    square = a * h.get((0, 0), 0.0)  # the kinetic square's constant goes in the multiplier
    scalar = np.broadcast_to(a * density.evaluate(zj, zs, 0.0, v_site) - square, shape)
    # zs is identically zero on one site, so a cross term needs two distinct axes
    cross = np.broadcast_to(a * h.get((1, 1), 0.0) * zs, shape)
    term = _SiteTerm(j, scalar, a * h.get((2, 0), 0.0), a * h.get((1, 0), 0.0),
                     cross if np.any(cross) else None)
    if term.quad or term.lin_const:
        term.mult = momentum_multiplier(cfg, term.quad, term.lin_const) + square
        term.k, k_imag = _hermitian_parts(term.mult)
        term.k_imag = k_imag if term.lin_const else None
    if term.cross is not None:
        half_p = 0.5 * (cfg.hbar / cfg.spacing) * momentum_grids(cfg)[1]
        term.r = _hermitian_parts(half_p)[1]
    return term


def compile_hamiltonian(density: HamiltonianDensity, cfg: LatticeConfig,
                        v_sites: np.ndarray | float | None = None,
                        sites: list[int] | None = None) -> LatticeHamiltonian:
    """Assemble a * sum_j H(z_j, zs_j, p_j; v_j) as a matrix-free operator.

    ``v_sites[j]`` is the surface slope at site j, the value
    ``SpacelikeSurface.site_slope(j)`` gives; a scalar is the same slope at
    every site and None a flat surface.  ``sites`` restricts the sum to a
    subset, which is how the single-site local densities of surface
    deformations are built.
    """
    n = cfg.n_sites
    v = np.zeros(n) if v_sites is None else np.broadcast_to(np.asarray(v_sites, dtype=float), (n,))
    spacelike(v, "site slopes")
    return LatticeHamiltonian(cfg, [_build_site(density, cfg, j, float(v[j]))
                                    for j in (sites if sites is not None else range(n))])
