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
needs an ordering rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionTooLarge, UnsupportedOrdering
from .lagrangian import HamiltonianDensity
from .lattice import LatticeConfig, WaveFunctional, spacelike

DENSE_GUARD = 4096


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
        m = np.arange(q)
        k2 = (2.0 - 2.0 * np.cos(2.0 * np.pi * m / q)) / dz ** 2
        k1 = np.sin(2.0 * np.pi * m / q) / dz
    return k2, k1


def fourier_matrix(multiplier: np.ndarray) -> np.ndarray:
    """(Q, Q) matrix of a one-axis Fourier multiplier, ifft(mult * fft(column))."""
    q = multiplier.shape[0]
    return np.fft.ifft(multiplier[:, None] * np.fft.fft(np.eye(q), axis=0), axis=0)


def _hermitian_block(multiplier: np.ndarray, real: bool) -> np.ndarray:
    """Exactly Hermitian (real symmetric if ``real``) matrix of a real multiplier."""
    block = fourier_matrix(multiplier)
    if real:
        block = block.real
    return 0.5 * (block + block.conj().T)


def _site_diagonal(mat: np.ndarray, n: int, q: int, site: int) -> np.ndarray:
    """Writable (L, R, Q, Q) view of the entries of ``mat`` that differ only on ``site``.

    Element [l, r, i, j] is the (row, column) pair (l, i, r), (l, j, r) of the
    row-major state index, so adding a Q x Q block to it adds I (x) block (x) I.
    """
    left, right = q ** site, q ** (n - site - 1)
    return np.einsum("aibajb->abij", mat.reshape(left, q, right, left, q, right))


@dataclass
class _SiteTerm:
    site: int
    neighbor: int
    quad: float                      # coefficient of p_site^2
    lin_const: float                 # field-independent coefficient of p_site
    cross: np.ndarray | None = None  # (Q, Q) field-dependent p coefficient, axis-ordered


@dataclass
class LatticeHamiltonian:
    """Hermitian matrix-free operator: a real diagonal plus per-site momentum terms."""

    cfg: LatticeConfig
    diag: np.ndarray
    terms: list[_SiteTerm] = field(default_factory=list)

    @property
    def separable(self) -> bool:
        """True when the operator splits into a k-diagonal plus a z-diagonal part."""
        return all(t.cross is None for t in self.terms)

    @cached_property
    def _kernels(self) -> list[tuple]:
        """Per term: (axis, momentum multiplier or None, P/2 multiplier, cross f or None).

        Each array is shaped to broadcast against the state.
        """
        cfg = self.cfg
        k2, k1 = momentum_grids(cfg)
        h_over_a = cfg.hbar / cfg.spacing
        kernels = []
        for term in self.terms:
            shape = cfg.axis_shape(term.site)
            mult = None
            if term.quad or term.lin_const:
                mult = (term.quad * (h_over_a ** 2) * k2
                        + term.lin_const * h_over_a * k1).reshape(shape)
            half_p = (0.5 * h_over_a * k1).reshape(shape)
            f = None
            if term.cross is not None:
                # the (Q, Q) array is stored in axis order, so this lines up for any pair
                f = term.cross.reshape(cfg.axis_shape(term.site, term.neighbor))
            if mult is not None or f is not None:
                kernels.append((term.site, mult, half_p, f))
        return kernels

    @cached_property
    def _work(self) -> np.ndarray:
        """Two state-sized buffers reused by every ``apply``."""
        return np.empty((2,) + self.cfg.shape, dtype=np.complex128)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi with one forward/inverse FFT pair per term, two more for a cross term.

        A cross term (f P + P f) / 2 shares fft(psi) with the momentum part
        and folds P f psi / 2 into the same inverse transform.
        """
        out = np.multiply(self.diag, psi, dtype=np.complex128)
        w0, w1 = self._work
        for axis, mult, half_p, f in self._kernels:
            fpsi = np.fft.fft(psi, axis=axis, out=w0)
            if f is None:
                fpsi *= mult
                out += np.fft.ifft(fpsi, axis=axis, out=fpsi)
                continue
            half_p_psi = np.fft.ifft(np.multiply(fpsi, half_p, out=w1), axis=axis, out=w1)
            half_p_psi *= f
            out += half_p_psi
            inverse = np.fft.fft(np.multiply(f, psi, out=w1), axis=axis, out=w1)
            inverse *= half_p
            if mult is not None:
                fpsi *= mult
                inverse += fpsi
            out += np.fft.ifft(inverse, axis=axis, out=inverse)
        return out

    def __call__(self, state: WaveFunctional) -> WaveFunctional:
        return WaveFunctional(self.cfg, self.apply(state.psi))

    def expectation(self, state: WaveFunctional) -> float:
        num = np.vdot(state.psi, self.apply(state.psi))
        den = np.vdot(state.psi, state.psi)
        return float((num / den).real)

    def field_diagonal(self) -> np.ndarray:
        """The operator's diagonal in the field basis, computed once per operator."""
        return self._field_diagonal

    @cached_property
    def _field_diagonal(self) -> np.ndarray:
        # a one-axis Fourier multiplier puts its mean on the diagonal; a cross
        # term puts f * mean(k1) there, and the mean of k1 is zero
        return self.diag + sum(float(np.mean(mult))
                               for _, mult, _, _ in self._kernels if mult is not None)

    def kinetic_multiplier(self) -> np.ndarray:
        """Fourier multiplier of the momentum part; requires separability."""
        mult = np.zeros(self.cfg.shape)
        for _, term_mult, _, f in self._kernels:
            if f is not None:
                raise UnsupportedOrdering("cross terms have no global Fourier multiplier")
            mult = mult + term_mult
        return mult

    def dense_matrix(self) -> np.ndarray:
        """The operator as an exactly Hermitian (dim, dim) array, assembled from its structure.

        Each site term's blocks go in as a Kronecker sum I (x) block (x) I.
        """
        dim, n, q = self.cfg.dim, self.cfg.n_sites, self.cfg.q_points
        if dim > DENSE_GUARD:
            raise DimensionTooLarge(f"dimension {dim} exceeds dense guard {DENSE_GUARD}")
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
        real = all(t.lin_const == 0.0 and t.cross is None for t in self.terms)
        out = np.zeros(shape, dtype=np.float64 if real else np.complex128)

        def laid_out(values, block):  # full-grid values as (L, R, Q), matching block
            return np.broadcast_to(values, self.cfg.shape).reshape(
                block.shape[0], self.cfg.q_points, block.shape[1]).transpose(0, 2, 1)

        for axis, mult, half_p, f in self._kernels:
            block = blocks_at(out, axis)
            if mult is not None:
                block += _hermitian_block(mult.ravel(), real)
            if f is not None:
                f = laid_out(f, block)
                block += (f[..., :, None] + f[..., None, :]) * _hermitian_block(half_p.ravel(),
                                                                                 real=False)
        block = blocks_at(out, 0)
        np.einsum("...ii->...i", block)[...] += laid_out(self.diag, block)
        return out


def site_slopes_from_links(v_links: np.ndarray) -> np.ndarray:
    """Per-site slope = mean of the two adjacent link slopes."""
    return 0.5 * (np.roll(v_links, 1) + v_links)


def _build_site(density: HamiltonianDensity, cfg: LatticeConfig, j: int,
                v_site: float, diag_out: np.ndarray, terms_out: list):
    q, a = cfg.q_points, cfg.spacing
    zj, zs = cfg.site_fields(j)

    diag_out += a * density.scalar_part(v_site, zj, zs)
    if not density.has_momentum:
        return
    quad = float(a * density.p_quad_coeff(v_site))
    lin_const = float(a * density.p_lin_coeff(v_site, 0.0))
    cross_arr = None
    # zs is identically zero on one site, so a cross term needs two distinct axes
    varying = np.asarray(a * density.p_lin_coeff(v_site, zs) - lin_const)
    if np.any(varying):
        # squeeze to (Q, Q) in axis order; LatticeHamiltonian._kernels
        # reshapes with the same ordering
        cross_arr = np.ascontiguousarray(varying.reshape(q, q))
    terms_out.append(_SiteTerm(j, (j + 1) % cfg.n_sites, quad, lin_const, cross_arr))


def compile_hamiltonian(density: HamiltonianDensity, cfg: LatticeConfig,
                        v_links: np.ndarray | float | None = None,
                        sites: list[int] | None = None) -> LatticeHamiltonian:
    """Assemble a * sum_j H(z_j, zs_j, p_j; v_j) as a matrix-free operator.

    ``v_links[j]`` is the slope of the link from site j to j+1 (scalar or
    None mean a uniform/flat surface); the density at site j uses the mean of
    its two adjacent link slopes.  ``sites`` restricts the sum to a subset,
    which is how the single-site local densities of surface deformations are
    built.
    """
    n = cfg.n_sites
    if v_links is None:
        v_arr = np.zeros(n)
    else:
        v_arr = np.broadcast_to(np.asarray(v_links, dtype=float), (n,)).astype(float)
    v_sites = site_slopes_from_links(spacelike(v_arr))

    diag = np.zeros(cfg.shape)
    terms: list[_SiteTerm] = []
    for j in sites if sites is not None else range(n):
        _build_site(density, cfg, j, float(v_sites[j]), diag, terms)
    return LatticeHamiltonian(cfg, diag, terms)
