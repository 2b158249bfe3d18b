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


def momentum_multiplier(cfg: LatticeConfig, quad: float, lin: float) -> np.ndarray:
    """1-D Fourier multiplier of quad * p^2 + lin * p on one site's field grid."""
    k2, k1 = momentum_grids(cfg)
    h_over_a = cfg.hbar / cfg.spacing
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


def _along(block: np.ndarray, pair: np.ndarray, axis: int) -> np.ndarray:
    """``block`` applied along state ``axis`` of a real (2,) + state-shape array.

    One matmul over the (2 Q**axis, Q, rest) view; on the last axis a
    single GEMM over the (-1, Q) rows.
    """
    q = block.shape[0]
    rest = pair[0].size // q ** (axis + 1)
    if rest == 1:
        return (pair.reshape(-1, q) @ block.T).reshape(pair.shape)
    return np.matmul(block, pair.reshape(-1, q, rest)).reshape(pair.shape)


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
    """One site's share a * H_j; its arrays broadcast on the site and neighbour axes."""

    site: int
    scalar: np.ndarray               # the momentum-free part, diagonal in the field basis
    quad: float = 0.0                # coefficient of p_site^2
    lin_const: float = 0.0           # field-independent coefficient of p_site
    cross: np.ndarray | None = None  # field-dependent coefficient of p_site


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

    def _momentum(self, term: _SiteTerm) -> np.ndarray | None:
        """A term's 1-D multiplier of its p_site^2 and constant p_site parts, or None."""
        if not (term.quad or term.lin_const):
            return None
        return momentum_multiplier(self.cfg, term.quad, term.lin_const)

    @cached_property
    def _table(self) -> list[tuple]:
        """Per term: (axis, K or None, K_imag or None, R or None, cross f or None).

        The term's momentum block is K + i K_imag, with K_imag kept only when
        the term has a first-derivative part; its P/2 block is i R.  ``apply``
        multiplies by these real Q x Q arrays along their axis, and
        ``dense_matrix`` and ``site_blocks`` add the same arrays as Kronecker
        sums.  f is shaped to broadcast against the state.
        """
        cfg = self.cfg
        table = []
        for term in self.terms:
            k = k_imag = r = f = None
            mult = self._momentum(term)
            if mult is not None:
                k, k_imag = _hermitian_parts(mult)
                k_imag = k_imag if term.lin_const else None
            if term.cross is not None:
                half_p = 0.5 * (cfg.hbar / cfg.spacing) * momentum_grids(cfg)[1]
                r = _hermitian_parts(half_p)[1]
                f = term.cross
            if k is not None or f is not None:
                table.append((term.site, k, k_imag, r, f))
        return table

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi in real arithmetic: each term's Q x Q blocks act along its axis as GEMMs.

        The state's real and imaginary parts go in as one real (2,) + shape
        array, so a real block costs one real GEMM per part.  An imaginary
        block i B adds i (B x) through ``_add_turned``; the cross term
        (f P + P f) / 2 is i (f R + R f).
        """
        pair = np.stack((psi.real, psi.imag))
        out = pair * self.diag
        for axis, k, k_imag, r, f in self._table:
            if k is not None:
                out += _along(k, pair, axis)
            if k_imag is not None:
                _add_turned(out, _along(k_imag, pair, axis))
            if r is not None:
                _add_turned(out, f * _along(r, pair, axis) + _along(r, f * pair, axis))
        result = np.empty(psi.shape, dtype=np.complex128)
        result.real, result.imag = out
        return result

    def expectation(self, state: WaveFunctional) -> float:
        num = np.vdot(state.psi, self.apply(state.psi))
        den = np.vdot(state.psi, state.psi)
        return float((num / den).real)

    @cached_property
    def field_diagonal(self) -> np.ndarray:
        """The operator's diagonal in the field basis, computed once per operator."""
        # a one-axis Fourier multiplier puts its mean on the diagonal; a cross
        # term puts f * mean(k1) there, and the mean of k1 is zero
        return self.diag + sum(float(np.mean(mult)) for mult in map(self._momentum, self.terms)
                               if mult is not None)

    def kinetic_multiplier(self) -> np.ndarray:
        """Fourier multiplier of the momentum part; requires separability."""
        mult = np.zeros(self.cfg.shape)
        for term in self.terms:
            if term.cross is not None:
                raise UnsupportedOrdering("cross terms have no global Fourier multiplier")
            term_mult = self._momentum(term)
            if term_mult is not None:
                mult = mult + term_mult.reshape(self.cfg.axis_shape(term.site))
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
        real = all(k_imag is None and r is None for _, _, k_imag, r, _ in self._table)
        out = np.zeros(shape, dtype=np.float64 if real else np.complex128)

        def laid_out(values, block):  # full-grid values as (L, R, Q), matching block
            return np.broadcast_to(values, self.cfg.shape).reshape(
                block.shape[0], self.cfg.q_points, block.shape[1]).transpose(0, 2, 1)

        for axis, k, k_imag, r, f in self._table:
            block = blocks_at(out, axis)
            if k is not None:
                block += k if k_imag is None else k + 1j * k_imag
            if f is not None:
                f = laid_out(f, block)
                block += (f[..., :, None] + f[..., None, :]) * (1j * r)
        block = blocks_at(out, 0)
        np.einsum("...ii->...i", block)[...] += laid_out(self.diag, block)
        return out


def site_slopes_from_links(v_links: np.ndarray) -> np.ndarray:
    """Per-site slope = mean of the two adjacent link slopes."""
    return 0.5 * (np.roll(v_links, 1) + v_links)


def _build_site(density: HamiltonianDensity, cfg: LatticeConfig, j: int,
                v_site: float) -> _SiteTerm:
    a, shape = cfg.spacing, cfg.axis_shape(j, (j + 1) % cfg.n_sites)
    zj, zs = cfg.site_fields(j)
    h = density.coefficients(v_site)
    scalar = np.broadcast_to(a * density.evaluate(zj, zs, 0.0, v_site), shape)
    # zs is identically zero on one site, so a cross term needs two distinct axes
    cross = np.broadcast_to(a * h.get((1, 1), 0.0) * zs, shape)
    return _SiteTerm(j, scalar, a * h.get((2, 0), 0.0), a * h.get((1, 0), 0.0),
                     cross if np.any(cross) else None)


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
    return LatticeHamiltonian(cfg, [_build_site(density, cfg, j, float(v_sites[j]))
                                    for j in (sites if sites is not None else range(n))])
