"""Lattice discretization, wavefunctional storage, and Gaussian initial data.

A state is a complex array over the Q^N grid of field values, one axis per
site, with the quadrature measure dz^N.  Gaussians follow the convention
``psi ~ exp(-1/2 (z-mu)^T C^{-1} (z-mu))`` so the probability covariance is
C/2 and a single-oscillator ground state has C = h/omega.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigMismatch,
    GridUnresolved,
    MasslessZeroMode,
    NonFiniteResult,
    NonPositiveCovariance,
    NotSpacelike,
)

MEMORY_GUARD = 2 ** 24


@dataclass(frozen=True)
class LatticeConfig:
    """Sites, per-site field grid, and the Planck constant for the operators."""

    n_sites: int
    spacing: float = 1.0
    q_points: int = 32
    q_extent: float = 10.0
    hbar: float = 1.0
    derivative: str = "spectral"

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        q = self.q_points
        if q < 4 or q > 128 or (q & (q - 1)) != 0:
            raise ValueError(f"q_points must be a power of two in [4, 128], got {q}")
        # Q >= 2, so n_sites past the guard's bit length exceeds it without the power
        if self.n_sites > MEMORY_GUARD.bit_length() or q ** self.n_sites > MEMORY_GUARD:
            raise ValueError(f"Q^N = {q}^{self.n_sites} exceeds the memory guard {MEMORY_GUARD}")
        for name in ("spacing", "q_extent", "hbar"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.derivative not in ("spectral", "fd"):
            raise ValueError(f"derivative must be 'spectral' or 'fd', got {self.derivative!r}")

    @property
    def dz(self) -> float:
        return self.q_extent / self.q_points

    @property
    def dim(self) -> int:
        return self.q_points ** self.n_sites

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.q_points,) * self.n_sites

    def z_values(self) -> np.ndarray:
        return -0.5 * self.q_extent + self.dz * np.arange(self.q_points)

    def axis_shape(self, *sites: int) -> tuple[int, ...]:
        """Broadcast shape with the grid axis on each of ``sites`` and length 1 elsewhere."""
        return tuple(self.q_points if k in sites else 1 for k in range(self.n_sites))

    def site_fields(self, site: int) -> tuple[np.ndarray, np.ndarray]:
        """(z_j, zs_j) at ``site`` broadcast over the grid, zs_j = (z_{j+1} - z_j)/a.

        The neighbour wraps periodically; with one site it is the site
        itself, so zs is +0.0 everywhere.
        """
        zg = self.z_values()
        zj = zg.reshape(self.axis_shape(site))
        z_next = zg.reshape(self.axis_shape((site + 1) % self.n_sites))
        return zj, (z_next - zj) / self.spacing


def link_difference(values, spacing: float, axis: int = -1) -> np.ndarray:
    """Periodic forward link difference (x_{j+1} - x_j)/a along ``axis``."""
    values = np.asarray(values)
    return (np.roll(values, -1, axis) - values) / spacing


def field_action(z, lagr, spacing: float, steps, rule: tuple[float, float], slopes=None):
    """The discrete action of field rows ``z`` (..., R + 1, N); leading axes index histories.

    Site j steps by ``steps[j]`` (or one step for all) per row; ``slopes[r]`` are row r's
    link slopes, None for flat rows.  A cell carries c2 q^2 + c1 q, q its forward dz/dt, and
    -V on a delta_j, and g zx^2 on a (delta_j + delta_{j+1}) / 2, zx = zs - v (q_j + q_{j+1}) / 2;
    ``rule`` (w0, w1) weighs -V and g zx^2 at the cell's earlier and later row.
    """
    w0, w1 = rule
    cell = spacing * np.asarray(steps, dtype=float)
    link = lagr.gradient_coeff * 0.5 * (cell + np.roll(cell, -1))
    q = (z[..., 1:, :] - z[..., :-1, :]) / steps
    zs = link_difference(z, spacing)
    cells = q ** 2  # in place: on a block of histories, a temporary costs about a pass
    cells *= lagr.kinetic_coeff
    cells += lagr.kinetic_linear * q
    cells *= cell
    rows = -cell * lagr.potential_value(z)  # V and zs once per row
    if slopes is None:
        rows += link * zs ** 2
    else:
        q_link = 0.5 * (q + np.roll(q, -1, axis=-1))
        cells += link * (w0 * (zs[..., :-1, :] - q_link * slopes[:-1]) ** 2
                         + w1 * (zs[..., 1:, :] - q_link * slopes[1:]) ** 2)
    cells += w0 * rows[..., :-1, :] + w1 * rows[..., 1:, :]
    return cells.sum(axis=(-2, -1))


def fit_order(dt_values, errors) -> float:
    """Least-squares slope of log error against log dt; 0.0 without two distinct usable dt."""
    dt_values, errors = np.asarray(dt_values, dtype=float), np.asarray(errors, dtype=float)
    mask = np.isfinite(errors) & (errors > 0) & (dt_values > 0)
    if np.unique(dt_values[mask]).size < 2:
        return 0.0
    return float(np.polyfit(np.log(dt_values[mask]), np.log(errors[mask]), 1)[0])


def spacelike(slopes: np.ndarray, what: str = "link slopes") -> np.ndarray:
    """``slopes`` unchanged when every |v| < 1; NotSpacelike otherwise."""
    if np.any(np.abs(slopes) >= 1.0):
        raise NotSpacelike(f"{what} {slopes} violate |v| < 1")
    return slopes


@dataclass
class WaveFunctional:
    """Complex amplitudes over the field grid, row-major over sites."""

    cfg: LatticeConfig
    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.ascontiguousarray(self.psi, dtype=np.complex128).reshape(self.cfg.shape)

    def copy(self) -> "WaveFunctional":
        return WaveFunctional(self.cfg, self.psi.copy())


def _check_cfg(a: WaveFunctional, b: WaveFunctional):
    if a.cfg != b.cfg:
        raise ConfigMismatch(f"{a.cfg} vs {b.cfg}")


def inner(a: WaveFunctional, b: WaveFunctional) -> complex:
    """Sesquilinear <a|b> with the dz^N measure (conjugates the first slot)."""
    _check_cfg(a, b)
    cfg = a.cfg
    try:
        measure = cfg.dz ** cfg.n_sites
    except OverflowError:
        raise NonFiniteResult(f"the grid measure dz^N = ({cfg.dz:g})^{cfg.n_sites} overflows; "
                              f"dz = lattice.q_extent / lattice.q_points") from None
    return complex(measure * np.vdot(a.psi, b.psi))


def norm(a: WaveFunctional) -> float:
    return float(np.sqrt(inner(a, a).real))


def normalize(a: WaveFunctional) -> WaveFunctional:
    n = norm(a)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return WaveFunctional(a.cfg, a.psi / n)


@dataclass(frozen=True)
class GaussianStateSpec:
    """Per-site centers plus either per-site widths or a full width matrix.

    ``widths`` gives the product state exp(-sum (z_j-mu_j)^2 / (2 s_j^2));
    ``covariance`` is the matrix C in exp(-1/2 (z-mu)^T C^{-1} (z-mu)).
    """

    centers: tuple[float, ...]
    widths: tuple[float, ...] | None = None
    covariance: tuple[tuple[float, ...], ...] | None = None
    phase: float = 0.0

    def __post_init__(self):
        if (self.widths is None) == (self.covariance is None):
            raise ValueError("exactly one of widths / covariance must be given")
        if self.widths is not None and not all(w > 0 for w in self.widths):
            raise NonPositiveCovariance(f"widths must be positive, got {self.widths}")

    def matrix(self) -> np.ndarray:
        if self.widths is not None:
            return np.diag(np.asarray(self.widths, dtype=float) ** 2)
        return np.asarray(self.covariance, dtype=float)


def free_ground_state_covariance(cfg: LatticeConfig, mass: float) -> GaussianStateSpec:
    """Ground-state covariance of the free field from the lattice dispersion.

    Mode frequencies are omega_k = sqrt(mass^2 + (4/a^2) sin^2(pi k / N)); the
    state is exp(-(a/2h) z^T Omega z) with Omega the matrix square root of the
    coupling, i.e. C = (h/a) Omega^{-1}.
    """
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    n, a = cfg.n_sites, cfg.spacing
    # checked as products: x ** 2 raises a bare OverflowError where the square overflows
    for name, x in (("mass", mass), ("lattice.spacing", a)):
        if not math.isfinite(x * x):
            raise NonFiniteResult(f"{name}^2 = ({x:g})^2 overflows")
    # periodic links; with one site the site is its own neighbour and the links vanish
    shift = np.roll(np.eye(n), 1, axis=1)
    coupling = mass ** 2 * np.eye(n) + (2.0 * np.eye(n) - shift - shift.T) / a ** 2
    w2, vecs = np.linalg.eigh(coupling)
    omega = np.sqrt(np.maximum(w2, 0.0))
    # a mass that squares to zero (or to roundoff) leaves the zero mode undamped; NaN
    # (an overflowing spacing) is left to the numerical checks downstream
    if np.any(omega == 0.0):
        raise MasslessZeroMode(f"zero-momentum mode has omega = 0 at mass {mass}")
    with np.errstate(over="ignore"):
        cov = (cfg.hbar / a) * (vecs / omega) @ vecs.T
    if np.all(np.isfinite(omega)) and not np.all(np.isfinite(cov)):
        raise MasslessZeroMode(f"ground-state covariance overflows at mass {mass}")
    return GaussianStateSpec(
        centers=(0.0,) * n,
        covariance=tuple(tuple(row) for row in cov),
    )


def init_wavefunctional(spec: GaussianStateSpec, cfg: LatticeConfig) -> WaveFunctional:
    """Sample the Gaussian on the grid and normalize.

    Hard error when the narrowest principal width falls under one grid cell;
    warnings when widths are under 2 dz or above q_extent/6 (wrap-around risk).
    """
    n = cfg.n_sites
    mu = np.asarray(spec.centers, dtype=float)
    if mu.shape != (n,):
        raise ValueError(f"centers must have length {n}")
    cov = spec.matrix()
    if cov.shape != (n, n):
        raise ValueError(f"covariance must be {n}x{n}")
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] <= 0.0:
        raise NonPositiveCovariance(f"covariance eigenvalues {eigs}")
    sigma_min, sigma_max = np.sqrt(eigs[0]), np.sqrt(eigs[-1])
    if sigma_min < cfg.dz:
        raise GridUnresolved(f"width {sigma_min:.3g} below one grid cell {cfg.dz:.3g}")
    if sigma_min < 2.0 * cfg.dz:
        warnings.warn(f"width {sigma_min:.3g} under 2 dz; grid barely resolves the state")
    if sigma_max > cfg.q_extent / 6.0:
        warnings.warn(f"width {sigma_max:.3g} above q_extent/6; wrap-around error may be visible")

    prec = np.linalg.inv(cov)
    zg = cfg.z_values()
    quad = np.zeros(cfg.shape)
    deltas = [(zg - mu[j]).reshape(cfg.axis_shape(j)) for j in range(n)]
    for j in range(n):
        quad = quad + prec[j, j] * deltas[j] ** 2
        for k in range(j + 1, n):
            quad = quad + 2.0 * prec[j, k] * deltas[j] * deltas[k]
    psi = np.exp(-0.5 * quad + 1j * spec.phase)
    return normalize(WaveFunctional(cfg, psi))


# --- state serialization -------------------------------------------------

_HEADER = struct.Struct("<qdqdd")  # n_sites, spacing, q_points, q_extent, hbar


def save_state(state: WaveFunctional, path) -> None:
    """Binary snapshot: little-endian header then Q^N (re, im) float64 pairs."""
    cfg = state.cfg
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(cfg.n_sites, cfg.spacing, cfg.q_points, cfg.q_extent, cfg.hbar))
        fh.write(np.ascontiguousarray(state.psi, dtype="<c16").tobytes())


def load_state(path, derivative: str = "spectral") -> WaveFunctional:
    """Read a ``save_state`` snapshot.

    Raises ValueError when the file's length disagrees with its header, or
    when its amplitudes hold NaN or infinity or are all zero.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{len(raw)} bytes is shorter than the {_HEADER.size}-byte header")
    cfg = LatticeConfig(*_HEADER.unpack_from(raw), derivative)
    expected = _HEADER.size + 16 * cfg.dim
    if len(raw) != expected:
        raise ValueError(f"header needs {expected} bytes ({cfg.dim} amplitudes), "
                         f"file has {len(raw)}")
    psi = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).copy()
    if not np.isfinite(psi).all():
        raise ValueError("amplitudes hold NaN or infinity")
    if not psi.any():
        raise ValueError("every amplitude is zero")
    return WaveFunctional(cfg, psi)


def write_csv(path, columns, rows, meta: dict | None = None) -> None:
    """A CSV of ``repr`` cells: a run's stamp line from ``meta``, if given, then the
    column names, then one line per row."""
    with open(path, "w") as fh:
        if meta:
            fh.write(f"# config_sha256={meta['config_sha256']} version={meta['version']}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def state_to_csv(state: WaveFunctional, path, meta: dict | None = None) -> None:
    """Flat CSV export (index, re, im), stamped as ``write_csv`` stamps; for small states."""
    amps = enumerate(state.psi.ravel().tolist())
    write_csv(path, ("index", "re", "im"), ((i, a.real, a.imag) for i, a in amps), meta)


def site_moments(state: WaveFunctional):
    """(<z_j>, <z_j^2>) arrays with the lattice measure, norm-independent."""
    prob = np.abs(state.psi) ** 2
    total = prob.sum()
    zg = state.cfg.z_values()
    n = state.cfg.n_sites
    z_mean = np.empty(n)
    z2_mean = np.empty(n)
    for j in range(n):
        marginal = prob.sum(axis=tuple(k for k in range(n) if k != j))
        z_mean[j] = (marginal * zg).sum() / total
        z2_mean[j] = (marginal * zg ** 2).sum() / total
    return z_mean, z2_mean
