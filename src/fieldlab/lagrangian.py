"""Polynomial Lagrangian densities and their Legendre transform.

The accepted density has the shape

    F(z, zt, zx) = c2*zt^2 + c1*zt + g*zx^2 - V(z)

with ``c2 > 0`` so that the momentum solve ``p = dF/d(zt)`` has a unique
branch.  On a surface with slope ``v`` the spatial derivative seen by F is
``zx = zs - zt*v`` (``zs`` is the derivative along the surface), which keeps
the transform a closed form:

    H(z, zs, p; v) = (p - B)^2 / (4*A) - g*zs^2 + V(z),
    A = c2 + g*v^2,   B = c1 - 2*g*v*zs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKinetic,
    DegreeTooHigh,
    LagrangianSyntaxError,
    NonFiniteCoefficient,
    NonQuadraticKinetic,
    UnsupportedMixing,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()]))"
)

DEFAULT_MAX_DEGREE = 6


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise LagrangianSyntaxError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = m.lastgroup
        if kind == "number" and not math.isfinite(float(m.group(kind))):
            raise LagrangianSyntaxError(f"number {m.group(kind)!r} is not finite", m.start(kind))
        if kind is not None:
            tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Poly:
    """Polynomial in (z, zt, zx) as a monomial-exponent -> coefficient map."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @classmethod
    def const(cls, value):
        return cls({(0, 0, 0): float(value)}) if value else cls()

    @classmethod
    def symbol(cls, which):
        key = {"z": (1, 0, 0), "zt": (0, 1, 0), "zx": (0, 0, 1)}[which]
        return cls({key: 1.0})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return _Poly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) - v
        return _Poly(out)

    def __mul__(self, other):
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                out[key] = out.get(key, 0.0) + va * vb
        return _Poly(out)

    def __pow__(self, n):
        result = _Poly.const(1.0)
        for _ in range(n):
            result = result * self
        return result

    def __neg__(self):
        return _Poly({k: -v for k, v in self.terms.items()})


class _Parser:
    def __init__(self, tokens, params, max_degree):
        self.tokens = tokens
        self.params = params
        self.max_degree = max_degree
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise LagrangianSyntaxError(f"expected {op!r}", pos)
        return self.next()

    def parse(self):
        poly = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise LagrangianSyntaxError(f"unexpected token {value!r}", pos)
        return poly

    def expr(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            poly = -self.term() if value == "-" else self.term()
        else:
            poly = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                poly = poly + rhs if value == "+" else poly - rhs
            else:
                return poly

    def term(self):
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self):
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.next()
            kind, value, pos = self.next()
            if kind != "number" or not re.fullmatch(r"\d+", value):
                raise LagrangianSyntaxError("exponent must be a nonnegative integer", pos)
            power = int(value)
            if power > self.max_degree:
                raise DegreeTooHigh(f"exponent {power} exceeds maximum degree {self.max_degree}")
            return base ** power
        return base

    def atom(self):
        kind, value, pos = self.next()
        if kind == "number":
            return _Poly.const(float(value))
        if kind == "name":
            if value in ("z", "zt", "zx"):
                return _Poly.symbol(value)
            if value in self.params:
                return _Poly.const(float(self.params[value]))
            raise LagrangianSyntaxError(f"unknown symbol {value!r}", pos)
        if kind == "op" and value == "(":
            poly = self.expr()
            self.expect_op(")")
            return poly
        if kind == "op" and value == "-":
            return -self.factor()
        raise LagrangianSyntaxError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def _format_coeff(value: float) -> str:
    return repr(float(value))


def _polyval(z, coeffs):
    """sum_k coeffs[k] * z^k, float zeros shaped like z for no coefficients."""
    if not coeffs:
        return np.zeros_like(np.asarray(z, dtype=float))
    return np.polynomial.polynomial.polyval(z, list(coeffs))


@dataclass(frozen=True)
class LagrangianSpec:
    """Normalized density F = c2*zt^2 + c1*zt + g*zx^2 - V(z).

    ``potential`` holds the ascending coefficients of V, so the z-monomials
    of F carry the opposite sign.
    """

    kinetic_coeff: float
    kinetic_linear: float = 0.0
    gradient_coeff: float = 0.0
    potential: tuple[float, ...] = ()

    def potential_value(self, z):
        return _polyval(z, self.potential)

    def potential_derivative(self, z):
        return _polyval(z, [k * c for k, c in enumerate(self.potential)][1:])

    def potential_second_derivative(self, z):
        return _polyval(z, [k * (k - 1) * c for k, c in enumerate(self.potential)][2:])

    def evaluate(self, z, zt, zx):
        return (
            self.kinetic_coeff * np.asarray(zt) ** 2
            + self.kinetic_linear * np.asarray(zt)
            + self.gradient_coeff * np.asarray(zx) ** 2
            - self.potential_value(z)
        )

    def emit(self) -> str:
        """Normal-form text; ``parse_lagrangian(emit())`` reproduces the spec."""
        terms = []
        if self.kinetic_coeff:
            terms.append((self.kinetic_coeff, "zt^2"))
        if self.kinetic_linear:
            terms.append((self.kinetic_linear, "zt"))
        if self.gradient_coeff:
            terms.append((self.gradient_coeff, "zx^2"))
        for k, coeff in enumerate(self.potential):
            if coeff:
                mono = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
                terms.append((-coeff, mono))
        return _join_terms(terms)


def _join_terms(terms):
    if not terms:
        return "0.0"
    parts = []
    for i, (coeff, mono) in enumerate(terms):
        body = _format_coeff(abs(coeff))
        if mono:
            body = f"{body}*{mono}"
        if i == 0:
            parts.append(body if coeff >= 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff >= 0 else f"- {body}")
    return " ".join(parts)


def parse_lagrangian(text: str, params: dict[str, float] | None = None,
                     max_degree: int = DEFAULT_MAX_DEGREE) -> LagrangianSpec:
    """Parse Lagrangian text over {z, zt, zx} with named-parameter substitution.

    Raises LagrangianSyntaxError (with position), NonQuadraticKinetic when any
    zt power exceeds 2 or the zt^2 coefficient is not positive,
    UnsupportedMixing for monomials outside the supported forms, and
    DegreeTooHigh for a potential degree or any exponent above ``max_degree``,
    and NonFiniteCoefficient when a coefficient overflows to infinity or NaN.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    poly = _Parser(_tokenize(text), params or {}, max_degree).parse()

    kinetic = 0.0
    kinetic_linear = 0.0
    gradient = 0.0
    pot = {}
    for (iz, it, ix), coeff in poly.terms.items():
        if not math.isfinite(coeff):
            raise NonFiniteCoefficient(f"monomial z^{iz}*zt^{it}*zx^{ix} has coefficient {coeff}")
        if coeff == 0.0:
            continue
        if it > 2:
            raise NonQuadraticKinetic(f"zt power {it} exceeds 2")
        if it > 0:
            if iz > 0 or ix > 0:
                raise UnsupportedMixing(f"monomial z^{iz}*zt^{it}*zx^{ix} mixes zt with z or zx")
            if it == 2:
                kinetic += coeff
            else:
                kinetic_linear += coeff
        elif ix > 0:
            if ix != 2 or iz > 0:
                raise UnsupportedMixing(f"monomial z^{iz}*zx^{ix} is not a pure zx^2 term")
            gradient += coeff
        else:
            if iz > max_degree:
                raise DegreeTooHigh(f"potential degree {iz} exceeds maximum {max_degree}")
            pot[iz] = pot.get(iz, 0.0) - coeff
    if kinetic <= 0.0:
        raise NonQuadraticKinetic(f"kinetic coefficient {kinetic} is not positive")

    degree = max(pot) if pot else -1
    potential = tuple(pot.get(k, 0.0) for k in range(degree + 1))
    return LagrangianSpec(kinetic, kinetic_linear, gradient, potential)


@dataclass(frozen=True)
class HamiltonianDensity:
    """Degree-2 polynomial in p with coefficients rational in the slope v.

    Produced by ``legendre_transform``; ``kinetic_coeff == 0`` marks a
    directly-constructed diagonal density H = -g*zs^2 + V(z) with no momentum
    dependence (useful as a commuting control case).
    """

    kinetic_coeff: float
    kinetic_linear: float
    gradient_coeff: float
    potential: tuple[float, ...]

    def effective_quad(self, v) -> float:
        """A(v) = c2 + g*v^2; must stay positive for the transform to hold."""
        a_eff = self.kinetic_coeff + self.gradient_coeff * float(v) ** 2
        if self.kinetic_coeff > 0.0 and a_eff <= 0.0:
            raise DegenerateKinetic(f"effective kinetic coefficient {a_eff} at slope {v}")
        return a_eff

    @property
    def has_momentum(self) -> bool:
        return self.kinetic_coeff > 0.0

    def p_quad_coeff(self, v) -> float:
        return 1.0 / (4.0 * self.effective_quad(v))

    def p_lin_coeff(self, v, zs):
        """Coefficient of p: -B/(2A) with B = c1 - 2*g*v*zs."""
        a_eff = self.effective_quad(v)
        return (2.0 * self.gradient_coeff * v * np.asarray(zs) - self.kinetic_linear) / (2.0 * a_eff)

    def scalar_part(self, v, z, zs):
        """Momentum-free part: B^2/(4A) - g*zs^2 + V(z)."""
        pot = _polyval(z, self.potential)
        grad = -self.gradient_coeff * np.asarray(zs) ** 2
        if not self.has_momentum:
            return pot + grad
        a_eff = self.effective_quad(v)
        b = self.kinetic_linear - 2.0 * self.gradient_coeff * v * np.asarray(zs)
        return b * b / (4.0 * a_eff) + grad + pot

    def zdot(self, zs, p, v):
        """Velocity solving p = dF/d(zt) at slope v."""
        if not self.has_momentum:
            raise DegenerateKinetic("density has no momentum dependence")
        a_eff = self.effective_quad(v)
        b = self.kinetic_linear - 2.0 * self.gradient_coeff * v * np.asarray(zs)
        return (np.asarray(p) - b) / (2.0 * a_eff)

    def evaluate(self, z, zs, p, v):
        p = np.asarray(p)
        out = self.scalar_part(v, z, zs)
        if self.has_momentum:
            out = out + self.p_quad_coeff(v) * p ** 2 + self.p_lin_coeff(v, zs) * p
        return out

    def to_lagrangian(self) -> LagrangianSpec:
        """Inverse transform at v = 0, rebuilt from the polynomial coefficients."""
        if not self.has_momentum:
            raise DegenerateKinetic("diagonal density has no Legendre inverse")
        alpha = self.p_quad_coeff(0.0)
        beta = float(self.p_lin_coeff(0.0, 0.0))
        # F(zt) = p*zt - H(p) at p = (zt - beta) / (2*alpha)
        c2 = 1.0 / (4.0 * alpha)
        c1 = -beta / (2.0 * alpha)
        # scalar_part(0, z, zs) = c1^2/(4 c2) - g zs^2 + V(z); strip the constant shift
        shift = c1 * c1 / (4.0 * c2)
        base = float(self.scalar_part(0.0, 0.0, 0.0))
        g = -(float(self.scalar_part(0.0, 0.0, 1.0)) - base)
        v0 = base - shift
        pot = list(self.potential)
        if pot:
            pot[0] = v0
        elif v0:
            pot = [v0]
        while pot and pot[-1] == 0.0:
            pot.pop()
        return LagrangianSpec(c2, c1, g, tuple(pot))

    def monomials(self, v=0.0) -> dict[tuple[int, int, int], float]:
        """Coefficients keyed by (p power, zx power, z power) at fixed slope."""
        out: dict[tuple[int, int, int], float] = {}

        def add(key, value):
            if value:
                out[key] = out.get(key, 0.0) + value

        if self.has_momentum:
            a_eff = self.effective_quad(v)
            c1, g = self.kinetic_linear, self.gradient_coeff
            add((2, 0, 0), 1.0 / (4.0 * a_eff))
            add((1, 0, 0), -c1 / (2.0 * a_eff))
            add((1, 1, 0), g * v / a_eff)
            add((0, 0, 0), c1 * c1 / (4.0 * a_eff))
            add((0, 1, 0), -c1 * g * v / a_eff)
            add((0, 2, 0), g * g * v * v / a_eff - g)
        else:
            add((0, 2, 0), -self.gradient_coeff)
        for k, coeff in enumerate(self.potential):
            add((0, 0, k), coeff)
        return out

    def emit(self, v=0.0) -> str:
        """Normal-form text in (p, zx, z), e.g. ``0.5*p^2 + 0.5*zx^2 + 0.5*z^2``."""
        def mono_text(key):
            ip, ix, iz = key
            parts = []
            if ip:
                parts.append("p" if ip == 1 else f"p^{ip}")
            if ix:
                parts.append("zx" if ix == 1 else f"zx^{ix}")
            if iz:
                parts.append("z" if iz == 1 else f"z^{iz}")
            return "*".join(parts)

        items = sorted(self.monomials(v).items(), key=lambda kv: (-kv[0][0], -kv[0][1], kv[0][2]))
        return _join_terms([(coeff, mono_text(key)) for key, coeff in items])


def legendre_transform(spec: LagrangianSpec) -> HamiltonianDensity:
    """H(z, zs, p; v) = p*zt(p) - F at the zt solving p = dF/d(zt).

    Valid while the effective quadratic coefficient c2 + g*v^2 stays positive.
    """
    if spec.kinetic_coeff <= 0.0:
        raise DegenerateKinetic(f"kinetic coefficient {spec.kinetic_coeff} is not positive")
    return HamiltonianDensity(
        spec.kinetic_coeff, spec.kinetic_linear, spec.gradient_coeff, tuple(spec.potential)
    )


def diagonal_density(gradient_coeff: float = 0.0,
                     potential: tuple[float, ...] = ()) -> HamiltonianDensity:
    """Momentum-free density H = -g*zs^2 + V(z); every compiled term is diagonal."""
    return HamiltonianDensity(0.0, 0.0, gradient_coeff, tuple(potential))
