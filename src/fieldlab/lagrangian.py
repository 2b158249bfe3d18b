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
    r"|(?P<op>[-+*^()])"
    r"|(?P<bad>\S))"
)

MAX_DEGREE = 6  # the largest exponent and potential degree the parser accepts
# monomials are keyed by their (zt, zx, z) exponents, the order the normal form writes;
# _SYMBOLS holds each symbol's key, _FIELDS the LagrangianSpec field of each term outside V
_SYMBOLS = {"zt": (1, 0, 0), "zx": (0, 1, 0), "z": (0, 0, 1)}
_FIELDS = {(2, 0, 0): "kinetic_coeff", (1, 0, 0): "kinetic_linear", (0, 2, 0): "gradient_coeff"}
# how deep parentheses and unary minus signs may nest; a parenthesis costs the
# parser four stack frames, so the deepest text stays inside Python's default
# recursion limit of 1000
MAX_NESTING = 200


def _tokenize(text: str):
    """(kind, text, position) per token, then an ("end", "", len(text)) token.

    Every character that is not whitespace matches a group (``bad`` last), so
    the matches skip nothing but whitespace.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, pos = m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)
        if kind == "bad":
            raise LagrangianSyntaxError(f"unexpected character {value!r}", pos)
        if kind == "number" and not math.isfinite(float(value)):
            raise LagrangianSyntaxError(f"number {value!r} is not finite", pos)
        tokens.append((kind, value, pos))
    tokens.append(("end", "", len(text)))
    return tokens


def _refuse(it: int, ix: int, iz: int):
    """Raise the error for the monomial z^iz*zt^it*zx^ix, outside the accepted density."""
    if it > 2:
        raise NonQuadraticKinetic(f"zt power {it} exceeds 2")
    if it > 0:
        raise UnsupportedMixing(f"monomial z^{iz}*zt^{it}*zx^{ix} mixes zt with z or zx")
    if ix > 0:
        raise UnsupportedMixing(f"monomial z^{iz}*zx^{ix} is not a pure zx^2 term")
    raise DegreeTooHigh(f"potential degree {iz} exceeds maximum {MAX_DEGREE}")


class _Poly:
    """Polynomial in (zt, zx, z) as a monomial-exponent -> coefficient map."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @classmethod
    def const(cls, value):
        return cls({(0, 0, 0): float(value)}) if value else cls()

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return _Poly(out)

    def __mul__(self, other):
        """The product, refused at the first monomial past z^MAX_DEGREE, zt^2 or zx^2.

        Exponents only grow under multiplication, so such a monomial survives
        unless it cancels exactly; refusing it here keeps every product under
        (MAX_DEGREE+1)*3*3 terms instead of expanding products of powers fully.
        """
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                if key[0] > 2 or key[1] > 2 or key[2] > MAX_DEGREE:
                    _refuse(*key)
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
    """Recursive descent over the token list:

        expr   = ["+"] term {("+" | "-") term}
        term   = factor {"*" factor}
        factor = "-" factor | atom ["^" digits]
        atom   = number | symbol | parameter | "(" expr ")"

    A unary minus negates a whole factor, exponent included, and takes no
    exponent itself, so ``-z^2^2`` is refused as ``z^2^2`` is.  Unary minus
    signs and open parentheses nest at most MAX_NESTING deep.
    """

    def __init__(self, tokens, params):
        self.tokens = tokens
        self.params = params
        self.i = 0
        self.depth = 0

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, ops: str):
        """The next token, consumed, if it is an operator in ``ops``; otherwise None."""
        tok = self.tokens[self.i]
        if tok[0] == "op" and tok[1] in ops:
            self.i += 1
            return tok
        return None

    def deeper(self, pos: int) -> None:
        """Open one nesting level at the token at ``pos``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise LagrangianSyntaxError(f"nesting deeper than {MAX_NESTING} levels", pos)

    def parse(self):
        poly = self.expr()
        kind, value, pos = self.next()
        if kind != "end":
            raise LagrangianSyntaxError(f"unexpected token {value!r}", pos)
        return poly

    def expr(self):
        self.accept("+")
        poly = self.term()
        while op := self.accept("+-"):
            rhs = self.term()
            poly = poly + (rhs if op[1] == "+" else -rhs)
        return poly

    def term(self):
        poly = self.factor()
        while self.accept("*"):
            poly = poly * self.factor()
        return poly

    def factor(self):
        minus = self.accept("-")
        if minus:
            self.deeper(minus[2])
            poly = -self.factor()
            self.depth -= 1
            return poly
        base = self.atom()
        if not self.accept("^"):
            return base
        kind, value, pos = self.next()
        if kind != "number" or not re.fullmatch(r"\d+", value):
            raise LagrangianSyntaxError("exponent must be a nonnegative integer", pos)
        # leading zeros drop, as in z^02; a longer digit string than MAX_DEGREE's is
        # refused before int() sees it, since int() refuses literals past 4,300 digits
        digits = value.lstrip("0") or "0"
        if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
            raise DegreeTooHigh(f"exponent {digits} exceeds maximum degree {MAX_DEGREE}")
        return base ** int(digits)

    def atom(self):
        kind, value, pos = self.next()
        if kind == "number":
            return _Poly.const(float(value))
        if kind == "name":
            if value in _SYMBOLS:
                return _Poly({_SYMBOLS[value]: 1.0})
            if value in self.params:
                return _Poly.const(float(self.params[value]))
            raise LagrangianSyntaxError(f"unknown symbol {value!r}", pos)
        if kind != "op" or value != "(":
            raise LagrangianSyntaxError(
                f"unexpected token {value!r}" if value else "unexpected end of input", pos)
        self.deeper(pos)
        poly = self.expr()
        kind, value, pos = self.next()
        if kind != "op" or value != ")":
            raise LagrangianSyntaxError("expected ')'", pos)
        self.depth -= 1
        return poly


def _polyval(z, coeffs):
    """sum_k coeffs[k] * z^k by Horner's rule in numpy's polyval order; zeros like z for none."""
    z = np.asarray(z)
    if not coeffs:
        return np.zeros_like(z, dtype=float)
    value = z * 0.0 + coeffs[-1]
    for coeff in coeffs[-2::-1]:
        value *= z
        value += coeff
    return value


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
        monomials = {key: getattr(self, name) for key, name in _FIELDS.items()}
        for k, coeff in enumerate(self.potential):
            monomials[0, 0, k] = -coeff
        return _join_terms(monomials, ("zt", "zx", "z"))


def _join_terms(monomials: dict, names) -> str:
    """Normal-form text of {exponents of the three ``names``: coefficient}.

    Terms run by the first power descending, then the second descending, then
    the third ascending; zero coefficients are dropped, and a table without a
    nonzero coefficient reads ``0.0``.
    """
    parts = []
    for key in sorted(monomials, key=lambda k: (-k[0], -k[1], k[2])):
        coeff = monomials[key]
        if not coeff:
            continue
        body = "*".join([repr(float(abs(coeff)))]
                        + [name if power == 1 else f"{name}^{power}"
                           for name, power in zip(names, key) if power])
        if parts:
            parts.append(f"+ {body}" if coeff >= 0 else f"- {body}")
        else:
            parts.append(body if coeff >= 0 else f"-{body}")
    return " ".join(parts) or "0.0"


def parameter_names(text: str) -> set[str]:
    """The names ``text`` reads besides z, zt and zx: the parameters it uses."""
    return {value for kind, value, _ in _tokenize(text) if kind == "name"} - _SYMBOLS.keys()


def parse_lagrangian(text: str, params: dict[str, float] | None = None) -> LagrangianSpec:
    """Parse Lagrangian text over {z, zt, zx} with named-parameter substitution.

    Raises LagrangianSyntaxError (with position) for bad syntax or nesting
    deeper than MAX_NESTING, NonQuadraticKinetic when any zt power exceeds 2
    or the zt^2 coefficient is not positive, UnsupportedMixing for monomials
    outside the supported forms, DegreeTooHigh for a potential degree or any
    exponent above MAX_DEGREE, and NonFiniteCoefficient when a coefficient
    overflows to infinity or NaN.  A monomial past z^MAX_DEGREE, zt^2 or zx^2
    is refused where a product forms it, even if a later term would cancel it.
    """
    poly = _Parser(_tokenize(text), params or {}).parse()

    fields = dict.fromkeys(_FIELDS.values(), 0.0)
    pot = {}
    for (it, ix, iz), coeff in poly.terms.items():
        if not math.isfinite(coeff):
            raise NonFiniteCoefficient(f"monomial z^{iz}*zt^{it}*zx^{ix} has coefficient {coeff}")
        if coeff == 0.0:
            continue
        if (it, ix, iz) in _FIELDS:
            fields[_FIELDS[it, ix, iz]] = coeff
        elif it == ix == 0 and iz <= MAX_DEGREE:
            pot[iz] = -coeff
        else:
            _refuse(it, ix, iz)
    if fields["kinetic_coeff"] <= 0.0:
        raise NonQuadraticKinetic(f"kinetic coefficient {fields['kinetic_coeff']} is not positive")

    potential = tuple(pot.get(k, 0.0) for k in range(max(pot, default=-1) + 1))
    return LagrangianSpec(potential=potential, **fields)


@dataclass(frozen=True)
class HamiltonianDensity:
    """Degree-2 polynomial in p with coefficients rational in the slope v.

    Produced by ``legendre_transform``; ``kinetic_coeff == 0`` marks a
    directly-constructed diagonal density H = -g*zs^2 + V(z) with no momentum
    dependence (useful as a commuting control case).  ``coefficients`` writes
    the transform; every other method reads it.
    """

    kinetic_coeff: float
    kinetic_linear: float
    gradient_coeff: float
    potential: tuple[float, ...]

    def coefficients(self, v) -> dict[tuple[int, int], float]:
        """The nonzero coefficients of H - V(z) at slope v, keyed by (p power, zs power).

        H - V = (p - B)^2 / (4A) - g*zs^2 expanded, with A = c2 + g*v^2 and
        B = c1 - 2*g*v*zs; a diagonal density keeps only -g*zs^2.  A must stay
        positive for the transform to hold.
        """
        c2, c1, g = self.kinetic_coeff, self.kinetic_linear, self.gradient_coeff
        if c2 <= 0.0:
            return {(0, 2): -g} if g else {}
        # checked as v * v: v ** 2 raises a bare OverflowError where the square overflows
        if not math.isfinite(float(v) * float(v)):
            raise NonFiniteCoefficient(f"slope {v} has no finite square")
        a_eff = c2 + g * float(v) ** 2
        if a_eff <= 0.0:
            raise DegenerateKinetic(f"effective kinetic coefficient {a_eff} at slope {v}")
        terms = {
            (2, 0): 1.0 / (4.0 * a_eff),
            (1, 0): -c1 / (2.0 * a_eff),
            (1, 1): g * v / a_eff,
            (0, 0): c1 * c1 / (4.0 * a_eff),
            (0, 1): -c1 * g * v / a_eff,
            (0, 2): g * g * v * v / a_eff - g,
        }
        return {key: coeff for key, coeff in terms.items() if coeff}

    def evaluate(self, z, zs, p, v):
        """H(z, zs, p; v), summed as (p-free part + V(z)) + p^2 part + p part.

        Each power of p sums its zs terms in table order, so at p = 0 the
        result is the p-free part plus V(z) up to signed zeros.
        """
        zs = np.asarray(zs)
        of_p = [0.0, 0.0, 0.0]
        for (ip, k), coeff in self.coefficients(v).items():
            of_p[ip] = of_p[ip] + coeff * zs ** k
        p = np.asarray(p)
        return of_p[0] + _polyval(z, self.potential) + of_p[2] * p ** 2 + of_p[1] * p

    def to_lagrangian(self) -> LagrangianSpec:
        """Inverse transform at v = 0, read off the coefficients there.

        At v = 0, H - V = p^2/(4 c2) - c1 p/(2 c2) + c1^2/(4 c2) - g zs^2.
        """
        h = self.coefficients(0.0)
        if (2, 0) not in h:
            raise DegenerateKinetic("diagonal density has no Legendre inverse")
        c2 = 0.25 / h[2, 0]
        pot = list(self.potential)
        while pot and pot[-1] == 0.0:
            pot.pop()
        return LagrangianSpec(c2, -2.0 * c2 * h.get((1, 0), 0.0), -h.get((0, 2), 0.0), tuple(pot))

    def emit(self, v=0.0) -> str:
        """Normal-form text in (p, zx, z), e.g. ``0.5*p^2 + 0.5*zx^2 + 0.5*z^2``."""
        monomials = {(ip, ix, 0): coeff for (ip, ix), coeff in self.coefficients(v).items()}
        for k, coeff in enumerate(self.potential):
            monomials[0, 0, k] = monomials.get((0, 0, k), 0.0) + coeff
        return _join_terms(monomials, ("p", "zx", "z"))


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
