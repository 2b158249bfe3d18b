"""Parser and Legendre-transform checks, including the sampled-solve oracle."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import fieldlab.lagrangian
from fieldlab import cli
from fieldlab.errors import (
    DegenerateKinetic,
    DegreeTooHigh,
    FieldLabError,
    LagrangianSyntaxError,
    NonFiniteCoefficient,
    NonQuadraticKinetic,
    UnsupportedMixing,
)
from fieldlab.lagrangian import (
    LagrangianSpec,
    diagonal_density,
    legendre_transform,
    parse_lagrangian,
)


def legendre_oracle(spec, z, zs, p, v):
    """Numerically solve p = dF/d(zdot) with zx = zs - zdot*v, return p*zdot - F.

    The derivative is a central difference of the evaluated density, which is
    exact here because F is quadratic in zdot; the solve never sees the
    closed-form inverse.
    """
    eps = 1e-5

    def dF(zdot):
        up = spec.evaluate(z, zdot + eps, zs - (zdot + eps) * v)
        dn = spec.evaluate(z, zdot - eps, zs - (zdot - eps) * v)
        return (up - dn) / (2 * eps)

    zdot = brentq(lambda x: dF(x) - p, -1e4, 1e4, xtol=1e-13, rtol=8.9e-16)
    return p * zdot - float(spec.evaluate(z, zdot, zs - zdot * v))


# --- parsing ---------------------------------------------------------------

def test_parse_free_field():
    spec = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*m^2*z^2", {"m": 1.0})
    assert spec.kinetic_coeff == 0.5
    assert spec.kinetic_linear == 0.0
    assert spec.gradient_coeff == -0.5
    assert spec.potential == (0.0, 0.0, 0.5)


def test_parse_quartic():
    spec = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4")
    assert spec.potential == (0.0, 0.0, 0.5, 0.0, 0.1)


def test_parse_cubic_kinetic_rejected():
    with pytest.raises(NonQuadraticKinetic):
        parse_lagrangian("zt^3")


def test_parse_nonpositive_kinetic_rejected():
    with pytest.raises(NonQuadraticKinetic):
        parse_lagrangian("-0.5*zt^2 - 0.5*z^2")
    with pytest.raises(NonQuadraticKinetic):
        parse_lagrangian("0.5*zx^2")  # no kinetic term at all


def test_parse_mixing_rejected():
    with pytest.raises(UnsupportedMixing):
        parse_lagrangian("0.5*zt^2 + z*zt")
    with pytest.raises(UnsupportedMixing):
        parse_lagrangian("0.5*zt^2 + zx")
    with pytest.raises(UnsupportedMixing):
        parse_lagrangian("0.5*zt^2 + z*zx^2")
    with pytest.raises(UnsupportedMixing):
        parse_lagrangian("0.5*zt^2 + zx^4")


def test_parse_degree_guard(monkeypatch):
    with pytest.raises(DegreeTooHigh):
        parse_lagrangian("0.5*zt^2 - z^7")
    monkeypatch.setattr(fieldlab.lagrangian, "MAX_DEGREE", 8)
    spec = parse_lagrangian("0.5*zt^2 - z^8")
    assert spec.potential[8] == 1.0


def test_parse_exponent_leading_zeros():
    """Leading zeros drop, also past int()'s 4,300-digit limit; the rest is checked as z^7 is."""
    padded = "0.5*zt^2 - z^" + "0" * 5000
    assert parse_lagrangian(padded + "2") == parse_lagrangian("0.5*zt^2 - z^2")
    assert parse_lagrangian(padded) == parse_lagrangian("0.5*zt^2 - 1")
    for digits in ["7", "1" + "0" * 300]:
        with pytest.raises(DegreeTooHigh):
            parse_lagrangian(padded + digits)


def test_parse_huge_exponent_rejected_before_expanding():
    # expanding z^99999999 term by term would not finish
    with pytest.raises(DegreeTooHigh):
        parse_lagrangian("0.5*zt^2 - 0.5*z^99999999")
    with pytest.raises(DegreeTooHigh):
        parse_lagrangian("0.5*zt^2 - 0.5*(z - 1)^7")


@pytest.mark.parametrize("text,params", [
    ("0.5*zt^2 - 0.5*zx^2 - 0.5*m^2*z^2", {"m": -1e300}),  # -0.5*m^2 overflows
    ("0.5*zt^2 - 1e200*1e200*z^4", {}),
    ("0.5*zt^2 + (1e308 + 1e308)*zt - (1e308 + 1e308)*zt", {}),  # inf - inf is NaN
])
def test_parse_overflowing_coefficient_rejected(text, params):
    with pytest.raises(NonFiniteCoefficient):
        parse_lagrangian(text, params)


@pytest.mark.parametrize("text,position", [
    ("0.5*zt^2 - 1e400*z^2", 11),
    ("0.5*zt^2 - 0.5*z^2 + 2.5e+999*zt", 21),
    ("0.5*zt^2 - 0.5*z^" + "9" * 400, 17),
])
def test_parse_non_finite_literal_rejected_at_its_position(text, position):
    with pytest.raises(LagrangianSyntaxError, match="is not finite") as err:
        parse_lagrangian(text, {"m": 1.0})
    assert err.value.position == position


def test_parse_syntax_error_positions():
    with pytest.raises(LagrangianSyntaxError) as err:
        parse_lagrangian("0.5*zt^2 - 0.5*q^2")
    assert err.value.position == 15
    with pytest.raises(LagrangianSyntaxError) as err:
        parse_lagrangian("0.5*zt^2 +")
    assert "position" in str(err.value)
    with pytest.raises(LagrangianSyntaxError):
        parse_lagrangian("0.5*zt^2 ? z")
    with pytest.raises(LagrangianSyntaxError):
        parse_lagrangian("zt^2.5")


# each text against a text that must give the same spec, bit for bit, or against
# the exact error type and position it must raise
GRAMMAR = [
    ("+zt^2 - z", "zt^2 - z"),                      # a leading plus sign
    ("0.5*zt^2 + 2*+z", (LagrangianSyntaxError, 13)),  # but no unary plus after an operator
    ("--z + zt^2", "z + zt^2"),
    ("-2*z^2 + zt^2", "(-2)*z^2 + zt^2"),
    ("0.5*zt^2 + (+z)", "0.5*zt^2 + z"),
    ("0.5*zt^2 - z^(2)", (LagrangianSyntaxError, 13)),
    ("0.5*zt^2 - z^02", "0.5*zt^2 - z^2"),
    ("0.5*zt^2 - z^2^2", (LagrangianSyntaxError, 14)),
    ("0.5*zt^2 - z^2\n\t", "0.5*zt^2 - z^2"),
    ("0.5*zt^2 ? z", (LagrangianSyntaxError, 9)),
    ("0.5*zt^2 - q*z", (LagrangianSyntaxError, 11)),
    ("0.5*zt^2 - (z + 1", (LagrangianSyntaxError, 17)),
]


@pytest.mark.parametrize("text,expected", GRAMMAR)
def test_grammar_table(text, expected):
    if isinstance(expected, str):
        assert repr(parse_lagrangian(text)) == repr(parse_lagrangian(expected))
        return
    kind, position = expected
    with pytest.raises(FieldLabError) as err:
        parse_lagrangian(text)
    assert type(err.value) is kind
    assert err.value.position == position


@pytest.mark.parametrize("text,position", [
    ("-z^2^2 + zt^2", 4),
    ("zt^2 + 2*-z^2^2", 13),
    ("zt^2 - -z^2^2", 11),
])
def test_negated_factor_takes_no_exponent(text, position):
    """A unary minus negates a factor with its exponent; a second exponent is refused
    wherever the minus stands, as it is after a bare factor."""
    with pytest.raises(LagrangianSyntaxError, match="unexpected token '\\^'") as err:
        parse_lagrangian(text)
    assert err.value.position == position


@pytest.mark.parametrize("opener", ["(", "-", "(-"])
def test_nesting_bound(opener):
    bound = fieldlab.lagrangian.MAX_NESTING
    levels = bound // len(opener)  # an even count, so the minus signs cancel

    def nested(count):
        return opener * count + "0.5*zt^2" + ")" * (count * opener.count("("))

    assert parse_lagrangian(nested(levels)) == parse_lagrangian("0.5*zt^2")
    with pytest.raises(LagrangianSyntaxError, match="nesting deeper") as err:
        parse_lagrangian(nested(levels + 1))
    assert err.value.position == bound  # the token that opens level bound + 1


TOKENS = ["z", "zt", "zx", "m", "q", "0", "2", "0.5", ".5", "1e3", "1e400", "02",
          "+", "-", "*", "^", "(", ")", "?", " ", "\n"]


# Hypothesis lifts the recursion limit by 2,000 frames while a test runs, so
# the nesting reaches 3,000 levels to overrun it
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    depth=st.integers(min_value=0, max_value=3000),
    opener=st.sampled_from(["(", "-", "(-", "- "]),
    body=st.lists(st.sampled_from(TOKENS), max_size=30),
    closers=st.integers(min_value=0, max_value=400),
)
def test_random_token_strings_give_a_spec_or_a_typed_error(depth, opener, body, closers):
    """Through the parser and through ``main``: a spec or a typed error, exit 0 or 2."""
    text = opener * depth + "0.5*zt^2 " + "".join(body) + ")" * closers
    try:
        assert isinstance(parse_lagrangian(text, {"m": 1.0}), LagrangianSpec)
    except FieldLabError:
        pass
    config = {"lagrangian": {"text": text, "params": {"m": 1.0}}, "legendre": {}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2)


def test_parse_parentheses_and_params():
    spec = parse_lagrangian("0.5*zt^2 - lam*(z - 0.5)^2", {"lam": 2.0})
    # 2(z - 1/2)^2 = 2z^2 - 2z + 1/2
    assert spec.potential == pytest.approx((0.5, -2.0, 2.0))


def test_emit_parse_round_trip_free():
    spec = parse_lagrangian("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2")
    assert spec.emit() == "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2"
    assert parse_lagrangian(spec.emit()) == spec


finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    c2=st.floats(min_value=0.1, max_value=3.0),
    c1=finite,
    g=finite,
    pot=st.lists(finite, min_size=0, max_size=5),
)
def test_round_trip_random_specs(c2, c1, g, pot):
    while pot and pot[-1] == 0.0:
        pot.pop()
    spec = LagrangianSpec(c2, c1, g, tuple(pot))
    assert parse_lagrangian(spec.emit()) == spec


# --- Legendre transform ------------------------------------------------------

def test_legendre_free_field(free_lagr):
    density = legendre_transform(free_lagr)
    assert density.emit() == "0.5*p^2 + 0.5*zx^2 + 0.5*z^2"
    rng = np.random.default_rng(3)
    for _ in range(20):
        z, zs, p = rng.uniform(-2, 2, size=3)
        expected = 0.5 * p ** 2 + 0.5 * zs ** 2 + 0.5 * z ** 2
        assert density.evaluate(z, zs, p, 0.0) == pytest.approx(expected, abs=1e-14)


def test_legendre_doubled_kinetic():
    spec = parse_lagrangian("zt^2")
    density = legendre_transform(spec)
    assert density.emit() == "0.25*p^2"
    assert float(density.evaluate(0.0, 0.0, 2.0, 0.0)) == pytest.approx(1.0)


def test_legendre_linear_kinetic_oracle():
    spec = parse_lagrangian("0.5*zt^2 + 0.3*zt - 0.5*z^2")
    density = legendre_transform(spec)
    rng = np.random.default_rng(11)
    for p in rng.uniform(-3, 3, size=100):
        z = rng.uniform(-2, 2)
        closed = float(density.evaluate(z, 0.0, p, 0.0))
        oracle = legendre_oracle(spec, z, 0.0, p, 0.0)
        assert abs(closed - oracle) < 1e-12
        assert closed == pytest.approx(0.5 * (p - 0.3) ** 2 + 0.5 * z ** 2, abs=1e-12)


def test_legendre_sloped_oracle():
    spec = parse_lagrangian("0.5*zt^2 - 0.5*zx^2")
    density = legendre_transform(spec)
    rng = np.random.default_rng(5)
    v = 0.5
    for _ in range(100):
        z, zs, p = rng.uniform(-2, 2, size=3)
        closed = float(density.evaluate(z, zs, p, v))
        oracle = legendre_oracle(spec, z, zs, p, v)
        assert abs(closed - oracle) < 1e-12
        # cross-term structure: (p^2 + zs^2 - 2 v p zs) / (2 (1 - v^2))
        expected = (p ** 2 + zs ** 2 - 2.0 * v * p * zs) / (2.0 * (1.0 - v ** 2))
        assert closed == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    c2=st.floats(min_value=0.2, max_value=2.0),
    c1=st.floats(min_value=-1.0, max_value=1.0),
    g_frac=st.floats(min_value=-1.0, max_value=1.0),
    coeffs=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=0, max_size=4),
    z=st.floats(min_value=-1.5, max_value=1.5),
    zs=st.floats(min_value=-1.5, max_value=1.5),
    p=st.floats(min_value=-1.5, max_value=1.5),
    v=st.floats(min_value=-0.9, max_value=0.9),
)
def test_defining_identity_property(c2, c1, g_frac, coeffs, z, zs, p, v):
    # g >= -c2 keeps the transform valid on the whole |v| < 1 range
    spec = LagrangianSpec(c2, c1, g_frac * c2, tuple(coeffs))
    density = legendre_transform(spec)
    h = density.coefficients(v)
    # the velocity solving p = dF/d(zt) is dH/dp, read off the table
    zdot = 2.0 * h[2, 0] * p + h.get((1, 0), 0.0) + h.get((1, 1), 0.0) * zs
    direct = p * zdot - float(spec.evaluate(z, zdot, zs - zdot * v))
    assert abs(float(density.evaluate(z, zs, p, v)) - direct) < 1e-10


def test_involution_random_specs():
    rng = np.random.default_rng(17)
    for _ in range(20):
        c2 = rng.uniform(0.2, 2.0)
        spec = LagrangianSpec(
            c2,
            rng.uniform(-1, 1),
            rng.uniform(-c2, 1.0),
            tuple(rng.uniform(-1, 1, size=rng.integers(0, 5))),
        )
        back = legendre_transform(spec).to_lagrangian()
        assert back.kinetic_coeff == pytest.approx(spec.kinetic_coeff, abs=1e-12)
        assert back.kinetic_linear == pytest.approx(spec.kinetic_linear, abs=1e-12)
        assert back.gradient_coeff == pytest.approx(spec.gradient_coeff, abs=1e-12)
        assert np.allclose(back.potential, spec.potential, atol=1e-12)


def test_degenerate_kinetic():
    with pytest.raises(DegenerateKinetic):
        legendre_transform(LagrangianSpec(0.0, 0.0, 0.0, ()))
    density = legendre_transform(parse_lagrangian("0.5*zt^2 - 0.5*zx^2"))
    with pytest.raises(DegenerateKinetic):
        density.coefficients(1.0)
    with pytest.raises(DegenerateKinetic):
        density.evaluate(0.0, 0.0, 1.0, 1.2)


def test_flat_reduction_of_slope_form(quartic_lagr):
    density = legendre_transform(quartic_lagr)
    flat = density.coefficients(0.0)
    assert flat[(2, 0)] == pytest.approx(0.5)
    assert flat[(0, 2)] == pytest.approx(0.5)
    assert density.potential[2] == pytest.approx(0.5)
    assert density.potential[4] == pytest.approx(0.1)
    assert (1, 1) not in flat


def test_emit_at_slope():
    density = legendre_transform(parse_lagrangian("0.5*zt^2 - 0.5*zx^2"))
    text = density.emit(0.5)
    assert "p*zx" in text and "p^2" in text and "zx^2" in text
    # coefficient of p^2 is 1/(4A) = 1/(2 (1 - v^2))
    assert text.startswith(repr(1.0 / (2.0 * (1.0 - 0.25))))


def test_diagonal_density():
    for g in (0.0, 0.3):
        density = diagonal_density(g, (0.0, 0.0, 0.5))
        assert density.coefficients(0.7) == ({(0, 2): -g} if g else {})
        value = float(density.evaluate(2.0, 1.0, 123.0, 0.7))
        assert value == pytest.approx(2.0 - g)
        assert value == float(density.evaluate(2.0, 1.0, 0.0, 0.7))
        with pytest.raises(DegenerateKinetic):
            density.to_lagrangian()


@pytest.mark.parametrize("g", [-0.5, 0.0, 0.5])
def test_slope_with_no_finite_square(g):
    """A slope whose square overflows is refused before the table holds inf or NaN."""
    density = legendre_transform(LagrangianSpec(0.5, 0.1, g, (0.0, 0.0, 0.5)))
    for v in (1e200, -1e155, float("inf")):
        with pytest.raises(NonFiniteCoefficient, match="slope"):
            density.coefficients(v)


@pytest.mark.parametrize("coeffs", [(1.0,), (0.3, -0.2, 0.5, 0.0, 0.1), (2.0, 0.4), (0.0, -0.0),
                                    (-0.0,), (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, -1e-3)])
def test_polyval_is_numpy_polyval_bit_for_bit(coeffs, rng):
    """Horner's rule in place keeps numpy's operation order: equal values, signed zeros,
    non-finite results and result types, on arrays and on scalars."""
    from numpy.polynomial.polynomial import polyval

    inputs = [rng.uniform(-3.0, 3.0, size=(5, 7)), 0.3, -2.0, -0.0, np.float64(1.5),
              np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e200, -1e-300])]
    with np.errstate(over="ignore", invalid="ignore"):
        for z in inputs:
            ours, numpy_value = fieldlab.lagrangian._polyval(z, coeffs), polyval(z, list(coeffs))
            assert type(ours) is type(numpy_value)
            assert np.array_equal(ours, numpy_value, equal_nan=True)
            assert np.array_equal(np.signbit(ours), np.signbit(numpy_value))
