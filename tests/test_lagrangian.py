"""Parser and Legendre-transform checks, including the sampled-solve oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fieldlab.errors import (
    DegenerateKinetic,
    DegreeTooHigh,
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


def test_parse_degree_guard():
    with pytest.raises(DegreeTooHigh):
        parse_lagrangian("0.5*zt^2 - z^7")
    spec = parse_lagrangian("0.5*zt^2 - z^8", max_degree=8)
    assert spec.potential[8] == 1.0


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
    zdot = float(density.zdot(zs, p, v))
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
        density.effective_quad(1.0)
    with pytest.raises(DegenerateKinetic):
        density.evaluate(0.0, 0.0, 1.0, 1.2)


def test_flat_reduction_of_slope_form(quartic_lagr):
    density = legendre_transform(quartic_lagr)
    flat = density.monomials(0.0)
    assert flat[(2, 0, 0)] == pytest.approx(0.5)
    assert flat[(0, 2, 0)] == pytest.approx(0.5)
    assert flat[(0, 0, 2)] == pytest.approx(0.5)
    assert flat[(0, 0, 4)] == pytest.approx(0.1)
    assert (1, 1, 0) not in flat


def test_emit_at_slope():
    density = legendre_transform(parse_lagrangian("0.5*zt^2 - 0.5*zx^2"))
    text = density.emit(0.5)
    assert "p*zx" in text and "p^2" in text and "zx^2" in text
    # coefficient of p^2 is 1/(4A) = 1/(2 (1 - v^2))
    assert text.startswith(repr(1.0 / (2.0 * (1.0 - 0.25))))


def test_diagonal_density():
    density = diagonal_density(0.0, (0.0, 0.0, 0.5))
    assert not density.has_momentum
    assert float(density.evaluate(2.0, 1.0, 123.0, 0.7)) == pytest.approx(2.0)
    with pytest.raises(DegenerateKinetic):
        density.zdot(0.0, 1.0, 0.0)
