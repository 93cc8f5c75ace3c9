import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nefpoly import VarianceSpec, kpsi_series, psi_series

from conftest import nonzero_rationals, rationals, variance_specs
from oracles import compose, multiply, revert

ORDER = 8


def derivative(c):
    """Term-wise derivative of a series, one order shorter."""
    return [k * ck for k, ck in enumerate(c) if k >= 1]


@given(spec=variance_specs)
def test_reciprocal_multiplies_back_to_one(spec):
    # psi' is the reciprocal of V(m0 + u): their product is 1 through the
    # order the truncated series determine.
    psi = psi_series(spec, ORDER)
    assert psi[0] == 0
    one = [Fraction(1)] + [Fraction(0)] * (ORDER - 1)
    assert multiply(list(spec.a), derivative(psi), ORDER - 1) == one


def test_integrate_divides_by_new_exponent():
    # V(m) = m**2 at m0 = 1: 1/V(1 + u) = sum (-1)**n (n + 1) u**n, and
    # dividing each term by its new exponent n + 1 leaves psi = u - u**2 + ...
    spec = VarianceSpec(m0=1, a=(1, 2, 1, 0))
    assert psi_series(spec, ORDER) == [0] + [(-1) ** (j - 1) for j in range(1, ORDER + 1)]


@given(spec=variance_specs)
def test_psi_and_kpsi_solve_their_defining_equations(spec):
    # (k o psi)'(u) = (m0 + u) psi'(u), anchored to vanish at u = 0.
    psi, kpsi = psi_series(spec, ORDER), kpsi_series(spec, ORDER)
    assert kpsi[0] == 0
    assert derivative(kpsi) == multiply([spec.m0, Fraction(1)], derivative(psi), ORDER - 1)


def test_compose_requires_zero_inner_constant():
    with pytest.raises(ValueError):
        compose([Fraction(1)], [Fraction(1), 1], 3)


def test_compose_with_identity():
    c = [Fraction(2), Fraction(-1), Fraction(5)]
    ident = [Fraction(0), Fraction(1), Fraction(0)]
    assert compose(c, ident, 2) == c


def test_compose_geometric_with_scaled_argument():
    # 1/(1 - (2u)) from 1/(1-v) composed with v = 2u
    geo = [Fraction(1)] * (ORDER + 1)
    scaled = compose(geo, [Fraction(0), Fraction(2)], ORDER)
    assert scaled == [Fraction(2) ** n for n in range(ORDER + 1)]


def test_revert_exp_minus_one_gives_log_series():
    expm1 = [Fraction(0)] + [Fraction(1, math.factorial(n)) for n in range(1, ORDER + 1)]
    log1p = revert(expm1, ORDER)
    want = [Fraction(0)] + [Fraction((-1) ** (n + 1), n) for n in range(1, ORDER + 1)]
    assert log1p == want


@given(
    c1=nonzero_rationals,
    rest=st.lists(rationals, min_size=0, max_size=4),
)
def test_revert_round_trips(c1, rest):
    c = [Fraction(0), c1] + rest
    g = revert(c, ORDER)
    back = compose(c, g, ORDER)
    assert back == [Fraction(0), Fraction(1)] + [Fraction(0)] * (ORDER - 1)


def test_revert_requires_units():
    with pytest.raises(ValueError):
        revert([Fraction(1), Fraction(1)], 3)
    with pytest.raises(ValueError):
        revert([Fraction(0), Fraction(0), Fraction(1)], 3)
