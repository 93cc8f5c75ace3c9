import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nefpoly import series

from conftest import nonzero_rationals, rationals
from oracles import compose, revert

ORDER = 8


def binom_series_coeff(alpha, n):
    """n-th coefficient of (1 + u)**alpha via the falling-factorial oracle."""
    c = Fraction(1)
    for k in range(n):
        c *= Fraction(alpha - k, k + 1)
    return c


def test_reciprocal_of_cubic_matches_binomial_oracle():
    # 1/(1+u)^3 has the alternating triangular-number coefficients
    got = series.reciprocal([Fraction(1), 3, 3, 1], 5)
    want = [binom_series_coeff(-3, n) for n in range(6)]
    assert got == want == [1, -3, 6, -10, 15, -21]


def test_reciprocal_needs_nonzero_constant():
    with pytest.raises(ZeroDivisionError):
        series.reciprocal([Fraction(0), 1], 3)


def test_integrate_divides_by_new_exponent():
    got = series.integrate([Fraction(1), 2, 3], 4)
    assert got == [0, 1, 1, 1, 0]


@given(c=st.lists(rationals, min_size=1, max_size=5))
def test_reciprocal_multiplies_back_to_one(c):
    c = [Fraction(1) + abs(c[0])] + c[1:]  # keep the constant term nonzero
    inv = series.reciprocal(c, ORDER)
    prod = series.multiply(c, inv, ORDER)
    assert prod == [Fraction(1)] + [Fraction(0)] * ORDER


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
