from fractions import Fraction

import pytest
from hypothesis import given

from nefpoly import Poly, X, rat
from nefpoly.ratpoly import NEG_INF

from conftest import polys, rationals
from oracles import eval_rational, monomial


def convolve(a, b):
    """Schoolbook convolution oracle, independent of Poly internals."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


class TestRat:
    def test_parses_strings_ints_fractions(self):
        assert rat("3/2") == Fraction(3, 2)
        assert rat(-4) == Fraction(-4)
        assert rat(Fraction(1, 3)) == Fraction(1, 3)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)


class TestAdd:
    def test_additive_identity(self):
        assert (X - 1) + Poly.zero() == X - 1

    def test_cancellation_trims_trailing_zeros(self):
        s = (X**2 - 5 * X + 3) + (5 * X - 3)
        assert s == X**2
        assert s.coeffs == (0, 0, 1)

    def test_full_cancellation_gives_zero(self):
        z = (X - 1) + (-X + 1)
        assert z.is_zero
        assert z.degree == NEG_INF


class TestMul:
    def test_multiplicative_identity(self):
        assert (X - 1) * Poly.one() == X - 1

    def test_schoolbook_expansion(self):
        got = (X - 1) * (X**2 - 5 * X + 3)
        assert got == X**3 - 6 * X**2 + 8 * X - 3
        assert got.coeffs == tuple(convolve([-1, 1], [3, -5, 1]))

    def test_zero_absorbs(self):
        assert (Poly.zero() * (X**2 - 5 * X + 3)).is_zero

    def test_degree_adds_for_nonzero(self):
        p, q = X**2 + 1, X**3 - X
        assert (p * q).degree == 5


class TestScale:
    def test_half_of_x_minus_one(self):
        assert (X - 1).scale(Fraction(1, 2)) == Poly((Fraction(-1, 2), Fraction(1, 2)))

    def test_scale_by_zero(self):
        assert (X**2).scale(0).is_zero

    def test_scale_by_one_is_identity(self):
        p = X**3 - 7 * X
        assert p.scale(1) == p


class TestEval:
    def test_rational_point(self):
        assert eval_rational(X**2 - 5 * X + 3, 1) == -1

    def test_root(self):
        assert eval_rational(X - 1, 1) == 0

    def test_float_point(self):
        assert (X**2 - 5 * X + 3).eval_float(0.5) == 0.75


class TestStructure:
    def test_zero_polynomial_degree_sentinel(self):
        assert Poly.zero().degree == NEG_INF
        assert Poly.zero().degree < 0

    def test_no_trailing_zeros_on_construction(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)

    def test_monomial(self):
        assert monomial(3, Fraction(1, 2)) == X**3 * Fraction(1, 2)

    def test_string_round_trip(self):
        p = (X**2 - 5 * X + 3).scale(Fraction(1, 36))
        assert Poly(p.to_strings()) == p

    def test_str_rendering(self):
        assert str(X**2 - 5 * X + 3) == "x^2 - 5x + 3"
        assert str(Poly.zero()) == "0"
        assert str((X - 1).scale(Fraction(1, 2))) == "(1/2)x - 1/2"

    def test_derivative(self):
        assert (X**3 - 12 * X**2 + 30 * X - 13).derivative() == 3 * X**2 - 24 * X + 30


@given(p=polys, q=polys, r=polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(p=polys, q=polys, x=rationals)
def test_eval_is_ring_homomorphism(p, q, x):
    assert eval_rational(p * q, x) == eval_rational(p, x) * eval_rational(q, x)
    assert eval_rational(p + q, x) == eval_rational(p, x) + eval_rational(q, x)


@given(p=polys)
def test_normalization_idempotent(p):
    assert Poly(p.coeffs) == p
    assert Poly(p.coeffs).coeffs == p.coeffs


@given(p=polys, c=rationals, u=rationals)
def test_taylor_shift_matches_evaluation(p, c, u):
    assert eval_rational(p.taylor_at(c), u) == eval_rational(p, c + u)


@given(p=polys, q=polys)
def test_derivative_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(p=polys, q=polys)
def test_mul_matches_convolution_oracle(p, q):
    assert (p * q).coeffs == tuple(convolve(list(p.coeffs), list(q.coeffs)))
