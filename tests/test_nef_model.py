import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from nefpoly import (
    SingularVarianceError,
    VarianceSpec,
    cumulant_polynomials,
    cumulants,
    kpsi_series,
    lookup,
    moment_table,
    psi_series,
    raw_moments,
)
from nefpoly.families import CATALOG

from conftest import rationals
from oracles import cumulants_via_inversion, eval_rational

# random-but-valid variance specs: a0 > 0, arbitrary a1..a3
variance_specs = st.builds(
    VarianceSpec,
    m0=rationals,
    a=st.tuples(
        st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8),
        rationals,
        rationals,
        rationals,
    ),
)


def ig_moment_oracle(n):
    """Closed-form raw moment of the unit inverse Gaussian (mean 1, shape 1):

        E[X^n] = sum_{k=0}^{n-1} (n-1+k)! / (k! (n-1-k)!) * (1/2)^k
    """
    if n == 0:
        return Fraction(1)
    return sum(
        Fraction(math.factorial(n - 1 + k), math.factorial(k) * math.factorial(n - 1 - k))
        * Fraction(1, 2) ** k
        for k in range(n)
    )


def bell_numbers(count):
    """Bell triangle oracle: moments of the unit Poisson law."""
    rows = [[1]]
    for _ in range(count - 1):
        prev = rows[-1]
        row = [prev[-1]]
        for v in prev:
            row.append(row[-1] + v)
        rows.append(row)
    return [r[0] for r in rows]


class TestVarianceSpec:
    def test_rejects_nonpositive_a0(self):
        with pytest.raises(SingularVarianceError):
            VarianceSpec(m0=Fraction(1), a=(Fraction(0), 1, 0, 0))
        with pytest.raises(SingularVarianceError):
            VarianceSpec(m0=Fraction(1), a=(Fraction(-1), 1, 0, 0))


class TestCatalogVariance:
    def test_inverse_gaussian_at_unit_anchor(self):
        assert lookup("ig").variance_at(1).a == (1, 3, 3, 1)

    def test_poisson_at_unit_anchor(self):
        assert lookup("poisson").variance_at(1).a == (1, 1, 0, 0)

    def test_takacs_at_unit_anchor(self):
        assert lookup("takacs").variance_at(1).a == (6, 13, 9, 2)

    @given(u=rationals)
    def test_shift_agrees_with_direct_evaluation(self, u):
        for family in CATALOG.values():
            m0 = Fraction(3, 2)
            spec = family.variance_at(m0)
            assert eval_rational(spec.variance_poly(), u) == eval_rational(
                family.variance, m0 + u
            )


class TestCumulants:
    def test_ig_against_symbolic_derivatives(self):
        # oracle: derivatives of the anchored cumulant function 1 - sqrt(1-2t)
        t = sympy.Symbol("t")
        k = 1 - sympy.sqrt(1 - 2 * t)
        expected = [
            Fraction(int(sympy.Integer(sympy.diff(k, t, n).subs(t, 0))))
            for n in range(1, 9)
        ]
        got = cumulants(lookup("ig").variance_at(1), 8)
        assert list(got.kappa[1:]) == expected
        assert got.kappa[1:5] == (1, 1, 3, 15)

    def test_constant_variance_kills_higher_cumulants(self):
        spec = VarianceSpec(m0=0, a=(1, 0, 0, 0))
        assert cumulants(spec, 5).kappa == (0, 0, 1, 0, 0, 0)

    def test_abel_low_order_hand_values(self):
        # kappa_3 = V * V' and kappa_4 = V (V'^2 + V V'') at the anchor:
        # V = 4 + 8u + 5u^2 + u^3 gives 4*8 = 32 and 4*(64 + 40) = 416
        got = cumulants(lookup("abel").variance_at(1), 4)
        assert got.kappa == (0, 1, 4, 32, 416)

    def test_kappa2_is_anchor_variance(self):
        for family in CATALOG.values():
            m0 = 0 if family.mean_domain == (None, None) else 1
            spec = family.variance_at(m0)
            k = cumulants(spec, 2)
            assert k.kappa[1] == spec.m0
            assert k.kappa[2] == spec.a0

    @given(spec=variance_specs)
    def test_inversion_route_agrees_with_chain(self, spec):
        assert cumulants_via_inversion(spec, 7).kappa == cumulants(spec, 7).kappa

    def test_inversion_route_on_catalog(self):
        for family in CATALOG.values():
            m0 = 0 if family.mean_domain == (None, None) else 1
            spec = family.variance_at(m0)
            assert cumulants_via_inversion(spec, 10).kappa == cumulants(spec, 10).kappa

    @given(spec=variance_specs)
    def test_degree_growth_bound(self, spec):
        v_deg = spec.variance_poly().degree
        growth = max(v_deg - 1, 0)
        for n, poly in enumerate(cumulant_polynomials(spec, 6)):
            if n >= 1 and not poly.is_zero:
                assert poly.degree <= n * growth + 1


class TestMoments:
    def test_order_zero_is_total_mass(self):
        spec = lookup("ig").variance_at(1)
        assert moment_table(spec, 0).mom == (1,)

    def test_ig_against_closed_form_sum(self):
        got = moment_table(lookup("ig").variance_at(1), 8)
        assert got.mom == tuple(ig_moment_oracle(n) for n in range(9))
        assert got.mom[:7] == (1, 1, 2, 7, 37, 266, 2431)

    def test_poisson_against_bell_numbers(self):
        got = moment_table(lookup("poisson").variance_at(1), 10)
        assert list(got.mom) == bell_numbers(11)
        assert got.mom[:4] == (1, 1, 2, 5)

    def test_gamma_shape_one_gives_factorials(self):
        got = moment_table(lookup("gamma").variance_at(1), 8)
        assert got.mom == tuple(math.factorial(n) for n in range(9))

    def test_normal_against_double_factorials(self):
        got = moment_table(lookup("normal").variance_at(0), 8)
        want = tuple(
            0 if n % 2 else math.factorial(n) // (2 ** (n // 2) * math.factorial(n // 2))
            for n in range(9)
        )
        want = (Fraction(1),) + want[1:]
        assert got.mom == want

    def test_insufficient_cumulants_rejected(self):
        k = cumulants(lookup("ig").variance_at(1), 3)
        with pytest.raises(ValueError):
            raw_moments(k, 5)

    @given(spec=variance_specs)
    def test_moment_invariants(self, spec):
        mom = moment_table(spec, 3).mom
        assert mom[0] == 1
        assert mom[1] == spec.m0
        assert mom[2] - mom[1] ** 2 == spec.a0


class TestSeriesExpansions:
    def test_ig_psi_series_frozen(self):
        # expansion of the anchored parameter map 1/2 - 1/(2 m^2) at m = 1 + u
        assert psi_series(lookup("ig").variance_at(1), 5) == [
            0,
            1,
            Fraction(-3, 2),
            2,
            Fraction(-5, 2),
            3,
        ]

    def test_ig_kpsi_series_frozen(self):
        # expansion of 1 - 1/m at m = 1 + u
        assert kpsi_series(lookup("ig").variance_at(1), 5) == [0, 1, -1, 1, -1, 1]

    def test_constant_variance_gives_identity_map(self):
        spec = VarianceSpec(m0=0, a=(1, 0, 0, 0))
        assert psi_series(spec, 6) == [0, 1, 0, 0, 0, 0, 0]

    @given(spec=variance_specs)
    def test_leading_coefficients(self, spec):
        psi = psi_series(spec, 3)
        kpsi = kpsi_series(spec, 3)
        assert psi[0] == 0 and kpsi[0] == 0
        assert psi[1] == 1 / spec.a0
        assert kpsi[1] == spec.m0 / spec.a0
