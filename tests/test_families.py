import math
from fractions import Fraction

import pytest

from nefpoly import MeanDomainError, UnsupportedFamilyError, lookup
from nefpoly.families import (
    CATALOG,
    binomial,
    guarded,
    inverse_gaussian,
    negative_binomial,
)

from oracles import cubic_families, quadratic_families

CLOSED_FORM_FAMILIES = ("ig", "normal", "poisson", "gamma")


def cumulant_slope(forms, theta, h=1e-6):
    """k'(theta) of the anchored cumulant function, by a central difference."""
    return (forms.cumulant(theta + h) - forms.cumulant(theta - h)) / (2 * h)


class TestCatalog:
    def test_six_cubic_six_quadratic(self):
        assert len(cubic_families()) == 6
        assert len(quadratic_families()) == 6
        assert len(CATALOG) == 12

    def test_catalog_order_cubic_first(self):
        assert [f.name for f in CATALOG.values()][:6] == [
            "ig",
            "strict-arcsine",
            "takacs",
            "large-arcsine",
            "ressel",
            "abel",
        ]

    def test_lookup_aliases(self):
        assert lookup("inverse_gaussian").name == "ig"
        assert lookup("IG").name == "ig"
        assert lookup("negative_binomial").name == "negative-binomial"

    def test_lookup_unknown(self):
        with pytest.raises(UnsupportedFamilyError):
            lookup("cauchy")

    def test_variance_formulas(self):
        assert lookup("ig").variance_formula == "m^3"
        assert lookup("takacs").variance_formula == "2m^3 + 3m^2 + m"
        assert lookup("hyperbolic-cosine").variance_formula == "m^2 + 1"

    def test_parametrized_builders(self):
        assert inverse_gaussian(2).variance_at(1).a == (
            Fraction(1, 4),
            Fraction(3, 4),
            Fraction(3, 4),
            Fraction(1, 4),
        )
        assert binomial(4).variance_at(1).a == (Fraction(3, 4), Fraction(1, 2), Fraction(-1, 4), 0)
        assert negative_binomial(Fraction(3, 2)).variance_at(1).a[0] == Fraction(5, 3)

    def test_mean_domain_errors_name_the_family(self):
        with pytest.raises(MeanDomainError, match="ig"):
            lookup("ig").variance_at(0)
        with pytest.raises(MeanDomainError, match="binomial"):
            binomial(4).variance_at(5)

    @pytest.mark.parametrize("name", CLOSED_FORM_FAMILIES)
    def test_closed_form_variance_vanishes_only_at_the_boundary(self, name):
        # psi' = 1/V is analytic off the zeros of V, so when they all sit at
        # the mean domain's finite end, the distance from m0 to that end is
        # the radius of psi's series about m0 (the report's probe scale).
        family = lookup(name)
        ends = [e for e in family.mean_domain if e is not None]
        assert len(ends) <= 1
        shifted = family.variance.taylor_at(ends[0]) if ends else family.variance
        assert all(shifted.coeff(k) == 0 for k in range(shifted.degree))

    def test_unit_anchor_rows_match_recurrence_parameters(self):
        rows = {
            "ig": (1, 3, 3, 1),
            "strict-arcsine": (2, 4, 3, 1),
            "takacs": (6, 13, 9, 2),
            "large-arcsine": (9, 11, 8, 2),
            "ressel": (2, 5, 4, 1),
            "abel": (4, 8, 5, 1),
        }
        for name, a in rows.items():
            assert lookup(name).variance_at(1).a == a, name


class TestRebase:
    def test_contracts_at_anchor(self):
        for name in CLOSED_FORM_FAMILIES:
            family = lookup(name)
            m0 = Fraction(0) if family.mean_domain == (None, None) else Fraction(1)
            forms = family.rebase(m0)
            assert abs(forms.psi(forms.m0)) < 1e-10
            assert abs(forms.cumulant(0.0)) < 1e-10
            assert abs(cumulant_slope(forms, 0.0) - forms.m0) < 1e-6

    def test_mean_map_inverts_parameter_map(self):
        for name in CLOSED_FORM_FAMILIES:
            family = lookup(name)
            m0 = 0 if family.mean_domain == (None, None) else 1
            forms = family.rebase(m0)
            for dm in (-0.5, -0.3, -0.1, 0.0, 0.1, 0.4, 1.0, 3.0):
                m = forms.m0 + dm
                lo, hi = forms.mean_domain
                if not (lo < m < hi):
                    continue
                assert abs(cumulant_slope(forms, forms.psi(m)) - m) < 1e-6

    def test_ig_rebased_frozen_values(self):
        forms = lookup("ig").rebase(1)
        assert forms.psi(2.0) == pytest.approx(0.375, abs=1e-15)
        assert forms.cumulant(0.375) == pytest.approx(0.5, abs=1e-12)
        assert forms.density(1.0, 2.0) == pytest.approx(math.exp(-0.125), rel=1e-12)

    def test_density_is_one_at_the_anchor(self):
        forms = lookup("ig").rebase(1)
        for x in (0.01, 0.5, 1.0, 7.3):
            assert forms.density(x, 1.0) == 1.0

    def test_density_monotone_in_mean_beyond_anchor(self):
        # psi' = 1/V > 0, so tilting toward larger means raises f(x, m) at x > m0
        forms = lookup("ig").rebase(1)
        assert forms.density(2.0, 1.05) > forms.density(2.0, 1.0)

    def test_rebase_requires_closed_forms(self):
        with pytest.raises(UnsupportedFamilyError):
            lookup("takacs").rebase(1)

    def test_rebase_respects_mean_domain(self):
        with pytest.raises(MeanDomainError):
            lookup("ig").rebase(-2)
        forms = lookup("ig").rebase(1)
        with pytest.raises(MeanDomainError):
            forms.density(1.0, -0.5)

    def test_base_density_integrates_like_the_anchored_member(self):
        # unit inverse Gaussian density, spot value at x = 1:
        # (2 pi)^{-1/2} exp(0) / 1 = 0.39894...
        forms = lookup("ig").rebase(1)
        assert forms.base_density(1.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)
        assert forms.base_density(-1.0) == 0.0

    def test_poisson_has_no_base_density(self):
        forms = lookup("poisson").rebase(1)
        assert not forms.has_base_density
        with pytest.raises(UnsupportedFamilyError):
            forms.base_density(1.0)


class TestGuarded:
    def test_finite_value_passes_through(self):
        assert guarded(lambda: ((1.0, 2.0), 3.0), None) == (((1.0, 2.0), 3.0), None)

    @pytest.mark.parametrize("value", (math.inf, (1.0, -math.inf), ((0.0, math.nan), 1.0)))
    def test_non_finite_float_is_a_failure(self, value):
        result, reason = guarded(lambda: value, "failed")
        assert result == "failed" and reason == "FloatingPointError: non-finite result"

    def test_division_by_zero_is_a_failure(self):
        assert guarded(lambda: 1.0 / 0.0, None) == (
            None, "ZeroDivisionError: float division by zero"
        )
