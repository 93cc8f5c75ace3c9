from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from nefpoly import Poly, VarianceSpec

settings.register_profile(
    "nefpoly",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("nefpoly")

# Shared strategies: small exact rationals keep Fraction arithmetic fast
# while still exercising carries, negatives, and non-dyadic denominators.
rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=12
)

polys = st.lists(rationals, min_size=0, max_size=6).map(Poly)

nonzero_rationals = rationals.filter(lambda r: r != 0)

positive_rationals = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(8), max_denominator=12
)

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
