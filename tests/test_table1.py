from fractions import Fraction

from nefpoly import X

from oracles import all_comparisons

MISPRINTED = {"ig", "strict-arcsine", "abel"}
CLEAN = {"takacs", "large-arcsine", "ressel"}


def by_family():
    return {c.family: c for c in all_comparisons()}


def test_covers_all_six_cubic_rows_in_order():
    assert [c.family for c in all_comparisons()] == [
        "ig",
        "strict-arcsine",
        "takacs",
        "large-arcsine",
        "ressel",
        "abel",
    ]


def test_p1_and_recurrence_rows_match_everywhere():
    for c in all_comparisons():
        assert c.p1_matches, c.family
        assert c.recurrence_matches, c.family


def test_clean_rows_match_printed_p2():
    cmp = by_family()
    for name in CLEAN:
        assert cmp[name].p2_matches, name
        assert cmp[name].p2_defect_inner_product is None


def test_misprinted_rows_fail_the_orthogonality_arbiter():
    cmp = by_family()
    defects = {
        "ig": Fraction(-1),
        "strict-arcsine": Fraction(1, 4),
        "abel": Fraction(-5, 16),
    }
    for name in MISPRINTED:
        c = cmp[name]
        assert not c.p2_matches, name
        assert c.p2_defect_inner_product == defects[name], name


def test_misprint_pattern_is_the_documented_swap():
    cmp = by_family()
    # printed IG P_2 carries the strict-arcsine numerator and vice versa
    assert cmp["ig"].p2_printed == X**2 - 6 * X + 3
    assert cmp["ig"].p2_generated == X**2 - 5 * X + 3
    assert cmp["strict-arcsine"].p2_printed == (X**2 - 5 * X + 3).scale(Fraction(1, 4))
    assert cmp["strict-arcsine"].p2_generated == (X**2 - 6 * X + 3).scale(Fraction(1, 4))
    # printed Abel P_2 duplicates the Takacs numerator
    assert cmp["abel"].p2_printed == (X**2 - 15 * X + 8).scale(Fraction(1, 16))
    assert cmp["abel"].p2_generated == (X**2 - 10 * X + 5).scale(Fraction(1, 16))


def test_ressel_variance_text_flagged():
    cmp = by_family()
    assert not cmp["ressel"].variance_text_matches
    for name in ("ig", "strict-arcsine", "takacs", "large-arcsine", "abel"):
        assert cmp[name].variance_text_matches, name


def test_all_rows_are_consistent_overall():
    # misprints confirmed by the arbiter still count as consistent findings
    for c in all_comparisons():
        assert c.consistent, c.family

