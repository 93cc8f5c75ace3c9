"""Printed reference table for the six cubic families at m0 = 1.

The classical table of these families lists, per family: the variance
function expanded about m0, the first two polynomials, and the recurrence
row generating the rest.  This module stores that table as printed,
including its known misprints, and checks the catalog against it.

Known transcription defects handled here:

* the printed P_2 for the inverse Gaussian and strict arcsine rows are
  swapped, and the printed Abel P_2 duplicates the Takacs numerator; the
  recurrence rows are authoritative, and the misprinted P_2 values are
  certified wrong by the exact inner product <P_1, P_2> != 0 (zero is
  forced by the 2-orthogonality pattern at (n, q) = (2, 1));
* the Ressel variance text duplicates the Takacs one; the Ressel
  recurrence row fixes (a0, a1, a2, a3) = (2, 5, 4, 1) at m0 = 1 instead;
* two variance texts print a stray product sign where the constant term
  should be added, and the large-arcsine constant term disagrees with its
  own slope text away from m0 = 1 (both rows are nevertheless consistent
  at m0 = 1, which is what the verification anchors on).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .families import Family
from .nef_model import moment_table
from .ortho import inner_product
from .polyseq import recurrence_sequence
from .ratpoly import Poly, X

_NOTE_CROSS = (
    "variance text prints a product sign before the constant term; read as a sum"
)
_NOTE_LARGE_ARCSINE = (
    "variance text constant term is inconsistent with its own slope text away "
    "from m0 = 1; catalog integrates the slope and pins V(1) = 9 from the "
    "recurrence row"
)
_NOTE_RESSEL = "variance text duplicates the Takacs row; recurrence row used instead"


@dataclass(frozen=True)
class PrintedRow:
    """One family's row as printed, at anchor m0 = 1."""

    family: str
    p1: Poly
    p2: Poly
    recurrence: tuple[Fraction, Fraction, Fraction, Fraction]  # (a0, a1, a2, a3)
    variance_text: tuple[Fraction, Fraction, Fraction, Fraction]
    notes: tuple[str, ...] = ()


def _q(*nums: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(n) for n in nums)


PRINTED_ROWS: dict[str, PrintedRow] = {
    row.family: row
    for row in (
        PrintedRow(
            family="ig",
            p1=X - 1,
            p2=X**2 - 6 * X + 3,
            recurrence=_q(1, 3, 3, 1),
            variance_text=_q(1, 3, 3, 1),
        ),
        PrintedRow(
            family="strict-arcsine",
            p1=(X - 1).scale(Fraction(1, 2)),
            p2=(X**2 - 5 * X + 3).scale(Fraction(1, 4)),
            recurrence=_q(2, 4, 3, 1),
            variance_text=_q(2, 4, 3, 1),
        ),
        PrintedRow(
            family="takacs",
            p1=(X - 1).scale(Fraction(1, 6)),
            p2=(X**2 - 15 * X + 8).scale(Fraction(1, 36)),
            recurrence=_q(6, 13, 9, 2),
            variance_text=_q(6, 13, 9, 2),
            notes=(_NOTE_CROSS,),
        ),
        PrintedRow(
            family="large-arcsine",
            p1=(X - 1).scale(Fraction(1, 9)),
            p2=(X**2 - 13 * X + 3).scale(Fraction(1, 81)),
            recurrence=_q(9, 11, 8, 2),
            variance_text=_q(9, 11, 8, 2),
            notes=(_NOTE_LARGE_ARCSINE,),
        ),
        PrintedRow(
            family="ressel",
            p1=(X - 1).scale(Fraction(1, 2)),
            p2=(X**2 - 7 * X + 4).scale(Fraction(1, 4)),
            recurrence=_q(2, 5, 4, 1),
            variance_text=_q(6, 13, 9, 2),
            notes=(_NOTE_RESSEL, _NOTE_CROSS),
        ),
        PrintedRow(
            family="abel",
            p1=(X - 1).scale(Fraction(1, 4)),
            p2=(X**2 - 15 * X + 8).scale(Fraction(1, 16)),
            recurrence=_q(4, 8, 5, 1),
            variance_text=_q(4, 8, 5, 1),
            notes=(_NOTE_CROSS,),
        ),
    )
}


@dataclass(frozen=True)
class TableComparison:
    """Catalog-vs-printed comparison of one cubic family at m0 = 1."""

    family: str
    p1_matches: bool
    recurrence_matches: bool
    variance_text_matches: bool
    p2_matches: bool
    p2_printed: Poly
    p2_generated: Poly
    p2_defect_inner_product: Fraction | None  # <P_1, printed P_2>, when they differ
    notes: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        """True when the catalog matches the authoritative parts of the row.

        P_1 and the recurrence row must match outright.  A misprinted P_2 or
        variance text is an expected finding, but only if the orthogonality
        arbiter confirms the misprint (the printed P_2 must fail
        <P_1, P_2> = 0 whenever it differs from the generated one).
        """
        if not (self.p1_matches and self.recurrence_matches):
            return False
        if not self.p2_matches and self.p2_defect_inner_product == 0:
            return False
        return True


def compare_with_printed(family: Family) -> TableComparison:
    """Check one cubic catalog family against its printed row (at m0 = 1)."""
    row = PRINTED_ROWS.get(family.name)
    if row is None:
        raise KeyError(f"no printed row for family '{family.name}'")
    spec = family.variance_at(1)
    seq = recurrence_sequence(spec, 2)
    defect = None
    p2_matches = seq.polys[2] == row.p2
    if not p2_matches:
        moments = moment_table(spec, 3)
        defect = inner_product(seq.polys[1], row.p2, moments)
    return TableComparison(
        family=family.name,
        p1_matches=seq.polys[1] == row.p1,
        recurrence_matches=spec.a == row.recurrence,
        variance_text_matches=spec.a == row.variance_text,
        p2_matches=p2_matches,
        p2_printed=row.p2,
        p2_generated=seq.polys[2],
        p2_defect_inner_product=defect,
        notes=row.notes,
    )

