"""Exact polynomial sequences for natural exponential families.

Builds the mean-derivative polynomial sequence attached to a family member
with mean m0, by a four-term recurrence and independently by the Faa di
Bruno (complete Bell) recursion, and verifies the characterization chain
that ties a cubic variance function to 2-orthogonality, to the four-term
recurrence, and to an exponential generating function: exactly over
rationals, and in floating point against closed-form densities where the
catalog supplies them.
"""

__version__ = "0.1.0"

from .families import CATALOG, Family, RebasedForms, lookup
from .genfun import (
    bilinear_identity,
    partial_sum_density,
    quadrature_crosscheck,
    sheffer_check,
)
from .nef_model import (
    CumulantTable,
    MeanDomainError,
    MomentTable,
    NefError,
    SingularVarianceError,
    UnsupportedFamilyError,
    VarianceSpec,
    cumulant_polynomials,
    cumulants,
    kpsi_series,
    moment_table,
    psi_series,
    raw_moments,
)
from .ortho import (
    GramMatrix,
    InsufficientMomentsError,
    NonNefSequenceError,
    OrthoReport,
    check_full_orthogonality,
    check_two_orthogonality,
    fit_recurrence,
    gram,
    inner_product,
    recover_variance_from_gram,
)
from .polyseq import (
    PolySequence,
    compare_sequences,
    faa_di_bruno_sequence,
    recurrence_sequence,
    scale_sequence,
)
from .ratpoly import Poly, X, rat

__all__ = [
    "CATALOG",
    "CumulantTable",
    "Family",
    "GramMatrix",
    "InsufficientMomentsError",
    "MeanDomainError",
    "MomentTable",
    "NefError",
    "NonNefSequenceError",
    "OrthoReport",
    "Poly",
    "PolySequence",
    "RebasedForms",
    "SingularVarianceError",
    "UnsupportedFamilyError",
    "VarianceSpec",
    "X",
    "bilinear_identity",
    "check_full_orthogonality",
    "check_two_orthogonality",
    "compare_sequences",
    "cumulant_polynomials",
    "cumulants",
    "faa_di_bruno_sequence",
    "fit_recurrence",
    "gram",
    "inner_product",
    "kpsi_series",
    "lookup",
    "moment_table",
    "partial_sum_density",
    "psi_series",
    "quadrature_crosscheck",
    "rat",
    "raw_moments",
    "recover_variance_from_gram",
    "recurrence_sequence",
    "scale_sequence",
    "sheffer_check",
]
