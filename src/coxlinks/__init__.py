"""Chart combinatorics, fixed-point superpolynomials, and link-polynomial
cross-checks for torus and Coxeter-type braid closures.

The package is a library plus a ``coxlinks`` command-line front end.  The
modules layer roughly bottom-up:

* :mod:`coxlinks.polyalg` — exact Laurent polynomials and rational
  functions with binomial denominators (the only scalar types used);
* :mod:`coxlinks.charts` — nested-set chart labels, pivots, base
  matrices, weight vectors, generalized Young tableaux;
* :mod:`coxlinks.weights` — the one unit rule for tangent and
  obstruction exponents per chart, and the degeneracy scan;
* :mod:`coxlinks.localization` — fixed-point sums: the calibrated
  superpolynomial;
* :mod:`coxlinks.twostrand` — closed-form two-strand homology, the
  independent oracle the calibrated sum is checked against;
* :mod:`coxlinks.homfly` — Hecke-algebra Markov traces and a planar
  skein resolver for HOMFLY polynomials of braid closures;
* :mod:`coxlinks.mfcheck` — exact randomized checks of the determinant
  identities behind the chart construction;
* :mod:`coxlinks.acceptance` — the scripted acceptance suite;
* :mod:`coxlinks.cli` — the command-line interface.
"""

from .charts import (
    Chart,
    NestedSetPair,
    all_charts,
    commuting_charts,
    count_standard_tableaux,
    gyt_injectivity_report,
    is_commutative,
    monomial_vector,
    standard_tableau_images,
    to_gyt,
)
from .errors import (
    BraidSyntaxError,
    CapacityError,
    ConsistencyError,
    CoxlinksError,
    ExpansionError,
    ExperimentalFeatureWarning,
    NotDivisibleError,
    PositivityRegimeWarning,
    SingularMatrixError,
)
from .homfly import BraidWord, coxeter_braid, homfly, markov_trace, parse_braid
from .localization import CalibratedSuperpolynomial, calibrated_superpolynomial
from .polyalg import BinomialRational, LaurentPoly, parse_poly
from .twostrand import GradedDim, homology_T2_even, homology_T2_odd
from .weights import detect_degenerate, weight_data, weight_vectors

__version__ = "0.1.0"

__all__ = [
    "BinomialRational",
    "BraidSyntaxError",
    "BraidWord",
    "CalibratedSuperpolynomial",
    "CapacityError",
    "Chart",
    "ConsistencyError",
    "CoxlinksError",
    "ExpansionError",
    "ExperimentalFeatureWarning",
    "GradedDim",
    "LaurentPoly",
    "NestedSetPair",
    "NotDivisibleError",
    "PositivityRegimeWarning",
    "SingularMatrixError",
    "all_charts",
    "calibrated_superpolynomial",
    "commuting_charts",
    "count_standard_tableaux",
    "coxeter_braid",
    "detect_degenerate",
    "gyt_injectivity_report",
    "homfly",
    "homology_T2_even",
    "homology_T2_odd",
    "is_commutative",
    "markov_trace",
    "monomial_vector",
    "parse_braid",
    "parse_poly",
    "standard_tableau_images",
    "to_gyt",
    "weight_data",
    "weight_vectors",
    "__version__",
]
