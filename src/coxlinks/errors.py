"""Exception hierarchy shared by all coxlinks modules.

Every library-specific failure derives from :class:`CoxlinksError`, so callers
(and the CLI) can distinguish "the input or the computation is bad" from
programming errors.  Plain ``ValueError`` is still used for ordinary argument
validation; the classes here mark conditions with a domain meaning.
"""

from __future__ import annotations


class CoxlinksError(Exception):
    """Base class for all coxlinks-specific errors."""


class CapacityError(CoxlinksError):
    """A size parameter exceeds the documented desk-scale limit.

    Chart enumeration grows factorially and the Hecke algebra has dimension
    n!; the limits exist so a typo does not turn into an hour of CPU time.
    """


class ConsistencyError(CoxlinksError):
    """An internal identity that should hold by construction failed.

    Raised, for example, if the monomial-vector recursion would reference a
    word that has not been produced yet.  Seeing this error means a bug, not
    a bad input.
    """


class DegenerateChartError(CoxlinksError):
    """A chart has a torus-fixed tangent direction in the calibrated weights.

    The calibrated localization term divides by (1 - u^i v^j) for every free
    coordinate; when some coordinate has (i, j) = (0, 0) that factor is
    (1 - 1), so the chart has no well-defined contribution and must be
    handled (or excluded) explicitly by the caller.
    """

    def __init__(self, message: str, charts: tuple = ()):  # noqa: ANN001
        super().__init__(message)
        self.charts = charts


class ExpansionError(CoxlinksError):
    """A series truncation was requested with a non-positive grading.

    Geometric expansion of 1/(1 - m) is only locally finite when the grading
    value of the monomial m is strictly positive.
    """


class NotDivisibleError(CoxlinksError):
    """Exact division of a Laurent polynomial by a binomial factor failed."""


class BraidSyntaxError(CoxlinksError):
    """A braid word failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SingularMatrixError(CoxlinksError):
    """A matrix that must be invertible is singular."""


class PositivityRegimeWarning(UserWarning):
    """The requested exponent vector leaves the monotone-positivity regime.

    Localization results are conjecturally link invariants only for
    k_1 >= k_2 >= ... >= k_{n-1} >= 0; outside that cone the sum is still
    computed exactly but carries no invariance claim.
    """


class ExperimentalFeatureWarning(UserWarning):
    """The requested computation path has no validated reference values."""
