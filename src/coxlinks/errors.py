"""Exceptions and argument rules shared by all coxlinks modules.

Every library-specific failure derives from :class:`CoxlinksError`, so callers
(and the CLI) can distinguish "the input or the computation is bad" from
programming errors.  Plain ``ValueError`` is still used for ordinary argument
validation; the classes here mark conditions with a domain meaning.

Every module, the oracles included, imports this one, so the argument rules
that several layers share are written here once: :func:`_is_int`,
:func:`_integral`, :func:`_link_s` and :func:`_coxeter_arguments`.  Each
caller keeps its own policy on top of them.
"""

from __future__ import annotations

from typing import Iterable, Tuple


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


# -- argument rules ------------------------------------------------------------


def _is_int(value: object) -> bool:
    """Whether ``value`` is an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integral(value) -> int | None:  # noqa: ANN001
    """``value`` as an ``int`` if integral (``3.0``, ``Fraction(4, 2)``), else ``None``."""
    try:
        integral = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return integral if integral == value else None


def _integers(values: Iterable, name: str) -> Tuple[int, ...]:
    """``values`` as ints by :func:`_integral`; the first non-integral one is named."""
    result = []
    for value in values:
        integral = _integral(value)
        if integral is None:
            raise ValueError(f"{name} entry {value!r} is not an integer")
        result.append(integral)
    return tuple(result)


def _link_s(n: int, link_s: Iterable[int]) -> Tuple[int, ...]:
    """The skipped generators ``link_s`` of size ``n``, sorted, repeats merged.

    ``link_s`` is read once, so a one-shot iterable gives what its tuple
    gives.  A ``ValueError`` names ``link_s`` if it is not iterable, or the
    first entry that is not an ``int`` in ``1..n-1`` (a ``bool`` is not).
    """
    try:
        link = tuple(link_s)
    except TypeError:
        raise ValueError(f"link_s must be a sequence of integers, got {link_s!r}") from None
    for i in link:
        if not _is_int(i):
            raise ValueError(f"link_s entry {i!r} is not an int")
        if not 1 <= i <= n - 1:
            raise ValueError(f"link_s entry {i} outside 1..{n - 1}")
    return tuple(sorted(set(link)))


def _coxeter_arguments(
    n: int, k: Iterable[int], link_s: Iterable[int]
) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """Validate the ``(n, k, link_s)`` of a Coxeter braid or localization sum;
    both read it here, so a sum and its HOMFLY oracle see the same link.

    ``n`` and the entries must be integral (``2.0`` passes, ``1.5`` does
    not), ``k`` must have ``n - 1`` entries and ``link_s`` distinct ones in
    ``1..n-1``.  Returns ``n`` and ``k`` as ints and ``link_s`` sorted.
    """
    integral_n = _integral(n)
    if integral_n is None or integral_n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = integral_n
    k = _integers(k, "k")
    if len(k) != n - 1:
        raise ValueError(f"k must have length n-1 = {n - 1}, got {len(k)}")
    link_s = tuple(sorted(_integers(link_s, "link_s")))
    if len(set(link_s)) != len(link_s):
        raise ValueError(f"link_s has repeated entries: {link_s}")
    return n, k, _link_s(n, link_s)
