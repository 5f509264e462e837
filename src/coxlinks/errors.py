"""Exceptions and argument rules shared by all coxlinks modules.

Every library-specific failure derives from :class:`CoxlinksError`, so callers
(and the CLI) can distinguish "the input or the computation is bad" from
programming errors.  Plain ``ValueError`` is still used for ordinary argument
validation; the classes here mark conditions with a domain meaning.

Every module, the oracles included, imports this one, so the argument rules
that several layers share are written here once: :func:`_is_int`,
:func:`_integral`, :func:`_size`, :func:`_signed_size`, :func:`_link_s` and
:func:`_coxeter_arguments`.  :func:`_size` checks every count argument and
every size cap, and the magnitude of a signed index through
:func:`_signed_size`, so this is the one module that raises
:class:`CapacityError`.  Each caller keeps its own policy on top of them.
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

    Raised, for example, if a sample of
    :func:`~coxlinks.mfcheck.negative_control`, built so that every ``F_i``
    vanishes, gives a nonzero ``F_i``, or if a two-strand closed form builds
    a :class:`~coxlinks.twostrand.GradedDim` of the wrong shape.  Seeing this
    error means a bug, not a bad input.
    """


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


def _size(
    name: str, value: int, cap: int | None = None, what: str = "", least: int = 1
) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) in ``least..cap``.

    A ``ValueError`` names ``name`` if ``value`` is not such an ``int`` or is
    below ``least``; a :class:`CapacityError` names ``what`` and the cap if
    it is above ``cap``.  So a non-integer never reaches the cap comparison.
    """
    if not _is_int(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if cap is not None and value > cap:
        raise CapacityError(f"{what} is limited to {name} <= {cap}; got {name} = {value}")
    return value


def _signed_size(name: str, value: int, cap: int, what: str) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) with ``|value| <= cap``; a
    ``ValueError`` names ``name``, and :func:`_size` checks ``|name|``."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")
    _size(f"|{name}|", abs(value), cap, what, least=0)
    return value


def _sequence(values: Iterable, name: str) -> tuple:
    """``values`` read once into a tuple; a ``ValueError`` names ``name`` if
    it is not iterable (a bare int, ``None``)."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integers, got {values!r}") from None


def _coxeter_integral(value) -> int | None:  # noqa: ANN001
    """:func:`_integral` for a Coxeter argument, where a ``bool`` is ``None``."""
    return None if isinstance(value, bool) else _integral(value)


def _integers(values: Iterable, name: str) -> Tuple[int, ...]:
    """``values`` as ints by :func:`_coxeter_integral`, naming the first that is not."""
    result = []
    for value in _sequence(values, name):
        integral = _coxeter_integral(value)
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
    link = _sequence(link_s, "link_s")
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

    ``n`` and the entries must be integral (``2.0`` passes, ``1.5`` and
    ``True`` do not), ``k`` must have ``n - 1`` entries and ``link_s``
    distinct ones in ``1..n-1``.  Returns ``n`` and ``k`` as ints and
    ``link_s`` sorted.
    """
    integral_n = _coxeter_integral(n)
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
