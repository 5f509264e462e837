"""Closed-form homology of two-strand torus links, as graded dimensions.

The closures of the one-generator braids ``s1^m`` are the torus knots
``T(2, 2n+1)`` (``m = 2n + 1`` odd) and the two-component torus links
``T(2, 2n)`` (``m = 2n`` even).  For these the triply graded homology has
a closed form assembled from the cohomology of line bundles on the
projective line, and this module evaluates that closed form exactly.  The
results are the independent reference values that the localization formula
is calibrated against, so nothing here may depend on charts, weights, or
localization.

All outputs are exact :class:`~coxlinks.polyalg.BinomialRational` values in
the variables ``(a, q, t)``, built once as a Laurent numerator over an
explicit ``(1 - q^2)^d``: ``d = 1`` for the knots, whose polynomial tensor
factor is ``C[x]``, and ``d = 2`` for the links, where ``C[x_+]`` joins the
``C[x_-]`` tail of the kernel space.  All arithmetic happens in the Laurent
ring; no rational sum or ``normalize`` is needed, because the values are
already in lowest terms (see :func:`homology_T2_even`).  Degree
bookkeeping for the ambient coordinates, for reference::

    x, x_+, x_-, x_12   ->   q^2
    y_12                ->   t^2 / q^2

Conventions fixed here (any further sign or shift normalisation is owned by
the calibration step in :mod:`coxlinks.localization`, never by this module):

* the global shift ``(a/t)^n`` is applied as a literal monomial in ``a, t``;
* ``homology_T2_even(0)`` — the two-component unlink, which the closed form
  does not address explicitly — is computed from the ``n >= 0`` branch with
  ``V_{-1} = 0``, giving ``t / (1 - q^2)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, _is_int, _size
from .polyalg import AQT, BinomialRational, LaurentPoly

#: The closed forms build about ``2|n|`` terms: ``|n| = 10^4`` takes 0.06-0.11 s
#: and ``10^5`` about 1 s (2-CPU host, Python 3.11), so a mistyped index stops
#: here instead of filling memory.  The forms call :func:`dim_H0_P1` and
#: :func:`dim_H1_P1` at ``n - 1`` too, so those cap ``|m|`` one higher.
MAX_TWO_STRAND_INDEX = 10_000

#: Exponent vector of ``q^2`` over :data:`AQT`; the unique denominator
#: monomial allowed in a :class:`GradedDim`.
_Q2 = (0, 2, 0)

_ONE_MINUS_Q2 = LaurentPoly(AQT, {(0, 0, 0): 1, _Q2: -1})


def dim_H0_P1(m: int) -> LaurentPoly:
    """Graded dimension of ``H^0(P^1, O(m))``.

    The bigraded dimension is ``sum_{i=0}^{m} q^{2i} (t/q)^{2m-2i}``, an
    empty sum (zero) for ``m < 0``.  Evaluating at ``q = t = 1`` recovers
    the ordinary dimension ``m + 1``.

    Raises:
        ValueError: if ``m`` is not an ``int``.
        CapacityError: if ``|m| > MAX_TWO_STRAND_INDEX + 1``.

    Examples:
        >>> print(dim_H0_P1(0))
        1
        >>> print(dim_H0_P1(1))
        q^2 + q^-2*t^2
        >>> dim_H0_P1(-1).is_zero()
        True
    """
    if not _is_int(m):
        raise ValueError(f"m must be an int, got {m!r}")
    _size("|m|", abs(m), MAX_TWO_STRAND_INDEX + 1, "a line-bundle dimension", least=0)
    return _h0(m)


def _h0(m: int) -> LaurentPoly:
    """The sum of :func:`dim_H0_P1`, with no check of ``m``."""
    return LaurentPoly(AQT, {(0, 4 * i - 2 * m, 2 * m - 2 * i): 1 for i in range(m + 1)})


def dim_H1_P1(m: int) -> LaurentPoly:
    """Graded dimension of ``H^1(P^1, O(m))``.

    The bigraded dimension is ``sum_{i=0}^{-m-2} q^{2i} (t/q)^{-2m-2i-4}``,
    zero for ``m >= -1`` (degrees at least ``-1`` have no higher cohomology
    on the projective line).

    Raises:
        ValueError: if ``m`` is not an ``int``.
        CapacityError: if ``|m| > MAX_TWO_STRAND_INDEX + 1``.

    Examples:
        >>> dim_H1_P1(0).is_zero()
        True
        >>> print(dim_H1_P1(-2))
        1
    """
    if not _is_int(m):
        raise ValueError(f"m must be an int, got {m!r}")
    _size("|m|", abs(m), MAX_TWO_STRAND_INDEX + 1, "a line-bundle dimension", least=0)
    # Serre duality on the projective line: the H^0 sum at -m - 2, term for term.
    return _h0(-m - 2)


@dataclass(frozen=True, slots=True)
class GradedDim:
    """A triply graded dimension with explicit polynomial tensor factors.

    Wraps an exact rational in ``(a, q, t)`` whose denominator multiset is
    restricted to powers of ``(1 - q^2)`` — at most two of them — exactly
    the shape produced by tensoring a finite-dimensional graded space with
    ``C[x]`` and possibly ``C[x_+]``.  The numerator spans at most two
    adjacent ``a``-degrees: the raw homology carries an ``a``-grading of
    width one and the global ``(a/t)^n`` shift moves it rigidly.

    Examples:
        >>> print(homology_T2_odd(0))
        (1) / (1 - q^2)
    """

    value: BinomialRational

    def __post_init__(self) -> None:
        value = self.value
        if value.variables != AQT:
            raise ConsistencyError(
                f"graded dimension must live in {AQT}, got {value.variables}"
            )
        for exponent in value.den:
            if exponent != _Q2:
                raise ConsistencyError(
                    f"denominator factor other than (1 - q^2): {exponent}"
                )
        if sum(value.den.values()) > 2:
            raise ConsistencyError("more than two (1 - q^2) tensor factors")
        a_exponents = value.num.exponents_of("a")
        if a_exponents and max(a_exponents) - min(a_exponents) > 1:
            raise ConsistencyError(
                f"numerator a-degrees span more than one step: {sorted(a_exponents)}"
            )

    def t_parities(self) -> frozenset:
        """Parities of the ``t``-exponents appearing in the numerator.

        The denominator factors are ``t``-free, so these are the parities
        of the full series expansion as well.  Two-strand torus *knots*
        always give a singleton; torus links with negative framing mix
        both parities.

        Examples:
            >>> sorted(homology_T2_odd(1).t_parities())
            [1]
            >>> sorted(homology_T2_even(-1).t_parities())
            [0, 1]
        """
        return frozenset(e % 2 for e in self.value.num.exponents_of("t"))

    def __str__(self) -> str:
        return str(self.value)

    def to_record(self) -> dict:
        """Structured form of the underlying rational (see polyalg)."""
        return self.value.to_record()


def _a_times_t(a_power: int, t_power: int) -> LaurentPoly:
    return LaurentPoly.monomial(AQT, (a_power, 0, t_power))


def homology_T2_odd(n: int) -> GradedDim:
    """Homology of ``T(2, 2n+1)``, the closure of ``s1^(2n+1)``, for an ``int`` ``n``.

    The underlying space is ``C[x]`` tensored with::

        H^0(O(n)) + t H^1(O(n)) + a H^0(O(n-1)) + a t H^1(O(n-1))

    shifted by the monomial ``(a/t)^n``.  ``H^1`` vanishes for degrees at
    least ``-1``, so for ``n >= 0`` only the two ``H^0`` summands survive
    and every ``t``-exponent has the parity of ``n``.

    Raises:
        ValueError: if ``n`` is not an ``int``.
        CapacityError: if ``|n| > MAX_TWO_STRAND_INDEX``.

    Examples:
        >>> print(homology_T2_odd(1))  # trefoil
        (a*q^2*t^-1 + a^2*t^-1 + a*q^-2*t) / (1 - q^2)
        >>> print(homology_T2_odd(-1))  # unknot, negatively framed
        (t^2) / (1 - q^2)
    """
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    _size("|n|", abs(n), MAX_TWO_STRAND_INDEX, "the two-strand closed form", least=0)
    shift = LaurentPoly.monomial(AQT, (n, 0, -n))
    bracket = (
        dim_H0_P1(n)
        + _a_times_t(0, 1) * dim_H1_P1(n)
        + _a_times_t(1, 0) * dim_H0_P1(n - 1)
        + _a_times_t(1, 1) * dim_H1_P1(n - 1)
    )
    return GradedDim(BinomialRational(shift * bracket, {_Q2: 1}))


def _dim_V(m: int) -> LaurentPoly:
    """``(1 - q^2)`` times the graded dimension of the kernel space ``V_m``.

    ``V_m = <y^m, x y^{m-1}, ..., x^m> + x_- C[x_-] x^m`` for ``m >= 0``;
    the finite span has the same graded dimension as ``H^0(O(m))`` and the
    tail is :func:`_dim_V_prime`.  Defined as zero for ``m < 0`` (the only
    use is ``V_{-1}`` in ``homology_T2_even(0)``).
    """
    if m < 0:
        return LaurentPoly.zero(AQT)
    return _ONE_MINUS_Q2 * dim_H0_P1(m) + _dim_V_prime(m)


def _dim_V_prime(m: int) -> LaurentPoly:
    """``(1 - q^2)`` times the graded dimension ``q^{2m+2} / (1 - q^2)`` of
    ``x_- C[x_-] x^m``."""
    return LaurentPoly.monomial(AQT, (0, 2 * m + 2, 0))


def homology_T2_even(n: int) -> GradedDim:
    """Homology of ``T(2, 2n)``, the closure of ``s1^(2n)``, for an ``int`` ``n``.

    For ``n >= 0`` the space is ``(a/t)^n (t V_n + a t V_{n-1})`` tensored
    with ``C[x_+]``; for ``n < 0`` it is ``(a/t)^n (t V'_n + t^2 V''_n +
    a t V'_{n-1} + a t^2 V''_{n-1})`` tensored with ``C[x_+]``, where
    ``V'_m = x_- C[x_-] x^m`` and ``V''_m`` has the graded dimension of
    ``H^1(O(m))``.  The mixed ``t`` and ``t^2`` prefactors in the negative
    branch are what breaks ``t``-parity for negatively framed links.

    For ``n >= 0`` every ``t``-exponent has the parity of ``n + 1`` (the
    ``t`` prefactor cancels one power of the global ``t^{-n}``); negative
    ``n`` mixes both parities.

    Both closed forms are in lowest terms.  ``(1 - q^2)`` divides a
    numerator exactly when the terms on every chain of fixed ``a``, ``t``
    and ``q`` parity sum to zero, that is, when the numerator reduces to
    zero modulo ``(1 - q^2)``.  In the odd case every numerator coefficient is ``+1``, so
    no chain sums to zero.  In the even case the numerator reduces modulo
    ``(1 - q^2)`` to the shift times ``t q^{2n+2} + a t q^{2n}``, or
    ``t q^2`` when ``n = 0``: one term on each of one or two chains, so
    again some chain sum is nonzero.

    Raises:
        ValueError: if ``n`` is not an ``int``.
        CapacityError: if ``|n| > MAX_TWO_STRAND_INDEX``.

    Examples:
        >>> sorted(homology_T2_even(1).t_parities())  # Hopf-type link
        [0]
        >>> sorted(homology_T2_even(-2).t_parities())
        [0, 1]
    """
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    _size("|n|", abs(n), MAX_TWO_STRAND_INDEX, "the two-strand closed form", least=0)
    shift = LaurentPoly.monomial(AQT, (n, 0, -n))
    if n >= 0:
        inner = (
            _a_times_t(0, 1) * _dim_V(n)
            + _a_times_t(1, 1) * _dim_V(n - 1)
        )
    else:
        inner = (
            _a_times_t(0, 1) * _dim_V_prime(n)
            + _a_times_t(0, 2) * _ONE_MINUS_Q2 * dim_H1_P1(n)
            + _a_times_t(1, 1) * _dim_V_prime(n - 1)
            + _a_times_t(1, 2) * _ONE_MINUS_Q2 * dim_H1_P1(n - 1)
        )
    return GradedDim(BinomialRational(shift * inner, {_Q2: 2}))
