"""Sparse multivariate Laurent polynomials and binomial-denominator rationals.

Everything downstream (chart weights, localization sums, the two-strand
homology oracle, the Hecke trace) runs on two exact types:

* :class:`LaurentPoly` — a sparse Laurent polynomial over a fixed, ordered
  variable tuple, with arbitrary-precision integer coefficients.  Exponents
  may be negative.
* :class:`BinomialRational` — a fraction ``numerator / prod (1 - m)^d`` whose
  denominator is a *multiset of binomial factors*, each ``m`` a monomial.
  Denominators are never expanded; cancellation happens only by exact
  division of the numerator by a single binomial factor.

Three kernels keep the localization sums cheap:

* **The LCD lift.**  ``BinomialRational.__add__`` raises each numerator to
  the least common denominator by multiplying it with its missing factors
  ``(1 - x^e)^d``.  :func:`_lift` does this on the term dict directly: per
  power it copies the dict and subtracts every term shifted by ``e``, with
  no general sparse product and no intermediate polynomial objects.  The
  same kernel, with ``sign=+1`` for the level factors ``(1 + a*m)``,
  expands each chart term's numerator in ``localization._calibrated_term``.
  ``BinomialRational.__eq__`` and ``denominator_poly`` stay on the general
  product on purpose: every oracle comparison goes through ``__eq__``, so
  it must not run on the kernel it checks.
* **Chain running sums.**  Multiplying by ``(1 - m)`` only relates the
  exponents on one chain ``e + Z*m``.  :func:`_chains` groups the terms
  into chains and :func:`_chain_sums` takes running sums along each one,
  giving ``f = q * (1 - m) + r``.  :func:`divide_by_binomial` returns ``q``
  when every chain total is 0, and ``truncate_series`` expands
  ``q + r / (1 - m)``.
* **The trusted constructor.**  The public ``LaurentPoly(...)`` checks
  every exponent's length and entries and every coefficient.  Results that
  internal arithmetic builds (sums, products, negation, truncation,
  division, the lift) are already well formed, so they go through
  ``LaurentPoly._trusted``, which only drops zero coefficients.

Exponent vectors are added with ``tuple(map(add, e, m))`` throughout.

Canonical string grammar (used by ``str()`` and :func:`parse_poly`)::

    poly    :=  term (('+' | '-') term)*
    term    :=  integer
             |  [integer '*'] varpow ('*' varpow)*
    varpow  :=  name ['^' integer]

Terms are printed in descending graded-lexicographic order of exponent
vectors (total degree first, then lexicographic), e.g. ``-a*Q^2*T + 1``.
A coefficient of ``±1`` on a non-constant term is printed as a bare sign.

Denominator factors are kept canonical: a factor ``(1 - m)`` with ``m``
graded-lex *smaller* than 1 is flipped to ``(1 - 1/m)`` using the identity
``1/(1 - m) = -m^-1 / (1 - m^-1)``; after construction ``1/(1 - Q^-1)`` is
stored as ``-Q / (1 - Q)``, so equivalent orientations compare equal.
Construction also stores the factors in ascending graded-lex order, the
order in which ``normalize``, ``truncate_series``, ``str()`` and
``to_record`` read them.
"""

from __future__ import annotations

import re
from operator import add, mul, sub
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from .errors import ExpansionError, NotDivisibleError, _integral, _is_int, _signed_size

Exponent = Tuple[int, ...]

#: The variables ``(a, q, t)`` of homological superpolynomials.  The
#: localization sums and the two-strand oracle both build their values over
#: this tuple, so their results compare equal only if it is shared.
AQT = ("a", "q", "t")

#: The exponent of ``q^2`` over :data:`AQT`: every superpolynomial carries
#: the polynomial tensor factor ``1 / (1 - q^2)``.
Q2 = (0, 2, 0)
#: The total ``(a, q, t)``-degree grading of every displayed series.
TOTAL_DEGREE = {"a": 1, "q": 1, "t": 1}

#: A series grows quadratically in its degree bound from n = 4 on: with unit
#: weights at bound 400, k = (1, ..., 1) took 0.5 s (160k terms) at n = 4,
#: 1.6 s (300k terms) at n = 5 and 3.5 s (480k terms, 250 MB) at n = 6, and
#: bound 600 took 3.0 s (670k terms) at n = 5 (2-CPU host, Python 3.11).
MAX_SERIES_DEGREE = 400

# The three patterns of :func:`parse_poly`: a run of signs, one factor (an
# integer, or a variable with an optional signed exponent) and a ``*``.
_SIGNS = re.compile(r"\s*((?:[+-]\s*)*)")
_FACTOR = re.compile(
    r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*((?:[+-]\s*)*)(\d+))?"
)
_STAR = re.compile(r"\s*\*\s*")


def _glex_key(exponent: Exponent) -> tuple:
    """Graded-lex sort key: total degree first, ties broken lexicographically."""
    return (sum(exponent), exponent)


def _weight_vector(variables: Sequence[str], weights: Mapping[str, int]) -> tuple:
    """The weight of each variable, in order; a missing one is named."""
    missing = [name for name in variables if name not in weights]
    if missing:
        raise ValueError(f"no weight for variables {missing}")
    return tuple(weights[name] for name in variables)


def _check_compatible(left, right) -> None:  # noqa: ANN001
    """Reject arithmetic between two values over different variable tuples."""
    if left.variables != right.variables:
        raise ValueError(f"variable mismatch: {left.variables} vs {right.variables}")


def _check_entries(exponent: tuple, what: str) -> None:
    """Reject an exponent entry that is not an ``int`` (or is a ``bool``)."""
    for entry in exponent:
        if not _is_int(entry):
            raise ValueError(f"{what} {exponent} has entry {entry!r}, not an int")


def _check_series_bound(bound: int) -> None:
    """Reject a series degree ``bound`` that is not an ``int``, then one
    beyond ``MAX_SERIES_DEGREE`` at either sign.

    :meth:`BinomialRational.truncate_series` applies it, and the CLI applies
    it before it computes the value to expand.
    """
    _signed_size("bound", bound, MAX_SERIES_DEGREE, "a series expansion")


class LaurentPoly:
    """A sparse Laurent polynomial with integer coefficients.

    Instances are immutable by convention: no public method mutates ``terms``
    and all arithmetic returns fresh objects, so values are safe to share
    across threads and to use as cache keys.

    Example:
        >>> Q, T = (LaurentPoly.variable(("Q", "T"), name) for name in "QT")
        >>> str((1 - Q * T) * (1 + Q * T))
        '-Q^2*T^2 + 1'
        >>> str(Q ** -2)
        'Q^-2'
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, int]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables!r}")
        cleaned: Dict[Exponent, int] = {}
        for exponent, coefficient in terms.items():
            exponent = tuple(exponent)
            if len(exponent) != len(variables):
                raise ValueError(
                    f"exponent {exponent} does not match variables {variables}"
                )
            _check_entries(exponent, "exponent")
            integral = _integral(coefficient)
            if integral is None:
                raise ValueError(
                    f"coefficient {coefficient!r} of exponent {exponent} "
                    "is not an integer"
                )
            cleaned[exponent] = cleaned.get(exponent, 0) + integral
        object.__setattr__(self, "variables", variables)
        object.__setattr__(
            self, "terms", {e: c for e, c in cleaned.items() if c}
        )

    @classmethod
    def _trusted(
        cls, variables: Tuple[str, ...], terms: Dict[Exponent, int]
    ) -> "LaurentPoly":
        """Wrap a term dict that internal arithmetic built.

        The caller guarantees that ``variables`` is a duplicate-free tuple
        and that every exponent is a tuple of matching length with an
        ``int`` coefficient; only zero coefficients are dropped here.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", {e: c for e, c in terms.items() if c})
        return poly

    def __setattr__(self, name, value):  # noqa: ANN001
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "LaurentPoly":
        return cls(variables, {})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "LaurentPoly":
        return cls.constant(variables, 1)

    @classmethod
    def constant(cls, variables: Sequence[str], value: int) -> "LaurentPoly":
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def monomial(
        cls, variables: Sequence[str], exponent: Exponent, coefficient: int = 1
    ) -> "LaurentPoly":
        return cls(variables, {tuple(exponent): coefficient})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "LaurentPoly":
        variables = tuple(variables)
        exponent = [0] * len(variables)
        exponent[variables.index(name)] = 1
        return cls(variables, {tuple(exponent): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> Iterator[tuple[Exponent, int]]:
        """Iterate (exponent, coefficient) in descending graded-lex order."""
        return iter(
            sorted(self.terms.items(), key=lambda t: _glex_key(t[0]), reverse=True)
        )

    def exponents_of(self, name: str) -> set[int]:
        """The set of exponents the named variable takes across all terms."""
        index = self.variables.index(name)
        return {exponent[index] for exponent in self.terms}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):  # noqa: ANN001
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_compatible(self, other)
        terms = dict(self.terms)
        for exponent, coefficient in other.terms.items():
            terms[exponent] = terms.get(exponent, 0) + coefficient
        return LaurentPoly._trusted(self.variables, terms)

    def __radd__(self, other):  # noqa: ANN001
        return self.__add__(other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):  # noqa: ANN001
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):  # noqa: ANN001
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):  # noqa: ANN001
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_compatible(self, other)
        terms: Dict[Exponent, int] = {}
        get = terms.get
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                exponent = tuple(map(add, e1, e2))
                terms[exponent] = get(exponent, 0) + c1 * c2
        return LaurentPoly._trusted(self.variables, terms)

    def __rmul__(self, other):  # noqa: ANN001
        return self.__mul__(other)

    def __pow__(self, power: int) -> "LaurentPoly":
        if power < 0:
            return self.monomial_inverse() ** (-power)
        result = LaurentPoly.one(self.variables)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def monomial_inverse(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial with coefficient ±1."""
        if len(self.terms) != 1:
            raise ValueError(f"{self} is not a monomial")
        ((exponent, coefficient),) = self.terms.items()
        if coefficient not in (1, -1):
            raise ValueError(f"{self} is not invertible over the integers")
        return LaurentPoly._trusted(
            self.variables, {tuple(-e for e in exponent): coefficient}
        )

    def _coerce(self, other):  # noqa: ANN001
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.variables, other)
        return NotImplemented

    # -- substitution and truncation --------------------------------------

    def substitute(self, assignment: Mapping[str, "LaurentPoly"]) -> "LaurentPoly":
        """Ring substitution: replace every variable by its assigned image.

        Args:
            assignment: maps each variable name of ``self`` to a LaurentPoly;
                all images must share one variable tuple (the target).  A
                variable occurring with a negative exponent must map to an
                invertible monomial (single term, coefficient ±1).

        Returns:
            The expanded image polynomial over the target variables.
        """
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise ValueError(f"no assignment for variables {missing}")
        images = [assignment[name] for name in self.variables]
        target = images[0].variables
        for image in images:
            if image.variables != target:
                raise ValueError("assignment images use mixed variable tuples")
        result = LaurentPoly.zero(target)
        for exponent, coefficient in self.terms.items():
            term = LaurentPoly.constant(target, coefficient)
            for image, power in zip(images, exponent):
                if power:
                    term = term * image**power
            result = result + term
        return result

    def truncate(self, weights: Mapping[str, int], bound: int) -> "LaurentPoly":
        """Drop every term whose weighted total degree exceeds ``bound``.

        Raises:
            ValueError: if ``weights`` has no entry for a variable.
        """
        weight_vector = _weight_vector(self.variables, weights)
        kept = {
            exponent: coefficient
            for exponent, coefficient in self.terms.items()
            if sum(map(mul, weight_vector, exponent)) <= bound
        }
        return LaurentPoly._trusted(self.variables, kept)

    # -- comparisons and display -------------------------------------------

    def __eq__(self, other):  # noqa: ANN001
        if isinstance(other, int):
            return self.terms == LaurentPoly.constant(self.variables, other).terms
        return (
            isinstance(other, LaurentPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        # A constant equals its int (see ``__eq__``), so it hashes as that int.
        if self.terms.keys() <= {(0,) * len(self.variables)}:
            return hash(sum(self.terms.values()))
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def _term_str(self, exponent: Exponent, coefficient: int) -> str:
        factors = []
        for name, power in zip(self.variables, exponent):
            if power == 0:
                continue
            factors.append(name if power == 1 else f"{name}^{power}")
        magnitude = abs(coefficient)
        if not factors:
            return str(magnitude)
        body = "*".join(factors)
        return body if magnitude == 1 else f"{magnitude}*{body}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for index, (exponent, coefficient) in enumerate(self.items()):
            body = self._term_str(exponent, coefficient)
            if index == 0:
                pieces.append(body if coefficient > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coefficient > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def parse_poly(text: str, variables: Sequence[str]) -> LaurentPoly:
    """Parse the canonical string grammar back into a :class:`LaurentPoly`.

    Accepts exactly the strings ``str()`` produces (and harmless variants:
    arbitrary whitespace, ``+`` signs on coefficients and exponents, any
    variable order inside a term).  Each term is a run of signs (at least
    one, except before the first term) and factors joined by ``*``; a factor
    is an integer or a variable with an optional ``^`` exponent.  Empty or
    whitespace-only text parses as zero.

    Example:
        >>> str(parse_poly("-a*Q^2*T + 1", ("a", "Q", "T")))
        '-a*Q^2*T + 1'
    """
    variables = tuple(variables)
    index_of = {name: i for i, name in enumerate(variables)}
    terms: Dict[Exponent, int] = {}
    position = 0
    while True:
        signs = _SIGNS.match(text, position)
        position = signs.end()
        if not signs.group(1) and position == len(text):
            return LaurentPoly(variables, terms)
        if not signs.group(1) and terms:  # only the first term may go unsigned
            raise ValueError(f"unexpected text at position {position}: {text[position:]!r}")
        coefficient = (-1) ** signs.group(1).count("-")
        exponent = [0] * len(variables)
        star = True
        while star:
            factor = _FACTOR.match(text, position)
            if factor is None:
                raise ValueError(f"expected a factor at position {position}: {text[position:]!r}")
            number, name, power_signs, power = factor.groups()
            if number is not None:
                coefficient *= int(number)
            elif name not in index_of:
                raise ValueError(f"unknown variable {name!r}")
            elif power is None:
                exponent[index_of[name]] += 1
            else:
                exponent[index_of[name]] += (-1) ** power_signs.count("-") * int(power)
            star = _STAR.match(text, factor.end())
            position = star.end() if star else factor.end()
        key = tuple(exponent)
        terms[key] = terms.get(key, 0) + coefficient


def _binomial(variables: Sequence[str], monomial_exponent: Exponent) -> LaurentPoly:
    """The polynomial ``1 - x^exponent``."""
    variables = tuple(variables)
    zero_exp = (0,) * len(variables)
    return LaurentPoly(variables, {zero_exp: 1, tuple(monomial_exponent): -1})


def _lift(
    terms: Dict[Exponent, int],
    monomial_exponent: Exponent,
    power: int,
    sign: int = -1,
) -> Dict[Exponent, int]:
    """The term dict of ``terms * (1 + sign * x^monomial_exponent)^power``.

    ``sign`` is ``-1`` for the binomial factors ``(1 - x^e)`` and ``+1`` for
    the level factors ``(1 + a*m)`` of a chart term.  Each of the ``power``
    rounds copies the dict and adds every term shifted by
    ``monomial_exponent``, times ``sign``.  The result may hold zero
    coefficients; :meth:`LaurentPoly._trusted` drops them.
    """
    for _ in range(power):
        lifted = dict(terms)
        get = lifted.get
        for exponent, coefficient in terms.items():
            shifted = tuple(map(add, exponent, monomial_exponent))
            lifted[shifted] = get(shifted, 0) + sign * coefficient
        terms = lifted
    return terms


class BinomialRational:
    """An exact fraction ``numerator / prod (1 - m_i)^{d_i}``.

    The denominator is stored as a multiset ``{monomial exponent: multiplicity}``
    and never expanded.  On construction every factor is brought to canonical
    orientation (monomial graded-lex greater than 1), which makes structural
    comparison meaningful, and the factors are stored in ascending graded-lex
    order of their monomials.  A factor ``(1 - 1)``, an exponent of the wrong
    length or with an entry that is not an ``int``, and a multiplicity that
    is not a nonnegative ``int`` are rejected with a ``ValueError``.

    ``add``/``mul`` do *not* cancel; call :meth:`normalize` once at the end of
    an accumulation to divide out every denominator factor that exactly
    divides the numerator.
    """

    __slots__ = ("variables", "num", "den")

    def __init__(
        self,
        num: LaurentPoly,
        den: Mapping[Exponent, int] | None = None,
    ):
        variables = num.variables
        zero_exp = (0,) * len(variables)
        canonical_num = num
        canonical_den: Dict[Exponent, int] = {}
        for exponent, multiplicity in (den or {}).items():
            exponent = tuple(exponent)
            if len(exponent) != len(variables):
                raise ValueError(
                    f"denominator factor {exponent} has {len(exponent)} "
                    f"entries for variables {variables}"
                )
            _check_entries(exponent, "denominator factor")
            if not _is_int(multiplicity):
                raise ValueError(
                    f"denominator factor {exponent} has multiplicity "
                    f"{multiplicity!r}, not an int"
                )
            if multiplicity < 0:
                raise ValueError("negative denominator multiplicity")
            if multiplicity == 0:
                continue
            if exponent == zero_exp:
                raise ValueError("denominator factor (1 - 1) is a zero divisor")
            if _glex_key(exponent) < _glex_key(zero_exp):
                # 1/(1-m)^d == (-1)^d m^-d / (1-m^-1)^d
                flipped = tuple(-e for e in exponent)
                shift = LaurentPoly.monomial(
                    variables,
                    tuple(-multiplicity * e for e in exponent),
                    (-1) ** multiplicity,
                )
                canonical_num = canonical_num * shift
                exponent = flipped
            canonical_den[exponent] = canonical_den.get(exponent, 0) + multiplicity
        if canonical_num.is_zero():
            canonical_den = {}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "num", canonical_num)
        order = sorted(canonical_den, key=_glex_key)
        object.__setattr__(self, "den", {exponent: canonical_den[exponent] for exponent in order})

    def __setattr__(self, name, value):  # noqa: ANN001
        raise AttributeError("BinomialRational is immutable")

    @classmethod
    def from_poly(cls, poly: LaurentPoly) -> "BinomialRational":
        return cls(poly, {})

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "BinomialRational":
        return cls(LaurentPoly.zero(variables), {})

    # -- structure ---------------------------------------------------------

    def denominator_poly(self) -> LaurentPoly:
        """The denominator expanded to a single polynomial (for comparisons)."""
        product = LaurentPoly.one(self.variables)
        for exponent, multiplicity in self.den.items():
            product = product * _binomial(self.variables, exponent) ** multiplicity
        return product

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):  # noqa: ANN001
        if isinstance(other, BinomialRational):
            return other
        if isinstance(other, LaurentPoly):
            return BinomialRational.from_poly(other)
        if isinstance(other, int):
            return BinomialRational.from_poly(
                LaurentPoly.constant(self.variables, other)
            )
        return NotImplemented

    def __add__(self, other):  # noqa: ANN001
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_compatible(self, other)
        lcd: Dict[Exponent, int] = dict(self.den)
        for exponent, multiplicity in other.den.items():
            lcd[exponent] = max(lcd.get(exponent, 0), multiplicity)
        left = self.num.terms
        right = other.num.terms
        for exponent, multiplicity in lcd.items():
            left = _lift(left, exponent, multiplicity - self.den.get(exponent, 0))
            right = _lift(right, exponent, multiplicity - other.den.get(exponent, 0))
        total = dict(left)
        for exponent, coefficient in right.items():
            total[exponent] = total.get(exponent, 0) + coefficient
        return BinomialRational(LaurentPoly._trusted(self.variables, total), lcd)

    def __radd__(self, other):  # noqa: ANN001
        return self.__add__(other)

    def __neg__(self) -> "BinomialRational":
        return BinomialRational(-self.num, self.den)

    def __sub__(self, other):  # noqa: ANN001
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(other.__neg__())

    def __mul__(self, other):  # noqa: ANN001
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_compatible(self, other)
        den = dict(self.den)
        for exponent, multiplicity in other.den.items():
            den[exponent] = den.get(exponent, 0) + multiplicity
        return BinomialRational(self.num * other.num, den)

    def __rmul__(self, other):  # noqa: ANN001
        return self.__mul__(other)

    # -- normalization -----------------------------------------------------

    def normalize(self) -> "BinomialRational":
        """Divide out every denominator factor that exactly divides the numerator.

        Idempotent; returns a new value.  Uses only exact single-binomial
        division, never multivariate gcd.  One pass over the factors is
        enough: if ``(1 - m)`` does not divide ``f``, it cannot divide an
        exact quotient ``f / g`` either, because ``f = (f / g) * g``.  So a
        factor that fails once is never tried again.
        """
        num = self.num
        den = dict(self.den)
        if num.is_zero():
            return BinomialRational.zero(self.variables)
        for exponent in den:
            while den[exponent]:
                try:
                    num = divide_by_binomial(num, exponent)
                except NotDivisibleError:
                    break
                den[exponent] -= 1
        return BinomialRational(num, den)

    # -- series ------------------------------------------------------------

    def truncate_series(
        self, weights: Mapping[str, int], bound: int
    ) -> LaurentPoly:
        """Exact series expansion truncated to weighted degree ``<= bound``.

        Each factor round uses ``f / (1 - m) = q + r / (1 - m)`` with ``q``
        and ``r`` from :func:`_chain_sums`: with every term of ``f`` within
        the bound, so is ``q``, and ``r / (1 - m)`` is one geometric tail
        per chain, from its top step up to the bound.  That costs
        ``O(N log N + output)`` per factor for ``N`` terms.

        Every denominator monomial must have strictly positive weighted
        degree, otherwise the geometric expansion is not locally finite and
        an :class:`ExpansionError` is raised.

        Raises:
            ValueError: if ``bound`` is not an ``int``, or ``weights`` has no
                entry for a variable.
            CapacityError: if ``|bound| > MAX_SERIES_DEGREE``.
        """
        _check_series_bound(bound)
        weight_vector = _weight_vector(self.variables, weights)
        if self.num.is_zero():
            return self.num
        terms = self.num.truncate(weights, bound).terms
        for exponent, multiplicity in self.den.items():
            step = sum(map(mul, weight_vector, exponent))
            if step <= 0:
                raise ExpansionError(
                    f"denominator monomial with exponent {exponent} has "
                    f"non-positive grading value {step}"
                )
            for _ in range(multiplicity):
                terms, remainder = _chain_sums(*_chains(terms, exponent), exponent)
                for current, total in remainder.items():
                    degree = sum(map(mul, weight_vector, current))
                    while degree <= bound:
                        terms[current] = total
                        current = tuple(map(add, current, exponent))
                        degree += step
        return LaurentPoly._trusted(self.variables, terms)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):  # noqa: ANN001
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.variables != other.variables:
            return False
        return self.num * other.denominator_poly() == other.num * self.denominator_poly()

    def __hash__(self):
        raise TypeError("BinomialRational is not hashable (equality is semantic)")

    def __str__(self) -> str:
        numerator = f"({self.num})"
        if not self.den:
            return str(self.num)
        factors = []
        for exponent, multiplicity in self.den.items():
            mono = str(LaurentPoly.monomial(self.variables, exponent))
            factor = f"(1 - {mono})"
            if multiplicity != 1:
                factor += f"^{multiplicity}"
            factors.append(factor)
        denominator = " * ".join(factors)
        if len(factors) > 1:
            denominator = f"({denominator})"
        return f"{numerator} / {denominator}"

    def __repr__(self) -> str:
        return f"BinomialRational({self})"

    def to_record(self) -> dict:
        """JSON-ready structural form (numerator string + factor list)."""
        return {
            "numerator": str(self.num),
            "denominator_factors": [
                [str(LaurentPoly.monomial(self.variables, exponent)), multiplicity]
                for exponent, multiplicity in self.den.items()
            ],
            "variables": list(self.variables),
        }


def _chains(terms: Mapping[Exponent, int], monomial_exponent: Exponent) -> tuple:
    """``(offsets, chains)``: ``terms`` grouped into the chains ``base + s*m``.

    The step ``s`` of an exponent is its coordinate at the first nonzero
    entry of ``m``, floor-divided by that entry.  ``offsets`` maps each step
    to ``s*m``, shared by every chain with a term there; ``chains`` maps
    each base to its ``{step: coefficient}``.
    """
    pivot = next(i for i, e in enumerate(monomial_exponent) if e)
    pivot_step = monomial_exponent[pivot]
    offsets: Dict[int, Exponent] = {}
    chains: Dict[Exponent, Dict[int, int]] = {}
    for exponent, coefficient in terms.items():
        step = exponent[pivot] // pivot_step
        offset = offsets.get(step)
        if offset is None:
            offset = offsets[step] = tuple(step * m for m in monomial_exponent)
        base = tuple(map(sub, exponent, offset))
        chains.setdefault(base, {})[step] = coefficient
    return offsets, chains


def _chain_sums(offsets: dict, chains: dict, monomial_exponent: Exponent) -> tuple:
    """The term dicts ``(q, r)`` with ``f == q * (1 - m) + r``, no zeros.

    On each chain of :func:`_chains`, ``q`` at step ``s`` is the sum of
    ``f`` over steps ``<= s``, from the lowest step to the highest minus
    one, and ``r`` holds the chain's nonzero total at its highest step.
    """
    quotient: Dict[Exponent, int] = {}
    remainder: Dict[Exponent, int] = {}
    for base, chain in chains.items():
        steps = sorted(chain)
        running = 0
        for step, next_step in zip(steps, steps[1:]):
            running += chain[step]
            if not running:
                continue
            exponent = tuple(map(add, base, offsets[step]))
            quotient[exponent] = running
            for _ in range(step + 1, next_step):
                exponent = tuple(map(add, exponent, monomial_exponent))
                quotient[exponent] = running
        running += chain[steps[-1]]
        if running:
            remainder[tuple(map(add, base, offsets[steps[-1]]))] = running
    return quotient, remainder


def divide_by_binomial(poly: LaurentPoly, monomial_exponent: Exponent) -> LaurentPoly:
    """Exact division of ``poly`` by ``(1 - m)``, ``m = x^monomial_exponent``.

    The factor must have one entry per variable and be in canonical
    orientation (monomial graded-lex greater than 1).  The quotient is the
    ``q`` of :func:`_chain_sums`, and every chain total is checked to be 0
    before it is built.  No term order is involved, so this terminates for
    every grading and every ``m != 0``, in ``O(N log N + |quotient|)`` for
    ``N`` terms.

    Raises:
        ValueError: if the factor has the wrong length or orientation.
        NotDivisibleError: if the factor does not exactly divide ``poly``.
    """
    variables = poly.variables
    monomial_exponent = tuple(monomial_exponent)
    if len(monomial_exponent) != len(variables):
        raise ValueError(
            f"binomial factor exponent {monomial_exponent} has "
            f"{len(monomial_exponent)} entries for {len(variables)} variables"
        )
    zero_exp = (0,) * len(variables)
    if _glex_key(monomial_exponent) <= _glex_key(zero_exp):
        raise ValueError("binomial factor must be in canonical orientation")
    if poly.is_zero():
        return poly
    offsets, chains = _chains(poly.terms, monomial_exponent)
    for base, chain in chains.items():
        total = sum(chain.values())
        if total:
            # Name the chain, not the whole polynomial: normalize() expects
            # and discards many of these errors, so the message stays cheap.
            raise NotDivisibleError(
                f"(1 - {LaurentPoly.monomial(variables, monomial_exponent)}) "
                f"does not divide a {len(poly.terms)}-term polynomial: its "
                f"terms on the chain through "
                f"{LaurentPoly.monomial(variables, base)} sum to {total}, not 0"
            )
    quotient, _ = _chain_sums(offsets, chains, monomial_exponent)
    return LaurentPoly._trusted(variables, quotient)
