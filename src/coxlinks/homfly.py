"""HOMFLY-PT of braid closures via the Hecke-algebra Markov trace.

This is the classical-invariant oracle: independent of charts, weights and
localization, it computes the HOMFLY-PT polynomial of the closure of a
braid word by mapping the braid group into the Hecke algebra ``H_n`` (with
quadratic relation ``T_i^2 = z T_i + 1``) and applying the Markov trace.

Skein normalization (fixed by the right-handed trefoil value
``a^2 z^2 + 2 a^2 - a^4`` and checked against a diagram-level resolver)::

    a^-1 P(L+) - a P(L-) = z P(L0),      P(unknot) = 1

so the two-component unlink has value ``(a^-1 - a) / z`` and positive
braids land in positive powers of ``a``.

The trace is computed in its scaled form ``tau_n(x) = zeta^-(n-1) tr(x)``
with ``zeta = z / (1 - a^2)``, so that ``delta = 1 / (a zeta)`` and ``P =
a^(writhe - n + 1) tau_n``.  The Markov property reads ``tau_n(x) =
zeta^-1 tau_{n-1}(x)`` for ``x`` in ``H_{n-1}`` and ``tau_n(x T_{n-1} y) =
tau_{n-1}(x y)`` for ``x, y`` in ``H_{n-1}``; ``zeta^-1 = (1 - a^2) / z``
is a Laurent polynomial, so every value lies in the Laurent ring and no
denominator ever appears.  The recursion peels the highest strand: for a
basis element ``T_w`` with largest moved point ``m`` and ``w(j) = m`` one
has ``T_w = T_u T_{m-1} T_{m-2} ... T_j`` with ``u`` in ``S_{m-1}``, and
cyclicity gives ``tau_m(T_w) = tau_{m-1}(T_u T_{m-2} ... T_j)``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import BraidSyntaxError, CapacityError, _coxeter_arguments, _is_int
from .polyalg import LaurentPoly

#: Canonical variable order for HOMFLY-PT polynomials.
AZ = ("a", "z")

_Z = LaurentPoly.variable(AZ, "z")

#: ``zeta^-1 = (1 - a^2) / z``, the scaled trace of a new free strand.
_ZETA_INVERSE = LaurentPoly(AZ, {(0, -1): 1, (2, -1): -1})

#: Hecke dimension is n!; six strands (720) is the documented ceiling.
MAX_HOMFLY_STRANDS = 6

Perm = Tuple[int, ...]


# -- braid words --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BraidWord:
    """A braid on ``strands`` strands as a sequence of signed generators.

    ``strands`` is a positive ``int`` and ``word`` holds ``int`` pairs ``(i,
    sign)`` with ``1 <= i < strands`` and sign ``+1`` or ``-1`` (``s_i`` or its
    inverse).

    Examples:
        >>> b = BraidWord(2, ((1, 1), (1, 1), (1, 1)))
        >>> b.writhe()
        3
        >>> b.to_text()
        'strands=2 s1 s1 s1'
    """

    strands: int
    word: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not _is_int(self.strands):
            raise ValueError(f"strand count {self.strands!r} is not an int")
        if self.strands < 1:
            raise ValueError(f"strand count must be positive, got {self.strands}")
        for index, sign in self.word:
            if not (_is_int(index) and _is_int(sign)):
                raise ValueError(f"generator {(index, sign)!r} is not a pair of ints")
            if not 1 <= index <= self.strands - 1:
                raise ValueError(
                    f"generator index {index} out of range for "
                    f"{self.strands} strands"
                )
            if sign not in (1, -1):
                raise ValueError(f"crossing sign must be +-1, got {sign}")

    def writhe(self) -> int:
        return sum(sign for _, sign in self.word)

    def permutation(self) -> Perm:
        """Underlying permutation of the strand endpoints (one-line)."""
        positions = list(range(1, self.strands + 1))
        for index, _ in self.word:
            positions[index - 1], positions[index] = (
                positions[index],
                positions[index - 1],
            )
        return tuple(positions)

    def components(self) -> int:
        """Number of link components of the closure."""
        perm = self.permutation()
        seen = [False] * self.strands
        count = 0
        for start in range(self.strands):
            if seen[start]:
                continue
            count += 1
            cursor = start
            while not seen[cursor]:
                seen[cursor] = True
                cursor = perm[cursor] - 1
        return count

    def inverse(self) -> "BraidWord":
        return BraidWord(
            self.strands,
            tuple((i, -sign) for i, sign in reversed(self.word)),
        )

    def to_text(self) -> str:
        """Canonical text form, re-parseable by :func:`parse_braid`."""
        tokens = [f"strands={self.strands}"]
        for index, sign in self.word:
            tokens.append(f"s{index}" if sign > 0 else f"s{index}^-1")
        return " ".join(tokens)

    def to_record(self) -> dict:
        return {
            "strands": self.strands,
            "word": [i * s for i, s in self.word],
            "writhe": self.writhe(),
            "components": self.components(),
        }


_HEADER = re.compile(r"strands=(\d+)")
_GENERATOR = re.compile(r"s(\d+)(\^-1)?")
_SIGNED_INT = re.compile(r"[+-]?\d+")


def parse_braid(text: str) -> BraidWord:
    """Parse braid text: a ``strands=<n>`` header, then generators.

    Only whitespace may precede the header.

    Generators come either as tokens ``s<i>`` / ``s<i>^-1`` or as one
    bracketed list of signed integers (``[1, -2, 1]`` meaning
    ``s1 s2^-1 s1``).  Errors carry the character position.

    Examples:
        >>> parse_braid("strands=3 s1 s2^-1").word
        ((1, 1), (2, -1))
        >>> parse_braid("strands=3 [1, -2, 1]").word
        ((1, 1), (2, -1), (1, 1))
        >>> parse_braid("strands=2 s3")
        Traceback (most recent call last):
        ...
        coxlinks.errors.BraidSyntaxError: generator index 3 out of range for 2 strands (at position 10)
    """
    start = len(text) - len(text.lstrip())
    header = _HEADER.match(text, start)
    if header is None:
        raise BraidSyntaxError("missing strands=<n> header", position=start)
    strands = int(header.group(1))
    if strands < 1:
        raise BraidSyntaxError("strand count must be positive", header.start())
    rest_start = header.end()
    rest = text[rest_start:]
    word: List[Tuple[int, int]] = []

    bracket = rest.find("[")
    if bracket != -1:
        closing = rest.find("]", bracket)
        if closing == -1:
            raise BraidSyntaxError("unclosed '['", rest_start + bracket)
        inside = rest[bracket + 1 : closing]
        outside = (rest[:bracket] + rest[closing + 1 :]).strip()
        if outside:
            raise BraidSyntaxError(
                "bracketed form cannot be mixed with other tokens",
                rest_start + bracket,
            )
        for match in _SIGNED_INT.finditer(inside):
            value = int(match.group(0))
            if value == 0:
                raise BraidSyntaxError(
                    "generator 0 is not defined",
                    rest_start + bracket + 1 + match.start(),
                )
            index, sign = abs(value), (1 if value > 0 else -1)
            _check_index(index, strands, rest_start + bracket + 1 + match.start())
            word.append((index, sign))
        leftover = _SIGNED_INT.sub("", inside).replace(",", "").strip()
        if leftover:
            raise BraidSyntaxError(
                f"unexpected text {leftover!r} in bracketed list",
                rest_start + bracket,
            )
        return BraidWord(strands, tuple(word))

    position = rest_start
    for token in rest.split():
        position = text.index(token, position)
        match = _GENERATOR.fullmatch(token)
        if match is None:
            raise BraidSyntaxError(f"unrecognized token {token!r}", position)
        index = int(match.group(1))
        _check_index(index, strands, position)
        word.append((index, -1 if match.group(2) else 1))
        position += len(token)
    return BraidWord(strands, tuple(word))


def _check_index(index: int, strands: int, position: int) -> None:
    if not 1 <= index <= strands - 1:
        raise BraidSyntaxError(
            f"generator index {index} out of range for {strands} strands",
            position,
        )


def coxeter_braid(
    n: int, link_s: Sequence[int] = (), k: Sequence[int] = ()
) -> BraidWord:
    """The braid ``cox_S . delta_1^{k_1} ... delta_{n-1}^{k_{n-1}}``.

    ``cox_S`` is the descending product of the generators ``s_i`` with
    ``i`` not in ``link_s``; ``delta_i`` is the palindromic twist
    ``s_i s_{i+1} ... s_{n-2} s_{n-1}^2 s_{n-2} ... s_{i+1} s_i``.
    Negative ``k_i`` emit the inverse word of ``delta_i``.

    Examples:
        >>> coxeter_braid(2, (), (1,)).to_text()
        'strands=2 s1 s1 s1'
        >>> coxeter_braid(3, (), (0, 0)).to_text()
        'strands=3 s2 s1'
        >>> coxeter_braid(3, (1,), (0, 0)).to_text()
        'strands=3 s2'
    """
    n, k, link_s = _coxeter_arguments(n, k, link_s)
    word: List[Tuple[int, int]] = []
    for i in range(n - 1, 0, -1):
        if i not in link_s:
            word.append((i, 1))
    for i, power in enumerate(k, start=1):
        ascent = list(range(i, n - 1))          # s_i .. s_{n-2}
        twist = ascent + [n - 1, n - 1] + ascent[::-1]
        if power >= 0:
            word.extend((j, 1) for _ in range(power) for j in twist)
        else:
            word.extend((j, -1) for _ in range(-power) for j in twist[::-1])
    return BraidWord(n, tuple(word))


# -- Hecke algebra and Markov trace -------------------------------------------


def _identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def _accumulate(out: Dict[Perm, LaurentPoly], perm: Perm, coeff: LaurentPoly) -> None:
    """Add ``coeff`` to the coefficient of ``T_perm`` in ``out``."""
    if perm in out:
        out[perm] = out[perm] + coeff
    else:
        out[perm] = coeff


class HeckeElement:
    """A sparse Hecke-algebra element: permutation -> coefficient in z.

    Supports only what the trace needs: right action of the generators
    ``T_i`` (and their inverses ``T_i - z``).
    """

    __slots__ = ("n", "coefficients")

    def __init__(self, n: int, coefficients: Dict[Perm, LaurentPoly]):
        self.n = n
        self.coefficients = {
            perm: coeff for perm, coeff in coefficients.items() if not coeff.is_zero()
        }

    @classmethod
    def identity(cls, n: int) -> "HeckeElement":
        return cls(n, {_identity_perm(n): LaurentPoly.one(AZ)})

    def items(self) -> Iterator[Tuple[Perm, LaurentPoly]]:
        return iter(self.coefficients.items())

    def right_generator(self, index: int, sign: int) -> "HeckeElement":
        """Multiply on the right by ``T_index`` (sign +1) or its inverse."""
        out: Dict[Perm, LaurentPoly] = {}
        i = index - 1
        for perm, coeff in self.coefficients.items():
            swapped = list(perm)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            swapped = tuple(swapped)
            _accumulate(out, swapped, coeff)
            if perm[i] < perm[i + 1]:
                # ascent: T_w T_i = T_{w s_i}; the inverse subtracts z T_w
                if sign < 0:
                    _accumulate(out, perm, -(_Z * coeff))
            elif sign > 0:
                # descent: T_w T_i = z T_w + T_{w s_i}; the z terms cancel
                # for the inverse, leaving T_w T_i^-1 = T_{w s_i}
                _accumulate(out, perm, _Z * coeff)
        return HeckeElement(self.n, out)


def braid_to_hecke(braid: BraidWord) -> HeckeElement:
    """Image of the braid under ``s_i -> T_i``, computed letter by letter."""
    element = HeckeElement.identity(braid.strands)
    for index, sign in braid.word:
        element = element.right_generator(index, sign)
    return element


def _trim(perm: Perm) -> Perm:
    """``perm`` without its fixed tail, keeping at least one point."""
    end = len(perm)
    while end > 1 and perm[end - 1] == end:
        end -= 1
    return perm[:end]


@functools.cache
def _trimmed_trace(key: Perm) -> LaurentPoly:
    """``tau_m(T_key)`` on ``m = len(key)`` strands, ``key`` trimmed.

    Braids are capped at six strands, so the cache holds fewer than 1000
    keys; ``_trimmed_trace.cache_info()`` reports its hits.
    """
    m = len(key)  # largest moved point, or 1 for the identity
    if m == 1:
        return LaurentPoly.one(AZ)
    j = key.index(m) + 1  # w(j) = m, 1-based
    u = tuple(v for v in key if v != m)
    element = HeckeElement(m - 1, {u: LaurentPoly.one(AZ)})
    for generator in range(m - 2, j - 1, -1):  # T_u T_{m-2} .. T_j
        element = element.right_generator(generator, 1)
    return markov_trace(element)


def markov_trace(element: HeckeElement) -> LaurentPoly:
    """Scaled Markov trace ``tau_n = zeta^-(n-1) tr`` of an element of ``H_n``.

    ``tau_n(1) = ((1 - a^2) / z)^(n-1)``; the value is always a Laurent
    polynomial in ``(a, z)``.
    """
    total = LaurentPoly.zero(AZ)
    for perm, coeff in element.items():
        key = _trim(perm)
        free_strands = _ZETA_INVERSE ** (element.n - len(key))
        total = total + coeff * free_strands * _trimmed_trace(key)
    return total


def homfly(braid: BraidWord) -> LaurentPoly:
    """HOMFLY-PT polynomial of the braid closure, in ``(a, z)``.

    ``P = delta^{n-1} a^{writhe} tr(pi(braid)) = a^{writhe - n + 1}
    tau_n(pi(braid))`` with ``delta = (a^-1 - a)/z``; the scaled trace is a
    Laurent polynomial by construction, so no denominator can survive.

    Raises:
        CapacityError: more than six strands.

    Examples:
        >>> print(homfly(parse_braid("strands=1")))
        1
        >>> print(homfly(parse_braid("strands=2 s1")))
        1
        >>> print(homfly(parse_braid("strands=2 s1 s1 s1")))
        -a^4 + a^2*z^2 + 2*a^2
    """
    if braid.strands > MAX_HOMFLY_STRANDS:
        raise CapacityError(
            f"Hecke trace is limited to {MAX_HOMFLY_STRANDS} strands "
            f"(dimension n!); got {braid.strands}"
        )
    framing = LaurentPoly.monomial(AZ, (braid.writhe() - braid.strands + 1, 0))
    return framing * markov_trace(braid_to_hecke(braid))
