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

A Hecke element is the dict of its nonzero coefficients, keyed by the
one-line permutations ``w`` of its basis elements ``T_w``.  The trace is
computed in its scaled form ``tau_n(x) = zeta^-(n-1) tr(x)`` with ``zeta =
z / (1 - a^2)``, so that ``delta = 1 / (a zeta)`` and ``P = a^(writhe - n +
1) tau_n``.  ``_trace`` evaluates ``tau_m(T_w)`` for a permutation ``w`` of
``1..m`` by two Markov rules, peeling the last strand:

* free strand: if ``w(m) = m`` then ``T_w`` lies in ``H_{m-1}`` and
  ``tau_m(T_w) = zeta^-1 tau_{m-1}(T_w)``;
* cyclicity: otherwise, with ``w(j) = m``, ``T_w = T_u T_{m-1} T_{m-2} ...
  T_j`` with ``u`` in ``S_{m-1}``, and ``tau_m(x T_{m-1} y) = tau_{m-1}(x
  y)`` for ``x, y`` in ``H_{m-1}`` gives ``tau_m(T_w) = tau_{m-1}(T_u
  T_{m-2} ... T_j)``.

``zeta^-1 = (1 - a^2) / z`` is a Laurent polynomial, so every value lies in
the Laurent ring and no denominator ever appears.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .errors import BraidSyntaxError, _coxeter_arguments, _is_int, _size
from .polyalg import LaurentPoly

#: Canonical variable order for HOMFLY-PT polynomials.
AZ = ("a", "z")

_Z = LaurentPoly.variable(AZ, "z")

#: ``zeta^-1 = (1 - a^2) / z``, the scaled trace of a new free strand.
_ZETA_INVERSE = LaurentPoly(AZ, {(0, -1): 1, (2, -1): -1})

#: Hecke dimension is n!; six strands (720) is the documented ceiling.
MAX_HOMFLY_STRANDS = 6

#: The trace grows faster than linearly in the letters: positive six-strand
#: words took 0.9 s at 100 letters, 4.3 s at 200 and 6.7 s at 250, and a
#: two-strand word of 200 letters 0.01 s (2-CPU host, Python 3.11).
MAX_HOMFLY_LETTERS = 200

#: ``coxeter_braid`` builds one tuple per letter: 4 * 10^5 letters took 0.32 s
#: and 4 * 10^6 took 2.9 s (2-CPU host, Python 3.11), so the word is counted
#: and capped before it is built.
MAX_COXETER_LETTERS = 100_000

Perm = Tuple[int, ...]


# -- braid words --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BraidWord:
    """A braid on ``strands`` strands as a sequence of signed generators.

    ``strands`` is a positive ``int`` and ``word`` is a tuple of ``int``
    pairs ``(i, sign)`` with ``1 <= i < strands`` and sign ``+1`` or ``-1``
    (``s_i`` or its inverse).

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
        _size("strands", self.strands)
        if not isinstance(self.word, tuple):
            raise ValueError(f"word must be a tuple of generator pairs, got {self.word!r}")
        for generator in self.word:
            if not (
                isinstance(generator, tuple)
                and len(generator) == 2
                and all(map(_is_int, generator))
            ):
                raise ValueError(f"generator {generator!r} is not a pair of ints")
            index, sign = generator
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
_LIST_ITEM = re.compile(r"\s*([+-]?\d+)\s*")
_SPACE = re.compile(r"\s*")


def parse_braid(text: str) -> BraidWord:
    """Parse braid text: a ``strands=<n>`` header, then generators.

    Only whitespace may precede the header.

    Generators come either as tokens ``s<i>`` / ``s<i>^-1`` or as one
    bracketed list of signed integers separated by single commas, with
    optional whitespace (``[1, -2, 1]`` meaning ``s1 s2^-1 s1``; ``[]`` is
    the empty word).  Errors carry the character position; a malformed
    list reports its first offending character.

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
        return BraidWord(strands, _bracketed_word(inside, rest_start + bracket + 1, strands))

    word: List[Tuple[int, int]] = []
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


def _bracketed_word(inside: str, offset: int, strands: int) -> Tuple[Tuple[int, int], ...]:
    """The generators of the text ``inside`` a bracketed list, whose first
    character sits at position ``offset`` of the braid text.

    ``inside`` is blank, or signed integers separated by single commas with
    optional whitespace; anything else raises at its first offending
    character, the closing ``]`` when an integer is missing at the end.
    """
    if not inside.strip():
        return ()
    word: List[Tuple[int, int]] = []
    position = 0
    while True:
        item = _LIST_ITEM.match(inside, position)
        if item is None:
            position = _SPACE.match(inside, position).end()
            break
        value = int(item.group(1))
        if value == 0:
            raise BraidSyntaxError("generator 0 is not defined", offset + item.start(1))
        _check_index(abs(value), strands, offset + item.start(1))
        word.append((abs(value), 1 if value > 0 else -1))
        position = item.end()
        if position == len(inside):
            return tuple(word)
        if inside[position] != ",":
            break
        position += 1
    raise BraidSyntaxError(
        f"unexpected text {(inside + ']')[position]!r} in bracketed list",
        offset + position,
    )


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

    Raises:
        ValueError: if ``n``, ``k`` or ``link_s`` is malformed.
        CapacityError: if the word would have more than
            ``MAX_COXETER_LETTERS`` letters; it is counted before it is built.

    Examples:
        >>> coxeter_braid(2, (), (1,)).to_text()
        'strands=2 s1 s1 s1'
        >>> coxeter_braid(3, (), (0, 0)).to_text()
        'strands=3 s2 s1'
        >>> coxeter_braid(3, (1,), (0, 0)).to_text()
        'strands=3 s2'
    """
    n, k, link_s = _coxeter_arguments(n, k, link_s)
    letters = n - 1 - len(link_s)  # cox_S, then 2(n - i) letters per power of delta_i
    letters += sum(2 * (n - i) * abs(power) for i, power in enumerate(k, start=1))
    _size("letters", letters, MAX_COXETER_LETTERS, "a Coxeter braid", least=0)
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


def _times_generator(
    element: Dict[Perm, LaurentPoly], index: int, sign: int
) -> Dict[Perm, LaurentPoly]:
    """``element T_index`` (sign +1) or ``element T_index^-1`` (sign -1),
    without zero coefficients."""
    out: Dict[Perm, LaurentPoly] = {}
    i = index - 1
    for perm, coeff in element.items():
        swapped = perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2 :]
        terms = [(swapped, coeff)]
        if perm[i] < perm[i + 1]:
            # ascent: T_w T_i = T_{w s_i}; the inverse subtracts z T_w
            if sign < 0:
                terms.append((perm, -(_Z * coeff)))
        elif sign > 0:
            # descent: T_w T_i = z T_w + T_{w s_i}; the z terms cancel
            # for the inverse, leaving T_w T_i^-1 = T_{w s_i}
            terms.append((perm, _Z * coeff))
        for key, term in terms:
            out[key] = out[key] + term if key in out else term
    return {perm: coeff for perm, coeff in out.items() if not coeff.is_zero()}


def braid_to_hecke(braid: BraidWord) -> Dict[Perm, LaurentPoly]:
    """Image of the braid under ``s_i -> T_i``, computed letter by letter."""
    element = {tuple(range(1, braid.strands + 1)): LaurentPoly.one(AZ)}
    for index, sign in braid.word:
        element = _times_generator(element, index, sign)
    return element


@functools.cache
def _trace(perm: Perm) -> LaurentPoly:
    """``tau_m(T_perm)`` on ``m = len(perm)`` strands, by the two Markov rules.

    Braids are capped at six strands, so the cache holds at most
    ``1! + ... + 6! = 873`` keys; ``_trace.cache_info()`` reports its hits.
    """
    m = len(perm)
    if m == 1:
        return LaurentPoly.one(AZ)
    if perm[-1] == m:  # a free last strand
        return _ZETA_INVERSE * _trace(perm[:-1])
    j = perm.index(m) + 1  # w(j) = m, 1-based
    element = {tuple(v for v in perm if v != m): LaurentPoly.one(AZ)}
    for generator in range(m - 2, j - 1, -1):  # T_u T_{m-2} .. T_j
        element = _times_generator(element, generator, 1)
    return markov_trace(element)


def markov_trace(element: Dict[Perm, LaurentPoly]) -> LaurentPoly:
    """Scaled Markov trace ``tau_n = zeta^-(n-1) tr`` of an element of ``H_n``.

    ``element`` maps permutations of ``1..n`` to their coefficients.
    ``tau_n(1) = ((1 - a^2) / z)^(n-1)``; the value is always a Laurent
    polynomial in ``(a, z)``.
    """
    total = LaurentPoly.zero(AZ)
    for perm, coeff in element.items():
        total = total + coeff * _trace(perm)
    return total


def homfly(braid: BraidWord) -> LaurentPoly:
    """HOMFLY-PT polynomial of the braid closure, in ``(a, z)``.

    ``P = delta^{n-1} a^{writhe} tr(pi(braid)) = a^{writhe - n + 1}
    tau_n(pi(braid))`` with ``delta = (a^-1 - a)/z``; the scaled trace is a
    Laurent polynomial by construction, so no denominator can survive.

    Raises:
        CapacityError: more than six strands, or more than
            ``MAX_HOMFLY_LETTERS`` letters.

    Examples:
        >>> print(homfly(parse_braid("strands=1")))
        1
        >>> print(homfly(parse_braid("strands=2 s1")))
        1
        >>> print(homfly(parse_braid("strands=2 s1 s1 s1")))
        -a^4 + a^2*z^2 + 2*a^2
    """
    _size("strands", braid.strands, MAX_HOMFLY_STRANDS, "the Hecke trace")
    _size("letters", len(braid.word), MAX_HOMFLY_LETTERS, "the Hecke trace", least=0)
    framing = LaurentPoly.monomial(AZ, (braid.writhe() - braid.strands + 1, 0))
    return framing * markov_trace(braid_to_hecke(braid))
