"""Diagram-level HOMFLY-PT for small braid closures, by skein recursion.

This resolver exists to give the Hecke-trace engine reference values with
an independent origin: it never touches the Hecke algebra.  It walks the
closure diagram of a braid word in descending order (components by their
first top position, each component traversed top to bottom around the
closure) and finds the first crossing whose first visit happens on the
*under* strand.  Switching or smoothing that crossing reduces the diagram,
and the skein relation ``a^-1 P(L+) - a P(L-) = z P(L0)`` resolves::

    P(L+) = a^2 P(L-) + a z P(L0)
    P(L-) = a^-2 P(L+) - a^-1 z P(L0)

A diagram with no bad crossing is descending, hence a split unlink:
``P = delta^{c-1}`` with ``delta = (a^-1 - a)/z`` and ``c`` the component
count.  Exponential in the worst case, so capped at 8 crossings — ample
for the reference values it feeds.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

from .errors import _size
from .homfly import AZ, BraidWord
from .polyalg import LaurentPoly

MAX_RESOLVER_CROSSINGS = 8

Word = Tuple[Tuple[int, int], ...]

_DELTA = LaurentPoly(AZ, {(-1, -1): 1, (1, -1): -1})
_A2 = LaurentPoly.monomial(AZ, (2, 0))
_AM2 = LaurentPoly.monomial(AZ, (-2, 0))
_AZ_POS = LaurentPoly.monomial(AZ, (1, 1))
_AMZ = LaurentPoly.monomial(AZ, (-1, 1))


def _first_bad_crossing(strands: int, word: Word) -> Optional[int]:
    """Index of the first crossing first-visited on its under strand.

    The walk visits components in order of their first top position and
    follows each one all the way around the closure.  For a positive
    crossing the strand entering at the higher position passes over; for
    a negative crossing the one entering at the lower position does.
    """
    visited_crossings = [False] * len(word)
    visited_tops = [False] * strands
    for start in range(1, strands + 1):
        if visited_tops[start - 1]:
            continue
        position = start
        while True:
            visited_tops[position - 1] = True
            for step, (index, sign) in enumerate(word):
                if position not in (index, index + 1):
                    continue
                over = position == (index + 1 if sign > 0 else index)
                if not visited_crossings[step] and not over:
                    return step
                visited_crossings[step] = True
                position = index + 1 if position == index else index
            if position == start:
                break
    return None


@functools.cache
def _resolve(strands: int, word: Word) -> LaurentPoly:
    bad = _first_bad_crossing(strands, word)
    if bad is None:
        return _DELTA ** (BraidWord(strands, word).components() - 1)
    index, sign = word[bad]
    switched = word[:bad] + ((index, -sign),) + word[bad + 1 :]
    smoothed = word[:bad] + word[bad + 1 :]
    if sign > 0:
        return _A2 * _resolve(strands, switched) + _AZ_POS * _resolve(strands, smoothed)
    return _AM2 * _resolve(strands, switched) - _AMZ * _resolve(strands, smoothed)


def resolve_homfly(braid: BraidWord) -> LaurentPoly:
    """HOMFLY-PT of the braid closure by direct diagram recursion.

    Examples:
        >>> from .homfly import parse_braid
        >>> print(resolve_homfly(parse_braid("strands=2 s1 s1 s1")))
        -a^4 + a^2*z^2 + 2*a^2
    """
    _size("crossings", len(braid.word), MAX_RESOLVER_CROSSINGS, "the diagram resolver", least=0)
    return _resolve(braid.strands, braid.word)
