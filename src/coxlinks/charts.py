"""Chart labels for the free nested Hilbert scheme and their combinatorics.

A chart is labeled by a *nested set pair* ``S``: two chains of sets

    S_x^1 ⊇ S_x^2 ⊇ … ⊇ S_x^n = ∅,   S_y^1 ⊇ … ⊇ S_y^n = ∅,

with ``S_x^k, S_y^k ⊆ {k+1, …, n}`` and ``|S_x^i| + |S_y^i| = n - i``.
Exactly one new element joins exactly one chain at each level going up, so
there are ``n!`` labels.  Each level is stored as a strictly increasing tuple
of ints, so neither the sort key ``sx + sy`` nor a record sorts it again.
(The two chains may overlap: nothing in the defining conditions forces
levelwise disjointness, and the n = 4 chart with ``S_x = {3,4} ⊃ {3}`` and
``S_y = {4} ⊃ {4} ⊃ {4}`` — which is needed below — has ``4`` in both
chains at level 1.)

From a label the chart data is derived:

* pivots  ``P_x(S) = {(i, j) : j ∈ S_x^i \\ S_x^{i+1}}`` (entries pinned to 1),
* constrained zeros ``x_{i-1,j} = 0`` for ``j ∈ S_x^i``, ``i ≥ 2``,
* free coordinates ``N_x, N_y`` (the rest; ``|N_x| + |N_y| = n(n-1)/2``),
* base-point matrices with 1 at the pivots and 0 elsewhere,
* a vector of non-commutative monomials in X, Y and its generalized-Young-
  tableau image.

A ``Chart`` is built from its label alone and exposes what it stores: the
label and the pivots read off it once, one ``(side, column)`` pivot per
level.  Its record (``Chart.to_record``) lists the rest, derived from those.

Which paths validate: the public ``NestedSetPair(...)`` and
``NestedSetPair.from_lists`` check every defining condition, and
``Chart(label)`` checks that it was given a label.  Nothing downstream
checks again: on a label those constructors accept, pivots, zeros and free
coordinates partition the upper triangle, the pivots cover every level
once, and the monomial words are distinct and build an edge-connected
tableau.  These are theorems about valid labels, and the tests assert them
for every chart with ``n <= 7``.
``all_charts`` and ``commuting_charts`` build each label with its pivots
in one recursion, correct by construction, that ``commuting_charts``
prunes by the hook rule; their labels and charts skip re-validation and
the pivot reading (``NestedSetPair._trusted``, ``Chart._trusted``), and
the tests compare the charts with ``Chart`` on the publicly rebuilt labels.

All values are immutable; every function is pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .errors import _is_int, _size

IndexPair = Tuple[int, int]
Chain = Tuple[Tuple[int, ...], ...]  # one strictly increasing tuple per level
LevelPivots = Tuple[Tuple[str, int], ...]  # (side, column) of each level's pivot

MAX_ENUMERATION_N = 9
#: Both n! scans, the injectivity report here and ``weights.detect_degenerate``.
MAX_SCAN_N = 7
#: The shape cache of the tableau count is never freed: n = 20 leaves 2,714
#: shapes in it, n = 50 about 1.3 M.
MAX_TABLEAU_N = 20


@dataclass(frozen=True, slots=True)
class NestedSetPair:
    """The chart label: two nested chains of subsets of {1..n}.

    ``sx[i-1]`` holds the level-``i`` set ``S_x^i`` (1-based levels), and
    likewise for ``sy``.  The public constructor (and ``from_lists``)
    validates every condition: ``n`` is a positive ``int``, each chain is a
    tuple of ``n`` levels, each level a tuple of ``int`` in strictly
    increasing order, nested, inside ``{i+1..n}`` at level ``i``, with level
    sizes summing to ``n - i``.  ``from_lists`` sorts each level and merges
    repeats first.  Only the chart recursion behind ``all_charts`` and
    ``commuting_charts`` skips these checks, through ``_trusted``.

    Raises:
        ValueError: naming the field that breaks a condition.
    """

    n: int
    sx: Chain
    sy: Chain

    def __post_init__(self):
        n = _size("n", self.n)
        for chain, side in ((self.sx, "x"), (self.sy, "y")):
            if not isinstance(chain, tuple):
                raise ValueError(
                    f"s{side} must be a tuple of tuples, got {type(chain).__name__}"
                )
            if len(chain) != n:
                raise ValueError("chains must have exactly n levels")
            for level, level_set in enumerate(chain, start=1):
                if not (
                    isinstance(level_set, tuple)
                    and all(map(_is_int, level_set))
                    and all(a < b for a, b in zip(level_set, level_set[1:]))
                ):
                    raise ValueError(
                        f"S_{side}^{level} must be a strictly increasing tuple of ints, "
                        f"got {level_set!r}"
                    )
                if level_set and not level < level_set[0] <= level_set[-1] <= n:
                    raise ValueError(
                        f"S_{side}^{level} = {list(level_set)} is not a "
                        f"subset of {{{level + 1}..{n}}}"
                    )
                if level > 1 and not set(chain[level - 2]).issuperset(level_set):
                    raise ValueError(f"S_{side} chain is not nested at level {level - 1}")
            if chain[n - 1]:
                raise ValueError(f"S_{side}^{n} must be empty")
        for level in range(1, n + 1):
            total = len(self.sx[level - 1]) + len(self.sy[level - 1])
            if total != n - level:
                raise ValueError(
                    f"|S_x^{level}| + |S_y^{level}| = {total}, expected {n - level}"
                )

    @classmethod
    def _trusted(cls, n: int, sx: Chain, sy: Chain) -> "NestedSetPair":
        """Wrap chains that the chart recursion built; nothing is checked.

        The caller guarantees every condition the public constructor checks.
        """
        label = object.__new__(cls)
        object.__setattr__(label, "n", n)
        object.__setattr__(label, "sx", sx)
        object.__setattr__(label, "sy", sy)
        return label

    @classmethod
    def from_lists(
        cls, n: int, sx: Sequence[Iterable[int]], sy: Sequence[Iterable[int]]
    ) -> "NestedSetPair":
        """A checked label from iterables of ints, each level sorted, repeats merged."""
        return cls(n, _levels(sx), _levels(sy))

    def flat_key(self) -> Chain:
        """Flattened chain representation, the canonical sort key."""
        return self.sx + self.sy

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "sx": [list(level) for level in self.sx],
            "sy": [list(level) for level in self.sy],
        }


def _levels(chain: Sequence[Iterable[int]]) -> tuple:
    # Non-int elements need not compare: leave them for the constructor to reject.
    return tuple(
        tuple(sorted(level)) if all(map(_is_int, level)) else tuple(level)
        for level in map(set, chain)
    )


@dataclass(frozen=True, slots=True)
class Chart:
    """One chart: its label and one pivot per level, ``pivots[i - 1] =
    (side, j)`` for the pivot ``(i, j)`` on side ``"x"`` or ``"y"``.

    A chart exposes only these two (and ``n``); ``to_record`` lists the
    rest, per side: the pivot pairs sorted by row, the constrained zeros,
    the free coordinates and the base-point matrix (pivots 1, everything
    else 0).  On each side the pivots and zeros of row ``i`` are the
    columns in the level-``i`` set, so ``(i, j)`` is free iff ``j`` is not
    in that set, and pivots, zeros and free coordinates partition the
    strictly upper triangle.

    The constructor takes the label alone and reads ``pivots`` off it
    once.  Only the chart recursion behind ``all_charts`` and
    ``commuting_charts``, which already holds the pivots, skips that
    reading, through ``_trusted``.

    Raises:
        ValueError: if ``label`` is not a :class:`NestedSetPair`.
    """

    label: NestedSetPair
    pivots: LevelPivots = field(init=False)

    def __post_init__(self):
        label = self.label
        if not isinstance(label, NestedSetPair):
            raise ValueError(f"label must be a NestedSetPair, got {type(label).__name__}")
        object.__setattr__(self, "pivots", _pivots(label))

    @classmethod
    def _trusted(cls, label: NestedSetPair, pivots: LevelPivots) -> "Chart":
        """Wrap pivots read off ``label``; nothing is checked.

        The caller guarantees ``pivots`` equal the label's pivots.
        """
        chart = object.__new__(cls)
        object.__setattr__(chart, "label", label)
        object.__setattr__(chart, "pivots", pivots)
        return chart

    @property
    def n(self) -> int:
        return self.label.n

    def to_record(self) -> dict:
        label, n = self.label, self.n
        px, py = _side_pivots(self.pivots, "x"), _side_pivots(self.pivots, "y")
        return {
            "label": label.to_record(),
            "pivots": {"x": px, "y": py},
            "free": {"x": _free(label.sx, n), "y": _free(label.sy, n)},
            "zeros": {"x": _zeros(label.sx, n), "y": _zeros(label.sy, n)},
            "base_mx": _base_matrix(n, px),
            "base_my": _base_matrix(n, py),
            "monomials": [word_str(word) for word in monomial_vector(self)],
            "commutes": is_commutative(self),
        }


def _pivots(label: NestedSetPair) -> LevelPivots:
    """The one element that joins a chain at each level, with its side."""
    sides = (("x", label.sx), ("y", label.sy))
    return tuple((side, j) for i in range(1, label.n) for side, chain in sides
                 for j in chain[i - 1] if j not in chain[i])


def _side_pivots(pivots: LevelPivots, side: str) -> List[IndexPair]:
    """One side's pivots ``(i, j)``, sorted by row."""
    return [(i, j) for i, (on, j) in enumerate(pivots, start=1) if on == side]


def _zeros(chain: Chain, n: int) -> List[IndexPair]:
    """One side's constrained zeros ``(i, j)``, ``j`` in the level-``(i+1)`` set, sorted."""
    return [(i, j) for i in range(1, n) for j in chain[i]]


def _free(chain: Chain, n: int) -> List[IndexPair]:
    """One side's free coordinates ``(i, j)``, ``j`` not in the level-``i`` set, sorted."""
    return [(i, j) for i, j in _upper_triangle(n) if j not in chain[i - 1]]


def _base_matrix(n: int, pivots: Sequence[IndexPair]) -> List[List[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, j in pivots:
        rows[i - 1][j - 1] = 1
    return rows


@lru_cache(maxsize=16)
def _upper_triangle(n: int) -> Tuple[IndexPair, ...]:
    """The index pairs ``(i, j)`` with ``1 <= i < j <= n``, sorted.  Shared
    by every chart of one size."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def weight_vectors(chart: Chart) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The weight vectors ``(w_x, w_y)``: the X- and Y-degrees of the words
    ``m_n, …, m_1`` of :func:`monomial_vector`, as integers read off the
    pivots, with no word built; index ``i - 1`` holds the degree of level ``i``.

    This is the pivot recursion of :func:`monomial_vector` without its
    words: ``w^n = (0, 0)``, and an x-pivot ``(i, j)`` gives
    ``w_x^i = w_x^j + 1`` and ``w_y^i = w_y^j`` (mirrored for a y-pivot).
    Since ``j > i``, filling the levels downward from ``n`` is well-founded.
    """
    n = chart.n
    wx, wy = [0] * (n + 1), [0] * (n + 1)
    for i in range(n - 1, 0, -1):
        side, j = chart.pivots[i - 1]
        if side == "x":
            wx[i], wy[i] = wx[j] + 1, wy[j]
        else:
            wx[i], wy[i] = wx[j], wy[j] + 1
    return tuple(wx[1:]), tuple(wy[1:])


def monomial_vector(chart: Chart) -> Tuple[str, ...]:
    """The non-commutative monomial vector ``(m_1, …, m_n)`` of a chart.

    Words are strings over ``{"X", "Y"}`` with ``""`` standing for 1.  The
    convention (fixed once, applied uniformly): ``m_1 = 1`` and the pivot at
    level ``i`` prepends its letter to the word of the flag step its column
    points at,

        (i, j) ∈ P_x  ⇒  m_{n+1-i} = "X" + m_{n+1-j}.

    This is forced by the geometry: with quotient basis ``v_k = m_{n+1-k}``
    a pivot ``x_{ij} = 1`` says the matrix X sends basis vector ``v_j`` to
    ``v_i``, i.e. left-multiplying the word ``m_{n+1-j}`` by X yields
    ``m_{n+1-i}``.  Since ``j > i`` the recursion fills indices upward from
    ``m_1`` and is well-founded.  Words need not have length ``k - 1`` (a
    pivot column may point below the previous flag step), but the n words
    are always pairwise distinct — two equal words would force two pivots in
    one column on one side, which the nesting of the chains forbids.  Every
    level has exactly one pivot (``|S_x^i| + |S_y^i| = n - i``), so each
    word is one letter put in front of an earlier word.

    Words are built only to be printed: the degrees that the tableau and the
    weights read come from the same recursion on integers (:func:`weight_vectors`).
    """
    n = chart.n
    words = [""] * (n + 1)
    for level in range(n - 1, 0, -1):
        side, j = chart.pivots[level - 1]
        words[n + 1 - level] = side.upper() + words[n + 1 - j]
    return tuple(words[1:])


def word_str(word: str) -> str:
    """A monomial word as printed in records, with ``"1"`` for the empty word."""
    return word if word else "1"


@dataclass(frozen=True)
class GYT:
    """A generalized Young tableau: lattice cells labeled by subsets of {1..n}.

    ``cells`` maps ``(deg_X, deg_Y)`` to the set of indices whose monomial
    has that bidegree, sorted by cell for hashing.  The empty word ``m_1``
    always sits at the origin, so a chart's image needs no translation.
    """

    cells: Tuple[Tuple[IndexPair, FrozenSet[int]], ...]

    def is_standard(self) -> bool:
        """True when the tableau is a genuine standard Young tableau.

        That means: every cell carries exactly one label, the occupied cells
        form a Young diagram (closed under stepping toward either axis), and
        labels strictly increase along both directions away from the origin.
        """
        cells = dict(self.cells)
        if any(len(labels) != 1 for labels in cells.values()):
            return False
        for i, j in cells:
            if i > 0 and (i - 1, j) not in cells:
                return False
            if j > 0 and (i, j - 1) not in cells:
                return False
        label = {cell: min(labels) for cell, labels in cells.items()}
        for i, j in cells:
            for succ in ((i + 1, j), (i, j + 1)):
                if succ in cells and label[succ] <= label[(i, j)]:
                    return False
        return True

    def to_record(self) -> list:
        return [[list(cell), sorted(labels)] for cell, labels in self.cells]


def to_gyt(chart: Chart) -> GYT:
    """Map a chart to its generalized Young tableau.

    Cell ``(i, j)`` collects every index ``k`` whose monomial ``m_k`` has
    X-degree ``i`` and Y-degree ``j``; the degrees are read off the pivots as
    integers (:func:`weight_vectors`).  The occupied cells are
    always edge-connected: each word is one letter put in front of an
    earlier word, so each cell is one unit step from an earlier cell.
    """
    n = chart.n
    cells: Dict[IndexPair, set] = {}
    for level, cell in enumerate(zip(*weight_vectors(chart)), start=1):
        cells.setdefault(cell, set()).add(n + 1 - level)
    return GYT(tuple(sorted((cell, frozenset(labels)) for cell, labels in cells.items())))


def is_commutative(chart: Chart) -> bool:
    """True iff the base-point matrices commute.

    Exact and ``O(n)``: a base matrix has at most one 1 per row, at its
    pivot, so row ``i`` of ``XY`` is the unit row ``y(x(i))`` (or zero when
    a pivot is missing) and row ``i`` of ``YX`` is ``x(y(i))``.  Level
    ``i < n`` has one pivot ``(side, j)``, so one of the two rows is zero,
    and the other is zero too exactly when ``j = n`` or the pivot of level
    ``j`` is on ``side`` as well.  That is the hook rule of
    :func:`commuting_charts`: every word is a pure power of one letter.
    """
    pivots, n = chart.pivots, chart.n
    return all(j == n or pivots[j - 1][0] == side for side, j in pivots)


def _descend(n, found, i, sx, sy, pivots, hooks):  # noqa: ANN001, ANN202
    """One level of the chart recursion, appending to ``found``.

    ``sx[0]``, ``sy[0]`` are the level-``(i+1)`` sets; ``pivots`` holds the
    pivots of levels ``i+1..n-1``, so prepending keeps them in level order
    and level ``j``'s pivot is ``pivots[j - i - 1]``.  With ``hooks`` a pivot
    ``(side, j)`` is kept only when ``j == n`` or level ``j``'s pivot is on
    ``side``: the rule of :func:`is_commutative`, one level at a time.
    This is a module-level function, not a closure: a closure that calls
    itself is a reference cycle, and it would keep ``found`` with all its
    charts alive until the next full garbage collection.
    """
    if i == 0:
        found.append(Chart._trusted(NestedSetPair._trusted(n, sx, sy), pivots))
        return
    top_x, top_y = sx[0], sy[0]
    for j in range(i + 1, n + 1):
        sides = pivots[j - i - 1][0] if hooks and j < n else "xy"  # j may join these
        if "x" in sides and j not in top_x:
            grown = tuple(sorted(top_x + (j,)))
            _descend(n, found, i - 1, (grown,) + sx, (top_y,) + sy,
                     (("x", j),) + pivots, hooks)
        if "y" in sides and j not in top_y:
            grown = tuple(sorted(top_y + (j,)))
            _descend(n, found, i - 1, (top_x,) + sx, (grown,) + sy,
                     (("y", j),) + pivots, hooks)


def _charts(n: int, hooks: bool) -> List[Chart]:
    """The body of :func:`all_charts` and, with ``hooks``, :func:`commuting_charts`."""
    _size("n", n, MAX_ENUMERATION_N, "chart enumeration")
    found: List[Chart] = []
    _descend(n, found, n - 1, ((),), ((),), (), hooks)
    found.sort(key=lambda chart: chart.label.flat_key())
    return found


def all_charts(n: int) -> List[Chart]:
    """Every chart for size ``n``, in the canonical (flat-key) label order.

    One recursion builds each label together with its pivots.  It grows the
    chains from level ``n`` (both empty) down to level 1: at level ``i`` an
    element ``j`` of ``{i+1..n}`` that the chain of side ``L`` lacks joins
    that chain, so each of the ``n!`` labels arises once, and ``(L, j)`` is
    the pivot of level ``i``.  ``Chart.to_record`` derives the zeros and
    free coordinates from the label.  The labels are correct by
    construction and skip re-validation (``NestedSetPair._trusted``,
    ``Chart._trusted``); ``Chart`` on the publicly rebuilt label is the test
    oracle.

    Raises:
        ValueError: if ``n`` is not an ``int`` or ``n < 1``.
        CapacityError: if ``n > 9`` (factorial growth).
    """
    return _charts(n, hooks=False)


def commuting_charts(n: int) -> List[Chart]:
    """The charts whose base-point matrices commute, in canonical label order.

    A chart commutes exactly when every word of its monomial vector is a pure
    power ``X^a`` or ``Y^b``, i.e. when its tableau is a *hook-shaped*
    standard Young tableau; so there are ``2^(n-1)`` of them.  They come from
    the :func:`all_charts` recursion, pruned by the hook rule of
    :func:`is_commutative` as it descends: the pivot ``(L, j)`` of level
    ``i`` is kept only when ``j = n`` or the pivot of level ``j`` is on side
    ``L`` too.  The filter ``[c for c in all_charts(n) if is_commutative(c)]``
    gives the same list and serves as the test oracle.

    The first non-hook shape (two rows of two cells, n = 4) has a commuting
    flag of ideals whose matrices carry four ones — one more than the
    ``n - 1`` pivots a base point owns — so its tableau is reached only from
    charts whose base points do not commute.

    Raises:
        ValueError: if ``n`` is not an ``int`` or ``n < 1``.
        CapacityError: if ``n > 9``, the cap of ``all_charts``.

    Examples:
        >>> len(commuting_charts(7)) == 64
        True
    """
    return _charts(n, hooks=True)


def standard_tableau_images(n: int) -> Dict[GYT, List[Chart]]:
    """The standard Young tableaux arising as chart images, with preimages.

    The commuting sublocus of the ambient scheme (the locus ``[X, Y] = 0``)
    has one torus-fixed point per standard Young tableau, and each such
    point lies in at least one chart, whose tableau image is that very
    tableau.  So the number of distinct standard images equals the
    independent tableau count — that equality is the cross-check this
    function feeds.  From n = 4 on, a standard image may have several chart
    preimages (the two-by-two tableau is reached by two charts that order
    the letters of the corner word differently), which is also why the
    image map is not injective on the full chart set.
    """
    images: Dict[GYT, List[Chart]] = {}
    for chart in all_charts(n):
        tableau = to_gyt(chart)
        if tableau.is_standard():
            images.setdefault(tableau, []).append(chart)
    return images


def gyt_injectivity_report(n: int) -> dict:
    """Group all charts by tableau image and report any collisions.

    Returns a dict ``{"n": n, "total": #charts, "collisions": [...]}`` where
    each collision lists the full labels of charts sharing one image.  An
    empty collision list is the expected outcome; the report is the
    deliverable either way.
    """
    _size("n", n, MAX_SCAN_N, "the injectivity scan")
    charts = all_charts(n)
    groups: Dict[tuple, List[Chart]] = {}
    for chart in charts:
        key = to_gyt(chart).cells
        groups.setdefault(key, []).append(chart)
    collisions = [
        {
            "gyt": GYT(cells=key).to_record(),
            "labels": [chart.label.to_record() for chart in group],
        }
        # Not total: frozenset < is subset order, so insertion order leaks in.
        for key, group in sorted(groups.items())
        if len(group) > 1
    ]
    return {"n": n, "total": len(charts), "collisions": collisions}


# -- independent standard-Young-tableaux enumerator -------------------------


def _partitions(n: int, largest: int | None = None) -> Iterable[Tuple[int, ...]]:
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _filling_count(shape: Tuple[int, ...]) -> int:
    """Number of standard fillings of a Young diagram, by corner removal.

    The largest entry of a standard tableau sits at an outer corner; removing
    it leaves a standard tableau of the smaller shape.  Summing over corners
    gives the count directly, with no product formula involved.
    """
    if not shape:
        return 1
    total = 0
    for row in range(len(shape)):
        is_corner = shape[row] > 0 and (row + 1 == len(shape) or shape[row] > shape[row + 1])
        if is_corner:
            smaller = list(shape)
            smaller[row] -= 1
            while smaller and smaller[-1] == 0:
                smaller.pop()
            total += _filling_count(tuple(smaller))
    return total


def count_standard_tableaux(n: int) -> int:
    """The number of standard Young tableaux with ``n`` cells, any shape.

    This enumerator is independent of the chart machinery above: it sums the
    corner-removal recursion over all partitions of ``n``.  It exists as the
    oracle for the commuting-chart count.

    Raises:
        ValueError: if ``n`` is not an ``int`` or ``n < 0``.
        CapacityError: if ``n > 20``; the shape cache grows with the
            partitions of every size up to ``n``.
    """
    _size("n", n, MAX_TABLEAU_N, "the tableau count", least=0)
    return sum(_filling_count(shape) for shape in _partitions(n))
