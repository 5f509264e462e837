"""Chart labels for the free nested Hilbert scheme and their combinatorics.

A chart is labeled by a *nested set pair* ``S``: two chains of sets

    S_x^1 ⊇ S_x^2 ⊇ … ⊇ S_x^n = ∅,   S_y^1 ⊇ … ⊇ S_y^n = ∅,

with ``S_x^k, S_y^k ⊆ {k+1, …, n}`` and ``|S_x^i| + |S_y^i| = n - i``.
Exactly one new element joins exactly one chain at each level going up, so
there are ``n!`` labels.  (The two chains may overlap: nothing in the
defining conditions forces levelwise disjointness, and the n = 4 chart with
``S_x = {3,4} ⊃ {3}`` and ``S_y = {4} ⊃ {4} ⊃ {4}`` — which is needed below —
has ``4`` in both chains at level 1.)

From a label the chart data is derived:

* pivots  ``P_x(S) = {(i, j) : j ∈ S_x^i \\ S_x^{i+1}}`` (entries pinned to 1),
* constrained zeros ``x_{i-1,j} = 0`` for ``j ∈ S_x^i``, ``i ≥ 2``,
* free coordinates ``N_x, N_y`` (the rest; ``|N_x| + |N_y| = n(n-1)/2``),
* base-point matrices with 1 at the pivots and 0 elsewhere,
* a vector of non-commutative monomials in X, Y and its generalized-Young-
  tableau image.

A ``Chart`` stores only its label and pivots; the rest is derived on access.

Which paths validate: the public ``NestedSetPair(...)`` and
``NestedSetPair.from_lists`` check every defining condition, and
``build_chart`` checks that the pivots and the derived zeros and free
coordinates partition the upper triangle.  ``all_charts`` and
``enumerate_nested_pairs`` share one recursion, which builds each label with
its pivots, correct by construction; its labels skip re-validation
(``NestedSetPair._trusted``), and the tests compare its charts with
``build_chart`` on the publicly rebuilt labels.  ``commuting_charts`` builds
its labels with the public constructor and its charts with ``build_chart``.

All values are immutable; every function is pure and thread-safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .errors import CapacityError, ConsistencyError, _is_int

IndexPair = Tuple[int, int]
Matrix = Tuple[Tuple[int, ...], ...]

MAX_ENUMERATION_N = 9
MAX_INJECTIVITY_N = 7


@dataclass(frozen=True, slots=True)
class NestedSetPair:
    """The chart label: two nested chains of subsets of {1..n}.

    ``sx[i-1]`` holds the level-``i`` set ``S_x^i`` (1-based levels), and
    likewise for ``sy``.  The public constructor (and ``from_lists``)
    validates every condition: ``n`` is a positive ``int``, each chain is a
    tuple of ``n`` frozensets of ``int``, nested, inside ``{i+1..n}`` at
    level ``i``, with level sizes summing to ``n - i``.  Only the chart
    recursion behind ``all_charts`` skips these checks, through
    ``_trusted``.

    Raises:
        ValueError: naming the field that breaks a condition.
    """

    n: int
    sx: Tuple[FrozenSet[int], ...]
    sy: Tuple[FrozenSet[int], ...]

    def __post_init__(self):
        n = self.n
        if not _is_int(n):
            raise ValueError(f"n must be an int, got {n!r}")
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        for chain, side in ((self.sx, "x"), (self.sy, "y")):
            if not isinstance(chain, tuple):
                raise ValueError(
                    f"s{side} must be a tuple of frozensets, got {type(chain).__name__}"
                )
            if len(chain) != n:
                raise ValueError("chains must have exactly n levels")
            for level, level_set in enumerate(chain, start=1):
                if not isinstance(level_set, frozenset):
                    raise ValueError(
                        f"S_{side}^{level} must be a frozenset, got "
                        f"{type(level_set).__name__}"
                    )
                if not all(map(_is_int, level_set)):
                    raise ValueError(
                        f"S_{side}^{level} = {set(level_set)} has a non-int element"
                    )
                if not level_set <= set(range(level + 1, n + 1)):
                    raise ValueError(
                        f"S_{side}^{level} = {sorted(level_set)} is not a "
                        f"subset of {{{level + 1}..{n}}}"
                    )
                if level > 1 and not chain[level - 2] >= level_set:
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
    def _trusted(
        cls, n: int, sx: Tuple[FrozenSet[int], ...], sy: Tuple[FrozenSet[int], ...]
    ) -> "NestedSetPair":
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
        return cls(
            n,
            tuple(frozenset(level) for level in sx),
            tuple(frozenset(level) for level in sy),
        )

    def flat_key(self) -> tuple:
        """Flattened chain representation, the canonical sort key."""
        return tuple(tuple(sorted(level)) for level in self.sx) + tuple(
            tuple(sorted(level)) for level in self.sy
        )

    def mirror(self) -> "NestedSetPair":
        """Swap the x- and y-chains."""
        return NestedSetPair(self.n, self.sy, self.sx)

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "sx": [sorted(level) for level in self.sx],
            "sy": [sorted(level) for level in self.sy],
        }


def _check_size(n: int) -> None:
    """Reject a ``bool``, non-``int`` or non-positive ``n`` before a cap sees it."""
    if not _is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")


def _check_enumeration_size(n: int) -> None:
    _check_size(n)
    if n > MAX_ENUMERATION_N:
        raise CapacityError(
            f"chart enumeration is limited to n <= {MAX_ENUMERATION_N} "
            f"(the census is n!, which grows too fast); got n = {n}"
        )


def enumerate_nested_pairs(n: int) -> List[NestedSetPair]:
    """All nested set pairs for matrix size ``n``, in flat-key order.

    These are the labels of :func:`all_charts`, read off the recursion that
    builds them together with their charts.

    Raises:
        ValueError: if ``n < 1``.
        CapacityError: if ``n > 9`` (factorial growth).
    """
    return [chart.label for chart in all_charts(n)]


@dataclass(frozen=True, slots=True)
class Chart:
    """One chart: its label and the pivot index pairs ``px``/``py``.

    Everything else is derived on each access: ``zx``/``zy`` are the
    constrained zeros read off the label, ``nx``/``ny`` the free coordinates.
    On each side the pivots and zeros of row ``i`` are the columns in the
    level-``i`` set, so ``(i, j)`` is free iff ``j`` is not in that set,
    and pivots, zeros and free coordinates partition the strictly upper
    triangle.  ``mx``/``my`` are the base-point matrices (pivots 1,
    everything else 0).
    """

    label: NestedSetPair
    px: FrozenSet[IndexPair]
    py: FrozenSet[IndexPair]

    @property
    def n(self) -> int:
        return self.label.n

    @property
    def zx(self) -> FrozenSet[IndexPair]:
        return _zeros(self.label.sx, self.label.n)

    @property
    def zy(self) -> FrozenSet[IndexPair]:
        return _zeros(self.label.sy, self.label.n)

    @property
    def nx(self) -> FrozenSet[IndexPair]:
        return _free(self.label.sx, self.label.n)

    @property
    def ny(self) -> FrozenSet[IndexPair]:
        return _free(self.label.sy, self.label.n)

    @property
    def mx(self) -> Matrix:
        return _base_matrix(self.n, self.px)

    @property
    def my(self) -> Matrix:
        return _base_matrix(self.n, self.py)

    def to_record(self) -> dict:
        return {
            "label": self.label.to_record(),
            "pivots": {
                "x": sorted(self.px),
                "y": sorted(self.py),
            },
            "free": {"x": sorted(self.nx), "y": sorted(self.ny)},
            "zeros": {"x": sorted(self.zx), "y": sorted(self.zy)},
            "base_mx": [list(row) for row in self.mx],
            "base_my": [list(row) for row in self.my],
            "monomials": [word_str(word) for word in monomial_vector(self)],
            "commutes": is_commutative(self),
        }


def _pivots(chain: Tuple[FrozenSet[int], ...], n: int) -> FrozenSet[IndexPair]:
    pivots = set()
    for level in range(1, n):
        for j in chain[level - 1] - chain[level]:
            pivots.add((level, j))
    return frozenset(pivots)


def _zeros(chain: Tuple[FrozenSet[int], ...], n: int) -> FrozenSet[IndexPair]:
    zeros = set()
    for level in range(2, n + 1):
        for j in chain[level - 1]:
            zeros.add((level - 1, j))
    return frozenset(zeros)


def _free(chain: Tuple[FrozenSet[int], ...], n: int) -> FrozenSet[IndexPair]:
    return frozenset((i, j) for i, j in _upper_triangle(n) if j not in chain[i - 1])


def _base_matrix(n: int, pivots: FrozenSet[IndexPair]) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for i, j in pivots:
        rows[i - 1][j - 1] = 1
    return tuple(tuple(row) for row in rows)


@lru_cache(maxsize=16)
def _upper_triangle(n: int) -> Tuple[IndexPair, ...]:
    """The index pairs ``(i, j)`` with ``1 <= i < j <= n``, sorted.  Shared
    by every chart of one size."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def build_chart(label: NestedSetPair) -> Chart:
    """Read the pivots off a label and check the chart they give.

    Checks that pivots, zeros and free coordinates partition the upper
    triangle and that the pivots cover every level, so it also serves as
    the oracle of :func:`all_charts`.
    """
    n = label.n
    chart = Chart(label, _pivots(label.sx, n), _pivots(label.sy, n))
    for side, pivots, zeros in (("x", chart.px, chart.zx), ("y", chart.py, chart.zy)):
        if pivots & zeros:
            raise ConsistencyError(f"pivot/zero overlap on side {side}: {pivots & zeros}")
    nx, ny = chart.nx, chart.ny
    if len(nx) + len(ny) != n * (n - 1) // 2:
        raise ConsistencyError(
            f"free-coordinate count {len(nx)} + {len(ny)} != n(n-1)/2 for {label}"
        )
    levels_covered = sorted(i for i, _ in chart.px | chart.py)
    if levels_covered != list(range(1, n)):
        raise ConsistencyError(f"pivot levels {levels_covered} do not cover 1..{n - 1}")
    return chart


def monomial_vector(chart: Chart) -> Tuple[str, ...]:
    """The non-commutative monomial vector ``(m_1, …, m_n)`` of a chart.

    Words are strings over ``{"X", "Y"}`` with ``""`` standing for 1.  The
    convention (fixed once, asserted uniformly): ``m_1 = 1`` and the pivot at
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
    one column on one side, which the nesting of the chains forbids.  Both
    facts are asserted.
    """
    n = chart.n
    words: List[str | None] = [None] * (n + 1)
    words[1] = ""
    pivot_of_level: Dict[int, tuple[str, int]] = {}
    for i, j in chart.px:
        pivot_of_level[i] = ("X", j)
    for i, j in chart.py:
        pivot_of_level[i] = ("Y", j)
    for level in range(n - 1, 0, -1):
        if level not in pivot_of_level:
            raise ConsistencyError(f"no pivot at level {level}; chart is malformed")
        letter, j = pivot_of_level[level]
        source = words[n + 1 - j]
        if source is None:
            raise ConsistencyError(
                f"monomial recursion at level {level} references m_{n + 1 - j} "
                "before it is produced"
            )
        words[n + 1 - level] = letter + source
    result = tuple(words[1:])
    if any(word is None for word in result) or len(set(result)) != n:
        raise ConsistencyError(f"monomial vector is not a basis: {result!r}")
    return result


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

    def as_dict(self) -> Dict[IndexPair, FrozenSet[int]]:
        return dict(self.cells)

    def is_standard(self) -> bool:
        """True when the tableau is a genuine standard Young tableau.

        That means: every cell carries exactly one label, the occupied cells
        form a Young diagram (closed under stepping toward either axis), and
        labels strictly increase along both directions away from the origin.
        """
        cells = self.as_dict()
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
    X-degree ``i`` and Y-degree ``j``.  The occupied cells are always
    edge-connected (each word extends another by one letter); this is
    asserted rather than trusted.
    """
    words = monomial_vector(chart)
    cells: Dict[IndexPair, set] = {}
    for k, word in enumerate(words, start=1):
        cell = (word.count("X"), word.count("Y"))
        cells.setdefault(cell, set()).add(k)
    occupied = set(cells)
    frontier = [(0, 0)]
    seen = {(0, 0)}
    while frontier:
        i, j = frontier.pop()
        for neighbor in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if neighbor in occupied and neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    if seen != occupied:
        raise ConsistencyError(f"tableau image is disconnected: {sorted(occupied)}")
    return GYT(tuple(sorted((cell, frozenset(labels)) for cell, labels in cells.items())))


def _product_entries(pa: FrozenSet[IndexPair], pb: FrozenSet[IndexPair]) -> Counter:
    """Nonzero entries of the product of two base matrices, from their pivots.

    A base matrix has a 1 exactly at its pivots, so entry ``(i, l)`` of the
    product counts the pivots ``(i, j)`` of the first matrix that meet a
    pivot ``(j, l)`` of the second.
    """
    return Counter((i, l) for i, j in pa for k, l in pb if j == k)


def is_commutative(chart: Chart) -> bool:
    """True iff the base-point matrices commute.

    Exact: both products are read off the pivot sets (see
    ``_product_entries``), which costs ``O(|P_x| |P_y|)`` instead of two
    dense ``n x n`` integer products.
    """
    return _product_entries(chart.px, chart.py) == _product_entries(chart.py, chart.px)


def _descend(n, found, i, sx, sy, kx, ky, px, py):  # noqa: ANN001, ANN202
    """One level of the :func:`all_charts` recursion, appending to ``found``.

    ``sx[0]``, ``sy[0]`` are the level-``(i+1)`` sets and ``kx``, ``ky``
    their flat keys; ``px``, ``py`` hold the pivots of rows ``i+1..n-1``.
    This is a module-level function, not a closure: a closure that calls
    itself is a reference cycle, and it would keep ``found`` with all ``n!``
    charts alive until the next full garbage collection.
    """
    if i == 0:
        found.append((kx + ky, Chart(NestedSetPair._trusted(n, sx, sy), px, py)))
        return
    top_x, top_y = sx[0], sy[0]
    for j in range(i + 1, n + 1):
        if j not in top_x:
            grown = top_x | {j}
            _descend(n, found, i - 1, (grown,) + sx, (top_y,) + sy,
                     (tuple(sorted(grown)),) + kx, ky[:1] + ky, px | {(i, j)}, py)
        if j not in top_y:
            grown = top_y | {j}
            _descend(n, found, i - 1, (top_x,) + sx, (grown,) + sy,
                     kx[:1] + kx, (tuple(sorted(grown)),) + ky, px, py | {(i, j)})


def all_charts(n: int) -> List[Chart]:
    """Every chart for size ``n``, in the canonical (flat-key) label order.

    One recursion builds each label together with its pivots.  It grows the
    chains from level ``n`` (both empty) down to level 1: at level ``i`` an
    element ``j`` of ``{i+1..n}`` that the chain of side ``L`` lacks joins
    that chain, so each of the ``n!`` labels arises once, and ``(i, j)`` is
    the pivot of side ``L``.  The zeros and free coordinates are derived
    from the label by the ``Chart`` properties.  The labels are correct by
    construction and skip re-validation (``NestedSetPair._trusted``);
    ``build_chart`` on the publicly rebuilt label is the test oracle.

    Raises:
        ValueError: if ``n`` is not an ``int`` or ``n < 1``.
        CapacityError: if ``n > 9`` (factorial growth).
    """
    _check_enumeration_size(n)
    empty: FrozenSet = frozenset()
    found: List[Tuple[tuple, Chart]] = []
    _descend(n, found, n - 1, (empty,), (empty,), ((),), ((),), empty, empty)
    found.sort(key=itemgetter(0))
    return [chart for _, chart in found]


def commuting_charts(n: int) -> List[Chart]:
    """The charts whose base-point matrices commute, in canonical label order.

    A chart commutes exactly when every word of its monomial vector is a pure
    power ``X^a`` or ``Y^b``, i.e. when its tableau is a *hook-shaped*
    standard Young tableau; so there are ``2^(n-1)`` of them.  They are
    generated directly: each flag step ``k = 2..n`` extends one arm ``L`` of
    the hook, ``m_k = L + m_e`` where ``m_e`` is the current end of that arm
    (``e = 1`` while the arm is empty).  That is the pivot ``(n+1-k, n+1-e)``
    on side ``L``, and ``S_L^i`` collects the ``L``-pivot columns at levels
    ``>= i``.  The filter ``[c for c in all_charts(n) if is_commutative(c)]``
    gives the same list and serves as the test oracle.

    The first non-hook shape (two rows of two cells, n = 4) has a commuting
    flag of ideals whose matrices carry four ones — one more than the
    ``n - 1`` pivots a base point owns — so its tableau is reached only from
    charts whose base points do not commute.

    Raises:
        ValueError: if ``n < 1``.
        CapacityError: if ``n > 9``, the cap of ``all_charts``.

    Examples:
        >>> len(commuting_charts(7)) == 64
        True
    """
    _check_enumeration_size(n)
    labels = []
    for sides in product("xy", repeat=n - 1):
        # chains[L][-1] is the latest level's set; they grow toward level 1.
        chains = {"x": [frozenset()], "y": [frozenset()]}
        arm_end = {"x": 1, "y": 1}
        for k, side in enumerate(sides, start=2):
            column = n + 1 - arm_end[side]
            for other, chain in chains.items():
                chain.append(chain[-1] | {column} if other == side else chain[-1])
            arm_end[side] = k
        labels.append(
            NestedSetPair(n, tuple(reversed(chains["x"])), tuple(reversed(chains["y"])))
        )
    labels.sort(key=NestedSetPair.flat_key)
    return [build_chart(label) for label in labels]


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
    _check_size(n)
    if n > MAX_INJECTIVITY_N:
        raise CapacityError(
            f"injectivity scan is limited to n <= {MAX_INJECTIVITY_N}; got {n}"
        )
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
    """
    if not _is_int(n) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    return sum(_filling_count(shape) for shape in _partitions(n))
