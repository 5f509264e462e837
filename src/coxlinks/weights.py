"""Torus weights of chart coordinates and fixed-locus dimension counts.

The weight ``w_x^i`` (``w_y^i``) is the X-degree (Y-degree) of the monomial
word ``m_{n+1-i}`` that :func:`~coxlinks.charts.monomial_vector` attaches to
flag step ``n + 1 - i``.  So ``w_x^n = w_y^n = 0``, and an x-pivot ``(i, j)``
gives ``w_x^i = w_x^j + 1`` and ``w_y^i = w_y^j``, mirrored for y-pivots.

The unit rule.  Each coordinate kind has a unit ``e``: a free x-coordinate
has ``(1, 0)``, a free y-coordinate ``(0, 1)`` and an obstruction pair
(``j - i > 1``, or ``j = i + 1`` with ``i`` in ``link_s``) ``(1, 1)``.  A
pair with weight drop ``D = w^i - w^j`` stores the exponent ``s = D + e``.
A direct gauge computation (rescale (X, Y), then conjugate back to pivot
form by a diagonal matrix) shows that the coordinate value, or for an
obstruction pair the commutator entry [X,Y]_{ij} that cuts the commuting
locus, scales with torus weight ``D - e`` (the rescaling test in
``tests/test_weights.py`` verifies this for the coordinates, and
``test_base_point_entries_decide_commutativity`` there checks, for every
chart with n <= 6, that the base matrices commute exactly when [X,Y]
vanishes on the obstruction pairs).  So, for every kind:

* the coordinate (or equation) is torus-fixed iff ``s = 2e``;
* its verbatim factor ``(1 - Q^sx T^sy)`` vanishes iff ``s = 0``;
* its calibrated factor has the exponent ``2e - s = e - D``, which is zero
  exactly when the coordinate is torus-fixed.

``WeightData.calibrated_exponents`` returns the calibrated exponents, the
one view of the weights that :mod:`coxlinks.localization` reads.

The counts in ``WeightData.fixed_dim`` use the fixed condition ``s = 2e``,
that is ``D = e``, and read it straight off the weight drops.
Only under it does the fixed-dimension inequality dimOb0 >= dimT0 hold for
every chart with n <= 7 (verified exhaustively).  Counting ``s = 0``
instead already fails on the explicit degenerate n = 4 chart: its y_{12}
has ``s = 0``, a vanishing *denominator factor*, not a fixed tangent
direction (the chart's family is a torus orbit, not fixed points).  The
vanishing-factor count is reported separately, and :func:`detect_degenerate`
scans all ``n!`` charts for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

from .charts import MAX_SCAN_N, Chart, _degrees, _upper_triangle, all_charts
from .errors import _link_s, _size

IndexPair = Tuple[int, int]
#: ``(kind, i, j, sx, sy)``: a coordinate kind, its pair and its stored exponent.
Row = Tuple[str, int, int, int, int]
#: A calibrated ``(u, v)`` exponent ``e - D``.
Exponent = Tuple[int, int]

#: The unit ``e`` of each coordinate kind (see the module docstring).
UNITS: Dict[str, Tuple[int, int]] = {"x": (1, 0), "y": (0, 1), "obstruction": (1, 1)}


def _calibrated(rows: Iterable[Row]) -> List[Exponent]:
    """The calibrated factor exponent ``2e - s`` of each row: ``(0, 0)`` iff fixed."""
    return [
        (2 * UNITS[kind][0] - sx, 2 * UNITS[kind][1] - sy) for kind, _, _, sx, sy in rows
    ]


def _unit_counts(
    kind: str,
    pairs: Iterable[IndexPair],
    taken: Sequence[Iterable[int]],
    wx: Tuple[int, ...],
    wy: Tuple[int, ...],
) -> Tuple[int, int]:
    """``(fixed, vanishing)`` over the pairs ``(i, j)`` with ``j`` not in
    ``taken[i - 1]``, read straight off the weight drop ``D = w^i - w^j``:
    a pair is torus-fixed at ``D = e`` (``s = 2e``) and its factor vanishes
    at ``D = -e`` (``s = 0``).  No row is built."""
    ex, ey = UNITS[kind]
    fixed = vanishing = 0
    for i, j in pairs:
        if j in taken[i - 1]:
            continue
        dx = wx[i - 1] - wx[j - 1]
        dy = wy[i - 1] - wy[j - 1]
        if dx == ex and dy == ey:
            fixed += 1
        elif dx == -ex and dy == -ey:
            vanishing += 1
    return fixed, vanishing


def _tangent_counts(
    chart: Chart, wx: Tuple[int, ...], wy: Tuple[int, ...]
) -> Tuple[int, int]:
    """``(fixed, vanishing)`` over the free coordinates of both sides, under
    the free rule of :func:`_tangent_exponents`."""
    label = chart.label
    pairs = _upper_triangle(label.n)
    fixed_x, vanishing_x = _unit_counts("x", pairs, label.sx, wx, wy)
    fixed_y, vanishing_y = _unit_counts("y", pairs, label.sy, wx, wy)
    return fixed_x + fixed_y, vanishing_x + vanishing_y


@dataclass(frozen=True, slots=True)
class WeightData:
    """All weight data of one chart.

    It stores the chart, its weight vectors and the normalized ``link``
    (sorted, duplicate-free ``link_s``).  The tangent and obstruction rows
    are derived from these on each call, as plain integer tuples.
    """

    chart: Chart
    wx: Tuple[int, ...]
    wy: Tuple[int, ...]
    link: Tuple[int, ...]

    def to_record(self) -> dict:
        """The weight vectors and the stored exponents of every row."""
        return {
            "wx": list(self.wx),
            "wy": list(self.wy),
            "tangent": [
                {"side": side, "index": [i, j], "dx": sx, "dy": sy}
                for side, i, j, sx, sy in _tangent_exponents(self.chart, self.wx, self.wy)
            ],
            "obstruction": [
                {"index": [i, j], "ox": sx, "oy": sy}
                for _, i, j, sx, sy in _obstruction_exponents(self)
            ],
        }

    def calibrated_exponents(self) -> Tuple[List[Exponent], List[Exponent]]:
        """The calibrated ``(u, v)`` exponents ``e - D`` of the localization term.

        Returns ``(numerator, denominator)``: one exponent per obstruction
        pair, in sorted pair order, and one per free coordinate, the x side
        first.  An exponent is ``(0, 0)`` exactly when its coordinate (or
        equation) is torus-fixed.
        """
        return (
            _calibrated(_obstruction_exponents(self)),
            _calibrated(_tangent_exponents(self.chart, self.wx, self.wy)),
        )

    def fixed_dim(self) -> dict:
        """Fixed-locus dimension counts and the degenerate-factor count.

        Returns a dict with:

        * ``dimT0`` — dimension of the torus-fixed tangent subspace: free
          coordinates with ``s = 2e``.
        * ``dimOb0`` — dimension of the torus-fixed obstruction subspace:
          obstruction pairs with ``s = 2e``.
        * ``inequality`` — whether dimOb0 >= dimT0 (the virtual-dimension-zero
          expectation; holds for every chart with n <= 7 and empty ``link_s``).
        * ``vanishing_factors`` — free coordinates with ``s = 0``, i.e.
          vanishing denominator factors of the fixed-point sum.  A nonzero
          count marks the chart as degenerate for localization (the
          explicit n = 4 chart has one, at y_{12}).
        * ``vanishing_obstruction_factors`` — obstruction pairs with
          ``s = 0``, for the numerator product.

        The obstruction counts run over this data's pairs, so they include
        the adjacent pairs of a nonempty ``link_s``.  Every count is read
        straight off the weight drops ``D = e`` (fixed) and ``D = -e``
        (vanishing); no exponent row is built.
        """
        dim_t0, vanishing = _tangent_counts(self.chart, self.wx, self.wy)
        n = self.chart.n
        dim_ob0, vanishing_obstruction = _unit_counts(
            "obstruction", _obstruction_pairs(n, self.link), ((),) * n, self.wx, self.wy
        )
        return {
            "dimT0": dim_t0,
            "dimOb0": dim_ob0,
            "inequality": dim_ob0 >= dim_t0,
            "vanishing_factors": vanishing,
            "vanishing_obstruction_factors": vanishing_obstruction,
        }


def weight_vectors(chart: Chart) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The weight vectors (w_x, w_y), indices 1..n: the X- and Y-degrees of
    the monomial words ``m_n, …, m_1`` of :func:`~coxlinks.charts.monomial_vector`.

    They are computed on integers by the pivot recursion of the module
    docstring (``charts._degrees``); no word is built.
    """
    return _degrees(chart)


def _stored(
    kind: str,
    pairs: Iterable[IndexPair],
    taken: Sequence[Iterable[int]],
    wx: Tuple[int, ...],
    wy: Tuple[int, ...],
) -> List[Row]:
    """One row per pair ``(i, j)`` with ``j`` not in ``taken[i - 1]`` (a
    chain's level sets, or empty sets), with the stored exponent ``s = D + e``."""
    ex, ey = UNITS[kind]
    return [
        (kind, i, j, wx[i - 1] - wx[j - 1] + ex, wy[i - 1] - wy[j - 1] + ey)
        for i, j in pairs
        if j not in taken[i - 1]
    ]


def _tangent_exponents(
    chart: Chart, wx: Tuple[int, ...], wy: Tuple[int, ...]
) -> List[Row]:
    """One row per free coordinate: the x side first, then the y side, each
    in sorted pair order.

    ``(i, j)`` is free on a side when ``j`` is not in that chain's
    level-``i`` set, the rule of ``Chart.nx``/``ny``.  The two sides give
    n(n-1)/2 rows together, since the two level-``i`` sets hold ``n - i``
    elements between them.
    """
    label = chart.label
    pairs = _upper_triangle(label.n)
    return _stored("x", pairs, label.sx, wx, wy) + _stored("y", pairs, label.sy, wx, wy)


def _obstruction_exponents(data: WeightData) -> List[Row]:
    """One row per obstruction pair of ``data``, in sorted pair order."""
    pairs = _obstruction_pairs(data.chart.n, data.link)
    return _stored("obstruction", pairs, ((),) * data.chart.n, data.wx, data.wy)


@lru_cache(maxsize=64)
def _obstruction_pairs(n: int, link: Tuple[int, ...]) -> Tuple[IndexPair, ...]:
    """The sorted obstruction index pairs of size ``n``: every ``(i, j)``
    with ``j - i > 1``, plus ``(i, i + 1)`` for each ``i`` in the sorted,
    duplicate-free ``link`` from :func:`~coxlinks.errors._link_s`.  Shared
    by every chart of one size."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)]
    pairs += [(i, i + 1) for i in link]
    return tuple(sorted(pairs))


def weight_data(chart: Chart, link_s: Sequence[int] = ()) -> WeightData:
    """Bundle a chart with its weight vectors and its checked ``link_s``.

    Args:
        link_s: the skipped Coxeter generators, in {1..n-1}; each ``i``
            adds the obstruction pair (i, i+1).  Empty for the plain case.

    Raises:
        ValueError: if ``link_s`` is not a sequence of ``int``, or an entry
            lies outside ``1..n-1``.
    """
    wx, wy = weight_vectors(chart)
    return WeightData(chart=chart, wx=wx, wy=wy, link=_link_s(chart.n, link_s))


# -- degeneracy scan ----------------------------------------------------------


def detect_degenerate(n: int) -> List[Chart]:
    """All charts (commuting or not) with a free coordinate at ``s = 0``.

    These are the charts whose verbatim bookkeeping has a vanishing
    denominator factor (``fixed_dim()["vanishing_factors"] > 0``): a free
    coordinate whose weight drop is ``D = -e``.  The scan is exhaustive over
    all ``n!`` charts and counts those drops directly, building no row.

    Examples:
        >>> detect_degenerate(2)
        []
        >>> len(detect_degenerate(4))
        2
    """
    _size("n", n, MAX_SCAN_N, "the degeneracy scan")
    return [
        chart
        for chart in all_charts(n)
        if _tangent_counts(chart, *weight_vectors(chart))[1]
    ]
