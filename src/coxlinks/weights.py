"""Torus weights of chart coordinates and fixed-locus dimension counts.

The weight ``w_x^i`` (``w_y^i``) is the X-degree (Y-degree) of the monomial
word ``m_{n+1-i}`` that :func:`~coxlinks.charts.monomial_vector` attaches to
flag step ``n + 1 - i``.  So ``w_x^n = w_y^n = 0``, and an x-pivot ``(i, j)``
gives ``w_x^i = w_x^j + 1`` and ``w_y^i = w_y^j``, mirrored for y-pivots;
:func:`~coxlinks.charts.weight_vectors` computes them.

The unit rule.  Each coordinate kind has a unit ``e``: a free x-coordinate
has ``(1, 0)``, a free y-coordinate ``(0, 1)`` and an obstruction pair
(``j - i > 1``, or ``j = i + 1`` with ``i`` in ``link_s``) ``(1, 1)``.  A
pair with weight drop ``D = w^i - w^j`` is recorded with the exponent
``s = D + e``.
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

One coordinate table (``_coordinates``) gives the pairs of each kind, as
``(kind, pairs)``: the free x and free y coordinates, which it takes from
the rule behind the ``free`` lists of ``Chart.to_record``, and the
obstruction pairs.  One walk over it yields each row's weight drop
``D``: ``WeightData.to_record`` adds ``e`` to it, and
``WeightData.calibrated_exponents`` returns ``e - D``, the one view of the
weights that :mod:`coxlinks.localization` reads.

The counts in ``WeightData.fixed_dim`` use the fixed condition ``s = 2e``,
that is ``D = e``, and read it straight off the weight drops, in one
counting loop over the table (:func:`detect_degenerate` runs it too).
Only under this condition does the fixed-dimension inequality
dimOb0 >= dimT0 hold for every chart with n <= 7 (verified exhaustively).
Counting ``s = 0`` instead already fails on the explicit degenerate n = 4
chart: its y_{12} has ``s = 0``, a vanishing *denominator factor*, not a
fixed tangent direction (the chart's family is a torus orbit, not fixed
points).  The vanishing-factor count is reported separately, and
:func:`detect_degenerate` scans all ``n!`` charts for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple

from .charts import MAX_SCAN_N, Chart, IndexPair, _free, all_charts, weight_vectors
from .errors import _link_s, _size

#: A calibrated ``(u, v)`` exponent ``e - D``.
Exponent = Tuple[int, int]
#: ``(kind, pairs)``: one coordinate kind and its index pairs ``(i, j)``, sorted.
Coordinates = Tuple[str, Sequence[IndexPair]]

#: The unit ``e`` of each coordinate kind (see the module docstring).
UNITS: Dict[str, Tuple[int, int]] = {"x": (1, 0), "y": (0, 1), "obstruction": (1, 1)}


def _coordinates(chart: Chart, link: Tuple[int, ...]) -> Tuple[Coordinates, ...]:
    """The coordinate table of a chart: free x, free y, then the obstruction
    pairs, each in sorted pair order."""
    label, n = chart.label, chart.n
    return (
        ("x", _free(label.sx, n)),
        ("y", _free(label.sy, n)),
        ("obstruction", _obstruction_pairs(n, link)),
    )


def _counts(
    table: Sequence[Coordinates], wx: Tuple[int, ...], wy: Tuple[int, ...]
) -> List[Tuple[int, int]]:
    """``(fixed, vanishing)`` for each kind of ``table``, read straight off
    the weight drop ``D = w^i - w^j``: a coordinate is torus-fixed at
    ``D = e`` (``s = 2e``) and its factor vanishes at ``D = -e``
    (``s = 0``).  No row is built."""
    counts = []
    for kind, pairs in table:
        ex, ey = UNITS[kind]
        fixed = vanishing = 0
        for i, j in pairs:
            dx = wx[i - 1] - wx[j - 1]
            dy = wy[i - 1] - wy[j - 1]
            if dx == ex and dy == ey:
                fixed += 1
            elif dx == -ex and dy == -ey:
                vanishing += 1
        counts.append((fixed, vanishing))
    return counts


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

    def _drops(self) -> Iterator[Tuple[str, int, int, int, int]]:
        """``(kind, i, j, Dx, Dy)`` for each row of the coordinate table, with
        its weight drop ``D = w^i - w^j``, in table order."""
        wx, wy = self.wx, self.wy
        for kind, pairs in _coordinates(self.chart, self.link):
            for i, j in pairs:
                yield kind, i, j, wx[i - 1] - wx[j - 1], wy[i - 1] - wy[j - 1]

    def to_record(self) -> dict:
        """The weight vectors and the stored exponents ``s = D + e`` of every row."""
        tangent, obstruction = [], []
        for kind, i, j, dx, dy in self._drops():
            ex, ey = UNITS[kind]
            if kind == "obstruction":
                obstruction.append({"index": [i, j], "ox": dx + ex, "oy": dy + ey})
            else:
                tangent.append({"side": kind, "index": [i, j], "dx": dx + ex, "dy": dy + ey})
        return {"wx": list(self.wx), "wy": list(self.wy),
                "tangent": tangent, "obstruction": obstruction}

    def calibrated_exponents(self) -> Tuple[List[Exponent], List[Exponent]]:
        """The calibrated ``(u, v)`` exponents ``e - D`` of the localization term.

        Returns ``(numerator, denominator)``: one exponent per obstruction
        pair, in sorted pair order, and one per free coordinate, the x side
        first.  An exponent is ``(0, 0)`` exactly when its coordinate (or
        equation) is torus-fixed.
        """
        numerator, denominator = [], []
        for kind, _, _, dx, dy in self._drops():
            ex, ey = UNITS[kind]
            (numerator if kind == "obstruction" else denominator).append((ex - dx, ey - dy))
        return numerator, denominator

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
        (fixed_x, vanishing_x), (fixed_y, vanishing_y), (dim_ob0, vanishing_ob) = _counts(
            _coordinates(self.chart, self.link), self.wx, self.wy
        )
        dim_t0 = fixed_x + fixed_y
        return {
            "dimT0": dim_t0,
            "dimOb0": dim_ob0,
            "inequality": dim_ob0 >= dim_t0,
            "vanishing_factors": vanishing_x + vanishing_y,
            "vanishing_obstruction_factors": vanishing_ob,
        }


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
    found = []
    for chart in all_charts(n):
        free = _coordinates(chart, ())[:2]  # the x and y kinds of the table
        if any(vanishing for _, vanishing in _counts(free, *weight_vectors(chart))):
            found.append(chart)
    return found
