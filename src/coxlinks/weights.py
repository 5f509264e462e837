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
locus, scales with torus weight ``D - e`` (``torus_rescaling_check``
verifies this for the coordinates).  So, for every kind:

* the coordinate (or equation) is torus-fixed iff ``s = 2e``;
* its verbatim factor ``(1 - Q^sx T^sy)`` vanishes iff ``s = 0``;
* its calibrated factor has the exponent ``2e - s = e - D``, which is zero
  exactly when the coordinate is torus-fixed.

The counts in ``WeightData.fixed_dim`` use the fixed condition ``s = 2e``.
Only under it does the fixed-dimension inequality dimOb0 >= dimT0 hold for
every chart with n <= 7 (verified exhaustively).  Counting ``s = 0``
instead already fails on the explicit degenerate n = 4 chart: its y_{12}
has ``s = 0``, a vanishing *denominator factor*, not a fixed tangent
direction (the chart's family is a torus orbit, not fixed points).  The
vanishing-factor count is reported separately and drives degenerate-chart
detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

from .charts import Chart, _upper_triangle, monomial_vector
from .errors import ConsistencyError, _link_s

IndexPair = Tuple[int, int]
#: ``(kind, i, j, sx, sy)``: a coordinate kind, its pair and its stored exponent.
Row = Tuple[str, int, int, int, int]

#: The unit ``e`` of each coordinate kind (see the module docstring).
UNITS: Dict[str, Tuple[int, int]] = {"x": (1, 0), "y": (0, 1), "obstruction": (1, 1)}


def calibrated_exponent(kind: str, sx: int, sy: int) -> Tuple[int, int]:
    """The calibrated factor exponent ``2e - s``: ``(0, 0)`` iff fixed."""
    ex, ey = UNITS[kind]
    return 2 * ex - sx, 2 * ey - sy


#: ``(kind, sx, sy)`` of a torus-fixed row: ``s = 2e``.
_FIXED = frozenset((kind, 2 * ex, 2 * ey) for kind, (ex, ey) in UNITS.items())


def _unit_counts(rows: List[Row]) -> Tuple[int, int]:
    """``(fixed, vanishing)``: the rows with ``s = 2e`` and with ``s = 0``."""
    fixed = vanishing = 0
    for kind, _, _, sx, sy in rows:
        fixed += (kind, sx, sy) in _FIXED
        vanishing += sx == sy == 0
    return fixed, vanishing


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
        the adjacent pairs of a nonempty ``link_s``.
        """
        tangent = _tangent_exponents(self.chart, self.wx, self.wy)
        dim_t0, vanishing = _unit_counts(tangent)
        dim_ob0, vanishing_obstruction = _unit_counts(_obstruction_exponents(self))
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

    Raises:
        ConsistencyError: if the chart is malformed (from ``monomial_vector``;
            cannot happen for built charts).
    """
    words = monomial_vector(chart)[::-1]
    return (
        tuple(word.count("X") for word in words),
        tuple(word.count("Y") for word in words),
    )


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
    level-``i`` set, the rule of ``Chart.nx``/``ny``.

    Raises:
        ConsistencyError: if the free coordinates do not number n(n-1)/2.
    """
    label = chart.label
    pairs = _upper_triangle(label.n)
    rows = _stored("x", pairs, label.sx, wx, wy) + _stored("y", pairs, label.sy, wx, wy)
    if len(rows) != len(pairs):
        raise ConsistencyError(f"expected {len(pairs)} tangent records, got {len(rows)}")
    return rows


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
    base_count = (n - 1) * (n - 2) // 2
    if len(pairs) != base_count + len(link):
        raise ConsistencyError(
            f"expected {base_count + len(link)} obstruction records, got {len(pairs)}"
        )
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


def fixed_dim_check(chart: Chart) -> dict:
    """Fixed-locus dimension counts of a chart: ``weight_data(chart).fixed_dim()``."""
    return weight_data(chart).fixed_dim()


def torus_rescaling_check(chart: Chart, t: Fraction, s: Fraction) -> bool:
    """Exact check that the weight vectors produce a torus action on the chart.

    Builds a sample point of the chart with distinct rational free
    coordinates, applies the two one-parameter rescalings

        X ↦ t⁻¹ · D X D⁻¹,   Y ↦ s⁻¹ · D Y D⁻¹,   D = diag(t^{w_x^i} s^{w_y^i}),

    and verifies the result is again a point of the chart (pivots 1, zeros
    0) whose free entries scaled exactly by ``t^{Dx-ex} s^{Dy-ey}``, with
    the unit ``e`` of their side.

    Args:
        chart: a built chart.
        t, s: nonzero rationals, the torus parameters.

    Raises:
        ValueError: if t or s is zero.
    """
    if t == 0 or s == 0:
        raise ValueError("torus parameters must be nonzero")
    n = chart.n
    wx, wy = weight_vectors(chart)

    def sample(side_free, pivots):
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, j in pivots:
            m[i - 1][j - 1] = Fraction(1)
        for counter, (i, j) in enumerate(sorted(side_free), start=2):
            m[i - 1][j - 1] = Fraction(counter, counter + 1)
        return m

    nx, ny = chart.nx, chart.ny
    mx = sample(nx, chart.px)
    my = sample(ny, chart.py)
    d = [t ** wx[i] * s ** wy[i] for i in range(n)]

    def rescaled(m, overall):
        return [
            [overall * d[i] / d[j] * m[i][j] for j in range(n)]
            for i in range(n)
        ]

    new_x = rescaled(mx, 1 / t)
    new_y = rescaled(my, 1 / s)
    for matrix, pivots, zeros, free, source, side in (
        (new_x, chart.px, chart.zx, nx, mx, "x"),
        (new_y, chart.py, chart.zy, ny, my, "y"),
    ):
        for i, j in pivots:
            if matrix[i - 1][j - 1] != 1:
                return False
        for i, j in zeros:
            if matrix[i - 1][j - 1] != 0:
                return False
        ex, ey = UNITS[side]
        for i, j in free:
            scale = t ** (wx[i - 1] - wx[j - 1] - ex) * s ** (wy[i - 1] - wy[j - 1] - ey)
            if matrix[i - 1][j - 1] != scale * source[i - 1][j - 1]:
                return False
    return True
